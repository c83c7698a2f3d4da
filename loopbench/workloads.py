"""The four workloads: inputs, one repetition, and the oracle check.

Each workload object has

* ``setup()`` — builds its inputs from the seed (repeatable; the run
  times several set-ups and reports the median),
* ``prepare()`` — untimed reset before every repetition (cold state),
* ``rep(tracer)`` — one timed repetition; returns the operations it
  completed, records latency samples and program counters, and checks
  its outputs after the timed part,
* ``oracle()`` — the remaining checks, also untimed; returns
  ``(checked, mismatches)`` over the whole run,
* ``close()`` — stops everything the workload started.

All program calls go through module attributes (``runner.run_grid``, not
a from-imported name), so the tracer's patches see them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import os
import random
import shutil
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core import checker, diagnosis
from repro.experiments import counterfactual, runner
from repro.experiments.stats import STATS
from repro.service import client as service_client
from repro.service import server as service_server
from repro.sim import engine as serial_engine
from repro.sim import scenario as scenarios
from repro.sim.batch import controllers as batch_controllers
from repro.sim.batch import noise as batch_noise
from repro.trace import io as trace_io
from repro.attacks import campaign as attack_campaigns

from loopbench.measure import host_steal_s, percentile_metrics

CAMPAIGN_ATTACKS = ("none", "gps_bias", "gps_drift", "imu_gyro_bias",
                    "steer_offset", "compass_offset", "odom_scale",
                    "cmd_delay")
CONTROLLERS = ("pure_pursuit", "stanley", "lqr")


def reset_cold(cache_dir: Path) -> None:
    """What a fresh ``adassure`` process starts from: an empty cache
    directory, an empty run memo, no LQR gains and no noise schedules
    remembered from an earlier repetition."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    os.environ["ADASSURE_CACHE_DIR"] = str(cache_dir)
    runner.clear_cache()
    # Module-level memos with no public reset.
    batch_controllers._SHARED_DARE_GAINS.clear()
    batch_noise._SCHEDULE_CACHE.clear()


def grid_counters(stats) -> Counter:
    """Program counters of one GridStats record, under layer names."""
    return Counter({
        "runner.points_executed": stats.executed,
        "runner.cache_hits": stats.memo_hits + stats.disk_hits,
        "runner.batch_groups": stats.batch_groups,
        "runner.batch_fallbacks": stats.batch_fallbacks,
        "runner.quarantined": len(stats.quarantined),
        "store.memo_hits": stats.memo_hits,
        "store.disk_hits": stats.disk_hits,
        "sim.dare_solves": stats.dare_memo_solves,
        "sim.dare_hits": stats.dare_memo_hits,
    })


def provenance(stats) -> dict:
    """How the program resolved its engine and executor for a grid."""
    return {
        "sim_engine": stats.sim_engine,
        "sim_engine_reason": stats.sim_engine_reason,
        "pool_policy": stats.pool_policy,
        "executor": runner.resolve_executor(),
        "grid_executor": stats.executor,
        "batch_lanes": runner._batch_lanes(),
    }


def same_trace(a, b) -> bool:
    """Every column bit-identical (NaN positions included)."""
    ca, cb = a.columns(), b.columns()
    for name in a.field_names:
        x, y = np.asarray(ca.get(name)), np.asarray(cb.get(name))
        if x.shape != y.shape:
            return False
        if x.dtype.kind == "f":
            if not np.array_equal(x.view(np.int64), y.view(np.int64)):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


class Workload:
    name = ""
    op = ""
    """What one operation is, for the printed summary."""
    busy_cpus = 1
    """CPUs the timed work keeps busy (for the steal correction)."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.latencies: dict[str, list[float]] = {}
        self.counters: Counter = Counter()
        self.provenance: dict = {}
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.stolen = 0.0
        self.checked = 0
        self.mismatches = 0
        """Oracle checks made after each repetition (outside its timed
        part), so what a run keeps does not grow with its length."""

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def check_inputs(self) -> list[str]:
        """Input-shape promises the workload broke (checked after set-up)."""
        return []

    def named_metrics(self, untraced) -> dict:
        """The workload's own metrics, by the names later changes cite:
        ``{name: (value, unit, note)}`` from ``[(ops, seconds), ...]``."""
        return {}

    @contextmanager
    def timed(self, tracer):
        """The timed part of a repetition; under a tracer, the root span
        ``bench.rep`` whose self time is what no layer claims."""
        steal0 = host_steal_s()
        t0 = time.perf_counter()
        if tracer is None:
            yield
        else:
            with tracer.span("bench.rep"):
                yield
        self.elapsed += time.perf_counter() - t0
        self.stolen += host_steal_s() - steal0

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# campaign_cold
# ---------------------------------------------------------------------------

class CampaignCold(Workload):
    """``run_grid`` once, cold, on 2 scenarios x 3 controllers x 8 attacks."""

    name = "campaign_cold"
    op = "grid point"
    SCENARIOS = ("s_curve", "urban_loop")
    DURATION = 20.0
    ONSET = 8.0

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.seeds = (seed,)
        self.grid_size = (len(self.SCENARIOS) * len(CONTROLLERS)
                          * len(CAMPAIGN_ATTACKS) * len(self.seeds))
        self.first_verdicts: list[dict] | None = None
        self.sampled: list = []

    def prepare(self):
        reset_cold(self.work / "cache")

    def rep(self, tracer=None) -> int:
        with self.timed(tracer):
            runs = runner.run_grid(self.SCENARIOS, CONTROLLERS,
                                   CAMPAIGN_ATTACKS, self.seeds,
                                   onset=self.ONSET, duration=self.DURATION)
        stats = STATS.last
        self.counters += grid_counters(stats)
        self.provenance = provenance(stats)
        self.attempted += self.grid_size
        self.failed += self.grid_size - len(runs)
        verdicts = [run.report.to_dict() for run in runs]
        if self.first_verdicts is None:
            self.first_verdicts = verdicts
            self.sampled = [runs[i] for i in self._picks(runs)]
        else:
            self.checked += 1
            self.mismatches += verdicts != self.first_verdicts
        return len(runs)

    def _picks(self, runs) -> list[int]:
        """Three lanes for the serial oracle; one LQR lane always (the
        DARE-memo lane)."""
        rng = random.Random(self.seed)
        lqr = [i for i, run in enumerate(runs) if run.controller == "lqr"]
        picks = {rng.choice(lqr)} if lqr else set()
        while len(picks) < min(3, len(runs)):
            picks.add(rng.randrange(len(runs)))
        return sorted(picks)

    def named_metrics(self, untraced):
        rate = statistics.median(ops / s for ops, s in untraced)
        return {"campaign.points_per_s": (
            rate, "points/s", f" (median of {len(untraced)} cold grids)")}

    def oracle(self):
        """Sampled lanes against the serial engine and the step checker."""
        for run in self.sampled:
            self.checked += 1
            scenario = scenarios.standard_scenarios(
                seed=run.seed, duration=self.DURATION)[run.scenario]
            campaign = attack_campaigns.standard_attack(
                run.attack, intensity=run.intensity, onset=self.ONSET)
            serial = serial_engine.run_scenario(
                scenario, controller=run.controller, campaign=campaign)
            step = checker.check_trace(serial.trace, engine="step")
            if not (same_trace(serial.trace, run.result.trace)
                    and serial.metrics == run.result.metrics
                    and serial.outcome == run.result.outcome
                    and step.to_dict() == run.report.to_dict()):
                self.mismatches += 1
        return self.checked, self.mismatches


# ---------------------------------------------------------------------------
# explain_cold
# ---------------------------------------------------------------------------

def report_projection(report) -> dict:
    """The verdict-bearing fields of a CausalReport, as plain data."""
    def conv(x):
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            return {f.name: conv(getattr(x, f.name))
                    for f in dataclasses.fields(x)}
        if isinstance(x, dict):
            return {k: conv(v) for k, v in sorted(x.items())}
        if isinstance(x, (list, tuple)):
            return [conv(v) for v in x]
        return x
    return {f: conv(getattr(report, f))
            for f in ("fired", "violated", "necessary", "background",
                      "window", "channels", "magnitude", "margin_deltas",
                      "probes", "minimal_verified")}


class ExplainCold(Workload):
    """``explain()`` cold on a fixed pair of violating subjects."""

    name = "explain_cold"
    op = "report"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        # A fixed set of violating subjects: each report then costs the
        # same work on every seed, which only rotates the order in which
        # the subjects are explained.
        subjects = [
            # bench_probes.py's subject: three channels exercise every
            # search axis (window, channels, magnitude, separation gap).
            ("composed", dict(
                scenario="urban_loop", controller="stanley",
                attack="gps_drift+imu_gyro_bias+steer_offset",
                intensity=1.0, seed=11, onset=20.0, duration=60.0,
                resolution=4.0)),
            ("attack_fault", dict(
                scenario="s_curve", controller="pure_pursuit",
                attack="gps_bias", fault="odom_freeze", intensity=1.0,
                seed=11, onset=10.0, duration=30.0, resolution=4.0)),
        ]
        turn = seed % len(subjects)
        self.subjects = dict(subjects[turn:] + subjects[:turn])
        self.first: dict[str, dict] = {}
        """Each subject's first report projection; later ones must equal
        it."""

    def _explain(self, key: str, cache_dir: Path, sim_engine=None,
                 tracer=None):
        reset_cold(cache_dir)
        with self.timed(tracer):
            report = counterfactual.explain(sim_engine=sim_engine,
                                            **self.subjects[key])
        return report, STATS.last

    def rep(self, tracer=None) -> int:
        """Explains every subject, each from its own cold start (the
        resets between subjects stay outside the timed part)."""
        done = 0
        for key in self.subjects:
            self.attempted += 1
            cache_dir = self.work / f"cache-{key}"
            report, stats = self._explain(key, cache_dir, tracer=tracer)
            self.counters += self._counters(report, stats)
            self.provenance = provenance(stats)
            if (report.violated and report.necessary
                    and self._waste_ok(stats, cache_dir)):
                done += 1
            else:
                self.failed += 1
            projection = report_projection(report)
            if key in self.first:
                self.checked += 1
                self.mismatches += projection != self.first[key]
            else:
                self.first[key] = projection
        return done

    def named_metrics(self, untraced):
        per_report = statistics.median(s / len(self.subjects)
                                       for _, s in untraced)
        return {"explain.s_per_report": (
            per_report, "s", f" (median of {len(untraced)} repetitions)")}

    @staticmethod
    def _counters(report, stats) -> Counter:
        counts = grid_counters(stats)
        counts.update({
            "counterfactual.probes": report.probes,
            "counterfactual.lanes_issued": stats.speculative_issued,
            "counterfactual.lanes_wasted": stats.speculative_wasted,
            "counterfactual.batches": stats.batch_groups,
        })
        return counts

    @staticmethod
    def _waste_ok(stats, cache_dir: Path) -> bool:
        """``wasted == issued - consumed``, with ``consumed`` counted from
        the cold cache: every committed probe is a consumed speculative
        lane or a fresh simulation (``executed - issued``)."""
        committed = len(list(cache_dir.glob("v*/params/*/*.params.json")))
        consumed = committed - (stats.executed - stats.speculative_issued)
        return stats.speculative_wasted == stats.speculative_issued - consumed

    def oracle(self):
        checked, mismatches = self.checked, self.mismatches
        # The composed subject's serial explanation costs ~6x its batched
        # one; hold its baseline lane, which the batch engine simulated in
        # the last repetition, to the serial engine instead.
        sub = self.subjects["composed"]
        os.environ["ADASSURE_CACHE_DIR"] = str(self.work / "cache-composed")
        runner.clear_cache()
        subject = counterfactual.Subject(
            scenario=sub["scenario"], controller=sub["controller"],
            seed=sub["seed"], duration=sub["duration"])
        original = counterfactual.Intervention.from_labels(
            sub["attack"], intensity=sub["intensity"], onset=sub["onset"])
        hit = runner.scored_store().resolve(
            counterfactual.probe_params(subject, original))
        checked += 1
        if hit is None:
            mismatches += 1
        else:
            (batched, report), _source = hit
            attack, faults = original.campaigns()
            lane = serial_engine.run_scenario(
                subject.build_scenario(), controller=subject.controller,
                campaign=attack, faults=faults,
                ekf_config=subject.ekf_config())
            step = checker.check_trace(lane.trace, engine="step")
            mismatches += not (same_trace(lane.trace, batched.trace)
                               and step.to_dict() == report.to_dict())
        # The attack+fault subject, explained again on the serial engine.
        serial, _ = self._explain("attack_fault",
                                  self.work / "cache-oracle", "serial")
        checked += 1
        mismatches += (report_projection(serial)
                       != self.first["attack_fault"])
        return checked, mismatches


# ---------------------------------------------------------------------------
# recheck_offline
# ---------------------------------------------------------------------------

class RecheckOffline(Workload):
    """Decode saved ``.npz`` traces, then ``check_trace`` + ``diagnose``."""

    name = "recheck_offline"
    op = "trace"
    CONTROLLERS = ("pure_pursuit", "stanley")
    ATTACKS = ("none", "gps_bias", "gps_drift", "imu_gyro_bias",
               "steer_offset", "gps_freeze")
    DURATION = 40.0
    """40 s = 800 records per trace."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.files: list[Path] = []
        self.stored: list[dict] | None = None

    def setup(self):
        corpus = self.work / "corpus"
        reset_cold(self.work / "cache")
        shutil.rmtree(corpus, ignore_errors=True)
        corpus.mkdir(parents=True)
        runs = runner.run_grid(("urban_loop",), self.CONTROLLERS,
                               self.ATTACKS, (1000 + self.seed,),
                               onset=10.0, duration=self.DURATION)
        self.provenance = provenance(STATS.last)
        self.files = []
        for index, run in enumerate(runs):
            path = corpus / f"{index:03d}.trace.npz"
            trace_io.write_trace_npz(run.result.trace, path)
            top = run.diagnosis.top().cause if run.diagnosis.ranking else None
            (corpus / f"{index:03d}.verdict.json").write_text(json.dumps(
                {"report": run.report.to_dict(), "top_cause": top}))
            self.files.append(path)

    def rep(self, tracer=None) -> int:
        samples = self.latencies.setdefault("trace_ms", [])
        results = []
        with self.timed(tracer):
            for index, path in enumerate(self.files):
                t0 = time.perf_counter()
                if tracer is None:
                    trace = trace_io.trace_from_bytes(path.read_bytes())
                else:
                    with tracer.span("store.disk_read"):
                        data = path.read_bytes()
                    tracer.counts["store.bytes_read"] += len(data)
                    with tracer.span("store.decode"):
                        trace = trace_io.trace_from_bytes(data)
                report = checker.check_trace(trace)
                ranked = diagnosis.diagnose(report)
                samples.append((time.perf_counter() - t0) * 1e3)
                results.append((index, report, ranked))
        if self.stored is None:
            self.stored = [json.loads(p.with_name(p.name.replace(
                ".trace.npz", ".verdict.json")).read_text())
                for p in self.files]
        for index, report, ranked in results:
            top = ranked.top().cause if ranked.ranking else None
            want = self.stored[index]
            self.checked += 1
            self.mismatches += (report.to_dict() != want["report"]
                                or top != want["top_cause"])
        self.attempted += len(self.files)
        return len(self.files)

    def oracle(self):
        """Checked after each pass: every report and top cause against
        the ones stored with the trace."""
        return self.checked, self.mismatches

    def check_inputs(self):
        return [] if self.files else ["empty recheck corpus"]

    def named_metrics(self, untraced):
        rate = statistics.median(ops / s for ops, s in untraced)
        out = {"recheck.traces_per_s": (
            rate, "traces/s", f" (median of {len(untraced)} corpus passes)")}
        out.update(percentile_metrics(
            "recheck.trace_ms", self.latencies["trace_ms"], (50, 90), "ms"))
        return out


# ---------------------------------------------------------------------------
# stream_monitor
# ---------------------------------------------------------------------------

class StreamMonitor(Workload):
    """Closed loop: 2 connections, each streaming one 800-record session
    at a time in 64-record chunks against an in-process server."""

    name = "stream_monitor"
    op = "session"
    CONNECTIONS = 2
    SESSIONS_PER_CONNECTION = 2
    CHUNK_RECORDS = 64
    SHARDS = 2
    DURATION = 40.0
    MIN_RECORDS = 800
    """Long enough that each chunk's whole-session checkpoint re-encode
    (``_checkpoint`` -> ``assemble_bytes``) shows."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        # The event loop and the scoring shards run at once.
        self.busy_cpus = min(os.cpu_count() or 1, 1 + self.SHARDS)
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.sessions = 0
        self.offline: list[dict] | None = None
        self._timed_client()

    def _timed_client(self):
        """Time CHUNK->ACK and FINISH->VERDICT at the client."""
        cls = service_client.TraceStreamClient
        send, finish = cls._send_chunk, cls._finish
        acks = self.latencies.setdefault("ack_ms", [])
        verdicts = self.latencies.setdefault("verdict_ms", [])

        async def timed_send(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return await send(*args, **kwargs)
            finally:
                acks.append((time.perf_counter() - t0) * 1e3)

        async def timed_finish(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return await finish(*args, **kwargs)
            finally:
                verdicts.append((time.perf_counter() - t0) * 1e3)
        self._restore = (cls, send, finish)
        cls._send_chunk, cls._finish = timed_send, timed_finish

    def setup(self):
        self._stop_server()
        reset_cold(self.work / "cache")
        shutil.rmtree(self.work / "sessions", ignore_errors=True)
        runs = runner.run_grid(("urban_loop",), ("pure_pursuit", "stanley"),
                               ("none", "gps_bias", "gps_drift",
                                "steer_offset"), (2000 + self.seed,),
                               onset=8.0, duration=self.DURATION)
        self.provenance = provenance(STATS.last)
        self.traces = [run.result.trace for run in runs]
        self.server = service_server.TraceIngestServer(
            service_server.ServerConfig(
                shards=self.SHARDS, store_dir=str(self.work / "sessions")))
        self.loop.run_until_complete(self.server.start())
        self.server.shards.warm()

    async def _connection(self, conn: int, rep: int, outcomes: list):
        host, port = self.server.config.host, self.server.port
        for j in range(self.SESSIONS_PER_CONNECTION):
            index = (rep * self.CONNECTIONS * self.SESSIONS_PER_CONNECTION
                     + conn * self.SESSIONS_PER_CONNECTION + j)
            trace_ix = index % len(self.traces)
            client = service_client.TraceStreamClient(
                host, port, chunk_records=self.CHUNK_RECORDS)
            outcome = await client.run(self.traces[trace_ix],
                                       session_id=f"bench-{index:06d}")
            outcomes.append((trace_ix, outcome))

    def rep(self, tracer=None) -> int:
        before = self.server.shards.stats()
        outcomes: list = []

        async def drive():
            await asyncio.gather(*[
                self._connection(conn, self.sessions, outcomes)
                for conn in range(self.CONNECTIONS)])
        self.sessions += 1
        with self.timed(tracer):
            self.loop.run_until_complete(drive())
        after = self.server.shards.stats()
        if self.offline is None:
            self.offline = [checker.check_trace(t).to_dict()
                            for t in self.traces]
        records = 0
        for trace_ix, outcome in outcomes:
            self.attempted += 1
            if outcome.verdict is None:
                self.failed += 1
                continue
            records += len(self.traces[trace_ix])
            self.counters["service.busy_retries"] += outcome.busy_retries
            self.checked += 1
            self.mismatches += (
                outcome.verdict.get("report") != self.offline[trace_ix]
                or outcome.verdict.get("n_records")
                != len(self.traces[trace_ix]))
        self.counters["service.shard_respawns"] += (after["respawns"]
                                                    - before["respawns"])
        self.counters["service.scored_inline"] += (after["scored_inline"]
                                                   - before["scored_inline"])
        return records

    def oracle(self):
        """Checked after each round: every verdict against offline
        ``check_trace`` on the same trace."""
        return self.checked, self.mismatches

    def named_metrics(self, untraced):
        rate = statistics.median(ops / s for ops, s in untraced)
        out = {"stream.records_per_s": (
            rate, "records/s", f" (median of {len(untraced)} rounds)")}
        out.update(percentile_metrics(
            "stream.ack_ms", self.latencies["ack_ms"], (50, 99), "ms"))
        out.update(percentile_metrics(
            "stream.verdict_ms", self.latencies["verdict_ms"], (50, 90),
            "ms"))
        return out

    def check_inputs(self):
        short = [len(t) for t in self.traces if len(t) < self.MIN_RECORDS]
        return ([f"sessions shorter than {self.MIN_RECORDS} records: {short}"]
                if short else [])

    def _stop_server(self):
        if self.server is not None:
            self.loop.run_until_complete(self.server.stop())
            self.server = None
        for child in multiprocessing.active_children():
            child.join(timeout=10.0)
            if child.is_alive():
                child.kill()
                child.join(timeout=10.0)

    def close(self):
        try:
            self._stop_server()
        finally:
            cls, send, finish = self._restore
            cls._send_chunk, cls._finish = send, finish
            self.loop.close()


WORKLOADS = {cls.name: cls for cls in
             (CampaignCold, ExplainCold, RecheckOffline, StreamMonitor)}
