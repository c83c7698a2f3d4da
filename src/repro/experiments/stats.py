"""Campaign instrumentation: phase timings, cache accounting, utilization.

The grid runner reports one :class:`GridStats` per :func:`~repro.experiments.runner.run_grid`
call; the module-level :class:`StatsCollector` accumulates them across an
entire CLI invocation so ``adassure experiment all --stats`` can print a
single campaign summary and dump it machine-readably (``BENCH_runner.json``).

Phases are the three stages every grid point goes through:

* ``simulate`` — the closed-loop run (dominates; this is what the cache
  and the worker pool exist to amortize),
* ``check``    — assertion catalog over the trace,
* ``diagnose`` — root-cause ranking from the report.

Phase times are summed across workers, so on an N-worker pool the busy
time can exceed the wall time; ``worker_utilization`` is busy/(wall × N).

Run ``python -m repro.experiments.stats`` to benchmark the runner itself
(cold serial vs. cold parallel vs. warm cache on the E1 grid) and write
``BENCH_runner.json``.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["PHASES", "GridStats", "StatsCollector", "STATS"]

PHASES = ("simulate", "check", "diagnose")


@dataclass(slots=True)
class GridStats:
    """Everything one ``run_grid`` call measured about itself."""

    grid_points: int = 0
    executed: int = 0
    """Points actually simulated (grid_points - all cache hits)."""
    memo_hits: int = 0
    disk_hits: int = 0
    disk_errors: int = 0
    retries: int = 0
    """Point re-executions after a failure or timeout."""
    timeouts: int = 0
    """Points whose pool execution exceeded the wall-clock budget."""
    pool_failures: int = 0
    """Worker-pool collapses (``BrokenProcessPool``) recovered serially."""
    quarantined: list = field(default_factory=list)
    """Runs that kept failing after every retry: ``(RunSpec, error)``."""
    workers: int = 1
    chunk_size: int = 1
    """Points batched per pool task (1 = unchunked / serial)."""
    sim_engine: str = "serial"
    """Simulation engine the uncached points went through."""
    batch_groups: int = 0
    """Compatible groups stepped in lockstep by the batch engine."""
    batch_points: int = 0
    """Points simulated inside those batched groups."""
    batch_fallbacks: int = 0
    """Groups the batch engine rejected back to the serial/pool path."""
    sim_engine_reason: str = ""
    """Why that engine was chosen: explicit, env, or the auto heuristic."""
    speculative_issued: int = 0
    """Probe lanes simulated ahead of need by speculative prefetch."""
    speculative_wasted: int = 0
    """Speculative lanes the search never consumed (issued - used)."""
    dare_memo_hits: int = 0
    """Cross-call LQR DARE gain lookups served from the module memo."""
    dare_memo_solves: int = 0
    """DARE solves the module memo could not avoid."""
    pool_policy: str = "serial"
    """How the classic executor ran: pool, serial, serial-single-core,
    distributed."""
    executor: str = "local"
    """Executor chain that ran the misses: local or distributed."""
    dist_workers: int = 0
    """Worker processes spawned by the distributed executor."""
    dist_points: int = 0
    """Points executed by distributed workers and adopted from the
    shared result store (not re-executed locally)."""
    shards_total: int = 0
    """Lease-claimable shards the grid was striped into."""
    shards_claimed: int = 0
    """Shard claims across the whole fleet (>= shards_total when shards
    were reclaimed after a worker death)."""
    shards_reclaimed: int = 0
    """Shards re-claimed after their previous owner's lease went stale."""
    heartbeats: int = 0
    """Lease heartbeat renewals sent by distributed workers."""
    lease_conflicts: int = 0
    """Checkpoint manifests that went read-only because another live
    campaign holds the grid's lease (the work still ran; only the
    shared ledger was left to its owner)."""
    wall_time: float = 0.0
    phase_time: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    """Per-phase busy seconds, summed over workers."""

    @property
    def busy_time(self) -> float:
        return sum(self.phase_time.values())

    @property
    def worker_utilization(self) -> float:
        """Fraction of the pool's wall-clock capacity spent computing."""
        if self.wall_time <= 0.0 or self.workers <= 0:
            return 0.0
        return min(self.busy_time / (self.wall_time * self.workers), 1.0)

    @property
    def cache_hit_rate(self) -> float:
        if self.grid_points == 0:
            return 0.0
        return (self.memo_hits + self.disk_hits) / self.grid_points

    def merge(self, other: "GridStats") -> None:
        self.grid_points += other.grid_points
        self.executed += other.executed
        self.memo_hits += other.memo_hits
        self.disk_hits += other.disk_hits
        self.disk_errors += other.disk_errors
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.pool_failures += other.pool_failures
        self.quarantined.extend(other.quarantined)
        self.workers = max(self.workers, other.workers)
        self.chunk_size = max(self.chunk_size, other.chunk_size)
        if other.sim_engine != "serial":
            self.sim_engine = other.sim_engine
        self.batch_groups += other.batch_groups
        self.batch_points += other.batch_points
        self.batch_fallbacks += other.batch_fallbacks
        if other.sim_engine_reason:
            self.sim_engine_reason = other.sim_engine_reason
        self.speculative_issued += other.speculative_issued
        self.speculative_wasted += other.speculative_wasted
        self.dare_memo_hits += other.dare_memo_hits
        self.dare_memo_solves += other.dare_memo_solves
        if other.pool_policy != "serial":
            self.pool_policy = other.pool_policy
        if other.executor != "local":
            self.executor = other.executor
        self.dist_workers = max(self.dist_workers, other.dist_workers)
        self.dist_points += other.dist_points
        self.shards_total += other.shards_total
        self.shards_claimed += other.shards_claimed
        self.shards_reclaimed += other.shards_reclaimed
        self.heartbeats += other.heartbeats
        self.lease_conflicts += other.lease_conflicts
        self.wall_time += other.wall_time
        for phase in PHASES:
            self.phase_time[phase] += other.phase_time.get(phase, 0.0)

    def as_dict(self) -> dict:
        return {
            "grid_points": self.grid_points,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "disk_errors": self.disk_errors,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_failures": self.pool_failures,
            "quarantined": [
                {"spec": spec.to_dict(), "error": error}
                for spec, error in self.quarantined
            ],
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "sim_engine": self.sim_engine,
            "batch_groups": self.batch_groups,
            "batch_points": self.batch_points,
            "batch_fallbacks": self.batch_fallbacks,
            "sim_engine_reason": self.sim_engine_reason,
            "speculative_issued": self.speculative_issued,
            "speculative_wasted": self.speculative_wasted,
            "dare_memo_hits": self.dare_memo_hits,
            "dare_memo_solves": self.dare_memo_solves,
            "pool_policy": self.pool_policy,
            "executor": self.executor,
            "dist_workers": self.dist_workers,
            "dist_points": self.dist_points,
            "shards_total": self.shards_total,
            "shards_claimed": self.shards_claimed,
            "shards_reclaimed": self.shards_reclaimed,
            "heartbeats": self.heartbeats,
            "lease_conflicts": self.lease_conflicts,
            "wall_time_s": round(self.wall_time, 4),
            "busy_time_s": round(self.busy_time, 4),
            "worker_utilization": round(self.worker_utilization, 4),
            "phase_time_s": {p: round(t, 4)
                             for p, t in self.phase_time.items()},
        }

    def render(self, title: str = "grid runner stats") -> str:
        lines = [
            f"-- {title} --",
            f"grid points : {self.grid_points}  "
            f"(executed {self.executed}, memo hits {self.memo_hits}, "
            f"disk hits {self.disk_hits}, disk errors {self.disk_errors})",
            f"cache hit   : {100.0 * self.cache_hit_rate:.1f}%",
            f"workers     : {self.workers}  "
            f"(chunk {self.chunk_size})  "
            f"utilization {100.0 * self.worker_utilization:.1f}%",
            f"engine      : {self.sim_engine}  "
            f"(pool policy {self.pool_policy}"
            + (f"; {self.sim_engine_reason}" if self.sim_engine_reason
               else "") + ")",
            f"wall time   : {self.wall_time:.2f}s  "
            f"(busy {self.busy_time:.2f}s)",
        ]
        for phase in PHASES:
            lines.append(f"  {phase:<9}: {self.phase_time[phase]:.2f}s")
        if self.batch_groups or self.batch_fallbacks:
            lines.append(
                f"batched     : {self.batch_points} point(s) in "
                f"{self.batch_groups} group(s), "
                f"{self.batch_fallbacks} fallback(s)"
            )
        if self.speculative_issued or self.speculative_wasted:
            lines.append(
                f"speculative : {self.speculative_issued} lane(s) issued, "
                f"{self.speculative_wasted} wasted"
            )
        if self.dare_memo_hits or self.dare_memo_solves:
            lines.append(
                f"dare memo   : {self.dare_memo_hits} hit(s), "
                f"{self.dare_memo_solves} solve(s)"
            )
        if self.executor == "distributed" or self.shards_total:
            lines.append(
                f"distributed : {self.dist_points} point(s) adopted from "
                f"{self.dist_workers} worker(s); "
                f"{self.shards_claimed} claim(s) over "
                f"{self.shards_total} shard(s), "
                f"{self.shards_reclaimed} reclaimed, "
                f"{self.heartbeats} heartbeat(s)"
            )
        if self.retries or self.timeouts or self.pool_failures:
            lines.append(
                f"recovered   : {self.retries} retrie(s), "
                f"{self.timeouts} timeout(s), "
                f"{self.pool_failures} pool failure(s)"
            )
        if self.lease_conflicts:
            lines.append(
                f"lease       : {self.lease_conflicts} manifest(s) "
                "read-only (another live campaign owns the ledger)"
            )
        if self.quarantined:
            lines.append(f"quarantined : {len(self.quarantined)} point(s)")
            for spec, error in self.quarantined:
                lines.append(f"  {spec.scenario}/{spec.controller}/"
                             f"{spec.attack}/seed {spec.seed}: {error}")
        return "\n".join(lines)


class StatsCollector:
    """Accumulates :class:`GridStats` across many ``run_grid`` calls."""

    def __init__(self) -> None:
        self.total = GridStats()
        self.grids = 0
        self.last: GridStats | None = None

    def record(self, stats: GridStats) -> None:
        self.total.merge(stats)
        self.grids += 1
        self.last = stats

    def reset(self) -> None:
        self.__init__()

    def as_dict(self) -> dict:
        return {"grids": self.grids, **self.total.as_dict()}

    def render(self) -> str:
        return self.total.render(
            title=f"campaign stats ({self.grids} grid call(s))"
        )

    def write_json(self, path: str | Path, extra: dict | None = None) -> Path:
        path = Path(path)
        payload = {"host": _host_info(), "campaign": self.as_dict()}
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
        return path


STATS = StatsCollector()
"""Process-wide collector the runner reports into."""


def _host_info() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _bench_main(argv: list[str] | None = None) -> int:
    """Benchmark the grid runner; writes ``BENCH_runner.json``.

    Measures the E1 detection-matrix grid (quick config) four ways:
    cold serial, cold ``workers=4``, warm disk cache (fresh process
    memo), and warm in-process memo.
    """
    import argparse
    import tempfile
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.stats",
        description=_bench_main.__doc__,
    )
    parser.add_argument("--output", default="BENCH_runner.json")
    parser.add_argument("--workers", type=int, default=4,
                        help="parallel worker count to benchmark (default 4)")
    parser.add_argument("--no-campaign", action="store_true",
                        help="skip the cold/warm `experiment all --quick` "
                             "measurement (~2 min)")
    args = parser.parse_args(argv)

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import clear_cache, run_grid

    config = ExperimentConfig.quick()
    grid = dict(
        scenarios=(config.scenario,),
        controllers=("pure_pursuit",),
        attacks=("none",) + tuple(config.attacks),
        seeds=(1, 7),
        onset=config.attack_onset,
        duration=config.duration,
    )

    timings: dict[str, float] = {}
    old_dir = os.environ.get("ADASSURE_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="adassure-bench-") as tmp:
        os.environ["ADASSURE_CACHE_DIR"] = tmp
        try:
            def measure(label: str, workers: int,
                        clear: str | None = "all") -> None:
                if clear == "all":
                    clear_cache(disk=True)
                elif clear == "memo":
                    clear_cache(disk=False)
                t0 = time.perf_counter()
                run_grid(workers=workers, **grid)
                timings[label] = time.perf_counter() - t0
                print(f"{label:<22} {timings[label]:8.2f}s")

            measure("cold_serial", 1, clear="all")
            measure("cold_parallel", args.workers, clear="all")
            # Disk layer is warm from the parallel pass; drop only the memo.
            measure("warm_disk", 1, clear="memo")
            measure("warm_memo", 1, clear=None)

            if not args.no_campaign:
                # End-to-end: the full quick campaign, cold then warm disk.
                import contextlib
                import io as _io

                from repro.cli import main as cli_main

                def campaign(label: str, clear: str) -> None:
                    clear_cache(disk=(clear == "all"))
                    t0 = time.perf_counter()
                    with contextlib.redirect_stdout(_io.StringIO()):
                        cli_main(["experiment", "all", "--quick"])
                    timings[label] = time.perf_counter() - t0
                    print(f"{label:<22} {timings[label]:8.2f}s")

                campaign("campaign_cold", clear="all")
                campaign("campaign_warm_disk", clear="memo")
        finally:
            if old_dir is None:
                os.environ.pop("ADASSURE_CACHE_DIR", None)
            else:
                os.environ["ADASSURE_CACHE_DIR"] = old_dir

    grid_size = (len(grid["scenarios"]) * len(grid["controllers"])
                 * len(grid["attacks"]) * len(grid["seeds"]))
    out = Path(args.output)
    payload = {
        "host": _host_info(),
        "grid": {k: list(v) if isinstance(v, tuple) else v
                 for k, v in grid.items()} | {"points": grid_size},
        "parallel_workers": args.workers,
        "chunk_size": STATS.total.chunk_size,
        "timings_s": {k: round(v, 4) for k, v in timings.items()},
        "speedups": {
            "parallel_vs_serial_cold": round(
                timings["cold_serial"] / timings["cold_parallel"], 2),
            "warm_disk_vs_cold": round(
                timings["cold_serial"] / timings["warm_disk"], 2),
            "warm_memo_vs_cold": round(
                timings["cold_serial"] / max(timings["warm_memo"], 1e-9), 2),
        },
    }
    if "campaign_cold" in timings:
        payload["speedups"]["campaign_warm_vs_cold"] = round(
            timings["campaign_cold"] / timings["campaign_warm_disk"], 2)
    if (os.cpu_count() or 1) < 2:
        payload["note"] = (
            "host exposes a single CPU: the parallel pass measures pool "
            "overhead only; parallel_vs_serial_cold needs >= 2 cores to "
            "exceed 1.0"
        )
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_bench_main())
