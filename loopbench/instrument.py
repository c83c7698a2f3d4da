"""Which entry point is traced under which span name, and the per-layer
metrics derived from the spans.

Layers are the repository's modules: ``runner`` (experiments.runner /
backend), ``sim`` (sim.batch, sim.engine), ``check`` (core.checker, dsl,
monitor, catalog), ``diagnose`` (core.diagnosis), ``store``
(experiments.cache, trace.io), ``counterfactual`` (experiments.
counterfactual / plan), ``service`` (repro.service) and ``client`` (the
load generator's encoding).  ``bench.rep`` is the benchmark's own root
span around one repetition; its self time is the time no layer claims.
"""

from __future__ import annotations

from pathlib import Path

from loopbench.tracing import Tracer

LAYERS = ("runner", "sim", "check", "diagnose", "store", "counterfactual",
          "service", "client")

ASSERTION_IDS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9G",
                 "A9S", "A9C", "A10", "A11", "A12", "A13", "A14", "A15",
                 "A16", "A17", "A18", "A19", "A20", "A21", "A22")
"""The default catalog; a mismatch with the program is reported as an
error, not silently dropped."""


def _count(key: str, amount=1):
    def hook(tracer, args, result):
        tracer.counts[key] += amount(args, result) if callable(amount) else amount
    return hook


def _lanes_done(tracer, args, result):
    tracer.counts["sim.batch_calls"] += 1
    tracer.counts["sim.batch_lanes"] += len(result)
    tracer.counts["sim.lane_steps"] += sum(len(r.trace) for r in result)


def _serial_done(tracer, args, result):
    tracer.counts["sim.serial_lanes"] += 1
    tracer.counts["sim.lane_steps"] += len(result.trace)


def _cache_load_done(tracer, args, result):
    if result is None:
        return
    cache, key = args[0], args[1]
    for path in (cache._trace_path(key), cache._scored_path(key)):
        try:
            tracer.counts["store.bytes_read"] += path.stat().st_size
        except OSError:
            pass


def install(tracer: Tracer) -> None:
    """Patch every traced entry point (undo with ``tracer.unpatch()``)."""
    from repro.core import checker, diagnosis, dsl, monitor
    from repro.core.catalog import default_catalog
    from repro.experiments import cache, counterfactual, runner
    from repro.service import client, session, shards, store
    from repro.sim import engine as serial_engine
    from repro.sim.batch import controllers, dynamics, ekf, noise, route
    from repro.sim.batch import engine as batch_engine
    from repro.trace import metrics, schema

    # runner
    tracer.patch_function(runner.run_grid, "runner.run_grid")

    # sim: whole lanes, then the lockstep loop's parts
    tracer.patch_function(batch_engine.run_batch, "sim.run_batch",
                          on_result=_lanes_done)
    tracer.patch_method(serial_engine.SimulationRunner, "run", "sim.serial",
                        on_result=_serial_done)
    for attr in ("apply_control", "step"):
        tracer.patch_method(dynamics.BatchVehicle, attr, "sim.dynamics")
    for attr in ("predict", "update_gps", "update_speed", "update_compass"):
        tracer.patch_method(ekf.BatchEkf, attr, "sim.ekf")
    tracer.patch_method(controllers.BatchFollower, "decide", "sim.control")
    for attr in ("project", "sample"):
        tracer.patch_method(route.BatchRoute, attr, "sim.route")
    tracer.patch_function(noise.build_lane_tapes, "sim.noise")
    tracer.patch_function(batch_engine._apply_channel, "sim.inject",
                          modules=[batch_engine])
    # Trace building counts as sim only when the simulator does it (the
    # trace decoder builds traces from columns too).
    tracer.patch_method(schema.Trace, "from_columns", "sim.trace_build",
                        within="sim")
    tracer.patch_function(metrics.compute_metrics, "sim.trace_build",
                          within="sim")

    # check
    tracer.patch_function(checker.check_trace, "check.check_trace",
                          on_result=_count("check.traces"))
    tracer.patch_method(
        dsl.TraceAssertion, "evaluate_offline",
        lambda args: "check.assert." + args[0].assertion_id)
    kinds = tracer.counts  # margin_array result: array kernel or fallback

    def kernel_hook(tracer_, args, result):
        kinds["check.kind." + args[0].assertion_id + (
            ".vector" if result is not None else ".sequential")] += 1
    # Patch each distinct implementation once, where it is defined, so an
    # inherited one is not wrapped twice.
    owners = {dsl.TraceAssertion}
    for cls in {type(a) for a in default_catalog()}:
        owners.update(k for k in cls.__mro__ if "margin_array" in vars(k))
    for cls in owners:
        tracer.patch_method(cls, "margin_array", "check.margin",
                            on_result=kernel_hook)
    tracer.patch_function(monitor.build_report, "check.report")
    materialized = schema.Trace._materialized

    def counting_materialized(self):
        fresh = self._records is None
        records = materialized(self)
        if fresh and tracer.current_layer() == "check":
            tracer.counts["check.records_materialized"] += len(records)
        return records
    tracer.patch_attr(schema.Trace, "_materialized", counting_materialized)

    # diagnose
    tracer.patch_function(diagnosis.diagnose, "diagnose.diagnose")

    # store: the run cache's encode / decode / disk halves
    from repro.trace import io as trace_io
    tracer.patch_function(trace_io.trace_to_npz_bytes, "store.encode",
                          modules=[cache])
    tracer.patch_function(trace_io.trace_from_bytes, "store.decode",
                          modules=[cache])
    tracer.patch_method(
        cache.RunCache, "_atomic_write", "store.disk_write",
        on_result=_count("store.bytes_written",
                         lambda args, result: len(args[2])))
    tracer.patch_method(cache.RunCache, "load", "store.disk_read",
                        on_result=_cache_load_done)

    # counterfactual
    tracer.patch_function(counterfactual.explain, "counterfactual.explain")
    tracer.patch_method(counterfactual.ProbeEngine, "prefetch",
                        "counterfactual.prefetch")
    tracer.patch_method(counterfactual.ProbeEngine, "outcome",
                        "counterfactual.outcome")

    # service (server side) and the load generator's encoder
    tracer.patch_function(
        session.records_from_chunk, "service.decode", modules=[session],
        on_result=_count("service.records",
                         lambda args, result: len(result[1])))
    tracer.patch_method(session.SessionState, "apply_chunk",
                        "service.monitor", on_result=_count("service.chunks"))
    tracer.patch_method(session.SessionState, "assemble_bytes",
                        "service.assemble")
    tracer.patch_method(store.SessionStore, "save", "service.checkpoint")
    tracer.patch_method(shards.ShardPool, "score", "service.score")
    tracer.patch_function(session.chunk_to_bytes, "client.encode",
                          modules=[client])


def layer_metrics(summary: dict, counts, reps: int, wall_s: float) -> dict:
    """Per-layer metrics per traced repetition, from ``tracing.summarize``.

    Values are means per repetition, so runs of different length compare.
    ``counts`` carries both tracer counters and program counters the
    workload read (``runner.*``, ``store.*_hits``, ``counterfactual.*``,
    ``service.*``, ``sim.dare_*``).
    """
    busy, own, wait = summary["busy"], summary["self"], summary["wait"]
    layer_self = summary["layer_self"]
    per = 1.0 / reps

    def names_busy(*names):
        return sum(busy.get(n, 0.0) for n in names) * per

    def c(key):
        return counts.get(key, 0) * per

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = layer_self.get(layer, 0.0) * per
    # runner
    for key in ("points_executed", "cache_hits", "batch_groups",
                "batch_fallbacks", "quarantined"):
        out["runner." + key] = c("runner." + key)
    # sim
    sim_busy = summary["layer_busy"].get("sim", 0.0) * per
    lanes = c("sim.batch_lanes") + c("sim.serial_lanes")
    steps = c("sim.lane_steps")
    out["sim.busy_s"] = sim_busy
    out["sim.loop.self_s"] = (own.get("sim.run_batch", 0.0)
                              + own.get("sim.serial", 0.0)) * per
    out["sim.lanes"] = lanes
    out["sim.lane_steps"] = steps
    out["sim.us_per_lane_step"] = sim_busy / steps * 1e6 if steps else 0.0
    out["sim.mean_group_lanes"] = (
        counts.get("sim.batch_lanes", 0) / counts["sim.batch_calls"]
        if counts.get("sim.batch_calls") else 0.0)
    out["sim.serial_lanes"] = c("sim.serial_lanes")
    out["sim.dare_solves"] = c("sim.dare_solves")
    out["sim.dare_hits"] = c("sim.dare_hits")
    for part in ("dynamics", "ekf", "control", "route", "noise", "inject",
                 "trace_build"):
        out[f"sim.{part}.busy_s"] = names_busy("sim." + part)
    # check
    traces = counts.get("check.traces", 0)
    check_busy = summary["layer_busy"].get("check", 0.0) * per
    out["check.busy_s"] = check_busy
    out["check.traces"] = c("check.traces")
    out["check.ms_per_trace"] = (
        summary["layer_busy"].get("check", 0.0) / traces * 1e3
        if traces else 0.0)
    vector = sequential = 0.0
    for aid in ASSERTION_IDS:
        seconds = names_busy("check.assert." + aid)
        out[f"check.assert.{aid}.busy_s"] = seconds
        if counts.get(f"check.kind.{aid}.sequential"):
            sequential += seconds
        else:
            vector += seconds
    out["check.vector.busy_s"] = vector
    out["check.sequential.busy_s"] = sequential
    out["check.report.busy_s"] = names_busy("check.report")
    out["check.records_materialized"] = c("check.records_materialized")
    # diagnose
    calls = summary["calls"].get("diagnose.diagnose", 0)
    out["diagnose.busy_s"] = names_busy("diagnose.diagnose")
    out["diagnose.calls"] = calls * per
    out["diagnose.us_per_call"] = (
        busy.get("diagnose.diagnose", 0.0) / calls * 1e6 if calls else 0.0)
    # store: busy for codec spans, self for disk spans (a cache load's
    # decode is its child and counts as decode)
    out["store.encode.busy_s"] = names_busy("store.encode")
    out["store.disk_write.busy_s"] = names_busy("store.disk_write")
    out["store.bytes_written"] = c("store.bytes_written")
    out["store.decode.busy_s"] = names_busy("store.decode")
    out["store.disk_read.busy_s"] = own.get("store.disk_read", 0.0) * per
    out["store.bytes_read"] = c("store.bytes_read")
    out["store.memo_hits"] = c("store.memo_hits")
    out["store.disk_hits"] = c("store.disk_hits")
    # counterfactual
    issued = counts.get("counterfactual.lanes_issued", 0)
    wasted = counts.get("counterfactual.lanes_wasted", 0)
    out["counterfactual.prefetch.busy_s"] = names_busy(
        "counterfactual.prefetch")
    out["counterfactual.outcome.busy_s"] = names_busy(
        "counterfactual.outcome")
    out["counterfactual.search.self_s"] = own.get(
        "counterfactual.explain", 0.0) * per
    out["counterfactual.probes"] = c("counterfactual.probes")
    out["counterfactual.lanes_issued"] = issued * per
    out["counterfactual.lanes_wasted"] = wasted * per
    out["counterfactual.useful_ratio"] = (
        (issued - wasted) / issued if issued else 0.0)
    out["counterfactual.batches"] = c("counterfactual.batches")
    # service
    out["service.decode.busy_s"] = names_busy("service.decode")
    out["service.monitor.busy_s"] = own.get("service.monitor", 0.0) * per
    out["service.assemble.busy_s"] = names_busy("service.assemble")
    out["service.checkpoint.busy_s"] = names_busy("service.checkpoint")
    out["service.score.wait_s"] = wait.get("service.score", 0.0) * per
    for key in ("chunks", "records", "busy_retries", "shard_respawns",
                "scored_inline"):
        out["service." + key] = c("service." + key)
    out["client.encode.busy_s"] = names_busy("client.encode")
    # accounting: every second of a repetition is some span's self time;
    # what no layer claims is the root span's own time
    attributed = sum(layer_self.get(layer, 0.0) for layer in LAYERS) * per
    remainder = own.get("bench.rep", 0.0) * per
    out["account.wall_s"] = wall_s * per
    out["account.attributed_s"] = attributed
    out["account.remainder_s"] = remainder
    out["service.unattributed_s"] = (remainder if c("service.chunks")
                                     else 0.0)
    return out


def accounting_error(summary: dict, wall_s: float) -> float:
    """|wall - sum of all synchronous self times| over wall.

    Every synchronous span's self time, the root's included, must add up
    to the repetitions' wall time; a gap means overlapping or lost spans.
    """
    total = sum(summary["layer_self"].values())
    return abs(wall_s - total) / wall_s if wall_s > 0 else 0.0


def write_spans(tracer: Tracer, out_dir: Path, workload: str,
                seed: int) -> Path:
    path = out_dir / f"spans-{workload}-seed{seed}.npz"
    tracer.write(path)
    return path
