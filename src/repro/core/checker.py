"""Offline trace checker: the post-hoc debugging entry point.

Two engines produce byte-identical reports:

* ``"vector"`` (default) — each assertion evaluates the whole trace at
  once via :meth:`~repro.core.dsl.TraceAssertion.evaluate_offline`: its
  column kernel reads only the channels it needs from the trace's
  columnar view, and episodes are extracted as array operations.  Every
  catalog assertion has a kernel, so a column-backed trace (e.g. one
  decoded from ``.npz``) is checked without building its records; only
  user assertions without a kernel fall back to the per-record loop.
* ``"step"`` — wraps the :class:`~repro.core.monitor.OnlineMonitor`,
  feeding records one by one.  Retained as the differential-testing
  oracle and for parity with live monitoring.

Select explicitly with ``engine=``, or globally with the
``ADASSURE_CHECKER`` environment variable (``vector`` | ``step``).
Equivalence across the full attack x fault x controller grid is enforced
by ``tests/test_checker_equivalence.py``.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from repro.core.catalog import default_catalog
from repro.core.dsl import TraceAssertion
from repro.core.monitor import OnlineMonitor, build_report
from repro.core.verdicts import CheckReport
from repro.trace.schema import Trace

__all__ = ["check_trace"]

_ENGINES = ("vector", "step")


def check_trace(
    trace: Trace,
    assertions: Sequence[TraceAssertion] | None = None,
    *,
    engine: str | None = None,
) -> CheckReport:
    """Evaluate assertions over a recorded trace.

    Args:
        trace: a recorded run (live, or loaded via :mod:`repro.trace.io`).
        assertions: the assertion set (default: the full built-in catalog).
            Instances are reset before use, so a list can be reused across
            calls.
        engine: ``"vector"`` (default) or ``"step"``; ``None`` reads
            ``$ADASSURE_CHECKER`` and falls back to ``"vector"``.  Both
            engines return byte-identical reports.

    Returns:
        A :class:`~repro.core.verdicts.CheckReport` with every violation
        episode and per-assertion summaries.
    """
    if assertions is None:
        assertions = default_catalog()
    if engine is None:
        engine = os.environ.get("ADASSURE_CHECKER", "").strip().lower() or "vector"
    if engine not in _ENGINES:
        raise ValueError(
            f"unknown checker engine {engine!r}; expected one of {_ENGINES}"
        )
    if engine == "step":
        monitor = OnlineMonitor(assertions)
        monitor.feed_all(trace)
        return monitor.finish(trace)
    ids = [a.assertion_id for a in assertions]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate assertion ids: {ids}")
    for assertion in assertions:
        assertion.evaluate_offline(trace)
    return build_report(assertions, trace)


def _bench_main(argv: list[str] | None = None) -> int:
    """Benchmark the offline checker; writes ``BENCH_checker.json``.

    Simulates a small attack x controller campaign, then measures
    re-checking it the old way (gzip'd JSONL payloads + per-step engine)
    against the new way (binary npz payloads + vectorized engine) —
    i.e. the cost of re-scoring a cached campaign after a catalog edit.
    Aborts if the two engines ever disagree.
    """
    import argparse
    import json
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro.core.checker",
        description=_bench_main.__doc__,
    )
    parser.add_argument("--output", default="BENCH_checker.json")
    parser.add_argument("--duration", type=float, default=40.0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    from repro.attacks.campaign import standard_attack
    from repro.experiments.stats import _host_info
    from repro.faults.campaign import standard_fault
    from repro.sim.engine import run_scenario
    from repro.sim.scenario import standard_scenarios
    from repro.trace.io import (
        trace_from_bytes,
        trace_to_jsonl_bytes,
        trace_to_npz_bytes,
    )

    traces = []
    for attack in ("none", "gps_bias", "gps_freeze", "radar_scale"):
        for controller in ("pure_pursuit", "stanley"):
            scenario = standard_scenarios(
                seed=7, duration=args.duration)["s_curve"]
            campaign = (standard_attack(attack, onset=10.0)
                        if attack != "none" else None)
            traces.append(run_scenario(scenario, controller=controller,
                                       campaign=campaign).trace)
    scenario = standard_scenarios(seed=7, duration=args.duration)["s_curve"]
    traces.append(run_scenario(
        scenario, controller="pure_pursuit",
        faults=standard_fault("gps_dropout", onset=10.0)).trace)
    for trace in traces:
        trace.columns()
    steps = sum(len(t) for t in traces)
    print(f"campaign: {len(traces)} runs, {steps} steps")

    for trace in traces:  # drift guard: never publish numbers for a lie
        vec = check_trace(trace, engine="vector")
        step = check_trace(trace, engine="step")
        if vec.summaries != step.summaries or vec.violations != step.violations:
            raise SystemExit("checker engines disagree; refusing to benchmark")

    def best_of(fn) -> float:
        best = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    npz = [trace_to_npz_bytes(t) for t in traces]
    jsonl = [trace_to_jsonl_bytes(t) for t in traces]
    timings = {
        "check_step": best_of(
            lambda: [check_trace(t, engine="step") for t in traces]),
        "check_vector": best_of(
            lambda: [check_trace(t, engine="vector") for t in traces]),
        "load_jsonl_check_step": best_of(
            lambda: [check_trace(trace_from_bytes(b), engine="step")
                     for b in jsonl]),
        "load_npz_check_vector": best_of(
            lambda: [check_trace(trace_from_bytes(b), engine="vector")
                     for b in npz]),
    }
    for label, value in timings.items():
        print(f"{label:<26} {value:8.3f}s")

    npz_bytes = sum(map(len, npz))
    jsonl_bytes = sum(map(len, jsonl))
    payload = {
        "host": _host_info(),
        "campaign": {"runs": len(traces), "steps": steps,
                     "duration_s": args.duration},
        "timings_s": {k: round(v, 4) for k, v in timings.items()},
        "speedups": {
            "vector_vs_step": round(
                timings["check_step"] / timings["check_vector"], 2),
            "cached_campaign_recheck": round(
                timings["load_jsonl_check_step"]
                / timings["load_npz_check_vector"], 2),
        },
        "payload_bytes": {
            "npz": npz_bytes,
            "jsonl_gz": jsonl_bytes,
            "npz_vs_jsonl": round(npz_bytes / jsonl_bytes, 3),
        },
        "engines_agree": True,
    }
    from pathlib import Path

    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_bench_main())
