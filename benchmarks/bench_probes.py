"""Bench — round-batched counterfactual probing vs. the serial oracle.

As a pytest-benchmark (``pytest benchmarks/bench_probes.py
--benchmark-only``) this times one small speculative prefetch round-trip
through the lockstep batch engine and asserts the accounting invariants
(every probe memo-served, ``speculative_wasted == issued - consumed``).

As a script it produces the committed artifact::

    PYTHONPATH=src python benchmarks/bench_probes.py

writing ``BENCH_probes.json`` with cold ``adassure explain`` wall times
(serial oracle vs. round-batched) and the combined E10-E13 planner sweep
(serial vs. batch-drained), plus the probe-batching counters.  Both
passes must be bit-identical to their serial oracle — the same contract
``tests/test_probe_batching.py`` enforces in CI on the quick config.
"""

import dataclasses
import os
import tempfile

# The explain subject: a three-channel composed attack on the urban loop
# under the stanley tracker.  Three channels exercise every search axis
# (window ddmin, channel ablation, magnitude bisection, separation-gap
# hypotheses), and the 10-cell window grid keeps the reachable interval
# tree inside the round-zero speculative fleet.
EXPLAIN_SUBJECT = dict(
    scenario="urban_loop", controller="stanley",
    attack="gps_drift+imu_gyro_bias+steer_offset", intensity=1.0,
    seed=11, onset=20.0, duration=60.0, resolution=4.0,
)

def _report_summary(report):
    """Engine-comparable projection of a CausalReport.

    Field-wise (not object identity): the serial and batch passes run in
    separate cache sandboxes, and what must match is every verdict-
    bearing value, bit for bit.
    """
    def conv(x):
        if x is None:
            return None
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            return {f.name: conv(getattr(x, f.name))
                    for f in dataclasses.fields(x)}
        if isinstance(x, dict):
            return {k: conv(v) for k, v in sorted(x.items())}
        if isinstance(x, (list, tuple)):
            return [conv(v) for v in x]
        return x

    return {
        f: conv(getattr(report, f))
        for f in ("fired", "violated", "necessary", "background", "window",
                  "channels", "magnitude", "margin_deltas", "probes",
                  "minimal_verified")
    }


def _counters(stats):
    return {
        "executed": stats.executed,
        "memo_hits": stats.memo_hits,
        "disk_hits": stats.disk_hits,
        "batch_groups": stats.batch_groups,
        "batch_points": stats.batch_points,
        "batch_fallbacks": stats.batch_fallbacks,
        "speculative_issued": stats.speculative_issued,
        "speculative_wasted": stats.speculative_wasted,
        "grid_points": stats.grid_points,
        "dare_memo_hits": stats.dare_memo_hits,
        "dare_memo_solves": stats.dare_memo_solves,
    }


def test_probe_prefetch_small(benchmark, tmp_path, monkeypatch):
    """One speculative prefetch round-trip on a small subject."""
    monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("ADASSURE_CACHE", raising=False)
    from repro.experiments.counterfactual import (
        Intervention,
        ProbeEngine,
        Subject,
    )

    subject = Subject(scenario="straight", controller="pure_pursuit",
                      seed=7, duration=8.0)
    original = Intervention(attacks=("gps_bias",), intensity=1.0,
                            onset=2.0, end=6.0)
    fleet = [original.with_intensity(v) for v in (0.5, 0.75, 1.0)]

    def round_trip():
        engine = ProbeEngine(subject, sim_engine="batch")
        issued = engine.prefetch(fleet)
        outcomes = [engine.outcome(iv) for iv in fleet[:2]]
        return engine, issued, outcomes

    engine, issued, outcomes = benchmark.pedantic(
        round_trip, rounds=1, iterations=1)
    assert issued == len(fleet)
    assert all(o.source == "memo" for o in outcomes)
    assert engine.stats.speculative_wasted == issued - len(outcomes)
    assert engine.stats.memo_hits == len(outcomes)


def _measure_explain(sim_engine):
    import importlib
    import sys
    import time

    with tempfile.TemporaryDirectory(prefix="adassure-bench-probes-") as tmp:
        os.environ["ADASSURE_CACHE_DIR"] = tmp
        os.environ["ADASSURE_SIM"] = sim_engine
        # A cold pass: fresh cache directory, fresh in-process stores.
        for mod in [m for m in sys.modules if m.startswith("repro")]:
            del sys.modules[mod]
        counterfactual = importlib.import_module(
            "repro.experiments.counterfactual")
        stats_mod = importlib.import_module("repro.experiments.stats")
        stats_mod.STATS.reset()
        t0 = time.perf_counter()
        report = counterfactual.explain(**EXPLAIN_SUBJECT)
        elapsed = time.perf_counter() - t0
        return elapsed, _report_summary(report), _counters(stats_mod.STATS.total)


def _measure_experiments(sim_engine):
    import importlib
    import sys
    import time

    with tempfile.TemporaryDirectory(prefix="adassure-bench-probes-") as tmp:
        os.environ["ADASSURE_CACHE_DIR"] = tmp
        os.environ["ADASSURE_SIM"] = sim_engine
        for mod in [m for m in sys.modules if m.startswith("repro")]:
            del sys.modules[mod]
        experiments = importlib.import_module("repro.experiments")
        config_mod = importlib.import_module("repro.experiments.config")
        stats_mod = importlib.import_module("repro.experiments.stats")
        config = config_mod.ExperimentConfig(
            seeds=(7, 11),
            controllers=("pure_pursuit", "stanley"),
            trace_scenarios=("s_curve",),
            duration=40.0,
            sweep_intensities=(0.5, 1.0, 2.0),
            sweep_attacks=("gps_bias",),
        )
        stats_mod.STATS.reset()
        t0 = time.perf_counter()
        tables = {
            "e10": experiments.build_mitigation_table(config).render(),
            "e11": experiments.build_multi_attack_table(config).render(),
            "e12": experiments.build_acc_debugging(config).render(),
            "e13": experiments.build_defect_debugging(config).render(),
        }
        elapsed = time.perf_counter() - t0
        return elapsed, tables, _counters(stats_mod.STATS.total)


def _main(argv=None) -> int:
    """Write ``BENCH_probes.json`` (the committed artifact)."""
    import argparse
    import json
    import platform
    import time
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_probes.py",
        description=_main.__doc__)
    parser.add_argument("--output", default="BENCH_probes.json")
    args = parser.parse_args(argv)

    old_cache = os.environ.get("ADASSURE_CACHE_DIR")
    old_sim = os.environ.get("ADASSURE_SIM")
    try:
        print("explain: serial oracle ...")
        t_exp_serial, rep_serial, _ = _measure_explain("serial")
        print(f"explain: serial {t_exp_serial:.2f}s")
        print("explain: round-batched ...")
        t_exp_batch, rep_batch, exp_counters = _measure_explain("batch")
        print(f"explain: batch  {t_exp_batch:.2f}s")

        print("e10-e13: serial oracle ...")
        t_e_serial, tables_serial, _ = _measure_experiments("serial")
        print(f"e10-e13: serial {t_e_serial:.2f}s")
        print("e10-e13: batch-drained ...")
        t_e_batch, tables_batch, e_counters = _measure_experiments("batch")
        print(f"e10-e13: batch  {t_e_batch:.2f}s")
    finally:
        if old_cache is None:
            os.environ.pop("ADASSURE_CACHE_DIR", None)
        else:
            os.environ["ADASSURE_CACHE_DIR"] = old_cache
        if old_sim is None:
            os.environ.pop("ADASSURE_SIM", None)
        else:
            os.environ["ADASSURE_SIM"] = old_sim

    identical_explain = rep_serial == rep_batch
    identical_experiments = tables_serial == tables_batch
    payload = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "explain_subject": EXPLAIN_SUBJECT,
            "e10_e13": {
                "seeds": [7, 11],
                "controllers": ["pure_pursuit", "stanley"],
                "duration": 40.0,
            },
        },
        "timings_s": {
            "explain_cold_serial": round(t_exp_serial, 4),
            "explain_cold_batch": round(t_exp_batch, 4),
            "e10_e13_cold_serial": round(t_e_serial, 4),
            "e10_e13_cold_batch": round(t_e_batch, 4),
        },
        "counters": {
            "explain_batch": exp_counters,
            "e10_e13_batch": e_counters,
        },
        "speedups": {
            "explain_cold": round(t_exp_serial / t_exp_batch, 2),
            "e10_e13_cold": round(t_e_serial / t_e_batch, 2),
        },
        "bit_identical": identical_explain and identical_experiments,
        "bit_identical_explain": identical_explain,
        "bit_identical_e10_e13": identical_experiments,
        "note": (
            "speculative round-batching: explain() pushes the baseline, "
            "the clean counterfactual and the searches' reachable probe "
            "trees through the lockstep batch engine before the first "
            "verdict is inspected; E10-E13 declare their sweeps to a "
            "ProbePlan and drain as compatibility-grouped lane batches. "
            "Wasted speculative lanes are never checked or committed. "
            "Verdicts are bit-identical to the serial oracle "
            "(tests/test_probe_batching.py enforces this in CI)."
        ),
    }
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    print(f"explain  {payload['speedups']['explain_cold']}x  "
          f"e10-e13 {payload['speedups']['e10_e13_cold']}x  "
          f"bit_identical {payload['bit_identical']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
