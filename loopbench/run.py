#!/usr/bin/env python3
"""Benchmark of the debugging loop: one workload per invocation.

    python3 loopbench/run.py --workload campaign_cold --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root; the program is imported from ``./src``.
``--trace 0`` measures untraced repetitions and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions and
prints the per-layer metrics, the tracing overhead and the accounting
remainder.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every oracle check passed.  Spans and a full run record go to
``.loopbench/`` under the working directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 3


def pin_env(work: Path) -> list[str]:
    """Clear every ``ADASSURE_*`` knob, then point the cache and service
    state inside the working directory.  Returns the names cleared."""
    cleared = sorted(k for k in os.environ if k.startswith("ADASSURE_"))
    for key in cleared:
        del os.environ[key]
    os.environ["ADASSURE_CACHE_DIR"] = str(work / "cache")
    os.environ["ADASSURE_SERVICE_DIR"] = str(work / "service")
    return cleared


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign_cold", "explain_cold",
                                 "recheck_offline", "stream_monitor"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("loopbench: no program under ./src; run from the repository "
              "root", file=sys.stderr)
        return 2
    work = root / ".loopbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cleared = pin_env(work)
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent.parent)]

    from loopbench import workloads  # imports the program
    import_s = time.perf_counter() - T_START

    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        return run(args, workload, import_s, cleared, root)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)


def run(args, workload, import_s: float, cleared: list[str],
        root: Path) -> int:
    import numpy

    from loopbench import instrument, measure, tracing
    out_dir = root / ".loopbench"
    declared = json.loads((root / "BENCHMARK.json").read_text())
    problems: list[str] = []
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    problems += workload.check_inputs()

    tracer = tracing.Tracer() if args.trace else None
    untraced: list[tuple[int, float]] = []
    traced: list[tuple[int, float]] = []
    traced_counts: Counter = Counter()
    walls: list[tuple[float, float]] = []
    t_begin = time.perf_counter()
    index = 0
    while True:
        is_traced = bool(args.trace) and index % 2 == 1
        workload.prepare()
        gc.collect()  # no earlier repetition's garbage in this one's time
        workload.elapsed = workload.stolen = 0.0
        if is_traced:
            lengths = {k: len(v) for k, v in workload.latencies.items()}
            counters_before = workload.counters.copy()
            instrument.install(tracer)
            try:
                ops = workload.rep(tracer)
            finally:
                tracer.unpatch()
            for key, samples in workload.latencies.items():
                del samples[lengths.get(key, 0):]
            traced_counts += workload.counters - counters_before
            traced.append((ops, measure.unstolen(
                workload.elapsed, workload.stolen, workload.busy_cpus)))
        else:
            ops = workload.rep()
            untraced.append((ops, measure.unstolen(
                workload.elapsed, workload.stolen, workload.busy_cpus)))
            walls.append((workload.elapsed, workload.stolen))
        index += 1
        done = time.perf_counter() - t_begin >= args.seconds
        if done and (not args.trace or index % 2 == 0):
            break

    checked, mismatches = workload.oracle()
    attempted = workload.attempted
    failed = min(workload.failed + mismatches, attempted)
    if mismatches:
        problems.append(f"oracle: {mismatches} of {checked} checks differ")

    rates = [ops / seconds for ops, seconds in untraced]
    summary = {
        "setup_s": setup_s,
        "setup_samples_s": setup_times,
        "import_s": import_s,
        "peak_rss_mb": measure.peak_rss_mb(),
        "work_per_s": statistics.median(rates),
        "reps": len(untraced),
        "rep_seconds": [seconds for _, seconds in untraced],
        "rep_wall_and_stolen_s": walls,
        "busy_cpus": workload.busy_cpus,
        "error_rate": measure.error_rate(failed, attempted),
        "oracle_checks": checked,
    }
    named = workload.named_metrics(untraced)
    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": git_commit(root),
        "cleared_env": cleared,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        **workload.provenance,
    }
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload}: {len(untraced)} untraced repetitions, "
          f"{attempted} {workload.op}s attempted, {failed} failed, "
          f"{checked} oracle checks")
    for name, (value, unit, note) in named.items():
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"error_rate = {summary['error_rate']:.6g} failed/attempted "
          f"({failed}/{attempted})")
    print(f"setup_s = {setup_s:.6g} s (imports {import_s:.3g} s + median of "
          f"{len(setup_times)} set-ups)")
    print(f"peak_rss_mb = {summary['peak_rss_mb']:.6g} MiB")

    if args.trace:
        metrics, trace_problems = traced_metrics(tracer, traced, untraced,
                                                 traced_counts)
        problems += trace_problems
        spans_path = instrument.write_spans(tracer, out_dir, args.workload,
                                            args.seed)
        print(f"# spans: {len(tracer.spans)} written to "
              f"{spans_path.relative_to(root)}")
        for name in ("trace.overhead_s", "trace.overhead_share",
                     "account.wall_s", "account.attributed_s",
                     "account.remainder_s"):
            print(f"{name} = {metrics[name]:.6g}")
        section = "per_layer"
    else:
        metrics = {"setup_s": setup_s, "peak_rss_mb": summary["peak_rss_mb"],
                   "work_per_s": summary["work_per_s"]}
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(units) != set(metrics):
        problems.append(f"metrics differ from BENCHMARK.json {section}: "
                        f"{sorted(set(units) ^ set(metrics))}")
    for problem in problems:
        print(f"# problem: {problem}")

    record = {"env": env, "summary": summary,
              "named": {k: list(v) for k, v in named.items()},
              "metrics": metrics, "problems": problems}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1, sort_keys=True))

    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "?")}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def traced_metrics(tracer, traced, untraced, traced_counts):
    from loopbench import instrument, tracing
    problems = []
    summary = tracing.summarize(tracer.spans, tracer.names)
    wall = summary["busy"].get("bench.rep", 0.0)
    counts = Counter(tracer.counts)
    counts.update(traced_counts)
    metrics = instrument.layer_metrics(summary, counts, len(traced), wall)
    error = instrument.accounting_error(summary, wall)
    if error > 1e-6:
        problems.append(f"accounting: self times miss the wall time by "
                        f"{error:.2e} of it")
    negative = [n for n, v in summary["self"].items() if v < -1e-6]
    if negative:
        problems.append(f"accounting: negative self time in {negative}")
    unknown = sorted(n for n in summary["calls"]
                     if n.startswith("check.assert.")
                     and n[len("check.assert."):]
                     not in instrument.ASSERTION_IDS)
    if unknown:
        problems.append(f"assertions missing from the metric list: {unknown}")
    per_traced = statistics.median(s / max(ops, 1) for ops, s in traced)
    per_untraced = statistics.median(s / max(ops, 1) for ops, s in untraced)
    metrics["trace.overhead_s"] = (statistics.median(s for _, s in traced)
                                   - statistics.median(s for _, s in untraced))
    metrics["trace.overhead_share"] = per_traced / per_untraced - 1.0
    metrics["trace.reps"] = float(len(traced))
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
