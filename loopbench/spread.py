#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 loopbench/spread.py --seeds 10                # every workload
    python3 loopbench/spread.py --workload explain_cold --seeds 5

Runs ``loopbench/run.py --trace 0`` once per seed and workload, one run
at a time, from the repository root.  For each end-to-end metric it
prints the median and the distance between the first and third quartile
as a share of the median, and flags a spread above the metric's bound in
``BENCHMARK.json`` (``setup_s`` excepted: its spread is not bounded,
only its median).  Exits 1 when a run fails or a spread is out of bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from loopbench.measure import iqr_share  # noqa: E402


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.perf_counter()
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0"],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"{proc.stderr.strip()[-300:]}")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} "
                  f"({time.perf_counter() - started:.1f} s): " + ", ".join(
                      f"{k}={v['value']:.5g}"
                      for k, v in result["metrics"].items()), flush=True)
        for metric in bench["end_to_end"]:
            got = values.get(metric["name"], [])
            if len(got) < 2:
                continue
            spread = iqr_share(got)
            bounded = metric["name"] != "setup_s"
            flag = ""
            if bounded and spread > metric["bound"]:
                flag, ok = "  OUT OF BOUND", False
            print(f"{workload} {metric['name']}: median "
                  f"{statistics.median(got):.5g} {metric['unit']}, spread "
                  f"{spread:.3f} (bound {metric['bound']}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
