"""One benchmark for the drive -> record -> assert -> diagnose -> explain loop.

Run ``python3 loopbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``loopbench/README.md``.
"""
