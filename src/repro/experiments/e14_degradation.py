"""E14 (extension) — graceful degradation under benign sensor faults.

Attacks need an adversary; sensors also just *break*.  E14 runs the
fault grid (:mod:`repro.faults`: dropout, freeze, NaN burst, intermittent
loss, correlated multi-channel loss) against two stacks — the baseline
follower and the same follower wrapped in the
:class:`~repro.control.supervisor.SupervisedController` watchdog — and
scores both with the full catalog, including the degradation assertions
A21 (bounded tracking inside fault windows) and A22 (safe stop on
multi-sensor loss).

Expected shape, measured in EXPERIMENTS.md:

* ``gps_freeze`` is the catastrophic case for the unprotected stack — a
  frozen fix looks fresh and *drags* the EKF (tens to hundreds of
  meters of cross-track error; A1/A21 fire), while the supervisor's
  repeated-sample quarantine times the channel out and safe-stops;
* ``gps_nan`` **crashes** the unprotected stack outright (a NaN reaches
  the EKF and poisons the state); the supervisor quarantines it;
* correlated ``gps+compass`` loss leaves the unprotected stack cruising
  blind on dead reckoning (A22 fires); the supervisor stops within its
  watchdog-plus-grace budget;
* single benign faults (``gps_dropout``, ``gps_intermittent``) stay
  bounded for both stacks — degradation, not disaster.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_scored
from repro.experiments.spec import RunSpec
from repro.experiments.tables import Table

__all__ = ["build_degradation_table", "E14_FAULTS"]

E14_FAULTS: tuple[str, ...] = (
    "none",
    "gps_dropout",
    "gps_intermittent",
    "gps_freeze",
    "gps_nan",
    "odom_freeze",
    "gps_dropout+compass_dropout",
)
"""Fault grid: single faults plus the correlated two-channel loss
(``+``-joined, e.g. one power rail feeding GNSS and compass)."""

_CONTROLLER = "pure_pursuit"
_WATCHED = ("A1", "A21", "A22")
"""The headline assertions reported per cell (full reports are cached)."""


def build_degradation_table(config: ExperimentConfig | None = None,
                            workers: int | None = None) -> Table:
    """Supervised vs. unsupervised stack across the fault grid.

    ``workers`` is accepted for experiment-interface uniformity; each
    spec runs in-process through the shared result store
    (:func:`~repro.experiments.runner.run_scored`), one at a time so an
    unprotected stack's crash is measured per run.
    """
    config = config or ExperimentConfig.full()
    onset = config.attack_onset
    table = Table(
        title="Table 10 (E14, extension): graceful degradation under "
              f"sensor faults (scenario={config.scenario}, "
              f"controller={_CONTROLLER}, {len(config.seeds)} seed(s), "
              f"fault onset {onset:g}s)",
        columns=["fault", "stack", "max|cte| [m]", "crashed",
                 "safe stop [s]"] + list(_WATCHED),
    )

    for fault_label in E14_FAULTS:
        for supervised in (False, True):
            stack = "supervised" if supervised else "baseline"
            crashes = 0
            ctes: list[float] = []
            stop_latencies: list[float] = []
            fired = {aid: 0 for aid in _WATCHED}
            for seed in config.seeds:
                spec = RunSpec.from_labels(
                    config.scenario, _CONTROLLER, fault=fault_label,
                    seed=seed, onset=onset, duration=config.duration,
                    supervised=supervised)
                try:
                    result, report = run_scored(spec)
                except ValueError:
                    # The unprotected stack dies when a NaN burst reaches
                    # the estimator; that *is* the measurement.
                    crashes += 1
                    continue
                ctes.append(result.metrics.max_abs_cte)
                for aid in _WATCHED:
                    fired[aid] += aid in report.fired_ids
                cols = result.trace.columns()
                engaged = np.flatnonzero(
                    cols.get("supervisor_mode") == "safe_stop")
                if engaged.size:
                    stop_latencies.append(
                        float(cols.get("t")[engaged[0]]) - onset)
            n = len(config.seeds)
            survived = n - crashes
            mean_stop = (sum(stop_latencies) / len(stop_latencies)
                         if stop_latencies else None)
            table.add_row(
                fault_label,
                stack,
                f"{max(ctes):.2f}" if ctes else "-",
                f"{crashes}/{n}",
                f"+{mean_stop:.2f}" if mean_stop is not None else "-",
                *(f"{fired[aid]}/{survived}" if survived else "-"
                  for aid in _WATCHED),
            )
    table.add_note(
        "safe stop [s] is the mean engagement latency after fault onset "
        "(watchdog timeout + dead-reckoning budget for single critical "
        "channels, timeout only for multi-channel loss); A21/A22 columns "
        "count runs that violated the degradation contract among the "
        "runs that survived to produce a trace."
    )
    return table


def main() -> None:
    print(build_degradation_table().render())


if __name__ == "__main__":
    main()
