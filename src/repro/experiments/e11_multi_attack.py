"""E11 (extension) — diagnosis under concurrent attacks.

A coordinated adversary (or two independent faults) activates two attack
classes at once.  A single-cause ranking cannot be "right" in the top-1
sense; the useful property is *coverage*: both true causes appear among
the top-ranked candidates because their assertion signatures superpose.

Expected shape: for channel-disjoint pairs (e.g. GPS bias + IMU gyro
bias), both causes rank in the top 2–3 of the single-cause ranking, while
the *multi-cause* explain-away loop (:func:`repro.core.diagnose_multi`)
recovers the exact injected set.
"""

from __future__ import annotations

from repro.core.diagnosis import diagnose, diagnose_multi
from repro.experiments.config import ExperimentConfig
from repro.experiments.plan import ProbePlan
from repro.experiments.spec import RunSpec
from repro.experiments.tables import Table

__all__ = ["build_multi_attack_table", "ATTACK_PAIRS"]

ATTACK_PAIRS: tuple[tuple[str, str], ...] = (
    ("gps_bias", "imu_gyro_bias"),
    ("gps_drift", "steer_offset"),
    ("odom_scale", "compass_offset"),
    ("gps_freeze", "cmd_delay"),
    ("imu_gyro_bias", "steer_offset"),
)
"""Concurrent pairs, chosen to span disjoint and overlapping signatures."""


def build_multi_attack_table(config: ExperimentConfig | None = None,
                             workers: int | None = None) -> Table:
    """Top-k coverage of both true causes under concurrent attacks.

    ``workers`` is accepted for experiment-interface uniformity; the
    pair x seed sweep is declared up front to a
    :class:`~repro.experiments.plan.ProbePlan` (every run shares the
    full-duration scenario compatibility group, so a cold campaign
    drains as batch-engine lane groups) and commits through the shared
    result store, so repeated campaigns re-simulate nothing.
    """
    config = config or ExperimentConfig.full()
    table = Table(
        title="Table 7 (E11, extension): diagnosis under concurrent attacks "
              f"(scenario={config.scenario})",
        columns=["attack pair", "runs", "both in top-2", "both in top-3",
                 "multi-cause exact", "fired assertions (union over seeds)"],
    )

    plan = ProbePlan()
    # Full scenario duration always: slow-drift members of a pair need
    # time to accumulate their dead-reckoning signature.
    sweep = {
        (pair, seed): plan.add(RunSpec(
            config.scenario, seed=seed, attacks=pair,
            onset=config.attack_onset))
        for pair in ATTACK_PAIRS
        for seed in config.seeds
    }

    for pair in ATTACK_PAIRS:
        both_top2 = both_top3 = exact = 0
        fired_union: set[str] = set()
        n = 0
        for seed in config.seeds:
            _, report = sweep[(pair, seed)].result()
            ranking = diagnose(report)
            ranks = [ranking.rank_of(cause) for cause in pair]
            if all(r is not None and r <= 2 for r in ranks):
                both_top2 += 1
            if all(r is not None and r <= 3 for r in ranks):
                both_top3 += 1
            multi = diagnose_multi(report)
            if multi.cause_set == frozenset(pair):
                exact += 1
            fired_union.update(report.fired_ids)
            n += 1
        table.add_row(
            "+".join(pair), n, f"{both_top2}/{n}", f"{both_top3}/{n}",
            f"{exact}/{n}", ",".join(sorted(fired_union)),
        )
    table.add_note("top-k columns use the single-cause ranking; "
                   "'multi-cause exact' = the explain-away loop recovers "
                   "exactly the injected cause set.")
    return table


def main() -> None:
    print(build_multi_attack_table().render())


if __name__ == "__main__":
    main()
