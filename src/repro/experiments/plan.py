"""Deferred execution for off-grid sweeps: declare specs, drain once.

The extension experiments (E10–E13) run configurations the cartesian
grid cannot express — gated estimators, concurrent attack pairs,
injected controller defects, the car-following scenario.  Each is a
:class:`~repro.experiments.spec.RunSpec`; a :class:`ProbePlan` collects
a whole sweep of them and hands it to
:func:`~repro.experiments.runner.drain` in one go, so the misses group
by ``(scenario, duration)`` into lockstep batch lanes instead of being
simulated one at a time.  Every result commits through the one
:class:`~repro.experiments.backend.ResultStore`: a planned run and a
grid point with the same spec are the same cache entry, and re-running
a drained sweep simulates nothing.

Determinism contract: the batch engine is bit-identical to the serial
oracle (``tests/test_sim_batch_equivalence.py``) and a spec builds one
object graph for both engines, so draining through the planner produces
dict-equal experiment tables versus the serial path
(``tests/test_probe_batching.py`` pins this).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.verdicts import CheckReport
from repro.experiments.spec import GridRun, RunSpec
from repro.experiments.stats import GridStats
from repro.sim.engine import RunResult

__all__ = ["PlannedRun", "ProbePlan"]


@dataclass(slots=True)
class PlannedRun:
    """Lazy handle on one declared run.

    :meth:`result` drains the owning plan on first use; afterwards it is
    a plain accessor.
    """

    spec: RunSpec
    _plan: "ProbePlan"
    _run: GridRun | None = None

    @property
    def done(self) -> bool:
        return self._run is not None

    def result(self) -> tuple[RunResult, CheckReport]:
        if self._run is None:
            self._plan.drain()
        assert self._run is not None
        return self._run.result, self._run.report


class ProbePlan:
    """Collects declared specs and drains them as one batch.

    One plan per sweep: declare every configuration with :meth:`add`,
    then read results off the handles (the first read triggers
    :meth:`drain`).  Runs declared after a drain join the next drain —
    the plan is reusable, not one-shot.
    """

    def __init__(self, sim_engine: str | None = None):
        from repro.experiments.runner import scored_store
        self._sim_engine_arg = sim_engine
        self.sim_engine: str | None = None
        """Engine of the most recent drain (chosen per drain, since auto
        selection depends on how many runs are actually pending)."""
        self.store = scored_store()
        self._pending: list[PlannedRun] = []

    def add(self, spec: RunSpec) -> PlannedRun:
        """Declare one run; returns its lazy handle."""
        run = PlannedRun(spec=spec, _plan=self)
        self._pending.append(run)
        return run

    @property
    def pending(self) -> int:
        return len(self._pending)

    def drain(self) -> GridStats:
        """Execute every declared-but-unfinished run and commit results.

        Records one :class:`~repro.experiments.stats.GridStats` into
        :data:`~repro.experiments.stats.STATS` per drain.
        """
        from repro.experiments.runner import _record, drain
        todo, self._pending = self._pending, []
        wall_start = time.perf_counter()
        stats = GridStats(workers=1, grid_points=len(todo))
        runs = drain([run.spec for run in todo], self.store, stats,
                     sim_engine=self._sim_engine_arg)
        self.sim_engine = stats.sim_engine
        for run in todo:
            run._run = runs[run.spec]
        _record(stats, self.store, wall_start)
        return stats
