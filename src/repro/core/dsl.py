"""Assertion base class and authoring combinators.

An assertion is a *stateful margin monitor*: each trace record is mapped to
a normalized margin (``>= 0`` satisfied, ``< 0`` violated, ``None`` not
applicable at this step), and the base class turns the margin stream into
debounced violation *episodes*.  Margins are normalized by the assertion's
threshold, so ``-0.5`` always means "50% beyond the bound" regardless of
the underlying physical unit — which makes severities comparable across
the catalog and keeps the diagnosis engine unit-free.

The same objects serve two engines:

* the **online** (per-step) path — :meth:`TraceAssertion.step` per record
  plus :meth:`TraceAssertion.finish` at the end — used by the live
  monitor and kept as the differential-testing oracle;
* the **offline vectorized** path — :meth:`TraceAssertion.evaluate_offline`
  computes the full margin array in one shot (via
  :meth:`TraceAssertion.margin_array` over the trace's columnar view) and
  runs debounce/episode extraction as array operations over the
  run-length encoding of the bad/good margin signs.  Every built-in
  assertion has such a column kernel, so checking a column-backed trace
  never builds a :class:`~repro.trace.schema.TraceRecord`; the per-record
  margin loop remains only for assertions without one (a
  :class:`FunctionAssertion` lacking ``fn_array``, or having ``end_fn``).

Both paths produce byte-identical verdicts.  That is an engineered
property, not an accident: every vectorized margin uses the same
elementwise float64 operations as its scalar twin (IEEE-754 elementwise
ops match Python scalar ops bit for bit), and windowed means are defined
as *prefix-sum differences* on both paths — ``np.cumsum`` reproduces a
sequential running sum exactly, whereas pairwise summation
(``np.add.reduceat``) would not.  Stateful kernels run :meth:`margin`'s
recurrence in the same order over ``.tolist()`` channel values, keeping
transcendental functions as scalar ``math.*`` calls (NumPy's ``hypot``
and ``exp`` may differ in the last bit).  Equivalence is enforced by
``tests/test_checker_equivalence.py`` and a CI benchmark smoke step.
"""

from __future__ import annotations

import abc
from collections.abc import Callable

import numpy as np

from repro.core.verdicts import AssertionSummary, Violation
from repro.trace.schema import Trace, TraceColumns, TraceRecord

__all__ = [
    "TraceAssertion",
    "BoundAssertion",
    "WindowMeanBoundAssertion",
    "FunctionAssertion",
]


class TraceAssertion(abc.ABC):
    """Base class: margin computation + episode/debounce machinery.

    Args:
        assertion_id: short stable identifier (e.g. ``"A1"``).
        name: human-readable name.
        category: one of ``behaviour``, ``consistency``, ``actuation``,
            ``stability``, ``liveness`` (used by ablations and reports).
        settle_time: seconds at the start of the trace during which the
            assertion is not evaluated (launch transient).
        debounce_on: consecutive violating evaluations required to open an
            episode (suppresses single-sample noise).
        debounce_off: consecutive satisfied evaluations required to close
            an episode.
    """

    def __init__(
        self,
        assertion_id: str,
        name: str,
        category: str,
        settle_time: float = 0.0,
        debounce_on: int = 3,
        debounce_off: int = 10,
    ):
        if debounce_on < 1 or debounce_off < 1:
            raise ValueError("debounce counts must be >= 1")
        self.assertion_id = assertion_id
        self.name = name
        self.category = category
        self.settle_time = settle_time
        self.debounce_on = debounce_on
        self.debounce_off = debounce_off
        self.bound_scale = 1.0
        self._reset_episode_state()

    def scale_bound(self, factor: float) -> "TraceAssertion":
        """Relax (>1) or tighten (<1) the effective threshold.

        Margins of the form ``1 - value/bound`` transform exactly as
        ``m' = 1 - (1 - m)/factor`` when the bound is scaled by ``factor``;
        the calibrator (:mod:`repro.core.tuning`) uses this to fit nominal
        headroom without knowing each assertion's internal threshold
        attribute.  Returns ``self`` for chaining.
        """
        if factor <= 0:
            raise ValueError("bound_scale factor must be positive")
        self.bound_scale = factor
        return self

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def margin(self, record: TraceRecord) -> float | None:
        """Normalized margin at this record (None = not applicable)."""

    def on_reset(self) -> None:
        """Clear subclass state (called by :meth:`reset`)."""

    def end_margin(self, last_record: TraceRecord | None) -> float | None:
        """Optional end-of-trace check (liveness assertions override).

        A negative return value opens (and closes) a final episode at the
        last record's timestamp.
        """
        return None

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Vectorized margin over a whole trace, or ``None`` if unsupported.

        Returns ``(margins, applicable)`` where ``margins`` is a float64
        array of per-record margins and ``applicable`` is a bool mask (or
        ``None`` meaning "applicable everywhere").  ``margins`` entries
        where ``applicable`` is False are ignored; NaN margins at
        applicable steps are legal and mean exactly what they mean on the
        per-step path (NaN compares false against every threshold, so it
        counts as a *good* sample and never becomes the worst margin).

        Implementations must be bit-identical to iterating
        :meth:`margin`: use the same elementwise float64 operations,
        express windowed means as prefix-sum differences on both paths,
        and run stateful recurrences in the same order with the same
        scalar ``math.*`` calls.  The kernel runs right after
        :meth:`reset`, so it may leave behind the state
        :meth:`end_margin` reads, as :meth:`margin` would.  The default
        returns ``None``, which makes :meth:`evaluate_offline` fall back
        to the per-record margin loop.
        """
        return None

    def _needs_end_record(self) -> bool:
        """Whether :meth:`finish` must see the last record.

        True iff the subclass overrides :meth:`end_margin`; the offline
        path then builds that one record from the columns, and every
        other assertion builds none.
        """
        return type(self).end_margin is not TraceAssertion.end_margin

    # ------------------------------------------------------------------
    # Engine-facing interface
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Prepare for a new trace."""
        self._reset_episode_state()
        self.on_reset()

    def step(self, record: TraceRecord) -> Violation | None:
        """Process one record; returns a violation iff an episode *closed*.

        The margin is computed at *every* step so stateful assertions
        observe the full trace; verdicts inside the settle window are
        discarded (launch transient).  Episodes still open when the trace
        ends are closed by :meth:`finish`.
        """
        self._last_step_t = record.t
        m = self.margin(record)
        if record.t < self.settle_time:
            return None
        if m is None:
            return None
        if self.bound_scale != 1.0:
            m = 1.0 - (1.0 - m) / self.bound_scale
        self._evaluated = True
        self._worst_overall = min(self._worst_overall, m)
        if m < 0.0:
            self._bad_streak += 1
            self._good_streak = 0
            if self._episode_start is None and self._bad_streak >= self.debounce_on:
                self._episode_start = record.t
                self._episode_worst = m
            elif self._episode_start is not None:
                self._episode_worst = min(self._episode_worst, m)
            if self._episode_start is None:
                # Remember the depth of a forming episode so debounce does
                # not erase the worst sample.
                self._pending_worst = min(self._pending_worst, m)
        else:
            self._good_streak += 1
            self._bad_streak = 0
            self._pending_worst = 0.0
            if self._episode_start is not None and (
                self._good_streak >= self.debounce_off
            ):
                return self._close_episode(record.t)
        return None

    def finish(self, last_record: TraceRecord | None) -> list[Violation]:
        """Close any open episode and run the end-of-trace check."""
        out: list[Violation] = []
        if self._episode_start is not None:
            # _close_episode records the violation itself.
            out.append(self._close_episode(self._last_step_t))
        if last_record is not None and last_record.t >= self.settle_time:
            end_m = self.end_margin(last_record)
            if end_m is not None:
                self._evaluated = True
                self._worst_overall = min(self._worst_overall, end_m)
                if end_m < 0.0:
                    violation = Violation(
                        assertion_id=self.assertion_id,
                        name=self.name,
                        category=self.category,
                        t_start=last_record.t,
                        t_end=last_record.t,
                        worst_margin=end_m,
                        message=f"{self.name}: end-of-trace check failed",
                    )
                    self._closed_violations.append(violation)
                    out.append(violation)
        return out

    def evaluate_offline(self, trace: Trace) -> list[Violation]:
        """Evaluate the whole trace in one shot (vectorized where possible).

        Equivalent to ``reset(); [step(r) for r in trace]; finish(last)``
        but computes the margin stream via :meth:`margin_array` when the
        subclass has a column kernel, then extracts debounced episodes
        from the run-length encoding of the bad/good signs.  Verdicts
        (episodes, margins, severities) are byte-identical to the
        per-step path.  Returns the full violation list.
        """
        self.reset()
        n = len(trace)
        if n == 0:
            return self.finish(None)
        cols = trace.columns()
        t = cols.get("t")
        computed = self.margin_array(cols)
        if computed is None:
            # No column kernel: iterate the records in order, exactly as
            # the online path does (builds every record of the trace).
            margins = np.empty(n, dtype=np.float64)
            applicable = np.empty(n, dtype=bool)
            for i, record in enumerate(trace):
                m = self.margin(record)
                if m is None:
                    applicable[i] = False
                    margins[i] = 0.0
                else:
                    applicable[i] = True
                    margins[i] = m
        else:
            margins, applicable = computed
            margins = np.asarray(margins, dtype=np.float64)
        valid = t >= self.settle_time
        if applicable is not None:
            valid &= applicable
        mv = margins[valid]
        if self.bound_scale != 1.0:
            mv = 1.0 - (1.0 - mv) / self.bound_scale
        if mv.size:
            self._evaluated = True
            finite = mv[~np.isnan(mv)]
            if finite.size:
                # Python min() ignores a NaN in the second slot, so the
                # per-step worst is the min over non-NaN margins.
                self._worst_overall = float(finite.min())
            self._last_step_t = float(t[-1])
            self._extract_episodes(t[valid], mv)
        last_record = trace[n - 1] if self._needs_end_record() else None
        return self.finish(last_record)

    def _extract_episodes(self, tv: np.ndarray, mv: np.ndarray) -> None:
        """Debounce/episode extraction over an evaluated margin array.

        ``tv``/``mv`` hold only the applicable, post-settle samples.
        Works on the run-length encoding of ``mv < 0``: a bad run of
        length >= debounce_on opens an episode at its debounce_on-th
        sample; a good run of length >= debounce_off while open closes it
        at its debounce_off-th sample.  (NaN compares false, so NaN
        margins land in good runs — same as per-step.)
        """
        bad = mv < 0.0
        if not bad.any():
            return
        flips = np.flatnonzero(bad[1:] != bad[:-1]) + 1
        starts = np.concatenate(([0], flips))
        ends = np.concatenate((flips, [bad.size]))
        streak_start = -1
        open_pos = -1
        for s, e in zip(starts.tolist(), ends.tolist()):
            if bad[s]:
                if open_pos < 0 and e - s >= self.debounce_on:
                    streak_start = s
                    open_pos = s + self.debounce_on - 1
            elif open_pos >= 0 and e - s >= self.debounce_off:
                close = s + self.debounce_off - 1
                # Any good sample resets the pending (pre-open) worst, so
                # step-closed episodes never carry one.
                self._emit_episode(tv, mv, open_pos, float(tv[close]),
                                   close + 1, 0.0)
                open_pos = -1
        if open_pos >= 0:
            # Episode still open at end of trace: the pre-open streak
            # depth survives into the episode only if no good sample was
            # seen since the pre-open streak began.
            if bool((~(mv[open_pos + 1:] < 0.0)).any()):
                pending = 0.0
            elif open_pos > streak_start:
                pending = float(mv[streak_start:open_pos].min())
            else:
                pending = 0.0
            self._emit_episode(tv, mv, open_pos, self._last_step_t,
                               mv.size, pending)

    def _emit_episode(self, tv: np.ndarray, mv: np.ndarray, open_pos: int,
                      t_end: float, stop: int, pending: float) -> None:
        seg = mv[open_pos:stop]
        episode_worst = float(seg[seg < 0.0].min())
        self._closed_violations.append(Violation(
            assertion_id=self.assertion_id,
            name=self.name,
            category=self.category,
            t_start=float(tv[open_pos]),
            t_end=t_end,
            worst_margin=min(episode_worst, pending),
            message=f"{self.name} violated "
                    f"(worst margin {episode_worst:+.2f})",
        ))

    @property
    def violations(self) -> list[Violation]:
        """All episodes closed since the last :meth:`reset` (time order)."""
        return list(self._closed_violations)

    def summarize(self) -> AssertionSummary:
        """Aggregate everything seen since the last :meth:`reset`."""
        violations = self._closed_violations
        first_t = min((v.t_start for v in violations), default=None)
        total = sum(v.duration for v in violations)
        return AssertionSummary(
            assertion_id=self.assertion_id,
            name=self.name,
            category=self.category,
            fired=bool(violations),
            episodes=len(violations),
            first_violation_t=first_t,
            total_violation_time=total,
            worst_margin=self._worst_overall if self._evaluated else 0.0,
            evaluated=self._evaluated,
        )

    # ------------------------------------------------------------------
    def _reset_episode_state(self) -> None:
        self._bad_streak = 0
        self._good_streak = 0
        self._episode_start: float | None = None
        self._episode_worst = 0.0
        self._pending_worst = 0.0
        self._worst_overall = float("inf")
        self._evaluated = False
        self._last_step_t = 0.0
        self._closed_violations: list[Violation] = []

    def _close_episode(self, t_end: float) -> Violation:
        assert self._episode_start is not None
        violation = Violation(
            assertion_id=self.assertion_id,
            name=self.name,
            category=self.category,
            t_start=self._episode_start,
            t_end=t_end,
            worst_margin=min(self._episode_worst, self._pending_worst),
            message=f"{self.name} violated "
                    f"(worst margin {self._episode_worst:+.2f})",
        )
        self._episode_start = None
        self._episode_worst = 0.0
        self._pending_worst = 0.0
        self._closed_violations.append(violation)
        return violation

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.assertion_id}: {self.name!r})"


class BoundAssertion(TraceAssertion):
    """``|channel| <= bound`` at every step — the simplest assertion form."""

    def __init__(
        self,
        assertion_id: str,
        name: str,
        channel: str,
        bound: float,
        category: str = "behaviour",
        settle_time: float = 0.0,
        **kwargs,
    ):
        if bound <= 0:
            raise ValueError("bound must be positive")
        super().__init__(assertion_id, name, category, settle_time, **kwargs)
        self.channel = channel
        self.bound = bound

    def margin(self, record: TraceRecord) -> float:
        value = getattr(record, self.channel)
        return 1.0 - abs(value) / self.bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray | None]:
        values = np.asarray(cols.get(self.channel), dtype=np.float64)
        return 1.0 - np.abs(values) / self.bound, None


class WindowMeanBoundAssertion(TraceAssertion):
    """Mean of ``|channel|`` over a sliding time window stays below a bound.

    Catches sustained degradation that per-sample bounds miss (and is
    immune to isolated spikes).  The mean is computed as a prefix-sum
    difference on *both* the per-step and the vectorized path, so the two
    agree bit for bit (``np.cumsum`` reproduces a sequential running sum
    exactly).
    """

    def __init__(
        self,
        assertion_id: str,
        name: str,
        channel: str,
        bound: float,
        window: float,
        category: str = "behaviour",
        settle_time: float = 0.0,
        **kwargs,
    ):
        if bound <= 0 or window <= 0:
            raise ValueError("bound and window must be positive")
        super().__init__(assertion_id, name, category, settle_time, **kwargs)
        self.channel = channel
        self.bound = bound
        self.window = window
        self._buffer: list[tuple[float, float]] = []
        self._cum = 0.0
        self._prev_cum = 0.0

    def on_reset(self) -> None:
        self._buffer = []
        self._cum = 0.0
        self._prev_cum = 0.0

    def margin(self, record: TraceRecord) -> float | None:
        # The buffer holds (t, running_sum_through_t); the window sum is
        # the difference of two running-sum samples.
        self._cum = self._cum + abs(getattr(record, self.channel))
        buf = self._buffer
        buf.append((record.t, self._cum))
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            self._prev_cum = buf.pop(0)[1]
        if buf[-1][0] - buf[0][0] < 0.5 * self.window:
            return None  # window not filled yet
        mean = (self._cum - self._prev_cum) / len(buf)
        return 1.0 - mean / self.bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.get("t")
        values = np.abs(np.asarray(cols.get(self.channel), dtype=np.float64))
        cum = np.cumsum(values)
        lo = np.searchsorted(t, t - self.window, side="left")
        count = np.arange(1, t.size + 1) - lo
        prev = np.where(lo > 0, cum[lo - 1], 0.0)
        margins = 1.0 - ((cum - prev) / count) / self.bound
        applicable = (t - t[lo]) >= 0.5 * self.window
        return margins, applicable


class FunctionAssertion(TraceAssertion):
    """Wrap a plain function as an assertion — the DSL's escape hatch.

    The function receives the record and a mutable state dict (empty at
    each reset) and returns a normalized margin or ``None``::

        def no_reverse(record, state):
            return record.est_v + 0.5  # violated if estimate goes backward

        assertion = FunctionAssertion("U1", "no reverse", no_reverse)

    An optional ``fn_array`` twin vectorizes the margin over the trace's
    columnar view: it receives a :class:`~repro.trace.schema.TraceColumns`
    and returns either a margin array (applicable everywhere) or a
    ``(margins, applicable_mask)`` pair.  It must be bit-identical to
    iterating ``fn``.  When ``end_fn`` is present the offline path always
    uses the sequential ``fn`` loop, because ``end_fn`` may read state
    that ``fn`` accumulates.
    """

    def __init__(
        self,
        assertion_id: str,
        name: str,
        fn: Callable[[TraceRecord, dict], float | None],
        category: str = "custom",
        settle_time: float = 0.0,
        end_fn: Callable[[TraceRecord, dict], float | None] | None = None,
        fn_array: Callable[
            [TraceColumns],
            "np.ndarray | tuple[np.ndarray, np.ndarray | None] | None",
        ] | None = None,
        **kwargs,
    ):
        super().__init__(assertion_id, name, category, settle_time, **kwargs)
        self._fn = fn
        self._end_fn = end_fn
        self._fn_array = fn_array
        self._state: dict = {}

    def on_reset(self) -> None:
        self._state = {}

    def margin(self, record: TraceRecord) -> float | None:
        return self._fn(record, self._state)

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        if self._fn_array is None or self._end_fn is not None:
            return None
        out = self._fn_array(cols)
        if out is None:
            return None
        if isinstance(out, tuple):
            return out
        return np.asarray(out, dtype=np.float64), None

    def _needs_end_record(self) -> bool:
        return self._end_fn is not None

    def end_margin(self, last_record: TraceRecord | None) -> float | None:
        if self._end_fn is None or last_record is None:
            return None
        return self._end_fn(last_record, self._state)
