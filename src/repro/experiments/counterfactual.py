"""Counterfactual root-cause isolation: delta-debug the diagnosis.

Knowledge-base pattern matching (:mod:`repro.core.diagnosis`) ranks
*hypotheses*; this module tests them.  Given a violating run, it
re-simulates counterfactuals — the injection removed, its window
bisected, its channels ablated, its magnitude minimized — to isolate the
smallest intervention that still flips the verdict, Zeller-style.  Two
properties the rest of the repo already paid for make this practical:

* **determinism** — every run is a pure function of its coordinates, so a
  counterfactual differs from the original *only* by the edit
  (``tests/test_counterfactual_exact.py`` pins this bit-for-bit under
  both the serial and the lockstep batch engine);
* **the content-addressed run cache** — a probe is a
  :class:`~repro.experiments.spec.RunSpec` (the subject plus the edited
  intervention) committed through the one
  :class:`~repro.experiments.backend.ResultStore`, so a repeated
  explanation re-simulates nothing, probes are shardable across any
  fleet that shares the cache directory, every probe commits exactly
  once, and an unedited probe of a grid point *is* that grid point.

The search cores (:func:`ddmin_interval`, :func:`ddmin_subset`,
:func:`bisect_intensity`) are generators that yield each candidate and
receive its verdict.  One driver, :func:`run_search`, runs any of them
against a ``violates`` predicate and a budget; one enumerator,
:func:`probe_tree`, replays them over verdict prefixes to list the
probes they can reach, which is what the batch engine speculates on.
Both are property-tested without a simulator in the loop
(``tests/test_counterfactual.py``).  :func:`explain` composes the
searches into a :class:`CausalReport`; the same probe machinery
backs :func:`counterfactual_tiebreak` (E4's escape hatch for ambiguous
rankings) and :func:`detect_separation_gap` (the automated half of the
paper's E9 refinement loop: flag cause pairs no counterfactual can
separate and propose the assertion signature that would).

Probe accounting is deliberately cache-independent: every probe —
memo hit, disk hit or fresh simulation — counts against the budget, so
an explanation is a deterministic function of its inputs; the cache only
changes how fast it converges (``adassure explain --stats`` shows the
hit split).  See ``docs/counterfactual.md`` for the full algorithm.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

from repro.attacks.campaign import (
    ATTACK_CLASSES,
    AttackCampaign,
    campaign_classes,
)
from repro.core.diagnosis import (
    DiagnosisResult,
    apply_tiebreak,
    diagnose,
)
from repro.core.knowledge import KnowledgeBase, default_knowledge_base
from repro.core.verdicts import CheckReport
from repro.experiments.spec import RunSpec, make_campaigns
from repro.experiments.stats import STATS, GridStats
from repro.faults.campaign import FaultCampaign, fault_classes
from repro.sim.engine import RunResult

__all__ = [
    "CausalReport",
    "Intervention",
    "ProbeBudgetExhausted",
    "ProbeEngine",
    "ProbeOutcome",
    "SeparationGap",
    "Subject",
    "TiebreakResult",
    "bisect_intensity",
    "counterfactual_tiebreak",
    "ddmin_interval",
    "ddmin_subset",
    "detect_separation_gap",
    "explain",
    "probe_params",
    "probe_tree",
    "run_search",
]

DEFAULT_BUDGET = 48
"""Default probe budget per explanation (every probe counts, cached or not)."""

DEFAULT_RESOLUTION = 0.5
"""Default window-bisection granularity, seconds."""

GAP_SEPARATION = 0.5
"""Candidate signatures closer than this (L1 over assertion strengths)
are considered counterfactually inseparable — the refinement-gap signal."""


class ProbeBudgetExhausted(RuntimeError):
    """The probe budget ran out.  :func:`run_search` throws it into a
    search generator, which returns its best result so far;
    :meth:`ProbeEngine.outcome` raises it past the engine's budget."""


# ---------------------------------------------------------------------------
# Search cores: generators over verdicts.
#
# Each core does ``verdict = yield candidate`` once per probe, in its
# serial order, and returns its result; thrown ProbeBudgetExhausted, it
# returns its best result so far.  Knowing nothing of budgets, predicates
# or batching, one core serves both the driver (:func:`run_search`) and
# the enumerator of its reachable probes (:func:`probe_tree`).
# ---------------------------------------------------------------------------

def ddmin_interval(n: int):
    """Shrink the violating interval ``[0, n)`` to a 1-minimal sub-interval.

    Yields candidate windows ``(lo, hi)`` and returns the final
    ``(lo, hi)``.  ``[0, n)`` must violate (the caller verifies it; it is
    never re-probed here).  Zeller-style delta debugging specialised to
    contiguous windows: greedily trim power-of-two-sized steps off the
    right, then the left, halving the step on failure until single-unit
    trims fail on both ends.

    Guarantees (the hypothesis suite pins each):

    * the returned interval always still violates — a non-monotone
      predicate cannot over-shrink it below a violating witness;
    * the interval only ever shrinks, so non-monotone streams cannot
      loop the search;
    * on normal exit the interval is 1-minimal.
    """
    if n < 1:
        raise ValueError("interval must span at least one unit")
    lo, hi = 0, n
    step = 1
    while step * 2 < n:
        step *= 2
    try:
        while step >= 1:
            if hi - lo > step and (yield lo, hi - step):
                hi -= step
            elif hi - lo > step and (yield lo + step, hi):
                lo += step
            else:
                step //= 2
    except ProbeBudgetExhausted:
        pass
    return lo, hi


def ddmin_subset(items):
    """1-minimal sufficient subset of ``items`` (order-preserving).

    Yields candidate subsets (tuples) and returns the kept tuple.  The
    full tuple must violate.  Fast path: probe each singleton — any
    violating singleton is immediately 1-minimal (the common case for
    independent attack channels).  Otherwise greedy leave-one-out
    elimination until no single removal still violates.
    """
    items = tuple(items)
    if not items:
        raise ValueError("subset minimization needs at least one item")
    kept = items
    try:
        if len(kept) > 1:
            for item in items:
                if (yield (item,)):
                    kept = (item,)
                    break
        changed = len(kept) > 1
        while changed and len(kept) > 1:
            changed = False
            for item in kept:
                candidate = tuple(x for x in kept if x != item)
                if (yield candidate):
                    kept = candidate
                    changed = True
                    break
    except ProbeBudgetExhausted:
        pass
    return kept


def bisect_intensity(hi: float, rel_resolution: float = 1 / 16):
    """1-minimize the magnitude knob toward the verdict boundary.

    Yields candidate magnitudes and returns ``(minimal, lower)``: the
    smallest probed magnitude that still violates and the largest that
    did not (the boundary sits between).  ``hi`` must violate.  Standard
    bisection keeping the upper end violating, down to a boundary bracket
    of ``hi * rel_resolution``.  Magnitude-free interventions (freeze,
    blinding) simply converge to a near-zero minimal intensity —
    "violates at any magnitude".
    """
    if hi <= 0:
        raise ValueError("intensity must be positive")
    lo = 0.0
    resolution = hi * float(rel_resolution)
    try:
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if (yield mid):
                hi = mid
            else:
                lo = mid
    except ProbeBudgetExhausted:
        pass
    return hi, lo


TREE_LIMIT = 16
"""Most candidates one :func:`probe_tree` offers the batch engine — per
search in round zero, and per miss-triggered round after it."""


def run_search(make_search, violates, budget: int, prefetch=None):
    """Drive the search ``make_search()`` against ``violates``.

    The only per-search probe counter: each candidate the search yields
    is one ``violates(candidate)`` call until ``budget`` calls are spent,
    when :class:`ProbeBudgetExhausted` is thrown into the search.  Returns
    ``(result, probes, exhausted)``.  The explanation-wide budget, which
    also covers the probes outside any search, stays with
    :class:`ProbeEngine`; :func:`explain` passes its ``remaining``.

    ``prefetch``, when given, receives candidate sets before their
    verdicts are needed, so a batch engine can simulate them as one lane
    group: whenever the next candidate is in no tree offered so far, the
    :func:`probe_tree` reachable from the verdicts so far.  It charges no
    budget and must not affect verdicts: the serial order is
    authoritative.
    """
    search = make_search()
    verdicts: list[bool] = []
    offered: set = set()
    exhausted = False
    message = None
    while True:
        try:
            candidate = (search.throw(message) if exhausted
                         else search.send(message))
        except StopIteration as stop:
            return stop.value, len(verdicts), exhausted
        if len(verdicts) >= budget:
            exhausted = True
            message = ProbeBudgetExhausted(
                f"probe budget of {budget} exhausted")
            continue
        if prefetch is not None and candidate not in offered:
            tree = probe_tree(make_search, TREE_LIMIT,
                              prefix=tuple(verdicts))
            prefetch(tree)
            offered.update(tree)
        message = bool(violates(candidate))
        verdicts.append(message)


def probe_tree(make_search, limit, prefix=()) -> tuple:
    """Distinct candidates a search can probe after the verdicts ``prefix``.

    Breadth-first over verdict sequences extending ``prefix``, replaying
    a fresh ``make_search()`` for each, collecting distinct candidates
    shallowest first (a violating branch before its sibling) until
    ``limit`` are found or every branch has terminated.  A candidate is
    a pure function of the verdicts before it, so each entry is, bit for
    bit, the probe the search issues on that branch: prefetched lanes
    alias the serial probes' cache keys.
    """
    found: dict = {}
    frontier = [tuple(prefix)]
    while frontier:
        deeper = []
        for verdicts in frontier:
            search = make_search()
            try:
                candidate = next(search)
                for verdict in verdicts:
                    candidate = search.send(verdict)
            except StopIteration:
                continue
            found.setdefault(candidate, None)
            if len(found) >= limit:
                return tuple(found)
            deeper += [verdicts + (True,), verdicts + (False,)]
        frontier = deeper
    return tuple(found)


# ---------------------------------------------------------------------------
# Interventions and probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Intervention:
    """One (possibly edited) injection configuration for a probe.

    The unit the delta-debugger edits: attack/fault channel sets, a
    shared magnitude knob, and a shared injection window.  The *original*
    intervention reconstructs the violating run's campaigns
    object-for-object; edits derive siblings via :meth:`with_window`,
    :meth:`with_channels` and :meth:`with_intensity`.
    """

    attacks: tuple[str, ...] = ()
    faults: tuple[str, ...] = ()
    intensity: float = 1.0
    onset: float = 15.0
    end: float = math.inf

    @staticmethod
    def from_labels(attack: str = "none", fault: str = "none",
                    intensity: float = 1.0, onset: float = 15.0,
                    end: float = math.inf) -> "Intervention":
        """Decode ``+``-joined campaign labels into an intervention."""
        return Intervention(
            attacks=campaign_classes(attack),
            faults=fault_classes(fault),
            intensity=float(intensity),
            onset=float(onset),
            end=float(end),
        )

    @property
    def empty(self) -> bool:
        return not self.attacks and not self.faults

    @property
    def label(self) -> str:
        parts = list(self.attacks) + list(self.faults)
        return "+".join(parts) if parts else "none"

    @property
    def channels(self) -> tuple[tuple[str, str], ...]:
        """Ablatable units as ``(kind, class)`` pairs."""
        return tuple(("attack", cls) for cls in self.attacks) + tuple(
            ("fault", cls) for cls in self.faults)

    def removed(self) -> "Intervention":
        return replace(self, attacks=(), faults=())

    def with_window(self, onset: float, end: float) -> "Intervention":
        return replace(self, onset=float(onset), end=float(end))

    def with_intensity(self, intensity: float) -> "Intervention":
        return replace(self, intensity=float(intensity))

    def with_channels(self, channels) -> "Intervention":
        """Keep only the given ``(kind, class)`` pairs (order preserved)."""
        keep = set(channels)
        return replace(
            self,
            attacks=tuple(c for c in self.attacks if ("attack", c) in keep),
            faults=tuple(c for c in self.faults if ("fault", c) in keep),
        )

    def campaigns(self) -> tuple[AttackCampaign, FaultCampaign]:
        """Instantiate the attack and fault campaigns for this probe."""
        return make_campaigns(self.attacks, self.faults, self.intensity,
                              self.onset, self.end)


Subject = RunSpec
"""The run under explanation: the :class:`~repro.experiments.spec.RunSpec`
every probe shares — scenario, controller, seed, duration and the
off-grid knobs (EKF gate, controller defect, supervisor), so
``adassure explain`` can reproduce any cached run.  Its own injection
fields are not used: each probe supplies an :class:`Intervention`."""


def probe_params(subject: Subject, intervention: Intervention) -> RunSpec:
    """The :class:`~repro.experiments.spec.RunSpec` of one probe: the
    subject with the *full* intervention edit, so an edited intervention
    never aliases the original run or any sibling probe — and an
    unedited one is exactly the original run's entry."""
    return replace(subject, attacks=intervention.attacks,
                   faults=intervention.faults,
                   intensity=intervention.intensity,
                   onset=intervention.onset, end=intervention.end)


@dataclass(frozen=True, slots=True)
class ProbeOutcome:
    """One probe's verdict relative to the baseline violation signature."""

    violated: bool
    """True when the probe re-fires any of the baseline's fired assertions
    (or, for the baseline probe itself, fires anything at all)."""
    fired: tuple[str, ...]
    evidence: dict[str, float]
    margins: dict[str, float]
    """Worst normalized margin per assertion (negative = violated)."""
    report: CheckReport
    result: RunResult
    source: str
    """``"memo"`` / ``"disk"`` (cache layers) or ``"sim"`` (fresh run)."""


class ProbeEngine:
    """Executes counterfactual probes with budget and cache accounting.

    Every probe — cached or fresh — counts against the budget, so the
    explanation a given budget produces is deterministic regardless of
    cache temperature.  All execution funnels through the one
    :class:`~repro.experiments.backend.ResultStore`
    (:func:`~repro.experiments.runner.scored_store`), which is what makes
    probes cached, shardable and exactly-once; per-probe memo/disk hits
    accumulate into one :class:`~repro.experiments.stats.GridStats`
    record (visible via ``--stats``).
    """

    def __init__(self, subject: Subject, budget: int = DEFAULT_BUDGET,
                 sim_engine: str | None = None):
        from repro.experiments.runner import choose_sim_engine, scored_store
        self.subject = subject
        self.budget = int(budget)
        self.probes = 0
        # Speculative prefetch always offers >= 2 candidate lanes, so the
        # auto choice here is batch-unless-opted-out (ADASSURE_SIM=serial).
        self.sim_engine, engine_reason = choose_sim_engine(sim_engine, 2)
        self.store = scored_store()
        self.baseline_fired: frozenset[str] = frozenset()
        self.flipped = 0
        self.stats = GridStats(workers=1)
        self.stats.sim_engine = self.sim_engine
        self.stats.sim_engine_reason = engine_reason
        self._speculative: dict[RunSpec, RunResult] = {}
        """Prefetched-and-simulated lanes (probe spec -> raw
        :class:`RunResult`) not yet consumed by :meth:`outcome` —
        ``speculative_wasted`` is its size.  Lanes are held raw: the
        assertion check and the store commit are deferred until a search
        actually asks for the probe, so wasted lanes cost only their
        share of the lockstep batch, never a check or a disk write."""
        self.speculate = True
        """Master switch for :meth:`prefetch`.  :func:`explain` turns it
        off on a warm store (the original probe already resolves): the
        searches then replay a previously-consumed probe sequence
        entirely from cache, and speculation would only re-simulate the
        prior pass's wasted lanes — which, held raw, were deliberately
        never committed."""

    @property
    def remaining(self) -> int:
        return max(self.budget - self.probes, 0)

    # -- execution ------------------------------------------------------
    def _resolve_or_run(self, intervention: Intervention):
        from repro.experiments.runner import _execute_point, _score
        spec = probe_params(self.subject, intervention)
        raw = self._speculative.pop(spec, None)
        if raw is not None:
            # Consume a speculative lane: it was simulated in a prefetch
            # batch but the check and commit were deferred to here so
            # that wasted lanes never pay them.  `executed` was already
            # counted at prefetch time; this is a memo hit.
            run, phases = _score(spec, raw)
            self.stats.memo_hits += 1
            self.stats.speculative_wasted = len(self._speculative)
            source = "memo"
        else:
            hit = self.store.resolve(spec)
            if hit is not None:
                run, source = hit
                if source == "memo":
                    self.stats.memo_hits += 1
                else:
                    self.stats.disk_hits += 1
                return run, source
            _, run, phases = _execute_point(spec)
            self.stats.executed += 1
            source = "sim"
        self.store.commit(spec, run)
        for phase, seconds in phases.items():
            self.stats.phase_time[phase] += seconds
        return run, source

    def prefetch(self, interventions) -> int:
        """Batch-simulate uncached probes through the lockstep engine.

        Only active with ``sim_engine="batch"``; an optimization, not a
        semantic: results are bit-identical to the serial path (the
        differential suite pins this), so prefetching never changes an
        explanation — and it charges no budget (the later
        :meth:`outcome` calls do).  Uses the drain's simulate-only half
        (:func:`~repro.experiments.runner.simulate_batch`): lanes stay
        raw and uncommitted until consumed.  Returns the number of lanes
        batched; an engine rejection batches nothing (the probes then
        simulate serially when asked for).
        """
        if not self.speculate or self.sim_engine != "batch":
            return 0
        from repro.experiments.runner import simulate_batch
        pending: dict[RunSpec, None] = {}
        for intervention in interventions:
            spec = probe_params(self.subject, intervention)
            if (spec not in pending and spec not in self._speculative
                    and self.store.resolve(spec) is None):
                pending[spec] = None
        issued: dict[RunSpec, RunResult] = {}
        simulate_batch(list(pending), self.stats, issued.__setitem__)
        # Held raw: check + commit happen lazily in _resolve_or_run iff
        # a search consumes the lane.
        self._speculative.update(issued)
        self.stats.executed += len(issued)
        self.stats.speculative_issued += len(issued)
        self.stats.speculative_wasted = len(self._speculative)
        return len(issued)

    def outcome(self, intervention: Intervention) -> ProbeOutcome:
        """Run one probe (budget-charged) and score it against the
        baseline violation signature."""
        if self.probes >= self.budget:
            raise ProbeBudgetExhausted(
                f"probe budget of {self.budget} exhausted")
        self.probes += 1
        run, source = self._resolve_or_run(intervention)
        report = run.report
        fired = tuple(report.fired_ids)
        if self.baseline_fired:
            violated = bool(self.baseline_fired & set(fired))
        else:
            violated = report.any_fired
        if not violated:
            self.flipped += 1
        margins = {aid: s.worst_margin
                   for aid, s in report.summaries.items()}
        return ProbeOutcome(violated=violated, fired=fired,
                            evidence=report.evidence(), margins=margins,
                            report=report, result=run.result, source=source)

    def violates(self, intervention: Intervention) -> bool:
        return self.outcome(intervention).violated

    def record_stats(self) -> None:
        """Report this engine's accumulated counters into
        :data:`~repro.experiments.stats.STATS` (one record per
        explanation, like one ``run_grid`` call)."""
        self.stats.grid_points = self.probes
        STATS.record(self.stats)


# ---------------------------------------------------------------------------
# Hypothesis testing: tie-break + separation-gap detection
# ---------------------------------------------------------------------------

def evidence_distance(a: dict[str, float], b: dict[str, float]) -> float:
    """L1 distance between two assertion-strength signatures."""
    keys = set(a) | set(b)
    return float(sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys))


@dataclass(frozen=True, slots=True)
class TiebreakResult:
    """Outcome of counterfactually re-ranking an ambiguous diagnosis."""

    candidates: tuple[str, ...]
    """Probed causes, in original ranking order."""
    distances: dict[str, float]
    """Per-candidate L1 distance between the observed signature and the
    signature the candidate actually produces when re-simulated."""
    diagnosis: DiagnosisResult
    """The re-ranked diagnosis (head re-ordered by distance)."""

    @property
    def chosen(self) -> str:
        return self.diagnosis.top().cause


@dataclass(frozen=True, slots=True)
class SeparationGap:
    """A cause pair no counterfactual separates under the current catalog.

    The automated version of the paper's refinement trigger: when the
    top candidates' *re-simulated* signatures are nearly identical, no
    amount of probing can tell them apart — the assertion catalog lacks
    a separating assertion.  ``proposed`` names the assertion signature
    that would separate them (from the knowledge-base profiles where the
    causes differ most, falling back to a channel-consistency
    suggestion); E9's gap-proposal addendum surfaces these.
    """

    causes: tuple[str, str]
    separation: float
    """L1 distance between the two candidates' simulated signatures."""
    distances: dict[str, float]
    """Each candidate's distance to the *observed* signature."""
    proposed: tuple[str, ...]
    """Assertion ids (or a new-assertion suggestion) that would separate."""

    @property
    def separable(self) -> bool:
        return self.separation >= GAP_SEPARATION


def _propose_separators(cause_a: str, cause_b: str,
                        signatures: dict[str, dict[str, float]],
                        kb: KnowledgeBase) -> tuple[str, ...]:
    """Assertion ids that would separate two confusable causes.

    Preference order: assertions whose *simulated* strengths differ most
    (real separators if any simulation disagreement exists at all), then
    knowledge-base profile entries with the largest fire-probability gap,
    then — when both are flat — a suggestion to author a new cross-channel
    consistency assertion."""
    sim_a, sim_b = signatures.get(cause_a, {}), signatures.get(cause_b, {})
    diffs = sorted(
        ((abs(sim_a.get(k, 0.0) - sim_b.get(k, 0.0)), k)
         for k in set(sim_a) | set(sim_b)),
        reverse=True,
    )
    proposed = [k for d, k in diffs[:3] if d >= 0.05]
    if proposed:
        return tuple(proposed)
    try:
        prof_a, prof_b = kb.profile(cause_a), kb.profile(cause_b)
    except KeyError:
        prof_a = prof_b = None
    if prof_a is not None and prof_b is not None:
        keys = set(prof_a.fire_probs) | set(prof_b.fire_probs)
        gaps = sorted(((abs(prof_a.prob(k) - prof_b.prob(k)), k)
                       for k in keys), reverse=True)
        proposed = [k for g, k in gaps[:3] if g >= 0.25]
        if proposed:
            return tuple(proposed)
    chan_a = cause_a.split("_", 1)[0]
    chan_b = cause_b.split("_", 1)[0]
    return (f"new: {chan_a}-vs-{chan_b} cross-channel consistency",)


def _hypotheses(candidates, base: Intervention) -> dict[str, Intervention]:
    """Cause -> the probe "this attack alone, at ``base``'s window and
    magnitude", for each candidate that is an attack class."""
    return {cause: Intervention(attacks=(cause,), intensity=base.intensity,
                                onset=base.onset, end=base.end)
            for cause in candidates if cause in ATTACK_CLASSES}


def detect_separation_gap(engine: ProbeEngine, observed: dict[str, float],
                          candidates, base: Intervention,
                          kb: KnowledgeBase | None = None,
                          ) -> tuple[dict[str, dict[str, float]],
                                     dict[str, float], SeparationGap | None]:
    """Simulate each candidate cause and measure whether anything separates.

    For every candidate attack class, probes the *hypothesis* "this cause
    alone, at the observed window and magnitude" and collects its
    signature.  Returns the signatures, each candidate's distance to the
    observed signature, and a :class:`SeparationGap` when the top two
    candidates' simulated signatures are closer than
    :data:`GAP_SEPARATION` (else ``None``).
    """
    kb = kb or default_knowledge_base()
    hypotheses = _hypotheses(candidates, base)
    candidates = list(hypotheses)
    engine.prefetch(hypotheses.values())
    signatures: dict[str, dict[str, float]] = {}
    distances: dict[str, float] = {}
    for cause, hypothesis in hypotheses.items():
        if engine.remaining <= 0:
            break
        out = engine.outcome(hypothesis)
        signatures[cause] = out.evidence
        distances[cause] = evidence_distance(observed, out.evidence)
    gap = None
    probed = [c for c in candidates if c in signatures]
    if len(probed) >= 2:
        a, b = probed[0], probed[1]
        separation = evidence_distance(signatures[a], signatures[b])
        if separation < GAP_SEPARATION:
            gap = SeparationGap(
                causes=(a, b), separation=separation,
                distances={a: distances[a], b: distances[b]},
                proposed=_propose_separators(a, b, signatures, kb),
            )
    return signatures, distances, gap


def counterfactual_tiebreak(run, onset: float | None = None,
                            duration: float | None = None,
                            kb: KnowledgeBase | None = None,
                            top_k: int = 2, budget: int = 12,
                            sim_engine: str | None = None,
                            ) -> tuple[DiagnosisResult, SeparationGap | None]:
    """Counterfactually re-rank an ambiguous grid run's diagnosis.

    E4's escape hatch: when the knowledge-base ranking is not
    :attr:`~repro.core.diagnosis.DiagnosisResult.confident`, re-simulate
    each head candidate as a hypothesis and prefer the one whose actual
    signature lies closest to the observed evidence
    (:func:`~repro.core.diagnosis.apply_tiebreak`).  Returns the
    (possibly re-ranked) diagnosis plus a :class:`SeparationGap` when no
    counterfactual separates the candidates.

    Args:
        run: a :class:`~repro.experiments.spec.GridRun`.
        onset: injection onset; defaults to the trace's recorded
            ground-truth onset.
        duration: the grid's duration override, if any (must match the
            original run for probes to share its configuration).
    """
    diagnosis = run.diagnosis
    if not diagnosis.ambiguous:
        return diagnosis, None
    if onset is None:
        onset = run.result.trace.attack_onset()
    if onset is None:
        return diagnosis, None
    subject = Subject(scenario=run.scenario, controller=run.controller,
                      seed=run.seed, duration=duration)
    base = Intervention(attacks=campaign_classes(run.attack),
                        intensity=run.intensity, onset=float(onset))
    engine = ProbeEngine(subject, budget=budget, sim_engine=sim_engine)
    engine.baseline_fired = frozenset(
        s.assertion_id for s in run.report.summaries.values() if s.fired)
    candidates = [d.cause for d in diagnosis.ranking[:top_k]]
    try:
        _, distances, gap = detect_separation_gap(
            engine, run.report.evidence(), candidates, base, kb=kb)
    finally:
        engine.record_stats()
    return apply_tiebreak(diagnosis, distances), gap


# ---------------------------------------------------------------------------
# The explain driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class WindowSummary:
    """Minimal violating injection window, in seconds."""

    start: float
    end: float
    original_start: float
    original_end: float
    resolution: float
    probes: int
    minimal: bool

    @property
    def span(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class ChannelSummary:
    """Minimal sufficient channel set of a composed intervention."""

    kept: tuple[tuple[str, str], ...]
    dropped: tuple[tuple[str, str], ...]
    probes: int
    minimal: bool


@dataclass(frozen=True, slots=True)
class MagnitudeSummary:
    """Minimal violating magnitude (verdict-boundary bracket)."""

    minimal: float
    lower: float
    original: float
    probes: int
    exhausted: bool


@dataclass(slots=True)
class CausalReport:
    """Ranked causal explanation of one violating run.

    The deliverable of :func:`explain`: the smallest intervention that
    still flips the verdict, per-assertion margin deltas between the
    violating run and its attack-free counterfactual, and a confidence
    derived from how many probes actually flipped the verdict (each flip
    is an independent confirmation that the boundary is where the report
    says it is: confidence = 1 − 2^−flips, and 0 whenever necessity
    itself failed).
    """

    subject: Subject
    intervention: Intervention
    violated: bool
    fired: tuple[str, ...] = ()
    background: tuple[str, ...] = ()
    """Assertions that fire even with the intervention removed (scenario
    noise, e.g. truncation tripping a liveness check) — excluded from the
    signature under explanation."""
    necessary: bool = False
    """Removing the intervention clears every *attributable* violation
    (fired minus background)."""
    minimal: Intervention | None = None
    """The composed minimal intervention (window ∧ channels ∧ magnitude)."""
    minimal_verified: bool = False
    """The composed minimal intervention was re-probed and still violates."""
    window: WindowSummary | None = None
    channels: ChannelSummary | None = None
    magnitude: MagnitudeSummary | None = None
    margin_deltas: dict[str, tuple[float, float]] = field(default_factory=dict)
    """assertion id -> (margin with intervention, margin without)."""
    diagnosis: DiagnosisResult | None = None
    tiebreak: TiebreakResult | None = None
    gap: SeparationGap | None = None
    probes: int = 0
    flipped: int = 0
    budget: int = DEFAULT_BUDGET
    budget_exhausted: bool = False

    @property
    def confidence(self) -> float:
        if not self.necessary:
            return 0.0
        return 1.0 - 0.5 ** self.flipped

    @property
    def isolated(self) -> bool:
        """A minimal intervention was isolated and verified: necessity
        confirmed, and every search that ran completed within budget."""
        if not (self.violated and self.necessary):
            return False
        for search in (self.window, self.channels):
            if search is not None and not search.minimal:
                return False
        if self.magnitude is not None and self.magnitude.exhausted:
            return False
        if self.minimal is not None and not self.minimal_verified:
            return False
        return True

    def render(self) -> str:
        from repro.core.report import render_causal_report
        return render_causal_report(self)


def explain(
    scenario: str,
    controller: str,
    attack: str = "none",
    fault: str = "none",
    intensity: float = 1.0,
    onset: float = 15.0,
    seed: int = 7,
    duration: float | None = None,
    budget: int = DEFAULT_BUDGET,
    resolution: float = DEFAULT_RESOLUTION,
    sim_engine: str | None = None,
    kb: KnowledgeBase | None = None,
    gate: float | None = None,
    defect: str | None = None,
    defect_args: dict | None = None,
    supervised: bool = False,
    end: float = math.inf,
) -> CausalReport:
    """Counterfactually isolate the minimal intervention behind a run.

    The four searches, in order (each only spends budget the previous
    ones left):

    (a) **necessity** — re-simulate with the intervention removed; the
        explanation is causal only if that clears the violation;
    (b) **window** — ddmin the injection window to a 1-minimal violating
        interval at ``resolution``-second granularity;
    (c) **channels** — ablate composed attack/fault channel sets to the
        minimal sufficient subset;
    (d) **magnitude** — bisect the intensity knob to the verdict boundary.

    The composed minimal intervention is then re-probed once to verify
    the axes compose.  When the diagnosis of the violating run is
    ambiguous, the hypothesis tester re-ranks its head and looks for a
    separation gap (see :func:`counterfactual_tiebreak`).

    All probes run through the shared result store; `budget` counts every
    probe, cached or not, so the report is cache-independent.

    ``gate``/``defect``/``defect_args``/``supervised`` extend the
    subject with the off-grid knobs of the E10/E13/E14 extensions (an
    NIS-gated estimator, an injected controller defect, the degradation
    supervisor) and ``end`` bounds the injection window, so every run a
    cache key resolves to (:func:`resolve_cache_key`) can be explained.

    Raises ``ValueError`` for a ``budget`` below two probes, a
    non-finite or non-positive ``resolution`` or a non-positive
    ``intensity`` (the magnitude search bisects ``(0, intensity]``).
    """
    if budget < 2:
        raise ValueError(
            f"budget must be at least 2 probes (the run and its clean "
            f"counterfactual), got {budget}")
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(
            f"resolution must be a positive number of seconds, "
            f"got {resolution}")
    if not intensity > 0:
        raise ValueError(f"intensity must be positive, got {intensity}")
    subject = Subject(scenario, controller, seed, duration, gate=gate,
                      defect=defect, defect_args=defect_args or (),
                      supervised=supervised)
    original = Intervention.from_labels(attack, fault, intensity=intensity,
                                        onset=onset, end=end)
    engine = ProbeEngine(subject, budget=budget, sim_engine=sim_engine)
    report = CausalReport(subject=subject, intervention=original,
                          violated=False, budget=budget)
    try:
        scenario_obj = subject.build_scenario()
        end_eff = min(original.end, scenario_obj.duration)
        span = end_eff - original.onset
        n = max(int(math.ceil(span / resolution - 1e-9)), 1)

        def window_time(i: int) -> float:
            # The last cell absorbs the sub-resolution remainder.
            return end_eff if i >= n else original.onset + i * resolution

        # The search axes that apply: a search generator plus the edit
        # that turns one of its candidates into a probe.
        parts = original.channels
        window = channels = None
        if span > 0:
            window = (lambda: ddmin_interval(n),
                      lambda w: original.with_window(window_time(w[0]),
                                                     window_time(w[1])))
        if len(parts) > 1:
            channels = (lambda: ddmin_subset(parts), original.with_channels)
        magnitude = (lambda: bisect_intensity(original.intensity),
                     original.with_intensity)
        axes = [axis for axis in (window, channels, magnitude) if axis]

        def search(make_search, edit):
            return run_search(
                make_search, lambda c: engine.violates(edit(c)),
                engine.remaining,
                prefetch=lambda cands: engine.prefetch(map(edit, cands)))

        # Round zero: push the baseline, the clean counterfactual and
        # each search's probe tree through the batch engine as one
        # speculative lane group — before the first verdict is even
        # inspected.  Every candidate is a pure function of the verdicts
        # before it, so the serial searches below then find (nearly)
        # everything already simulated; a search whose next candidate
        # lies outside the trees offered so far batches its own subtree
        # (run_search).  Serial order, budget and verdicts are
        # untouched; unconsumed lanes show up as `speculative_wasted` in
        # --stats and are never checked or committed.  A no-op on the
        # serial engine or when the original intervention is empty
        # (nothing to explain, nothing to batch).  A store holding a
        # prior explanation of this run also turns speculation off for
        # the whole explanation: the searches below replay that pass's
        # consumed-probe sequence from cache, and prefetch would only
        # re-simulate its wasted lanes — held raw and never committed,
        # by design.
        if not original.empty:
            trees = [edit(c) for make_search, edit in axes
                     for c in probe_tree(make_search, TREE_LIMIT)]
            if _explained_before(engine, subject, original, trees[:1]):
                engine.speculate = False
            engine.prefetch([original, original.removed()] + trees)

        base = engine.outcome(original)
        report.fired = base.fired
        report.violated = bool(base.fired)
        report.diagnosis = diagnose(base.report, kb)
        if not report.violated or original.empty:
            return report
        engine.baseline_fired = frozenset(base.fired)

        # (a) necessity + margin deltas against the clean counterfactual.
        # Assertions that fire even with the intervention removed are
        # *background* (e.g. a truncated scenario tripping a liveness
        # check) — they are subtracted from the signature under
        # explanation, and every later probe is scored against the
        # attributable remainder only.
        clean = engine.outcome(original.removed())
        background = frozenset(base.fired) & frozenset(clean.fired)
        attributable = frozenset(base.fired) - background
        report.background = tuple(
            aid for aid in base.fired if aid in background)
        report.necessary = bool(attributable)
        engine.baseline_fired = attributable
        if attributable and clean.violated:
            # The clean probe was scored against the full baseline (the
            # attributable set did not exist yet); it did clear the
            # attributable signature, so it counts as a flip.
            engine.flipped += 1
        report.margin_deltas = {
            aid: (base.margins.get(aid, 0.0), clean.margins.get(aid, 0.0))
            for aid in base.fired if aid in attributable
        }
        if not report.necessary:
            return report

        # (b) window ddmin over [onset, end_eff) at `resolution` steps.
        if window and engine.remaining > 0:
            (lo, hi), probes, exhausted = search(*window)
            report.window = WindowSummary(
                start=window_time(lo),
                end=window_time(hi),
                original_start=original.onset,
                original_end=end_eff,
                resolution=resolution,
                probes=probes,
                minimal=not exhausted,
            )

        # (c) channel ablation for composed interventions.
        if channels and engine.remaining > 0:
            kept, probes, exhausted = search(*channels)
            report.channels = ChannelSummary(
                kept=kept,
                dropped=tuple(p for p in parts if p not in kept),
                probes=probes,
                minimal=not exhausted,
            )

        # (d) magnitude 1-minimization toward the verdict boundary.
        if engine.remaining > 0:
            (least, lower), probes, exhausted = search(*magnitude)
            report.magnitude = MagnitudeSummary(
                minimal=least,
                lower=lower,
                original=original.intensity,
                probes=probes,
                exhausted=exhausted,
            )

        # Compose the minimal intervention; the window-only edit is the
        # fallback should the axes not compose.
        fallback = original
        if report.window is not None:
            fallback = original.with_window(report.window.start,
                                            report.window.end)
        minimal = fallback
        if report.channels is not None:
            minimal = minimal.with_channels(report.channels.kept)
        if report.magnitude is not None and not report.magnitude.exhausted:
            minimal = minimal.with_intensity(report.magnitude.minimal)
        report.minimal = minimal

        # Tail round: the probes that depend on the searches' results —
        # the composed-minimal verification, its window-only fallback and
        # the separation-gap hypotheses — batch as one last lane group
        # before the serial code below consumes the same objects.
        candidates = [d.cause for d in report.diagnosis.ranking[:2]]
        tail: list[Intervention] = []
        if minimal != original and engine.remaining > 0:
            tail += [minimal, fallback]
        if report.diagnosis.ambiguous and engine.remaining >= 2:
            tail += _hypotheses(candidates, original).values()
        if tail:
            engine.prefetch(tail)

        if minimal == original:
            report.minimal_verified = True
        elif engine.remaining > 0:
            report.minimal_verified = engine.violates(minimal)
            if not report.minimal_verified:
                # Non-monotone interaction: the per-axis minima do not
                # compose.  Fall back to the least aggressive composition
                # (window-only) — still a true minimal-window statement.
                report.minimal = fallback
                if engine.remaining > 0 and fallback != original:
                    report.minimal_verified = engine.violates(fallback)

        # Hypothesis testing when the diagnosis stays ambiguous.
        if report.diagnosis.ambiguous and engine.remaining >= 2:
            _, distances, gap = detect_separation_gap(
                engine, base.evidence, candidates, original, kb=kb)
            if distances:
                report.tiebreak = TiebreakResult(
                    candidates=tuple(c for c in candidates
                                     if c in distances),
                    distances=distances,
                    diagnosis=apply_tiebreak(report.diagnosis, distances),
                )
            report.gap = gap
        return report
    finally:
        report.probes = engine.probes
        report.flipped = engine.flipped
        report.budget_exhausted = engine.remaining <= 0
        engine.record_stats()


def _explained_before(engine: ProbeEngine, subject: Subject,
                      original: Intervention, first_search) -> bool:
    """The store holds every probe a previous explanation of this run
    consumed first: the baseline, then — unless the baseline violates
    nothing — the clean counterfactual, then — when those two show a
    necessary cause — the first search probe.  The baseline alone is not
    evidence: it is also the cached grid point of a campaign."""
    def cached(intervention):
        hit = engine.store.resolve(probe_params(subject, intervention))
        return None if hit is None else hit[0].report

    base = cached(original)
    if base is None or not base.any_fired:
        return base is not None
    clean = cached(original.removed())
    if clean is None:
        return False
    if not set(base.fired_ids) - set(clean.fired_ids):
        return True  # not necessary: the explanation stops here
    return all(cached(probe) is not None for probe in first_search)


_CACHE_KEY_RE = re.compile(r"^[0-9a-f]{40}$")


def resolve_cache_key(key: str) -> RunSpec | None:
    """Map a 40-hex run-cache key back to its :class:`RunSpec`, if known.

    Every commit ledgers its spec next to the entry
    (:meth:`~repro.experiments.cache.RunCache.record_params`), so grid
    points, the E10–E14 sweeps and counterfactual probes all resolve the
    same way: load the ledger entry, decode the spec.  Returns ``None``
    when the cache holds no (readable) ledger entry for ``key``.
    """
    if not _CACHE_KEY_RE.match(key):
        raise ValueError(f"{key!r} is not a 40-hex cache key")
    from repro.experiments.cache import RunCache
    cache = RunCache.from_env()
    data = cache.load_params(key) if cache is not None else None
    if data is None:
        return None
    try:
        return RunSpec.from_dict(data)
    except (TypeError, ValueError):
        return None

