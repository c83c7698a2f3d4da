"""Unit + property tests for the counterfactual search cores.

The delta-debugging cores are generators over verdicts, driven by
:func:`run_search` against a ``violates`` predicate, so hypothesis can
drive them with *arbitrary* predicates — including adversarially
non-monotone ones — without a simulator in the loop.  Pinned guarantees:

* ``ddmin_interval``: the result always violates, is 1-minimal on
  normal exit, never loops, and respects the probe budget even when the
  predicate is non-monotone;
* ``ddmin_subset``: minimal sufficient subsets, singleton fast path,
  order preservation, budget contract;
* ``bisect_intensity``: the boundary bracket, resolution contract;
* ``probe_tree``: uncapped, it holds every candidate a search probes
  under any verdict stream — the batch engine's speculation can never
  drift from the search it speculates for;
* the key regression: an *edited* intervention can never alias the
  original cache entry or any sibling edit — every RunSpec field rides
  in the cache key, specs round-trip through their ledger form, and an
  *unedited* probe of a grid point is exactly that grid point's entry.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.counterfactual import (
    Intervention,
    Subject,
    bisect_intensity,
    ddmin_interval,
    ddmin_subset,
    probe_params,
    probe_tree,
    run_search,
)
from repro.experiments.spec import RunSpec, build_grid


# ---------------------------------------------------------------------------
# ddmin_interval: property suite
# ---------------------------------------------------------------------------

class CountingPredicate:
    """Wrap a violates(lo, hi) predicate; count and sanity-check calls."""

    def __init__(self, fn, n):
        self.fn = fn
        self.n = n
        self.calls = 0

    def __call__(self, window):
        lo, hi = window
        self.calls += 1
        assert 0 <= lo < hi <= self.n, "probe outside the original window"
        return self.fn(lo, hi)


def interval(pred, n, budget):
    """``((lo, hi), probes, exhausted)`` of ddmin over ``[0, n)``."""
    return run_search(lambda: ddmin_interval(n), pred, budget)


@st.composite
def violating_windows(draw):
    """A window size plus an embedded violating core [a, b)."""
    n = draw(st.integers(min_value=1, max_value=60))
    a = draw(st.integers(min_value=0, max_value=n - 1))
    b = draw(st.integers(min_value=a + 1, max_value=n))
    return n, a, b


@given(violating_windows())
@settings(max_examples=200, deadline=None)
def test_interval_monotone_finds_exact_core(case):
    """Monotone predicate (violates iff the core is covered): ddmin must
    recover the core exactly, and it is 1-minimal."""
    n, a, b = case
    pred = CountingPredicate(lambda lo, hi: lo <= a and hi >= b, n)
    (lo, hi), probes, exhausted = interval(pred, n, 10_000)
    assert not exhausted
    assert (lo, hi) == (a, b)
    assert probes == pred.calls
    # 1-minimality, re-checked from outside the search:
    if hi - lo > 1:
        assert not pred.fn(lo + 1, hi)
        assert not pred.fn(lo, hi - 1)


@given(violating_windows(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=200, deadline=None)
def test_interval_nonmonotone_never_overshrinks_or_loops(case, salt):
    """Arbitrary predicate (only required to violate on the full window):
    the result still violates, never grows, and the search terminates
    within its budget."""
    n, a, b = case

    def chaotic(lo, hi):
        if (lo, hi) == (0, n):
            return True
        # Deterministic pseudo-random verdict per sub-window.
        return bool((lo * 2654435761 ^ hi * 40503 ^ salt) & 4)

    pred = CountingPredicate(chaotic, n)
    (lo, hi), probes, exhausted = interval(pred, n, 10_000)
    assert 0 <= lo < hi <= n
    # Whatever came back was *witnessed* violating (full window counts).
    assert chaotic(lo, hi)
    assert probes <= 10_000
    if not exhausted and hi - lo > 1:
        assert not chaotic(lo + 1, hi)
        assert not chaotic(lo, hi - 1)


@given(violating_windows(), st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None)
def test_interval_budget_contract(case, budget):
    """Tiny budgets: at most ``budget`` probes, exhaustion flagged, and
    the partial result is still a violating window."""
    n, a, b = case
    pred = CountingPredicate(lambda lo, hi: lo <= a and hi >= b, n)
    (lo, hi), probes, exhausted = interval(pred, n, budget)
    assert pred.calls <= budget
    assert probes == pred.calls
    assert lo <= a and hi >= b  # never shrank past the core
    if exhausted:
        assert probes == budget  # only a spent budget stops a search


def test_interval_rejects_empty_window():
    with pytest.raises(ValueError):
        interval(lambda w: True, 0, 8)


def test_interval_single_unit_is_trivially_minimal():
    assert interval(lambda w: True, 1, 8) == ((0, 1), 0, False)


def test_interval_always_violating_converges_to_one_unit():
    (lo, hi), _, exhausted = interval(lambda w: True, 64, 10_000)
    assert hi - lo == 1
    assert not exhausted


# ---------------------------------------------------------------------------
# ddmin_subset
# ---------------------------------------------------------------------------

def subset(violates, items, budget):
    """``(kept, probes, exhausted)`` of ddmin over ``items``."""
    return run_search(lambda: ddmin_subset(items), violates, budget)


def test_subset_singleton_fast_path():
    calls = []

    def violates(candidate):
        calls.append(candidate)
        return candidate == ("x",)

    # Fast path: found at the second singleton probe, no leave-one-out.
    assert subset(violates, ("a", "x", "b"), 64) == (("x",), 2, False)
    assert calls == [("a",), ("x",)]


def test_subset_pairwise_minimum_preserves_order():
    # Violation needs both "a" and "c"; no singleton suffices.
    def violates(candidate):
        return "a" in candidate and "c" in candidate

    kept, _, exhausted = subset(violates, ("a", "b", "c", "d"), 64)
    assert kept == ("a", "c")
    assert not exhausted


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=100, deadline=None)
def test_subset_result_always_violates(size, data):
    items = tuple(f"i{k}" for k in range(size))
    core = frozenset(data.draw(
        st.sets(st.sampled_from(items), min_size=1, max_size=size)))

    def violates(candidate):
        return core <= set(candidate)

    kept, _, _ = subset(violates, items, 10_000)
    assert violates(kept)
    assert set(kept) == core  # monotone case: exactly the core
    assert tuple(x for x in items if x in core) == kept  # order kept


def test_subset_budget_exhaustion_returns_violating_superset():
    def violates(candidate):
        return "a" in candidate and "e" in candidate

    kept, probes, exhausted = subset(violates, ("a", "b", "c", "d", "e"), 3)
    assert exhausted
    assert probes == 3
    assert violates(kept)


def test_subset_rejects_empty():
    with pytest.raises(ValueError):
        subset(lambda s: True, (), 8)


# ---------------------------------------------------------------------------
# bisect_intensity
# ---------------------------------------------------------------------------

def test_bisect_brackets_threshold():
    (least, lower), _, exhausted = run_search(
        lambda: bisect_intensity(1.0, rel_resolution=1 / 16),
        lambda x: x >= 0.3, 64)
    assert not exhausted
    assert lower < 0.3 <= least
    assert least - lower <= 1.0 / 16 + 1e-12


def test_bisect_magnitude_free_converges_to_zero():
    (least, _), _, _ = run_search(lambda: bisect_intensity(1.0),
                                  lambda x: True, 64)
    assert least <= 1.0 / 16 + 1e-12


def test_bisect_budget_contract():
    calls = []

    def violates(x):
        calls.append(x)
        return x >= 0.3

    (least, _), probes, exhausted = run_search(
        lambda: bisect_intensity(1.0, rel_resolution=1e-6), violates, 5)
    assert exhausted
    assert len(calls) == probes == 5
    assert least >= 0.3  # upper end stayed violating


def test_bisect_rejects_nonpositive():
    with pytest.raises(ValueError):
        run_search(lambda: bisect_intensity(0.0), lambda x: True, 8)


# ---------------------------------------------------------------------------
# probe_tree: the uncapped tree covers every search, every verdict stream
# ---------------------------------------------------------------------------

SEARCHES = {
    "interval": st.integers(1, 10).map(
        lambda n: lambda: ddmin_interval(n)),
    "subset": st.integers(1, 5).map(
        lambda k: lambda: ddmin_subset(range(k))),
    "intensity": st.tuples(
        st.floats(0.01, 64.0, allow_nan=False),
        st.sampled_from((1 / 4, 1 / 16, 1 / 64))).map(
        lambda a: lambda: bisect_intensity(*a)),
}


@given(st.sampled_from(sorted(SEARCHES)).flatmap(lambda k: SEARCHES[k]),
       st.data())
@settings(max_examples=300, deadline=None)
def test_probe_tree_covers_every_probe(make_search, data):
    """Any verdict stream — even one contradicting itself on a repeated
    candidate — only ever probes candidates in the uncapped tree."""
    probed = []

    def violates(candidate):
        probed.append(candidate)
        return data.draw(st.booleans())

    run_search(make_search, violates, 10_000)
    tree = probe_tree(make_search, math.inf)
    assert len(set(tree)) == len(tree)
    assert set(probed) <= set(tree)


def test_probe_tree_is_shallowest_first_and_capped():
    # Bisection's tree is its bracket tree, level by level, violating
    # (lower) half first — the exact floats the search computes.
    assert probe_tree(lambda: bisect_intensity(1.0, 1 / 4), 3) == (
        0.5, 0.25, 0.75)
    assert probe_tree(lambda: bisect_intensity(1.0, 1 / 4), math.inf) == (
        0.5, 0.25, 0.75)
    # A prefix roots the tree at the search's state after those verdicts.
    assert probe_tree(lambda: bisect_intensity(1.0, 1 / 8), 8,
                      prefix=(False,)) == (0.75, 0.625, 0.875)
    assert probe_tree(lambda: ddmin_subset("ab"), 8) == (("a",), ("b",))
    assert probe_tree(lambda: ddmin_interval(1), 8) == ()


# ---------------------------------------------------------------------------
# Key regression: edited interventions never alias cache entries
# ---------------------------------------------------------------------------

SUBJECT = Subject(scenario="s_curve", controller="pure_pursuit", seed=7,
                  duration=20.0)
BASE = Intervention.from_labels(attack="gps_bias", fault="gps_dropout",
                                intensity=1.0, onset=10.0)


def probe_key(iv: Intervention) -> str:
    return probe_params(SUBJECT, iv).key()


def test_every_edit_field_changes_the_cache_key():
    edits = {
        "base": BASE,
        "window-end": BASE.with_window(10.0, 13.0),
        "window-onset": BASE.with_window(11.0, math.inf),
        "intensity": BASE.with_intensity(0.5),
        "channels": BASE.with_channels((("attack", "gps_bias"),)),
        "removed": BASE.removed(),
    }
    keys = {name: probe_key(iv) for name, iv in edits.items()}
    # The subject's off-grid knobs ride in the key as well.
    for name, subject in {
        "gate": Subject("s_curve", "pure_pursuit", 7, 20.0, gate=13.8),
        "defect": Subject("s_curve", "pure_pursuit", 7, 20.0,
                          defect="ctrl_deadband",
                          defect_args=(("threshold", 0.12),)),
        "defect-args": Subject("s_curve", "pure_pursuit", 7, 20.0,
                               defect="ctrl_deadband",
                               defect_args=(("threshold", 0.2),)),
        "supervised": Subject("s_curve", "pure_pursuit", 7, 20.0,
                              supervised=True),
    }.items():
        keys[name] = probe_params(subject, BASE).key()
    assert len(set(keys.values())) == len(keys), (
        "edited interventions collided in the probe key space")


def test_unedited_probe_is_the_grid_entry():
    """An unchanged probe of a grid point is that grid point — same
    spec, same cache entry — while any edit leaves the grid's key."""
    (grid,) = build_grid(("s_curve",), ("pure_pursuit",), ("gps_bias",),
                         (7,), onset=10.0, duration=20.0)
    attack_only = Intervention.from_labels(attack="gps_bias", onset=10.0)
    assert probe_params(SUBJECT, attack_only) == grid
    assert probe_key(attack_only) == grid.key()
    assert probe_key(attack_only.with_intensity(0.5)) != grid.key()


def test_unbounded_window_serializes_without_infinity():
    import json
    d = probe_params(SUBJECT, BASE).to_dict()
    assert d["end"] is None
    assert probe_params(
        SUBJECT, BASE.with_window(10.0, 13.0)).to_dict()["end"] == 13.0
    json.dumps(d, allow_nan=False)  # the ledger form is strict JSON
    probe_key(BASE)


@given(st.floats(min_value=0.01, max_value=2.0,
                 allow_nan=False, allow_infinity=False),
       st.floats(min_value=0.0, max_value=30.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_intensity_onset_edits_key_injectively(intensity, onset):
    edited = BASE.with_intensity(intensity).with_window(onset, math.inf)
    if edited == BASE:
        assert probe_key(edited) == probe_key(BASE)
    else:
        assert probe_key(edited) != probe_key(BASE)


specs = st.builds(
    RunSpec,
    scenario=st.sampled_from(("s_curve", "urban_loop", "acc_follow")),
    controller=st.sampled_from(("pure_pursuit", "stanley", "lqr")),
    seed=st.integers(0, 2 ** 16),
    duration=st.one_of(st.none(), st.floats(1.0, 90.0)),
    attacks=st.lists(st.sampled_from(("gps_bias", "imu_gyro_bias")),
                     unique=True, max_size=2).map(tuple),
    faults=st.lists(st.sampled_from(("gps_dropout", "odom_freeze")),
                    unique=True, max_size=2).map(tuple),
    intensity=st.floats(0.01, 4.0),
    onset=st.floats(0.0, 60.0),
    end=st.one_of(st.just(math.inf), st.floats(0.0, 90.0)),
    gate=st.one_of(st.none(), st.floats(1.0, 30.0)),
    defect=st.one_of(st.none(), st.just("ctrl_gain_error")),
    defect_args=st.one_of(st.just(()), st.floats(0.5, 9.0).map(
        lambda f: (("factor", f),))),
    supervised=st.booleans(),
)


@given(specs)
@settings(max_examples=200, deadline=None)
def test_spec_round_trips_through_its_ledger_form(spec):
    import json
    ledger = json.loads(json.dumps(spec.to_dict(), allow_nan=False))
    assert RunSpec.from_dict(ledger) == spec
    assert RunSpec.from_dict(ledger).key("cat") == spec.key("cat")


@given(specs, specs)
@settings(max_examples=200, deadline=None)
def test_distinct_specs_get_distinct_keys(a, b):
    assert (a.key("cat") == b.key("cat")) == (a == b)


# ---------------------------------------------------------------------------
# Separation-gap proposals (simulator-free: signatures passed in directly)
# ---------------------------------------------------------------------------

def test_propose_separators_prefers_simulated_differences():
    from repro.core.knowledge import default_knowledge_base
    from repro.experiments.counterfactual import _propose_separators

    signatures = {
        "gps_bias": {"A1": 0.9, "A4": 0.8, "A9G": 0.2},
        "gps_drift": {"A1": 0.9, "A4": 0.1, "A9G": 0.9},
    }
    proposed = _propose_separators("gps_bias", "gps_drift", signatures,
                                   default_knowledge_base())
    # A4 and A9G disagree strongly between the simulated signatures;
    # the shared A1 separates nothing and must not be proposed.
    assert set(proposed) <= {"A4", "A9G"}
    assert proposed[0] in ("A4", "A9G")


def test_propose_separators_falls_back_to_kb_profiles():
    from repro.core.knowledge import CauseProfile, KnowledgeBase
    from repro.experiments.counterfactual import _propose_separators

    kb = KnowledgeBase([
        CauseProfile("x_one", "x", {"A1": 0.9, "A2": 0.1}),
        CauseProfile("y_two", "y", {"A1": 0.9, "A2": 0.8}),
    ])
    # Simulated signatures identical: no empirical separator exists.
    flat = {"x_one": {"A1": 0.5}, "y_two": {"A1": 0.5}}
    proposed = _propose_separators("x_one", "y_two", flat, kb)
    assert proposed == ("A2",)


def test_propose_separators_suggests_new_assertion_when_all_flat():
    from repro.core.knowledge import CauseProfile, KnowledgeBase
    from repro.experiments.counterfactual import _propose_separators

    kb = KnowledgeBase([
        CauseProfile("gps_bias", "a", {"A1": 0.9}),
        CauseProfile("odom_scale", "b", {"A1": 0.9}),
    ])
    flat = {"gps_bias": {"A1": 0.5}, "odom_scale": {"A1": 0.5}}
    proposed = _propose_separators("gps_bias", "odom_scale", flat, kb)
    assert proposed == ("new: gps-vs-odom cross-channel consistency",)


# ---------------------------------------------------------------------------
# Intervention algebra
# ---------------------------------------------------------------------------

def test_from_labels_composed():
    iv = Intervention.from_labels(attack="gps_bias+imu_gyro_bias",
                                  fault="gps_dropout")
    assert iv.attacks == ("gps_bias", "imu_gyro_bias")
    assert iv.faults == ("gps_dropout",)
    assert iv.label == "gps_bias+imu_gyro_bias+gps_dropout"
    assert iv.channels == (("attack", "gps_bias"), ("attack", "imu_gyro_bias"),
                           ("fault", "gps_dropout"))


def test_from_labels_rejects_unknown():
    with pytest.raises(ValueError):
        Intervention.from_labels(attack="warp_drive")


def test_removed_is_empty_and_none_labelled():
    gone = BASE.removed()
    assert gone.empty
    assert gone.label == "none"
    attack, fault = gone.campaigns()
    assert not attack.attacks
    assert not fault.faults


def test_with_channels_preserves_order_and_kind():
    iv = Intervention.from_labels(attack="gps_bias+imu_gyro_bias",
                                  fault="gps_dropout")
    kept = iv.with_channels((("fault", "gps_dropout"),
                             ("attack", "imu_gyro_bias")))
    assert kept.attacks == ("imu_gyro_bias",)
    assert kept.faults == ("gps_dropout",)
