"""Differential tests: vectorized checker vs the per-step oracle.

The vectorized engine (``check_trace(engine="vector")``) must reproduce
the per-step state machine (``engine="step"``, i.e. the
:class:`~repro.core.monitor.OnlineMonitor`) *exactly* — same
:class:`AssertionSummary` fields, same :class:`Violation` episodes, same
floats bit for bit.  Two layers of evidence:

* property-based margin streams (hypothesis) drive the shared episode
  state machine through arbitrary debounce/NaN/applicability patterns;
* random column traces drive each stateful assertion's column kernel
  (``margin_array``) against iterating its ``margin()`` record by record;
* a full attack x fault x controller grid of real simulated runs is
  checked with both engines against the complete catalog.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import (
    GpsJumpAssertion,
    RadarJumpAssertion,
    default_catalog,
    make_assertion,
)
from repro.core.checker import check_trace
from repro.core.dsl import BoundAssertion, FunctionAssertion
from repro.sim.engine import run_scenario
from repro.sim.scenario import acc_scenario, standard_scenarios
from repro.trace.io import trace_from_bytes, trace_to_npz_bytes
from repro.trace.schema import Trace, TraceMeta

from conftest import make_trace, short_scenario

# ---------------------------------------------------------------------------
# Property-based margin streams
# ---------------------------------------------------------------------------

# One stream element is either None (assertion not applicable at that
# step) or a margin value; NaN is legal and means "applicable but the
# margin computation degenerated" (it counts as a non-violating sample,
# matching `margin < 0` being False for NaN).
margin_values = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    # Cluster around the threshold where episode logic is most sensitive.
    st.sampled_from([-1e-9, 0.0, 1e-9, -0.5, 0.5]),
)
margin_streams = st.lists(margin_values, min_size=0, max_size=120)
debounces = st.tuples(st.integers(min_value=1, max_value=5),
                      st.integers(min_value=1, max_value=12))


def stream_assertion(debounce_on, debounce_off, settle_time=0.0,
                     vectorized=True):
    """An assertion whose margin is read verbatim from ``cte_true``,
    with ``gps_fresh=False`` marking inapplicable steps."""

    def fn(record, state):
        if not record.gps_fresh:
            return None
        return record.cte_true

    def fn_array(cols):
        return cols.cte_true, cols.gps_fresh

    return FunctionAssertion(
        "ST1", "margin stream", fn,
        fn_array=fn_array if vectorized else None,
        settle_time=settle_time,
        debounce_on=debounce_on, debounce_off=debounce_off,
    )


def stream_trace(stream):
    def mutate(step, record):
        value = stream[step]
        if value is None:
            return record.replace(gps_fresh=False)
        return record.replace(gps_fresh=True, cte_true=value)

    return make_trace(len(stream), mutate=mutate)


def assert_reports_identical(report_a, report_b):
    assert report_a.summaries == report_b.summaries
    assert report_a.violations == report_b.violations
    assert report_a.duration == report_b.duration


class TestPropertyStreams:
    @settings(max_examples=200, deadline=None)
    @given(stream=margin_streams, debounce=debounces)
    def test_vectorized_matches_step_oracle(self, stream, debounce):
        trace = stream_trace(stream)
        on, off = debounce
        vec = check_trace(trace, [stream_assertion(on, off)],
                          engine="vector")
        step = check_trace(trace, [stream_assertion(on, off)],
                           engine="step")
        assert_reports_identical(vec, step)

    @settings(max_examples=100, deadline=None)
    @given(stream=margin_streams, debounce=debounces,
           settle=st.sampled_from([0.0, 0.2, 1.0]))
    def test_sequential_fallback_matches_step_oracle(self, stream, debounce,
                                                     settle):
        # Without fn_array the offline engine walks margin() per record —
        # the fallback kept for user assertions without a column kernel.
        trace = stream_trace(stream)
        on, off = debounce
        vec = check_trace(
            trace, [stream_assertion(on, off, settle, vectorized=False)],
            engine="vector")
        step = check_trace(
            trace, [stream_assertion(on, off, settle, vectorized=False)],
            engine="step")
        assert_reports_identical(vec, step)

    @settings(max_examples=100, deadline=None)
    @given(stream=st.lists(
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        min_size=0, max_size=100))
    def test_bound_assertion_with_scaling(self, stream):
        trace = make_trace(
            len(stream),
            mutate=lambda step, r: r.replace(cte_true=stream[step]))

        def bound():
            return BoundAssertion("B1", "cte bound", "cte_true", 2.5,
                                  debounce_on=2, debounce_off=4).scale_bound(1.7)

        vec = check_trace(trace, [bound()], engine="vector")
        step = check_trace(trace, [bound()], engine="step")
        assert_reports_identical(vec, step)


# ---------------------------------------------------------------------------
# Column kernels of the stateful assertions vs their margin() recurrence
# ---------------------------------------------------------------------------

KERNEL_IDS = ("A4", "A5", "A6", "A7", "A8", "A15", "A16", "A18", "A19")
"""Assertions whose margin() carries state from record to record."""

SPECIALS = np.array([math.nan, math.inf, -math.inf])
VALUE_CHANNELS = ("gps_x", "gps_y", "odom_speed", "imu_yaw_rate",
                  "compass_yaw", "radar_range", "radar_range_rate",
                  "steer_cmd", "steer_applied", "dist_to_goal")


def _random_columns(n, seed, special_rate, poisoned, repeat_rate, gap_rate,
                    fresh_rates, backstep_rate=0.0):
    """Channel arrays for a random ``n``-record drive.

    Smooth kinematics plus noise, GPS jumps and freezes, a heading that
    wraps at +/-pi, radar tracks with gaps over 1 s, repeated timestamps
    (``dt == 0``), timestamps stepping back (``backstep_rate``) and
    NaN/+-inf values in the ``poisoned`` channels.
    """
    rng = np.random.default_rng(seed)
    dt = np.full(n, 0.1)
    dt[rng.random(n) < repeat_rate] = 0.0
    gaps = rng.random(n) < gap_rate
    dt[gaps] = rng.uniform(1.0, 2.5, int(gaps.sum()))
    backsteps = rng.random(n) < backstep_rate
    dt[backsteps] = -rng.uniform(0.05, 1.5, int(backsteps.sum()))
    t = np.concatenate(([0.0], np.cumsum(dt[1:]))) if n else np.zeros(0)
    speed = np.clip(8.0 + np.cumsum(rng.normal(0.0, 0.3, n)), 0.0, None)
    yaw_rate = rng.choice([0.0, 0.4, 1.5]) * np.sin(0.3 * t) \
        + rng.normal(0.0, 0.05, n)
    heading = rng.uniform(-math.pi, math.pi) + np.cumsum(yaw_rate * dt)
    x = np.cumsum(speed * np.cos(heading) * dt) + rng.normal(0.0, 0.5, n)
    y = np.cumsum(speed * np.sin(heading) * dt) + rng.normal(0.0, 0.5, n)
    if n and rng.random() < 0.5:  # a GPS jump or a frozen receiver
        k = int(rng.integers(n))
        if rng.random() < 0.5:
            x[k:] += rng.uniform(3.0, 30.0)
        else:
            x[k:], y[k:] = x[k], y[k]
    rate = rng.normal(0.0, 2.0) + rng.normal(0.0, 0.3, n)
    radar = 30.0 + np.cumsum(rate * dt)
    if n and rng.random() < 0.5:  # a ghost target or a scaled range
        k = int(rng.integers(n))
        radar[k:] *= rng.choice([0.3, 1.5])
    cols = {name: np.zeros(n) for name in Trace.field_names}
    cols.update(
        step=np.arange(n), t=t, true_v=speed,
        gps_x=x, gps_y=y, odom_speed=speed * rng.choice([1.0, 1.3])
        + rng.normal(0.0, 0.1, n),
        imu_yaw_rate=yaw_rate + rng.choice([0.0, 0.05]),
        compass_yaw=np.mod(heading + rng.normal(0.0, 0.02, n) + math.pi,
                           2.0 * math.pi) - math.pi,
        radar_range=radar, radar_range_rate=rate,
        steer_cmd=np.clip(np.cumsum(rng.normal(0.0, 0.1, n)), -0.8, 0.8),
        dist_to_goal=rng.choice([-1.0, 1.0]) * np.abs(
            rng.uniform(0.0, 20.0) - np.cumsum(speed * dt)),
    )
    cols["steer_applied"] = (np.clip(cols["steer_cmd"], -0.61, 0.61)
                             + rng.choice([0.0, 0.05])
                             + rng.normal(0.0, 0.005, n))
    for flag, p in fresh_rates.items():
        cols[flag] = rng.random(n) < p
    lead = np.zeros(n, dtype=bool)
    for _ in range(int(rng.integers(0, 3))):
        a, b = sorted(rng.integers(0, n + 1, 2).tolist())
        lead[a:b] = True
    cols["lead_present"] = lead
    for name in poisoned:
        hits = rng.random(n) < special_rate
        cols[name][hits] = rng.choice(SPECIALS, int(hits.sum()))
    for name in ("attack_name", "attack_channel", "fault_name",
                 "fault_channel", "supervisor_mode"):
        cols[name] = np.full(n, "")
    return cols


@st.composite
def column_traces(draw, backsteps=False):
    """Random column-backed trace builders (fresh trace per call).

    With ``backsteps``, timestamps may also step back: margin() and the
    column kernels of the stateful assertions must still agree, though
    the windowed whole-array kernels of other assertions assume sorted
    time and are not compared on such traces.
    """
    cols = _random_columns(
        n=draw(st.integers(min_value=0, max_value=160)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        special_rate=draw(st.sampled_from([0.0, 0.02, 0.1])),
        poisoned=draw(st.sets(st.sampled_from(VALUE_CHANNELS), max_size=3)),
        repeat_rate=draw(st.sampled_from([0.0, 0.1, 0.4])),
        gap_rate=draw(st.sampled_from([0.0, 0.03, 0.1])),
        fresh_rates={flag: draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
                     for flag in ("gps_fresh", "compass_fresh",
                                  "radar_fresh", "odom_fresh",
                                  "imu_fresh")},
        backstep_rate=draw(st.sampled_from([0.0, 0.05]))
        if backsteps else 0.0,
    )
    return lambda: Trace.from_columns(TraceMeta(scenario="random"), cols)


def _outcome(fn):
    """``fn()``'s value, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared across engines
        return type(exc)


def _record_margins(assertion, trace):
    """Iterate margin() over the records: the fallback's margin stream."""
    assertion.reset()
    margins = np.zeros(len(trace))
    applicable = np.zeros(len(trace), dtype=bool)
    for i, record in enumerate(trace):
        m = assertion.margin(record)
        if m is not None:
            margins[i] = m
            applicable[i] = True
    return margins, applicable, assertion.end_margin(trace[-1]) \
        if len(trace) else None


def _kernel_margins(assertion, trace):
    assertion.reset()
    margins, applicable = assertion.margin_array(trace.columns())
    if applicable is None:
        applicable = np.ones(len(trace), dtype=bool)
    margins = np.where(applicable, margins, 0.0)
    return margins, applicable, assertion.end_margin(trace[-1]) \
        if len(trace) else None


def assert_kernel_matches_records(assertion_factory, trace_factory):
    expected = _outcome(
        lambda: _record_margins(assertion_factory(), trace_factory()))
    got = _outcome(
        lambda: _kernel_margins(assertion_factory(), trace_factory()))
    if isinstance(expected, type) or isinstance(got, type):
        assert got is expected  # both raise, and the same error
        return
    (m0, a0, end0), (m1, a1, end1) = expected, got
    np.testing.assert_array_equal(a1, a0)
    # Bit for bit: int64 views tell -0.0 from 0.0 and keep NaN payloads.
    np.testing.assert_array_equal(m1.view(np.int64), m0.view(np.int64))
    assert (np.array([end1], dtype=float).view(np.int64).tolist()
            == np.array([end0], dtype=float).view(np.int64).tolist())


class TestColumnKernels:
    @pytest.mark.parametrize("assertion_id", KERNEL_IDS)
    @settings(max_examples=40, deadline=None)
    @given(trace_factory=column_traces(backsteps=True))
    def test_kernel_matches_margin_recurrence(self, assertion_id,
                                              trace_factory):
        assert_kernel_matches_records(
            lambda: make_assertion(assertion_id), trace_factory)

    # Other assertions' array kernels warn on inf - inf, which Python
    # floats compute silently; the verdicts are what is compared here.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(trace_factory=column_traces())
    def test_vector_report_matches_step_report(self, trace_factory):
        vec = _outcome(lambda: check_trace(trace_factory(), engine="vector"))
        step = _outcome(lambda: check_trace(trace_factory(), engine="step"))
        if isinstance(vec, type) or isinstance(step, type):
            assert vec is step
            return
        assert_reports_identical(vec, step)

    @pytest.mark.parametrize("factory,channel", [
        (lambda: GpsJumpAssertion(speed_margin=1.0, base_allowance=2.0),
         "gps_fresh"),
        (lambda: RadarJumpAssertion(closing_margin=1.0, base_allowance=2.0),
         "radar_fresh"),
    ])
    def test_zero_bound_raises_like_margin(self, factory, channel):
        # (-3 + 1) * 1.0 + 2.0 == 0.0 exactly: margin() divides by zero.
        cols = _random_columns(4, 0, 0.0, (), 0.0, 0.0, {})
        cols.update({"t": np.array([0.0, 1.0, 2.0, 3.0]),
                     "odom_speed": np.full(4, -3.0),
                     channel: np.ones(4, dtype=bool),
                     "lead_present": np.ones(4, dtype=bool)})
        trace = Trace.from_columns(None, cols)
        with pytest.raises(ZeroDivisionError):
            _record_margins(factory(), trace)
        assert_kernel_matches_records(factory, lambda: trace)


class TestNoMaterialization:
    def test_default_catalog_builds_no_records(self):
        # A15's end-of-trace check reads one record; nothing reads more.
        trace = trace_from_bytes(trace_to_npz_bytes(make_trace(120)))
        report = check_trace(trace)
        assert trace._records is None
        assert_reports_identical(report, check_trace(make_trace(120),
                                                     engine="step"))

    @pytest.mark.parametrize("with_end_fn", [False, True])
    def test_function_assertion_fallback(self, with_end_fn):
        def fn(record, state):
            state["max_x"] = max(state.get("max_x", -math.inf), record.gps_x)
            return 1.0 - abs(record.cte_true) / 0.5

        def end_fn(record, state):
            return state["max_x"] - 100.0  # the drive must pass x = 100 m

        def mutate(step, record):
            return record.replace(cte_true=1.0 if 30 <= step < 40 else 0.0)

        def assertion():
            return FunctionAssertion(
                "U1", "user", fn, end_fn=end_fn if with_end_fn else None,
                fn_array=(lambda cols: 1.0 - np.abs(cols.cte_true) / 0.5)
                if with_end_fn else None)

        trace = trace_from_bytes(trace_to_npz_bytes(
            make_trace(100, mutate=mutate)))
        vec = check_trace(trace, [assertion()])
        assert trace._records is not None  # the kept per-record loop ran
        step = check_trace(make_trace(100, mutate=mutate), [assertion()],
                           engine="step")
        assert_reports_identical(vec, step)
        assert [(v.t_start, v.worst_margin) for v in vec.violations][0] \
            == (pytest.approx(32 * 0.05), -1.0)  # debounce_on=3
        assert len(vec.violations) == (2 if with_end_fn else 1)


# ---------------------------------------------------------------------------
# Full-grid differential test on real simulated runs
# ---------------------------------------------------------------------------

GRID = [
    # (attack, fault, controller, supervised)
    ("none", None, "pure_pursuit", False),
    ("gps_bias", None, "pure_pursuit", False),
    ("gps_freeze", None, "stanley", False),
    ("radar_scale", None, "mpc", False),
    ("steer_offset", None, "lqr", False),
    ("none", "imu_dropout", "pure_pursuit", False),
    ("gps_bias", "radar_dropout", "stanley", False),
    ("none", "compass_nan", "pure_pursuit", True),
    ("none", "gps_dropout+compass_dropout", "pure_pursuit", True),
]


def _simulate(attack, fault, controller, supervised):
    from repro.attacks.campaign import standard_attack
    from repro.faults.campaign import combined_fault, standard_fault

    campaign = (standard_attack(attack, onset=4.0)
                if attack != "none" else None)
    faults = None
    if fault is not None:
        classes = fault.split("+")
        faults = (combined_fault(classes, onset=5.0) if len(classes) > 1
                  else standard_fault(fault, onset=5.0))
    return run_scenario(short_scenario("s_curve", duration=14.0),
                        controller=controller, campaign=campaign,
                        faults=faults, supervised=supervised)


class TestFullGrid:
    @pytest.mark.parametrize("attack,fault,controller,supervised", GRID)
    def test_engines_agree_on_full_catalog(self, attack, fault, controller,
                                           supervised):
        result = _simulate(attack, fault, controller, supervised)
        vec = check_trace(result.trace, default_catalog(), engine="vector")
        step = check_trace(result.trace, default_catalog(), engine="step")
        assert_reports_identical(vec, step)
        # Spot-check nothing silently became NaN on the vector path.
        for summary in vec.summaries.values():
            assert not math.isnan(summary.worst_margin)

    def test_engines_agree_on_acc_scenario(self):
        for attack in ("none", "radar_ghost", "radar_blind"):
            from repro.attacks.campaign import standard_attack

            campaign = (standard_attack(attack, onset=4.0)
                        if attack != "none" else None)
            scenario = acc_scenario(seed=7, duration=14.0)
            result = run_scenario(scenario, campaign=campaign)
            vec = check_trace(result.trace, default_catalog(),
                              engine="vector")
            step = check_trace(result.trace, default_catalog(),
                               engine="step")
            assert_reports_identical(vec, step)


# ---------------------------------------------------------------------------
# Engine selection plumbing
# ---------------------------------------------------------------------------

class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown checker engine"):
            check_trace(make_trace(5), [], engine="quantum")

    def test_env_var_selects_engine(self, monkeypatch):
        trace = make_trace(20)
        monkeypatch.setenv("ADASSURE_CHECKER", "step")
        via_env = check_trace(trace, default_catalog())
        monkeypatch.delenv("ADASSURE_CHECKER")
        default = check_trace(trace, default_catalog())
        assert_reports_identical(via_env, default)

    def test_env_var_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("ADASSURE_CHECKER", "warp")
        with pytest.raises(ValueError, match="unknown checker engine"):
            check_trace(make_trace(5), [])

    def test_duplicate_assertion_ids_rejected(self):
        pair = [BoundAssertion("D1", "a", "cte_true", 1.0),
                BoundAssertion("D1", "b", "cte_true", 2.0)]
        with pytest.raises(ValueError, match="duplicate"):
            check_trace(make_trace(5), pair, engine="vector")
