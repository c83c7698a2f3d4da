"""Tests of the benchmark's own helpers (no program code involved).

    python3 -m pytest loopbench -q
"""

import pytest

from loopbench import measure
from loopbench.instrument import accounting_error, layer_metrics
from loopbench.tracing import (
    ASYNC,
    NESTED_LAYER,
    NESTED_NAME,
    ROOT,
    Tracer,
    self_times,
    summarize,
)


def span(sid, parent, name, start, end, flags=0):
    return (sid, parent, name, start, end, flags)


# -- self time -----------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        span(1, ROOT, 0, 0.0, 10.0),
        span(2, 1, 1, 1.0, 4.0),
        span(3, 2, 2, 2.0, 3.0),
        span(4, 1, 1, 5.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: pytest.approx(3.0), 2: pytest.approx(2.0),
                     3: pytest.approx(1.0), 4: pytest.approx(4.0)}
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_merges_overlap_and_clips_children():
    spans = [
        span(1, ROOT, 0, 0.0, 10.0),
        span(2, 1, 1, 2.0, 6.0),
        span(3, 1, 1, 4.0, 8.0),     # overlaps span 2: covered once
        span(4, 1, 1, 9.0, 12.0),    # runs past the parent: clipped
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_coroutine_spans_cover_nothing_and_have_no_self_time():
    spans = [
        span(1, ROOT, 0, 0.0, 10.0),
        span(2, 1, 1, 1.0, 9.0, ASYNC),
        span(3, 1, 2, 2.0, 5.0),
    ]
    selfs = self_times(spans)
    assert 2 not in selfs
    assert selfs[1] == pytest.approx(7.0)


def test_summarize_counts_recursion_and_layers_once():
    names = ["bench.rep", "sim.run_batch", "sim.route", "check.check_trace"]
    spans = [
        span(1, ROOT, 0, 0.0, 10.0),
        span(2, 1, 1, 0.0, 6.0),
        span(3, 2, 2, 1.0, 3.0, NESTED_LAYER),
        span(4, 3, 2, 1.5, 2.5, NESTED_LAYER | NESTED_NAME),
        span(5, 1, 3, 6.0, 9.0),
    ]
    out = summarize(spans, names)
    assert out["busy"]["sim.route"] == pytest.approx(2.0)
    assert out["layer_busy"]["sim"] == pytest.approx(6.0)
    assert out["layer_self"]["sim"] == pytest.approx(6.0)
    assert out["self"]["bench.rep"] == pytest.approx(1.0)
    assert out["calls"]["sim.route"] == 2


def test_recorded_spans_nest_and_account_for_the_wall():
    tracer = Tracer()

    def leaf():
        return 1

    def middle():
        return leaf() + leaf()

    traced_leaf = tracer.wrap(leaf, "sim.leaf")
    traced_middle = tracer.wrap(lambda: traced_leaf() + traced_leaf(),
                                "check.middle")
    with tracer.span("bench.rep"):
        assert traced_middle() == middle()
    by_name = {tracer.names[ix]: (sid, parent)
               for sid, parent, ix, *_ in tracer.spans}
    assert by_name["check.middle"][1] == by_name["bench.rep"][0]
    assert by_name["sim.leaf"][1] == by_name["check.middle"][0]
    out = summarize(tracer.spans, tracer.names)
    wall = out["busy"]["bench.rep"]
    assert accounting_error(out, wall) < 1e-9
    assert out["calls"]["sim.leaf"] == 2


def test_within_leaves_calls_outside_the_layer_untraced():
    tracer = Tracer()
    built = tracer.wrap(lambda: 0, "sim.trace_build", within="sim")
    outer = tracer.wrap(lambda: built(), "sim.run_batch")
    with tracer.span("store.decode"):
        built()
    outer()
    names = [tracer.names[s[2]] for s in tracer.spans]
    assert names.count("sim.trace_build") == 1


def test_patch_function_reaches_from_imports_and_unpatches():
    import types
    module_a = types.ModuleType("repro_fake_a")

    def target():
        return 7
    module_a.target = target
    module_b = types.ModuleType("repro_fake_b")
    module_b.alias = target
    tracer = Tracer()
    tracer.patch_function(target, "sim.target", modules=[module_a, module_b])
    assert module_a.target is not target and module_b.alias is not target
    assert module_b.alias() == 7
    tracer.unpatch()
    assert module_a.target is target and module_b.alias is target


def test_layer_metrics_are_per_repetition():
    names = ["bench.rep", "diagnose.diagnose"]
    spans = [span(1, ROOT, 0, 0.0, 4.0), span(2, 1, 1, 1.0, 2.0),
             span(3, ROOT, 0, 5.0, 9.0), span(4, 3, 1, 6.0, 7.0)]
    out = layer_metrics(summarize(spans, names), {}, reps=2, wall_s=8.0)
    assert out["diagnose.busy_s"] == pytest.approx(1.0)
    assert out["diagnose.calls"] == pytest.approx(1.0)
    assert out["diagnose.us_per_call"] == pytest.approx(1e6)
    assert out["account.remainder_s"] == pytest.approx(3.0)
    assert out["account.wall_s"] == pytest.approx(4.0)


# -- percentiles -----------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert measure.percentile(range(1, 21), 50) == 10
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(range(1, 20), 50)
    assert measure.percentile(range(1, 101), 90) == 90
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(range(1, 100), 90)
    with pytest.raises(measure.TooFewSamples):
        measure.percentile([], 50)


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert measure.percentile(values, 50, min_beyond=0) == 3.0


def test_highest_supported_percentile_falls_back():
    assert measure.highest_supported(1000, 99) == 99
    assert measure.highest_supported(625, 99) == 95
    assert measure.highest_supported(48, 90) == 75
    assert measure.highest_supported(19, 50) is None


# -- error rate --------------------------------------------------------------

def test_error_rate_is_failed_over_attempted():
    assert measure.error_rate(0, 48) == 0.0
    assert measure.error_rate(3, 12) == 0.25
    assert measure.error_rate(5, 5) == 1.0


@pytest.mark.parametrize("failed, attempted", [(0, 0), (1, 0), (-1, 4),
                                               (5, 4)])
def test_error_rate_rejects_impossible_counts(failed, attempted):
    with pytest.raises(ValueError):
        measure.error_rate(failed, attempted)


def test_iqr_share():
    assert measure.iqr_share([1.0] * 10) == 0.0
    assert measure.iqr_share([9, 10, 10, 10, 11] * 2) == pytest.approx(
        0.1, abs=0.05)


def test_spans_are_written_and_read_back(tmp_path):
    import numpy as np
    tracer = Tracer()
    with tracer.span("bench.rep"):
        tracer.wrap(lambda: None, "sim.leaf")()
    path = tmp_path / "spans.npz"
    tracer.write(path)
    with np.load(path) as data:
        names = list(data["names"])
        assert [names[i] for i in data["name"]] == ["sim.leaf", "bench.rep"]
        assert data["parent"][0] == data["id"][1]
        assert (data["end"] >= data["start"]).all()


def test_percentile_metrics_name_the_percentile_reported():
    out = measure.percentile_metrics("x_ms", list(range(48)), (50, 90), "ms")
    assert set(out) == {"x_ms_p50", "x_ms_p75"}
    assert "p90 needs more samples" in out["x_ms_p75"][2]
    few = measure.percentile_metrics("y_ms", [1.0, 2.0], (50,), "ms")
    assert "too few samples" in few["y_ms_p50"][2]


def test_unstolen_discounts_steal_per_busy_cpu_up_to_half_the_wall():
    assert measure.unstolen(10.0, 2.0, 1) == pytest.approx(8.0)
    assert measure.unstolen(10.0, 2.0, 2) == pytest.approx(9.0)
    assert measure.unstolen(10.0, 0.0, 1) == 10.0
    assert measure.unstolen(10.0, 30.0, 1) == pytest.approx(5.0)
    assert measure.unstolen(10.0, -1.0, 1) == 10.0


def test_host_steal_is_a_nonnegative_clock():
    first = measure.host_steal_s()
    assert 0.0 <= first <= measure.host_steal_s()
