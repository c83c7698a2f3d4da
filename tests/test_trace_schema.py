"""Tests for repro.trace.schema."""

import numpy as np
import pytest

from repro.trace.schema import Trace, TraceMeta, TraceRecord

from conftest import make_record, make_trace


class TestTraceRecord:
    def test_replace(self):
        r = make_record(0)
        r2 = r.replace(gps_x=99.0)
        assert r2.gps_x == 99.0
        assert r.gps_x != 99.0

    def test_frozen(self):
        r = make_record(0)
        with pytest.raises(Exception):
            r.gps_x = 1.0  # type: ignore[misc]


class TestTraceContainer:
    def test_append_and_len(self):
        trace = make_trace(10)
        assert len(trace) == 10

    def test_append_requires_increasing_steps(self):
        trace = Trace()
        trace.append(make_record(5))
        with pytest.raises(ValueError):
            trace.append(make_record(5))
        with pytest.raises(ValueError):
            trace.append(make_record(3))

    def test_getitem_and_slice(self):
        trace = make_trace(10)
        assert trace[0].step == 0
        sub = trace[2:5]
        assert isinstance(sub, Trace)
        assert len(sub) == 3
        assert sub.meta is trace.meta

    def test_iteration(self):
        steps = [r.step for r in make_trace(5)]
        assert steps == [0, 1, 2, 3, 4]

    def test_duration_and_dt(self):
        trace = make_trace(101)
        assert trace.duration == pytest.approx(5.0)
        assert trace.dt == pytest.approx(0.05)

    def test_empty_duration(self):
        assert Trace().duration == 0.0


class TestColumnBackedIndexing:
    """Integer indexing a column-backed trace builds only that record."""

    @staticmethod
    def _pair():
        def mutate(step, record):
            return record.replace(
                cte_true=step * 0.1 - 0.7,            # float
                gps_fresh=step % 3 == 0,              # bool
                supervisor_lost=step % 4,             # int
                attack_name=f"attack-{step}",         # str
                supervisor_mode="safe_stop" if step > 5 else "")

        records = make_trace(10, mutate=mutate)
        columns = Trace.from_columns(records.meta, {
            name: records.columns().get(name) for name in Trace.field_names})
        return records, columns

    @pytest.mark.parametrize("index", [0, 3, 9, -1, -10, np.int64(4)])
    def test_matches_list_indexing(self, index):
        records, columns = self._pair()
        got = columns[index]
        assert got == records[index]
        for name in ("cte_true", "gps_fresh", "supervisor_lost",
                     "attack_name", "step", "t"):
            value = getattr(got, name)
            assert type(value) is type(getattr(records[index], name))
        assert columns._records is None

    @pytest.mark.parametrize("index", [10, -11, 100])
    def test_out_of_range(self, index):
        records, columns = self._pair()
        with pytest.raises(IndexError):
            records[index]
        with pytest.raises(IndexError):
            columns[index]
        assert columns._records is None

    def test_non_integer_index_rejected(self):
        _, columns = self._pair()
        with pytest.raises(TypeError):
            columns[1.5]

    def test_slice_still_materializes(self):
        records, columns = self._pair()
        assert list(columns[2:4]) == list(records[2:4])


class TestColumns:
    def test_column_values(self):
        trace = make_trace(4)
        xs = trace.column("true_x")
        assert isinstance(xs, np.ndarray)
        assert xs[1] == pytest.approx(8.0 * 0.05)

    def test_bool_column_as_float(self):
        trace = make_trace(3)
        fresh = trace.column("gps_fresh")
        assert set(fresh) <= {0.0, 1.0}

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            make_trace(3).column("nope")

    def test_string_column_rejected(self):
        with pytest.raises(TypeError):
            make_trace(3).column("attack_name")

    def test_times(self):
        t = make_trace(3).times()
        assert t[2] == pytest.approx(0.1)


class TestWindowAndOnset:
    def test_window(self):
        trace = make_trace(100)
        w = trace.window(1.0, 2.0)
        assert all(1.0 <= r.t < 2.0 for r in w)

    def test_attack_onset(self):
        def mutate(step, record):
            if step >= 50:
                return record.replace(attack_active=True, attack_name="x")
            return record

        trace = make_trace(100, mutate=mutate)
        assert trace.attack_onset() == pytest.approx(50 * 0.05)

    def test_no_attack_onset(self):
        assert make_trace(10).attack_onset() is None


class TestMeta:
    def test_roundtrip(self):
        meta = TraceMeta(scenario="s", controller="c", attack="a", seed=3,
                         dt=0.02, route_length=123.0, extra={"k": 1})
        back = TraceMeta.from_dict(meta.to_dict())
        assert back.scenario == "s"
        assert back.extra == {"k": 1}
        assert back.dt == 0.02

    def test_from_partial_dict(self):
        meta = TraceMeta.from_dict({})
        assert meta.attack == "none"
