"""Tests for the persistent on-disk run cache and the bounded memo."""

import pytest

from repro.cli import main
from repro.experiments.cache import (
    CACHE_FORMAT_VERSION,
    RunCache,
    default_cache_dir,
)
from repro.experiments.runner import (
    _MEMO,
    clear_cache,
    resolve_workers,
    run_grid,
    run_scored,
    set_memo_limit,
)
from repro.experiments.spec import RunSpec
from repro.experiments.stats import STATS

POINT = dict(scenarios=("s_curve",), controllers=("pure_pursuit",),
             attacks=("gps_bias",), seeds=(7,), onset=5.0, duration=12.0)


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """A per-test cache dir with an empty memo."""
    monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("ADASSURE_CACHE", raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


def cache_key(scenario, controller, attack, intensity, seed, onset,
              duration, catalog=None):
    """The key of one grid point, through its RunSpec."""
    return RunSpec.from_labels(
        scenario, controller, attack, intensity=intensity, seed=seed,
        onset=onset, duration=duration).key(catalog)


class TestCacheKey:
    BASE = ("s_curve", "pure_pursuit", "gps_bias", 1.0, 7, 15.0, None)

    def test_stable(self):
        assert cache_key(*self.BASE) == cache_key(*self.BASE)
        # Equal specs key equal however their numbers were spelled.
        assert cache_key("s_curve", "pure_pursuit", "gps_bias", 1, 7.0,
                         15, None) == cache_key(*self.BASE)

    @pytest.mark.parametrize("index,value", [
        (0, "straight"),       # scenario
        (1, "stanley"),        # controller
        (2, "gps_drift"),      # attack
        (3, 0.5),              # intensity
        (4, 8),                # seed
        (5, 10.0),             # onset
        (6, 30.0),             # duration
    ])
    def test_any_coordinate_changes_key(self, index, value):
        changed = list(self.BASE)
        changed[index] = value
        assert cache_key(*changed) != cache_key(*self.BASE)

    def test_catalog_fingerprint_changes_key(self):
        assert (cache_key(*self.BASE, catalog="deadbeef")
                != cache_key(*self.BASE))

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        cache = RunCache()
        assert cache.root == tmp_path / "alt" / f"v{CACHE_FORMAT_VERSION}"


class TestDiskRoundTrip:
    def test_hit_after_memo_clear(self, fresh_cache):
        first = run_grid(**POINT)[0]
        assert STATS.last.executed == 1
        clear_cache()  # memo gone, disk stays
        second = run_grid(**POINT)[0]
        assert STATS.last.disk_hits == 1
        assert STATS.last.executed == 0
        # Bit-identical scoring either way.
        assert second.report.fired_ids == first.report.fired_ids
        assert second.report.duration == first.report.duration
        assert ([d.cause for d in second.diagnosis.ranking]
                == [d.cause for d in first.diagnosis.ranking])
        assert second.result.metrics == first.result.metrics
        assert second.result.trace.records == first.result.trace.records

    def test_changed_inputs_miss(self, fresh_cache):
        run_grid(**POINT)
        clear_cache()
        changed = dict(POINT, seeds=(8,))
        run_grid(**changed)
        assert STATS.last.disk_hits == 0
        assert STATS.last.executed == 1

    def test_corrupt_trace_silently_reruns(self, fresh_cache):
        from repro.trace.io import trace_from_bytes

        run_grid(**POINT)
        traces = list(fresh_cache.rglob("*.trace.npz"))
        assert traces, "cache wrote no trace payloads"
        traces[0].write_bytes(b"this is not a trace payload")
        clear_cache()
        runs = run_grid(**POINT)  # must re-simulate, not raise
        assert len(runs) == 1
        assert STATS.last.executed == 1
        assert STATS.last.disk_errors >= 1
        # The corrupt entry was evicted and rewritten as a valid trace.
        assert len(trace_from_bytes(traces[0].read_bytes())) > 0

    def test_corrupt_pickle_silently_reruns(self, fresh_cache):
        run_grid(**POINT)
        scored = list(fresh_cache.rglob("*.scored.pkl"))
        assert scored
        scored[0].write_bytes(b"\x80garbage")
        clear_cache()
        assert len(run_grid(**POINT)) == 1
        assert STATS.last.executed == 1

    def test_truncated_pickle_silently_reruns(self, fresh_cache):
        run_grid(**POINT)
        scored = list(fresh_cache.rglob("*.scored.pkl"))
        data = scored[0].read_bytes()
        scored[0].write_bytes(data[: len(data) // 2])
        clear_cache()
        assert len(run_grid(**POINT)) == 1
        assert STATS.last.executed == 1

    def test_cache_disabled_by_env(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("ADASSURE_CACHE", "0")
        run_grid(**POINT)
        assert not any(fresh_cache.rglob("*.scored.pkl"))
        clear_cache()
        run_grid(**POINT)
        assert STATS.last.disk_hits == 0
        assert STATS.last.executed == 1

    def test_clear_cache_disk_flag(self, fresh_cache):
        run_grid(**POINT)
        assert any(fresh_cache.rglob("*.scored.pkl"))
        clear_cache(disk=True)
        assert not any(fresh_cache.rglob("*.scored.pkl"))


class TestRunScored:
    """Off-grid runs (E10-E14 style) go through the same cache layers."""

    SPEC = RunSpec.from_labels("s_curve", attack="gps_bias", seed=3,
                               onset=5.0, duration=12.0, gate=13.8)

    def test_layers_and_identity(self, fresh_cache):
        result, report = run_scored(self.SPEC)
        assert STATS.last.executed == 1
        # Second call: memo hit, no simulation.
        again = run_scored(self.SPEC)
        assert STATS.last.memo_hits == 1
        assert again[1].fired_ids == report.fired_ids
        # Memo cleared: served from disk, still identical.
        clear_cache()
        res2, rep2 = run_scored(self.SPEC)
        assert STATS.last.disk_hits == 1
        assert rep2.fired_ids == report.fired_ids
        assert res2.metrics == result.metrics
        assert res2.trace.records == result.trace.records

    def test_different_params_execute(self, fresh_cache):
        from dataclasses import replace
        run_scored(self.SPEC)
        run_scored(replace(self.SPEC, seed=4))
        assert STATS.last.executed == 1


class TestMemoLru:
    def test_memo_is_bounded(self, fresh_cache):
        set_memo_limit(2)
        try:
            for seed in (1, 2, 3, 4):
                run_grid(**dict(POINT, seeds=(seed,)))
            assert len(_MEMO) == 2
            # Most recent seeds survive, oldest were evicted.
            kept_seeds = {spec.seed for spec in _MEMO}
            assert kept_seeds == {3, 4}
        finally:
            set_memo_limit(512)

    def test_evicted_point_served_from_disk(self, fresh_cache):
        set_memo_limit(1)
        try:
            run_grid(**dict(POINT, seeds=(1,)))
            run_grid(**dict(POINT, seeds=(2,)))  # evicts seed 1 from memo
            run_grid(**dict(POINT, seeds=(1,)))
            assert STATS.last.disk_hits == 1
            assert STATS.last.executed == 0
        finally:
            set_memo_limit(512)

    def test_set_memo_limit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_memo_limit(0)


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("ADASSURE_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("ADASSURE_WORKERS", "7")
        assert resolve_workers(None) == 7

    def test_default_is_at_least_one(self, monkeypatch):
        monkeypatch.delenv("ADASSURE_WORKERS", raising=False)
        assert resolve_workers(None) >= 1

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("ADASSURE_WORKERS", "lots")
        assert resolve_workers(None) >= 1


class TestCacheCli:
    def test_stats_and_clear(self, fresh_cache, capsys):
        run_grid(**POINT)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries    : 1" in out
        assert str(fresh_cache) in out
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 cached run(s)" in out
        assert main(["cache", "stats"]) == 0
        assert "entries    : 0" in capsys.readouterr().out
