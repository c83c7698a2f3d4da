"""Crash tolerance of the grid runner.

The fault-tolerance contract of :func:`repro.experiments.runner.run_grid`:
a poisoned worker, a hung point, a flaky point, or an interrupt must not
cost a campaign more than the affected points — and never its
correctness.  These tests sabotage ``runner._execute_point`` through
monkeypatching; with the default ``fork`` start method on Linux the
patched module state propagates into pool workers, so child-only
behaviours are keyed on the parent PID captured at import time.
"""

import json
import os

import pytest

from repro.experiments import runner
from repro.experiments.runner import clear_cache, run_grid
from repro.experiments.spec import build_grid
from repro.experiments.stats import STATS

_PARENT = os.getpid()
"""PID of the pytest process: sabotage keyed on it fires only in
forked pool children, so the serial fallback (run in the parent)
succeeds."""

GRID = dict(scenarios=("s_curve",), controllers=("pure_pursuit",),
            attacks=("gps_bias", "odom_scale"), seeds=(1, 7),
            onset=5.0, duration=12.0)

_REAL_EXECUTE = runner._execute_point


# The sabotage stand-ins are module-level so the pool can pickle them by
# reference (a monkeypatched ``runner._execute_point`` is sent to workers
# by qualified name; forked children already hold this module).

def _poison_odom_scale(point):
    """Kills the *worker process* on odom_scale points — children only,
    so the parent's serial fallback still succeeds."""
    if os.getpid() != _PARENT and point.attack == "odom_scale":
        os._exit(13)
    return _REAL_EXECUTE(point)


def _hang_first_gps_bias(point):
    """Wedges the worker on the (gps_bias, seed 1) point — children only."""
    if (os.getpid() != _PARENT and point.attack == "gps_bias"
            and point.seed == 1):
        import time
        time.sleep(8.0)
    return _REAL_EXECUTE(point)


@pytest.fixture(autouse=True)
def serial_engine(monkeypatch):
    """Pin the serial engine: every test here sabotages
    ``runner._execute_point``, which the auto-selected batch prepass
    would legitimately bypass."""
    monkeypatch.setenv("ADASSURE_SIM", "serial")


@pytest.fixture()
def no_cache(monkeypatch):
    monkeypatch.setenv("ADASSURE_CACHE", "0")
    monkeypatch.setattr(runner, "_RETRY_BACKOFF", 0.0)
    clear_cache()
    yield
    clear_cache()


def _same_runs(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.result.trace.records == rb.result.trace.records
        assert ra.report.fired_ids == rb.report.fired_ids


class TestPoolCollapse:
    def test_poisoned_worker_degrades_to_serial(self, no_cache,
                                                monkeypatch):
        expected = run_grid(workers=1, **GRID)
        clear_cache()
        monkeypatch.setattr(runner, "_execute_point", _poison_odom_scale)
        survived = run_grid(workers=2, **GRID)
        assert STATS.last.pool_failures >= 1
        assert STATS.last.quarantined == []
        _same_runs(survived, expected)

    def test_hung_point_times_out_and_reruns_serially(self, no_cache,
                                                      monkeypatch):
        expected = run_grid(workers=1, **GRID)
        clear_cache()
        monkeypatch.setattr(runner, "_execute_point", _hang_first_gps_bias)
        survived = run_grid(workers=2, point_timeout=3.0, **GRID)
        assert STATS.last.timeouts >= 1
        _same_runs(survived, expected)


class TestRetryAndQuarantine:
    def test_flaky_point_succeeds_after_retries(self, no_cache,
                                                monkeypatch):
        attempts = {"n": 0}

        def flaky(point):
            if point.attack == "gps_bias" and point.seed == 1:
                attempts["n"] += 1
                if attempts["n"] <= 2:
                    raise OSError("transient")
            return _REAL_EXECUTE(point)

        monkeypatch.setattr(runner, "_execute_point", flaky)
        runs = run_grid(workers=1, retries=2, **GRID)
        assert len(runs) == 4
        assert STATS.last.retries == 2
        assert STATS.last.quarantined == []

    def test_hopeless_point_is_quarantined_not_fatal(self, no_cache,
                                                     monkeypatch):
        def hopeless(point):
            if point.attack == "odom_scale":
                raise RuntimeError("sick point")
            return _REAL_EXECUTE(point)

        monkeypatch.setattr(runner, "_execute_point", hopeless)
        runs = run_grid(workers=1, retries=1, **GRID)
        assert len(runs) == 2  # both odom_scale points dropped
        assert all(r.attack == "gps_bias" for r in runs)
        quarantined = STATS.last.quarantined
        assert len(quarantined) == 2
        assert all("sick point" in error for _, error in quarantined)
        rendered = STATS.render()
        assert "quarantined" in rendered
        assert "RuntimeError" in rendered

    def test_stats_json_reports_quarantine(self, no_cache, monkeypatch):
        def hopeless(point):
            raise RuntimeError("sick point")

        monkeypatch.setattr(runner, "_execute_point", hopeless)
        runs = run_grid(workers=1, retries=0, **GRID)
        assert runs == []
        payload = STATS.last.as_dict()
        assert len(payload["quarantined"]) == 4
        assert payload["quarantined"][0]["error"].startswith("RuntimeError")


class TestCheckpointResume:
    def test_interrupt_then_resume_reruns_only_missing(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        clear_cache()

        done_before_interrupt = 2
        calls = {"n": 0}

        def interrupted(point):
            if calls["n"] >= done_before_interrupt:
                raise KeyboardInterrupt
            calls["n"] += 1
            return _REAL_EXECUTE(point)

        monkeypatch.setattr(runner, "_execute_point", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_grid(workers=1, **GRID)

        # The two completed points were checkpointed incrementally.
        manifests = list(tmp_path.rglob("checkpoints/*.json"))
        assert len(manifests) == 1
        ledger = json.loads(manifests[0].read_text())
        assert len(ledger["completed"]) == done_before_interrupt
        assert ledger["total"] == 4

        # Resume: only the missing half executes, the rest are disk hits.
        monkeypatch.setattr(runner, "_execute_point", _REAL_EXECUTE)
        clear_cache()  # drop the memo; force the disk/checkpoint path
        runs = run_grid(workers=1, **GRID)
        assert len(runs) == 4
        assert STATS.last.executed == 4 - done_before_interrupt
        assert STATS.last.disk_hits == done_before_interrupt

        ledger = json.loads(manifests[0].read_text())
        assert len(ledger["completed"]) == 4
        assert ledger["quarantined"] == []
        clear_cache()

    def test_crash_between_commit_and_manifest_is_lossless(self, tmp_path,
                                                           monkeypatch):
        """Die after a point's cache commit but *before* its manifest
        update — the narrowest crash window the commit-before-ledger
        ordering covers.  Resume must neither lose the committed point
        (the cache, not the ledger, is the source of truth) nor run any
        point twice."""
        from repro.experiments.cache import CheckpointManifest, RunCache

        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        clear_cache()

        real_complete = CheckpointManifest.complete
        completions = {"n": 0}

        def dying_complete(self, point):
            if completions["n"] >= 2:
                # The point's result is already durable in the cache;
                # this kill leaves only its bookkeeping unwritten.
                raise KeyboardInterrupt
            completions["n"] += 1
            return real_complete(self, point)

        monkeypatch.setattr(CheckpointManifest, "complete", dying_complete)
        with pytest.raises(KeyboardInterrupt):
            run_grid(workers=1, **GRID)

        # Three commits landed (two ledgered, one in the crash window).
        assert RunCache().stats()["entries"] == 3
        manifests = list(tmp_path.rglob("checkpoints/*.json"))
        assert len(manifests) == 1
        assert len(json.loads(manifests[0].read_text())["completed"]) == 2

        # Resume: the unledgered commit is a disk hit, not a re-run.
        monkeypatch.setattr(CheckpointManifest, "complete", real_complete)
        clear_cache()
        runs = run_grid(workers=1, **GRID)
        assert len(runs) == 4
        assert STATS.last.executed == 1      # only the truly missing point
        assert STATS.last.disk_hits == 3     # no point lost...
        assert RunCache().stats()["entries"] == 4  # ...and none doubled
        ledger = json.loads(manifests[0].read_text())
        assert len(ledger["completed"]) == 4
        clear_cache()

    def test_manifest_ledger_matches_grid_identity(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        clear_cache()
        run_grid(workers=1, **GRID)
        # A different grid must get its own ledger, not resume this one.
        run_grid(workers=1, **{**GRID, "seeds": (1,)})
        manifests = list(tmp_path.rglob("checkpoints/*.json"))
        assert len(manifests) == 2
        totals = sorted(json.loads(m.read_text())["total"]
                        for m in manifests)
        assert totals == [2, 4]
        clear_cache()


class TestManifestLease:
    """Two campaigns sharing a manifest dir must not corrupt the ledger:
    the second writer detects the first's live lease, goes read-only, and
    the conflict is reported — never silently lost."""

    def test_concurrent_second_writer_goes_read_only(self, tmp_path,
                                                     monkeypatch):
        from repro.experiments.cache import CheckpointManifest, RunCache

        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        cache = RunCache()
        grid = build_grid(("s_curve",), ("pure_pursuit",), ("gps_bias",),
                          (1, 7, 42), onset=5.0, duration=12.0)

        first = CheckpointManifest.for_grid(cache, grid)
        assert not first.lease_conflict
        first.complete(grid[0])

        # A second runner opens the same grid while the first is live.
        second = CheckpointManifest.for_grid(cache, grid)
        assert second.lease_conflict  # reported, not silent
        second.complete(grid[1])
        second.complete(grid[2])

        # The read-only second writer must not have touched the ledger.
        ledger = json.loads(first.path.read_text())
        assert ledger["completed"] == [grid[0].to_dict()]

        # The owner keeps flushing normally.
        first.complete(grid[1])
        ledger = json.loads(first.path.read_text())
        assert len(ledger["completed"]) == 2

        # Once the owner releases, a fresh campaign owns the ledger again.
        first.release()
        third = CheckpointManifest.for_grid(cache, grid)
        assert not third.lease_conflict
        assert third.resumed == 2  # it resumed the owner's ledger intact
        third.release()

    def test_run_grid_reports_lease_conflict(self, tmp_path, monkeypatch):
        from repro.experiments.cache import CheckpointManifest, RunCache

        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("ADASSURE_CACHE", raising=False)
        clear_cache()

        # Hold the lease for exactly the grid run_grid will build.
        grid = build_grid(**GRID)
        holder = CheckpointManifest.for_grid(RunCache(), grid)
        assert not holder.lease_conflict
        holder.flush()  # materialize the (empty) ledger on disk

        with pytest.warns(RuntimeWarning, match="held by another"):
            runs = run_grid(workers=1, **GRID)
        assert len(runs) == 4  # the campaign itself still completed
        assert STATS.last.lease_conflicts == 1

        # The holder's ledger was never touched by the read-only loser.
        ledger = json.loads(holder.path.read_text())
        assert ledger["completed"] == []
        holder.release()
        clear_cache()
