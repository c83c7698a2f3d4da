"""Chaos suite for the distributed campaign backend.

Injects the failures the lease/heartbeat/commit ordering exists to
survive — SIGKILLed workers, stale and stolen leases, torn board and
done-marker writes, clock-skewed heartbeats — and asserts the two
invariants the design guarantees:

* **convergence**: the campaign always finishes, and its verdict set is
  dict-equal to a single-host serial run;
* **exactly-once**: every grid point ends up as exactly one cache entry,
  no matter how many claimants executed it.

Worker deaths are deterministic, not timing races: the
``ADASSURE_CHAOS_KILL_AFTER=N`` hook SIGKILLs a worker right after its
N-th result commit — *between* the commit and the shard bookkeeping,
the exact window crash-exact resume covers.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.experiments import runner
from repro.experiments.cache import RunCache
from repro.experiments.distributed import (
    GridSpec,
    ShardBoard,
    lease_health,
    run_worker,
)
from repro.experiments.runner import clear_cache, run_grid
from repro.experiments.spec import build_grid
from repro.experiments.stats import STATS

GRID = dict(scenarios=("s_curve",), controllers=("pure_pursuit",),
            attacks=("none", "gps_bias"), seeds=(1, 7),
            onset=5.0, duration=6.0)

_REAL_EXECUTE = runner._execute_point


def _spec(shard_points):
    return GridSpec.build(build_grid(**GRID), shard_points)


def _verdict_set(runs):
    """Campaign verdicts keyed by grid point — the dict the differential
    assertions compare."""
    return {
        (r.scenario, r.controller, r.attack, r.intensity, r.seed): (
            tuple(r.report.fired_ids),
            r.diagnosis.top_k(1)[0] if r.diagnosis.ranking else None,
            len(r.result.trace.records),
        )
        for r in runs
    }


def _spawn_worker(spec_path, cache_dir, worker_id, *, kill_after=None,
                  ttl=1.0):
    env = os.environ.copy()
    env["ADASSURE_CACHE_DIR"] = str(cache_dir)
    env["ADASSURE_CACHE"] = "1"
    env["ADASSURE_WORKERS"] = "1"
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if kill_after is not None:
        env["ADASSURE_CHAOS_KILL_AFTER"] = str(kill_after)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--grid-file", str(spec_path), "--worker-id", worker_id,
         "--lease-ttl", str(ttl), "--max-wait", "30"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("ADASSURE_CACHE", raising=False)
    monkeypatch.delenv("ADASSURE_CHAOS_KILL_AFTER", raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


@pytest.fixture(scope="module")
def serial_verdicts(tmp_path_factory):
    """Ground truth: the same campaign run single-host serial."""
    ref_dir = tmp_path_factory.mktemp("serial-ref")
    old = os.environ.get("ADASSURE_CACHE_DIR")
    os.environ["ADASSURE_CACHE_DIR"] = str(ref_dir)
    clear_cache()
    try:
        runs = run_grid(workers=1, executor="serial", **GRID)
        return _verdict_set(runs)
    finally:
        clear_cache()
        if old is None:
            os.environ.pop("ADASSURE_CACHE_DIR", None)
        else:
            os.environ["ADASSURE_CACHE_DIR"] = old


def _resume_and_verify(cache_dir, serial_verdicts, n_points=4):
    """Load the campaign back (disk hits only) and check both invariants."""
    clear_cache()  # memo only — verdicts must come from the shared store
    runs = run_grid(workers=1, executor="serial", **GRID)
    assert STATS.last.executed == 0, "resume re-executed committed points"
    assert _verdict_set(runs) == serial_verdicts
    assert RunCache().stats()["entries"] == n_points  # exactly once
    return runs


class TestSigkilledWorker:
    def test_shard_reclaimed_and_campaign_converges(
            self, cache_dir, serial_verdicts):
        spec = _spec(shard_points=2)
        spec_path = spec.save(RunCache())

        # The victim dies via SIGKILL right after its first result commit
        # — after the cache write, before any shard bookkeeping.
        victim = _spawn_worker(spec_path, cache_dir, "victim",
                               kill_after=1, ttl=1.0)
        victim.wait(timeout=120)
        assert victim.returncode == -9  # actually SIGKILLed, not exited

        cache = RunCache()
        board = ShardBoard(cache, spec)
        assert not board.all_done()  # it died owning an unfinished shard
        committed = [p for p in spec.specs
                     if cache.contains(p.key(spec.catalog))]
        assert len(committed) == 1  # the one commit before the kill

        # A survivor joins: the victim's lease goes stale after the TTL,
        # the shard is reclaimed, and only the missing points re-run.
        report = run_worker(spec, worker_id="survivor", ttl=1.0,
                            max_wait_s=60.0)
        assert board.all_done()
        assert report.shards_reclaimed >= 1
        assert report.points_skipped == 1  # the victim's commit survived
        assert report.points_executed == 3
        assert report.stale_breaks >= 1  # it broke the corpse's lease

        _resume_and_verify(cache_dir, serial_verdicts)

    def test_kill_between_commit_and_done_marker_is_lossless(
            self, cache_dir, serial_verdicts):
        # Kill after the *second* commit: the victim dies with its whole
        # shard committed but the done marker unwritten — the narrowest
        # window between result durability and bookkeeping.
        spec = _spec(shard_points=2)
        spec_path = spec.save(RunCache())
        victim = _spawn_worker(spec_path, cache_dir, "victim",
                               kill_after=2, ttl=1.0)
        victim.wait(timeout=120)
        assert victim.returncode == -9

        cache = RunCache()
        board = ShardBoard(cache, spec)
        assert not board.all_done()  # bookkeeping lost...
        committed = [p for p in spec.specs
                     if cache.contains(p.key(spec.catalog))]
        assert len(committed) == 2  # ...but no result was

        report = run_worker(spec, worker_id="survivor", ttl=1.0,
                            max_wait_s=60.0)
        assert board.all_done()
        assert report.points_skipped == 2  # nothing re-ran, nothing lost
        assert report.points_executed == 2
        _resume_and_verify(cache_dir, serial_verdicts)


class TestDuplicateClaimants:
    def test_stolen_lease_is_reported_not_corrupting(
            self, cache_dir, serial_verdicts, monkeypatch):
        spec = _spec(shard_points=4)  # one shard holds the whole grid
        board = ShardBoard(RunCache(), spec)
        stolen = {"done": False}

        def steal_mid_shard(point):
            if not stolen["done"]:
                stolen["done"] = True
                # A duplicate claimant (force-broken lease / wild clock
                # skew) overwrites the lease while we are mid-shard.
                board.lease_path(0).write_text(json.dumps(
                    {"owner": "thief", "heartbeat": time.time()}))
            return _REAL_EXECUTE(point)

        monkeypatch.setattr(runner, "_execute_point", steal_mid_shard)
        # Serial pinned: the sabotage hooks ``_execute_point``, which an
        # auto-selected batch drain would legitimately bypass.
        report = run_worker(spec, worker_id="loser", ttl=30.0,
                            sim_engine="serial")
        assert report.lease_conflicts == 1  # loudly reported
        assert report.points_executed == 4  # the work still completed
        health = lease_health(RunCache())
        assert health["lease_conflicts"] >= 1  # durable event trail

        monkeypatch.setattr(runner, "_execute_point", _REAL_EXECUTE)
        _resume_and_verify(cache_dir, serial_verdicts)

    def test_double_execution_commits_identical_bytes(self, cache_dir):
        # Two claimants execute the same point: the content-addressed
        # commit collapses them to one entry with identical payloads.
        spec = _spec(shard_points=4)
        point = spec.specs[0]
        cache = RunCache()
        key = point.key(spec.catalog)
        _, run_a, _ = runner._execute_point(point)
        cache.store(key, run_a.result, run_a.report, run_a.diagnosis)
        first = cache._trace_path(key).read_bytes()
        _, run_b, _ = runner._execute_point(point)
        cache.store(key, run_b.result, run_b.report, run_b.diagnosis)
        assert cache._trace_path(key).read_bytes() == first
        assert cache.stats()["entries"] == 1


class TestTornWrites:
    def test_torn_board_and_done_marker_recovered(
            self, cache_dir, serial_verdicts):
        spec = _spec(shard_points=2)
        board = ShardBoard(RunCache(), spec)
        board.dir.mkdir(parents=True, exist_ok=True)
        board.board_path.write_text('{"grid_id": "torn')  # torn board
        board.done_path(1).write_text('{"grid_id"')       # torn done marker

        report = run_worker(spec, worker_id="repair", ttl=30.0)
        assert board.all_done()  # torn records classified as "not done"
        assert report.shards_claimed == 2
        payload = json.loads(board.board_path.read_text())
        assert payload["grid_id"] == spec.grid_id  # board repaired
        _resume_and_verify(cache_dir, serial_verdicts)


class TestClockSkew:
    def test_future_heartbeat_is_stale_and_reclaimable(self, cache_dir):
        spec = _spec(shard_points=2)
        board = ShardBoard(RunCache(), spec)
        board.ensure()
        # A claimant with a clock a day fast: trusting its heartbeat
        # would lock the shard until tomorrow.
        board.lease_path(0).write_text(json.dumps(
            {"owner": "delorean", "heartbeat": time.time() + 86400.0}))
        lease = board.claim(0, ttl=5.0, owner_hint="survivor")
        assert lease is not None
        assert lease.stale_breaks == 1
        lease.release()


class TestFleetWipeout:
    def test_whole_fleet_killed_campaign_still_converges(
            self, cache_dir, serial_verdicts, monkeypatch):
        # Every worker dies after one commit; the coordinator detects the
        # dead fleet and finishes the campaign with its in-process serial
        # fallback.  The verdict set must still be dict-equal to serial.
        monkeypatch.setenv("ADASSURE_CHAOS_KILL_AFTER", "1")
        STATS.reset()
        runs = run_grid(executor="distributed", dist_workers=2,
                        shard_points=1, **GRID)
        assert len(runs) == 4
        assert _verdict_set(runs) == serial_verdicts
        stats = STATS.last
        assert stats.executor == "distributed"
        assert stats.dist_points >= 1   # the fleet's commits were adopted
        assert stats.executed >= 1      # the fallback finished the rest
        assert stats.dist_points + stats.executed == 4
        assert RunCache().stats()["entries"] == 4  # exactly once

        monkeypatch.delenv("ADASSURE_CHAOS_KILL_AFTER")
        _resume_and_verify(cache_dir, serial_verdicts)
