"""Distributed campaign backend: specs, shard boards, workers, health.

Unit-level coverage of :mod:`repro.experiments.distributed` — the grid
spec a worker on another host re-enumerates the campaign from, the
lease-claimed shard board, the heartbeat thread, the in-process worker
loop, and the ``lease_health`` report ``adassure cache stats`` prints.
The end-to-end failure injection (SIGKILLed workers, duplicate
claimants, torn writes) lives in ``test_distributed_chaos.py``.
"""

import json
import time

import pytest

import repro
from repro.experiments import runner
from repro.experiments.backend import retry_cap, retry_delay
from repro.experiments.cache import RunCache
from repro.experiments.distributed import (
    GridSpec,
    HeartbeatThread,
    ShardBoard,
    lease_health,
    resolve_shard_points,
    run_worker,
)
from repro.experiments.runner import clear_cache, run_grid
from repro.experiments.spec import build_grid
from repro.experiments.stats import STATS
from repro.locking import FileLease, lease_state

GRID = dict(scenarios=("s_curve",), controllers=("pure_pursuit",),
            attacks=("none", "gps_bias"), seeds=(1, 7),
            onset=5.0, duration=6.0)


def _spec(shard_points=1, **engine):
    return GridSpec.build(build_grid(**GRID), shard_points, **engine)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("ADASSURE_CACHE", raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


class TestGridSpec:
    def test_roundtrip_preserves_points(self, cache_dir):
        spec = _spec(shard_points=2, sim_engine="batch",
                     sim_engine_reason="auto: 4 pending run(s)")
        path = spec.save(RunCache())
        loaded = GridSpec.load(path)
        assert loaded == spec
        assert loaded.specs == spec.specs
        assert loaded.sim_engine == "batch"
        assert loaded.sim_engine_reason == "auto: 4 pending run(s)"
        # The spec list matches what run_grid itself would enumerate.
        assert len(spec.specs) == 4
        assert all(isinstance(s.seed, int) for s in spec.specs)

    def test_version_mismatch_refused(self, cache_dir):
        spec = _spec()
        path = spec.save(RunCache())
        payload = json.loads(path.read_text())
        payload["code"] = "0.0.1"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="mixed-version"):
            GridSpec.load(path)

    def test_catalog_mismatch_refused(self, cache_dir):
        spec = _spec()
        path = spec.save(RunCache())
        payload = json.loads(path.read_text())
        payload["catalog"] = "deadbeef"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="catalog"):
            GridSpec.load(path)

    def test_grid_id_matches_code_version(self, cache_dir):
        assert _spec().code == repro.__version__


class TestShardBoard:
    def test_shards_cover_grid_disjointly(self, cache_dir):
        spec = _spec(shard_points=3)
        board = ShardBoard(RunCache(), spec)
        covered = []
        for shard in board.shards:
            covered.extend(board.shard_points(shard))
        assert covered == list(spec.specs)

    def test_ensure_is_idempotent(self, cache_dir):
        board = ShardBoard(RunCache(), _spec())
        board.ensure()
        first = board.board_path.read_bytes()
        board.ensure()
        assert board.board_path.read_bytes() == first

    def test_ensure_repairs_torn_board(self, cache_dir):
        board = ShardBoard(RunCache(), _spec())
        board.ensure()
        board.board_path.write_text("{torn")  # torn write
        board.ensure()
        payload = json.loads(board.board_path.read_text())
        assert payload["grid_id"] == board.spec.grid_id

    def test_claim_is_exclusive_until_release(self, cache_dir):
        board = ShardBoard(RunCache(), _spec())
        board.ensure()
        lease = board.claim(0, ttl=60.0, owner_hint="a")
        assert lease is not None
        assert board.claim(0, ttl=60.0, owner_hint="b") is None
        lease.release()
        second = board.claim(0, ttl=60.0, owner_hint="b")
        assert second is not None
        second.release()

    def test_stale_lease_is_broken(self, cache_dir):
        board = ShardBoard(RunCache(), _spec())
        board.ensure()
        # A dead claimant: a lease whose heartbeat is long past the TTL.
        board.lease_path(0).parent.mkdir(parents=True, exist_ok=True)
        board.lease_path(0).write_text(json.dumps(
            {"owner": "corpse", "heartbeat": time.time() - 9999.0}))
        lease = board.claim(0, ttl=1.0, owner_hint="survivor")
        assert lease is not None
        assert lease.stale_breaks == 1
        lease.release()

    def test_done_record_validates_grid_and_index(self, cache_dir):
        board = ShardBoard(RunCache(), _spec())
        board.ensure()
        board.mark_done(0, {"points": 1})
        assert board.is_done(0)
        # A record for another grid (or a torn write) is "not done".
        other = {"grid_id": "someone-else", "shard": 1, "points": 1}
        board.done_path(1).write_text(json.dumps(other))
        board.done_path(1).write_text(
            json.dumps({**other, "grid_id": "x"}))
        assert not board.is_done(1)
        board.done_path(2).write_text("{torn")
        assert not board.is_done(2)
        assert not board.all_done()

    def test_status_counts(self, cache_dir):
        board = ShardBoard(RunCache(), _spec())
        board.ensure()
        board.mark_done(0, {})
        lease = board.claim(1, ttl=60.0)
        board.lease_path(2).write_text(json.dumps(
            {"owner": "corpse", "heartbeat": time.time() - 9999.0}))
        counts = board.status(ttl=60.0)
        assert counts == {"shards": 4, "done": 1, "leased": 1,
                          "stale": 1, "open": 1}
        lease.release()


class TestHeartbeat:
    def test_heartbeat_keeps_lease_fresh(self, cache_dir, tmp_path):
        lease = FileLease(tmp_path / "hb.lease", ttl=0.4)
        assert lease.acquire()
        beat = HeartbeatThread(lease)  # interval = ttl/4 = 0.1s
        beat.start()
        try:
            time.sleep(1.0)  # > 2x TTL: without heartbeats this is stale
            assert lease_state(lease.path, ttl=0.4) == "active"
        finally:
            beat.stop()
        assert beat.beats >= 2
        assert not beat.is_alive()
        lease.release()


class TestRetryBackoff:
    def test_jitter_stays_in_band(self):
        for failures in (1, 2, 3):
            nominal = 0.25 * (2 ** (failures - 1))
            for _ in range(50):
                delay = retry_delay(failures, 0.0, base=0.25, cap=1e9)
                assert 0.5 * nominal <= delay < 1.5 * nominal

    def test_total_sleep_is_capped(self):
        assert retry_delay(1, slept=5.0, base=0.25, cap=5.0) == 0.0
        # Near the cap, the delay is clipped to the remaining budget.
        assert retry_delay(10, slept=4.9, base=0.25, cap=5.0) <= 0.1 + 1e-9

    def test_cap_from_env(self, monkeypatch):
        monkeypatch.setenv("ADASSURE_RETRY_CAP", "7.5")
        assert retry_cap() == 7.5
        monkeypatch.setenv("ADASSURE_RETRY_CAP", "not-a-number")
        assert retry_cap() == 30.0

    def test_base_tracks_runner_backoff(self, monkeypatch):
        # Tests zero the module backoff to skip sleeps; retry_delay must
        # honour that patch when no explicit base is given.
        monkeypatch.setattr(runner, "_RETRY_BACKOFF", 0.0)
        assert retry_delay(3, 0.0) == 0.0


class TestResolvers:
    def test_resolve_executor(self, monkeypatch):
        monkeypatch.delenv("ADASSURE_EXECUTOR", raising=False)
        assert runner.resolve_executor() == "auto"
        assert runner.resolve_executor("distributed") == "distributed"
        monkeypatch.setenv("ADASSURE_EXECUTOR", "pool")
        assert runner.resolve_executor() == "pool"
        with pytest.raises(ValueError, match="unknown executor"):
            runner.resolve_executor("teleport")

    def test_resolve_dist_workers(self, monkeypatch):
        monkeypatch.delenv("ADASSURE_DIST_WORKERS", raising=False)
        assert runner.resolve_dist_workers(3) == 3
        assert runner.resolve_dist_workers() >= 2
        monkeypatch.setenv("ADASSURE_DIST_WORKERS", "5")
        assert runner.resolve_dist_workers() == 5

    def test_resolve_shard_points(self, monkeypatch):
        monkeypatch.delenv("ADASSURE_SHARD_POINTS", raising=False)
        assert resolve_shard_points(100, 4, 10) == 10
        # Heuristic: ~4 shards per worker.
        assert resolve_shard_points(160, 4) == 10
        assert resolve_shard_points(3, 8) == 1
        monkeypatch.setenv("ADASSURE_SHARD_POINTS", "25")
        assert resolve_shard_points(100, 4) == 25


class TestRunWorker:
    def test_single_worker_converges_campaign(self, cache_dir):
        spec = _spec(shard_points=2)
        report = run_worker(spec, worker_id="solo", ttl=30.0)
        assert report.shards_claimed == 2
        assert report.points_executed == 4
        assert report.points_skipped == 0
        assert report.quarantined == []
        cache = RunCache()
        board = ShardBoard(cache, spec)
        assert board.all_done()
        # Every point committed exactly once, under its canonical key.
        for point in spec.specs:
            assert cache.contains(point.key(spec.catalog))
        assert cache.stats()["entries"] == 4

    def test_worker_skips_already_committed_points(self, cache_dir):
        # A serial campaign (or a dead claimant) already committed
        # everything: the worker only writes done markers.
        run_grid(workers=1, executor="serial", **GRID)
        clear_cache()  # memo only; the disk commits stay
        spec = _spec(shard_points=2)
        report = run_worker(spec, worker_id="late", ttl=30.0)
        assert report.points_executed == 0
        assert report.points_skipped == 4
        assert report.shards_reclaimed == 2  # resumed someone else's work
        assert RunCache().stats()["entries"] == 4

    def test_worker_requires_disk_cache(self, monkeypatch):
        monkeypatch.setenv("ADASSURE_CACHE", "0")
        with pytest.raises(ValueError, match="disk cache"):
            run_worker(_spec())

    def test_worker_respects_max_shards(self, cache_dir):
        spec = _spec(shard_points=1)
        report = run_worker(spec, worker_id="partial", max_shards=2,
                            ttl=30.0)
        assert report.shards_claimed == 2
        assert report.points_executed == 2
        assert not ShardBoard(RunCache(), spec).all_done()

    def test_worker_report_serializes(self, cache_dir):
        spec = _spec(shard_points=4)
        report = run_worker(spec, worker_id="json", ttl=30.0)
        payload = report.as_dict()
        assert payload["worker_id"] == "json"
        assert payload["points_executed"] == 4
        json.dumps(payload)  # machine-readable for the CLI


class TestLeaseHealth:
    def test_empty_cache_is_healthy(self, cache_dir):
        health = lease_health(RunCache())
        assert health == {"active_leases": 0, "stale_leases": 0,
                          "orphaned_shards": 0, "lease_conflicts": 0,
                          "shard_boards": 0}

    def test_active_and_stale_leases_counted(self, cache_dir):
        cache = RunCache()
        board = ShardBoard(cache, _spec())
        board.ensure()
        lease = board.claim(0, ttl=60.0)
        board.lease_path(1).write_text(json.dumps(
            {"owner": "corpse", "heartbeat": time.time() - 9999.0}))
        health = lease_health(cache, ttl=60.0)
        assert health["shard_boards"] == 1
        assert health["active_leases"] == 1
        assert health["stale_leases"] == 1
        lease.release()

    def test_orphans_detected(self, cache_dir):
        cache = RunCache()
        board = ShardBoard(cache, _spec())
        board.ensure()
        # A corpse's lease left next to an already-done shard.
        board.mark_done(0, {})
        board.lease_path(0).write_text(json.dumps(
            {"owner": "corpse", "heartbeat": time.time() - 9999.0}))
        health = lease_health(cache, ttl=60.0)
        assert health["orphaned_shards"] == 1
        # Shard state without a readable board is also orphaned.
        board.board_path.write_text("{torn")
        health = lease_health(cache, ttl=60.0)
        assert health["orphaned_shards"] == 1  # counted via the torn board

    def test_conflict_events_surface(self, cache_dir):
        cache = RunCache()
        cache.log_lease_event("shard-lease-lost", {"shard": 0})
        assert lease_health(cache)["lease_conflicts"] == 1


class TestDistributedRunGrid:
    def test_distributed_matches_serial_run(self, cache_dir, tmp_path_factory):
        expected = run_grid(workers=1, executor="serial", **GRID)
        # A fresh cache directory: the fleet must re-execute everything.
        import os
        os.environ["ADASSURE_CACHE_DIR"] = str(
            tmp_path_factory.mktemp("dist"))
        clear_cache()
        STATS.reset()
        runs = run_grid(executor="distributed", dist_workers=2,
                        shard_points=1, **GRID)
        assert len(runs) == len(expected) == 4
        for got, want in zip(runs, expected):
            assert got.result.trace.records == want.result.trace.records
            assert got.report.fired_ids == want.report.fired_ids
            assert got.diagnosis.top_k(1) == want.diagnosis.top_k(1)
        stats = STATS.last
        assert stats.executor == "distributed"
        assert stats.pool_policy == "distributed"
        assert stats.shards_total == 4
        assert stats.dist_points + stats.executed == 4
        assert RunCache().stats()["entries"] == 4  # exactly once

    def test_distributed_without_cache_falls_back(self, monkeypatch):
        monkeypatch.setenv("ADASSURE_CACHE", "0")
        clear_cache()
        with pytest.warns(RuntimeWarning, match="shared result store"):
            runs = run_grid(executor="distributed", workers=1, **GRID)
        assert len(runs) == 4
        assert STATS.last.executor == "local"
        clear_cache()
