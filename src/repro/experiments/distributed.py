"""Multi-host distributed campaign backend: lease-claimed grid shards.

``run_grid(executor="distributed")`` (or a standalone ``adassure worker``
fleet) executes one campaign as N independent worker *processes* — on one
host or many — that share nothing but a cache directory:

* the campaign is serialized once as a :class:`GridSpec`
  (``<cache>/campaigns/<grid id>.grid.json``) — its
  :class:`~repro.experiments.spec.RunSpec` list plus the coordinator's
  simulation-engine choice — from which every worker derives identical
  cache keys;
* the grid is striped into shards on a :class:`ShardBoard`
  (``<cache>/checkpoints/<grid id>.shards/``) and each shard is claimed
  through an advisory :class:`~repro.locking.FileLease` with background
  heartbeat renewal (:class:`HeartbeatThread`);
* every completed point is committed through the one
  :class:`~repro.experiments.backend.ResultStore` (content-addressed
  cache + spec ledger) **before** the shard's done marker is written and
  the lease released — the commit-before-release ordering that makes
  verdicts exactly-once.

Failure semantics, in one paragraph: a worker that dies mid-shard
(SIGKILL, OOM, power) stops heartbeating; once its lease heartbeat is
older than the TTL the shard is *reclaimed* by any surviving worker,
which re-runs only the points the corpse had not yet committed (per-point
``cache.contains`` check — crash-exact resume).  A duplicate claimant
(force-broken lease, extreme clock skew) is harmless: grid points are
pure functions of their key, so double-executed points commit
byte-identical entries to the same content address, and the loser
detects the theft at release time and reports a ``lease_conflict``
instead of corrupting anything.  Torn board/done-marker writes are
unreadable JSON, which classifies as "not done" — the shard simply runs
again.  The coordinator degrades gracefully: if every worker dies, the
remaining shards fall back to in-process serial execution.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.experiments.backend import (
    Executor,
    ResultStore,
    SerialExecutor,
    StripedScheduler,
    retry_delay,
)
from repro.experiments.spec import RunSpec
from repro.locking import FileLease, default_lease_ttl, lease_state

__all__ = [
    "DEFAULT_DIST_TIMEOUT",
    "DistributedExecutor",
    "GridSpec",
    "HeartbeatThread",
    "ShardBoard",
    "WorkerReport",
    "lease_health",
    "resolve_shard_points",
    "run_worker",
]

DEFAULT_DIST_TIMEOUT = 900.0
"""Coordinator convergence deadline, seconds (``ADASSURE_DIST_TIMEOUT``)."""

_CHAOS_KILL_ENV = "ADASSURE_CHAOS_KILL_AFTER"
"""Chaos hook: SIGKILL this process after committing N points — *between*
the result commit and the shard bookkeeping, the exact window the
crash-exact resume contract covers.  Test-only, documented for the chaos
suite."""


def _dist_timeout(timeout: float | None = None) -> float:
    if timeout is None:
        env = os.environ.get("ADASSURE_DIST_TIMEOUT")
        if env:
            try:
                timeout = float(env)
            except ValueError:
                timeout = None
    if timeout is None:
        timeout = DEFAULT_DIST_TIMEOUT
    return max(float(timeout), 1.0)


def resolve_shard_points(n_points: int, n_workers: int,
                         shard_points: int | None = None) -> int:
    """Points per lease-claimed shard: argument > env > heuristic.

    Roughly four shards per worker so a dead worker forfeits little and
    survivors load-balance, but never shards so small that lease traffic
    dominates the simulation work.
    """
    if shard_points is None:
        env = os.environ.get("ADASSURE_SHARD_POINTS")
        if env:
            try:
                shard_points = int(env)
            except ValueError:
                shard_points = None
    if shard_points is None:
        shard_points = -(-n_points // max(4 * max(n_workers, 1), 1))
    return max(int(shard_points), 1)


# ---------------------------------------------------------------------------
# GridSpec: the campaign, serialized for workers on other hosts
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class GridSpec:
    """Everything a worker needs to run the exact campaign: its specs,
    the shard size, and how the coordinator picked the engine."""

    specs: tuple[RunSpec, ...]
    shard_points: int
    grid_id: str
    code: str
    catalog: str
    sim_engine: str | None = None
    """Engine the workers run (``None``: each worker auto-selects)."""
    sim_engine_reason: str = ""
    """Why the coordinator chose it
    (:func:`~repro.experiments.runner.choose_sim_engine`)."""

    @staticmethod
    def build(specs, shard_points: int, sim_engine: str | None = None,
              sim_engine_reason: str = "") -> "GridSpec":
        import repro
        from repro.core.spec import catalog_fingerprint
        from repro.experiments.cache import grid_identity

        specs = tuple(specs)
        return GridSpec(
            specs=specs, shard_points=int(shard_points),
            grid_id=grid_identity(specs), code=repro.__version__,
            catalog=catalog_fingerprint(), sim_engine=sim_engine,
            sim_engine_reason=sim_engine_reason,
        )

    def as_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["specs"] = [spec.to_dict() for spec in self.specs]
        return data

    @staticmethod
    def from_dict(payload: dict) -> "GridSpec":
        return GridSpec(**{
            **payload,
            "specs": tuple(RunSpec.from_dict(d) for d in payload["specs"]),
        })

    def save(self, cache) -> Path:
        path = cache.root / "campaigns" / f"{self.grid_id}.grid.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(self.as_dict(), indent=2) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)
        return path

    @staticmethod
    def load(path: str | Path) -> "GridSpec":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        spec = GridSpec.from_dict(payload)
        import repro
        from repro.core.spec import catalog_fingerprint
        if spec.code != repro.__version__:
            raise ValueError(
                f"grid spec {path} was written by code version "
                f"{spec.code!r}; this worker runs {repro.__version__!r} — "
                "mixed-version fleets would commit incompatible cache keys")
        if spec.catalog != catalog_fingerprint():
            raise ValueError(
                f"grid spec {path} was written against a different "
                "assertion catalog; refusing to mix verdicts")
        return spec


# ---------------------------------------------------------------------------
# ShardBoard: claimable shard state shared through the cache directory
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Shard:
    index: int
    start: int
    stop: int


class ShardBoard:
    """Filesystem shard table for one campaign grid.

    Layout (under ``<cache root>/checkpoints/<grid id>.shards/``)::

        board.json            deterministic shard table (idempotent write)
        shard-0007.lease      advisory claim lease (heartbeat-renewed)
        shard-0007.done.json  completion record (atomic, written *after*
                              every point of the shard is in the cache)

    Every mutation is either atomic (tmp + rename) or idempotent
    (deterministic content), so concurrent workers and torn writes can
    cost re-execution, never correctness.
    """

    def __init__(self, cache, spec: GridSpec):
        self.cache = cache
        self.spec = spec
        self.points = list(spec.specs)
        self.dir = cache.root / "checkpoints" / f"{spec.grid_id}.shards"
        self.board_path = self.dir / "board.json"
        scheduler = StripedScheduler(spec.shard_points)
        stripes = scheduler.shards(self.points)
        self.shards: list[Shard] = []
        start = 0
        for stripe in stripes:
            self.shards.append(Shard(index=len(self.shards), start=start,
                                     stop=start + len(stripe)))
            start += len(stripe)

    # -- paths ----------------------------------------------------------
    def lease_path(self, index: int) -> Path:
        return self.dir / f"shard-{index:04d}.lease"

    def done_path(self, index: int) -> Path:
        return self.dir / f"shard-{index:04d}.done.json"

    def shard_points(self, shard: Shard) -> list[RunSpec]:
        return self.points[shard.start:shard.stop]

    # -- board ----------------------------------------------------------
    def ensure(self) -> None:
        """Materialize ``board.json`` (idempotent: content is a pure
        function of the spec, so concurrent writers write identical
        bytes and a torn write is repaired by the next caller)."""
        payload = {
            "grid_id": self.spec.grid_id,
            "total_points": len(self.points),
            "shard_points": self.spec.shard_points,
            "shards": [[s.start, s.stop] for s in self.shards],
        }
        try:
            prior = json.loads(self.board_path.read_text(encoding="utf-8"))
            if prior == payload:
                return
        except (OSError, ValueError):
            pass
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = self.board_path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        os.replace(tmp, self.board_path)

    # -- per-shard state -------------------------------------------------
    def done_record(self, index: int) -> dict | None:
        try:
            record = json.loads(self.done_path(index).read_text(
                encoding="utf-8"))
        except (OSError, ValueError):
            return None  # absent or torn: not done
        if (record.get("grid_id") == self.spec.grid_id
                and record.get("shard") == index):
            return record
        return None

    def is_done(self, index: int) -> bool:
        return self.done_record(index) is not None

    def mark_done(self, index: int, record: dict) -> None:
        record = {"grid_id": self.spec.grid_id, "shard": index, **record}
        path = self.done_path(index)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(record) + "\n", encoding="utf-8")
        os.replace(tmp, path)

    def claim(self, index: int, *, ttl: float | None = None,
              owner_hint: str | None = None) -> FileLease | None:
        """Try to lease one shard; ``None`` when a live claimant holds it."""
        lease = FileLease(self.lease_path(index), ttl=ttl)
        if owner_hint:
            lease.owner_id = f"{owner_hint}:{lease.owner_id}"
        return lease if lease.acquire() else None

    # -- campaign view ---------------------------------------------------
    def status(self, ttl: float | None = None) -> dict:
        """One scan of the board: done / leased / stale / open counts."""
        ttl = ttl if ttl is not None else default_lease_ttl()
        counts = {"shards": len(self.shards), "done": 0, "leased": 0,
                  "stale": 0, "open": 0}
        for shard in self.shards:
            if self.is_done(shard.index):
                counts["done"] += 1
                continue
            state = lease_state(self.lease_path(shard.index), ttl)
            if state == "active":
                counts["leased"] += 1
            elif state == "stale":
                counts["stale"] += 1
            else:
                counts["open"] += 1
        return counts

    def all_done(self) -> bool:
        return all(self.is_done(s.index) for s in self.shards)

    def undone_shards(self) -> list[Shard]:
        return [s for s in self.shards if not self.is_done(s.index)]

    def cleanup(self) -> None:
        """Remove the board directory (campaign fully converged)."""
        import shutil
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Heartbeats
# ---------------------------------------------------------------------------

class HeartbeatThread(threading.Thread):
    """Background lease renewal: re-stamps the lease every ``interval``.

    Daemonized so a crashing worker never blocks on its heartbeat — the
    whole point is that a dead worker *stops* heartbeating and loses the
    shard to a survivor.
    """

    def __init__(self, lease: FileLease, interval: float | None = None):
        super().__init__(daemon=True, name=f"heartbeat:{lease.path.name}")
        self.lease = lease
        self.interval = (interval if interval is not None
                         else max(lease.ttl / 4.0, 0.05))
        self.beats = 0
        # NB: not `_stop` — threading.Thread uses that name internally.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.lease.refresh()
            self.beats += 1

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)


# ---------------------------------------------------------------------------
# Worker: the claim loop
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class WorkerReport:
    """What one worker process did to the campaign."""

    worker_id: str
    shards_claimed: int = 0
    shards_reclaimed: int = 0
    """Claimed shards that a previous (dead) claimant had partially
    committed — the crash-exact resume path."""
    points_executed: int = 0
    points_skipped: int = 0
    """Points found already committed (by this or a previous claimant)."""
    heartbeats: int = 0
    lease_conflicts: int = 0
    """Shards whose lease was stolen from under us mid-run (duplicate
    claimant); the work still committed exactly once."""
    stale_breaks: int = 0
    """Abandoned leases this worker broke while claiming."""
    quarantined: list = field(default_factory=list)
    wall_s: float = 0.0

    def as_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["quarantined"] = [{"spec": spec.to_dict(), "error": error}
                               for spec, error in self.quarantined]
        data["wall_s"] = round(self.wall_s, 4)
        return data


def _chaos_kill_budget() -> int | None:
    env = os.environ.get(_CHAOS_KILL_ENV)
    if not env:
        return None
    try:
        return max(int(env), 0)
    except ValueError:
        return None


class _WorkerStore(ResultStore):
    """A worker's commit point: the shared store plus the chaos hook."""

    def __init__(self, cache, catalog: str):
        super().__init__(cache, catalog)
        self.kill_after = _chaos_kill_budget()
        self.committed = 0

    def commit(self, spec, run) -> None:
        super().commit(spec, run)
        self.committed += 1
        if self.kill_after is not None and self.committed >= self.kill_after:
            # Chaos hook: die *after* the result commit but *before* any
            # shard bookkeeping — the exactly-once window under test.
            os.kill(os.getpid(), signal.SIGKILL)


def run_worker(
    spec: GridSpec,
    *,
    worker_id: str | None = None,
    max_shards: int | None = None,
    retries: int | None = None,
    sim_engine: str | None = None,
    ttl: float | None = None,
    poll_s: float = 0.25,
    max_wait_s: float | None = None,
) -> WorkerReport:
    """Claim-execute-commit loop until the campaign converges.

    Scans the shard board, leases the first claimable shard (breaking
    stale leases of dead workers), executes the shard's not-yet-committed
    points (optionally through the batch engine), commits each result to
    the shared cache *as it finishes*, then writes the shard's done
    marker and releases the lease — in that order, so a crash at any
    instant loses at most bookkeeping.  When no shard is claimable the
    worker waits (jittered poll) for live claimants to finish or their
    leases to go stale; it returns once every shard is done, ``max_shards``
    have been run, or ``max_wait_s`` passes without progress.
    """
    from repro.experiments import runner
    from repro.experiments.cache import RunCache
    from repro.experiments.stats import GridStats

    wall_start = time.perf_counter()
    worker_id = worker_id or f"worker-{os.getpid()}"
    report = WorkerReport(worker_id=worker_id)
    cache = RunCache.from_env()
    if cache is None:
        raise ValueError(
            "distributed workers need the disk cache (the shared result "
            "store); unset ADASSURE_CACHE=0")
    store = _WorkerStore(cache, spec.catalog)
    board = ShardBoard(cache, spec)
    board.ensure()
    serial = SerialExecutor(runner._point_retries(retries))
    waited = 0.0
    max_wait_s = (_dist_timeout(None) if max_wait_s is None
                  else float(max_wait_s))

    while True:
        progressed = False
        for shard in board.shards:
            if max_shards is not None and report.shards_claimed >= max_shards:
                break
            if board.is_done(shard.index):
                continue
            lease = board.claim(shard.index, ttl=ttl, owner_hint=worker_id)
            if lease is None:
                continue
            report.stale_breaks += lease.stale_breaks
            points = board.shard_points(shard)
            missing = [p for p in points if not store.contains(p)]
            skipped = len(points) - len(missing)
            if skipped:
                # A previous claimant committed part of this shard and
                # died: crash-exact resume re-runs only the remainder.
                report.shards_reclaimed += 1
                report.points_skipped += skipped
            heartbeat = HeartbeatThread(lease)
            heartbeat.start()
            stats = GridStats(workers=1, grid_points=len(points))

            try:
                runner.drain(
                    missing, store, stats,
                    sim_engine=sim_engine or spec.sim_engine,
                    fallback=lambda specs, merge: serial.execute(
                        [(s, 0) for s in specs], merge, stats))
            finally:
                heartbeat.stop()
                report.heartbeats += heartbeat.beats
            report.points_executed += stats.executed
            report.quarantined.extend(stats.quarantined)
            holder = lease.holder()
            if holder is not None and holder.get("owner") != lease.owner_id:
                # Duplicate claimant stole the lease mid-shard (forced
                # break / clock skew).  The results are still exactly-once
                # — commits are idempotent — but the theft is reported,
                # never swallowed.
                report.lease_conflicts += 1
                cache.log_lease_event("shard-lease-lost", {
                    "grid_id": spec.grid_id, "shard": shard.index,
                    "loser": lease.owner_id,
                    "thief": holder.get("owner")})
            board.mark_done(shard.index, {
                "owner": lease.owner_id,
                "points": len(points),
                "executed": stats.executed,
                "skipped": skipped,
                "reclaimed": bool(skipped),
                "heartbeats": heartbeat.beats,
                "quarantined": [
                    {"spec": s.to_dict(), "error": error}
                    for s, error in stats.quarantined
                ],
            })
            lease.release()
            report.shards_claimed += 1
            progressed = True
            waited = 0.0
        if max_shards is not None and report.shards_claimed >= max_shards:
            break
        if board.all_done():
            break
        if not progressed:
            # Remaining shards are leased by live claimants: wait for
            # them to finish or their heartbeats to go stale.  Jittered
            # so a fleet does not poll (or re-claim) in lockstep.
            delay = retry_delay(1, 0.0, base=poll_s, cap=poll_s * 4)
            time.sleep(delay)
            waited += delay
            if waited > max_wait_s:
                break
    report.wall_s = time.perf_counter() - wall_start
    return report


# ---------------------------------------------------------------------------
# Coordinator: the DistributedExecutor run_grid plugs in
# ---------------------------------------------------------------------------

class DistributedExecutor(Executor):
    """Spawns a local worker fleet and adopts their committed results.

    The coordinator side of the multi-host mode: it serializes the
    campaign spec, materializes the shard board, launches ``n_workers``
    ``adassure worker`` subprocesses pointed at the same cache directory,
    and polls the board until the campaign converges.  Completed points
    are *adopted* from the shared store (``merge(point, run, None)`` —
    the ``None`` phases mark them as executed elsewhere); anything still
    missing when the fleet exits (dead workers, quarantines, deadline)
    is returned as leftovers for the in-process serial fallback — the
    campaign converges even if every worker dies.

    Additional hosts join the same campaign by running ``adassure worker
    --grid-file <spec>`` against the shared cache; the coordinator
    neither knows nor cares who commits a point first.
    """

    name = "distributed"

    def __init__(self, grid: list[RunSpec], store, n_workers: int,
                 shard_points: int | None = None,
                 sim_engine: str | None = None,
                 sim_engine_reason: str = "",
                 timeout: float | None = None):
        self.grid = grid
        self.store = store
        self.n_workers = max(int(n_workers), 1)
        self.shard_points = shard_points
        self.sim_engine = sim_engine
        self.sim_engine_reason = sim_engine_reason
        self.timeout = timeout

    def _spawn(self, spec_path: Path, index: int) -> subprocess.Popen:
        import repro
        env = os.environ.copy()
        from repro.experiments.cache import default_cache_dir
        env["ADASSURE_CACHE_DIR"] = str(default_cache_dir())
        # Workers run their shards serially/batched; they are the
        # parallelism, so no nested pools.
        env["ADASSURE_WORKERS"] = "1"
        pkg_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = (pkg_root + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else pkg_root)
        quiet = os.environ.get("ADASSURE_DIST_VERBOSE", "").strip() == ""
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--grid-file", str(spec_path),
             "--worker-id", f"w{index}"],
            env=env,
            stdout=subprocess.DEVNULL if quiet else None,
            stderr=subprocess.DEVNULL if quiet else None,
        )

    def execute(self, items, merge, stats, quarantine=None):
        cache = self.store.cache
        assert cache is not None, "distributed mode requires the disk cache"
        shard_points = resolve_shard_points(len(self.grid), self.n_workers,
                                            self.shard_points)
        spec = GridSpec.build(self.grid, shard_points,
                              sim_engine=self.sim_engine,
                              sim_engine_reason=self.sim_engine_reason)
        spec_path = spec.save(cache)
        board = ShardBoard(cache, spec)
        board.ensure()
        stats.executor = self.name
        stats.shards_total = len(board.shards)
        stats.dist_workers = self.n_workers

        procs = [self._spawn(spec_path, i) for i in range(self.n_workers)]
        deadline = time.monotonic() + _dist_timeout(self.timeout)
        try:
            while not board.all_done():
                if all(proc.poll() is not None for proc in procs):
                    break  # fleet gone; fall back below
                if time.monotonic() > deadline:
                    for proc in procs:
                        if proc.poll() is None:
                            proc.kill()
                    break
                time.sleep(0.1)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.wait(timeout=30.0)

        # Aggregate the fleet's self-reported counters from done markers.
        done = 0
        for shard in board.shards:
            record = board.done_record(shard.index)
            if record is None:
                continue
            done += 1
            stats.heartbeats += int(record.get("heartbeats", 0))
            if record.get("reclaimed"):
                stats.shards_reclaimed += 1
        stats.shards_claimed = done

        # Adopt everything the fleet committed; whatever is missing
        # (dead workers, worker-side quarantines, deadline) degrades to
        # the in-process serial fallback.
        leftover: list[tuple] = []
        for point, failures in items:
            run = self.store.load(point)
            if run is not None:
                merge(point, run, None)
            else:
                leftover.append((point, failures))
        if board.all_done() and not leftover:
            board.cleanup()
        return leftover


# ---------------------------------------------------------------------------
# Lease / manifest health (adassure cache stats)
# ---------------------------------------------------------------------------

def lease_health(cache=None, ttl: float | None = None) -> dict:
    """Manifest/lease health of one cache directory.

    Reports what an operator needs before trusting (or cleaning) a shared
    campaign directory: leases with live heartbeats, stale leases whose
    owners are presumed dead, orphaned checkpoint shards (shard state
    left behind without a readable board, or next to an already-done
    marker), and the cumulative ``lease_conflicts`` event count.
    """
    from repro.experiments.cache import RunCache

    cache = cache if cache is not None else RunCache()
    ttl = ttl if ttl is not None else default_lease_ttl()
    checkpoints = cache.root / "checkpoints"
    health = {
        "active_leases": 0,
        "stale_leases": 0,
        "orphaned_shards": 0,
        "lease_conflicts": cache.lease_event_count(),
        "shard_boards": 0,
    }
    if not checkpoints.exists():
        return health
    for lease_path in checkpoints.rglob("*.lease"):
        state = lease_state(lease_path, ttl)
        if state == "active":
            health["active_leases"] += 1
        elif state == "stale":
            health["stale_leases"] += 1
    for shards_dir in checkpoints.glob("*.shards"):
        health["shard_boards"] += 1
        board_path = shards_dir / "board.json"
        try:
            json.loads(board_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            # Shard state without a readable board: unclaimable leftovers.
            health["orphaned_shards"] += 1
            continue
        for lease_path in shards_dir.glob("shard-*.lease"):
            done = lease_path.with_name(
                lease_path.name.replace(".lease", ".done.json"))
            if done.exists():
                # The shard finished but its claimant never released —
                # a corpse's lease next to committed work.
                health["orphaned_shards"] += 1
    return health
