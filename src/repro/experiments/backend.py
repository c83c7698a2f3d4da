"""Campaign backends: schedulers, executors and the one result store.

:func:`~repro.experiments.runner.drain` is the one execution pipeline
(declare -> resolve -> batch -> fall back -> check -> commit); this
module holds the pieces it composes:

* :class:`Scheduler` — partitions pending runs into shards (pool chunks,
  lease-claimable distributed shards);
* :class:`Executor` — runs a shard list, merging completed runs back as
  they finish and returning whatever still needs a fallback
  (:class:`PoolExecutor`, :class:`SerialExecutor`, and the multi-host
  :class:`~repro.experiments.distributed.DistributedExecutor`);
* :class:`ResultStore` — the commit point every executor funnels
  through: in-process LRU memo + content-addressed disk cache + spec
  ledger + optional checkpoint manifest, all keyed by
  :class:`~repro.experiments.spec.RunSpec`.

The contract that makes composition safe: **a run is only ever
observable through the result store**, and a commit is atomic (the disk
cache writes tmp+rename).  Executors may die, be duplicated, or re-run
specs — the store absorbs it, because a run is a pure function of its
spec and re-commits are byte-identical.

Worker-side primitives (``_execute_point`` and friends) stay in
:mod:`~repro.experiments.runner` and are resolved through the module
global at call time, so test sabotage (and fork-propagated monkeypatches)
keeps working exactly as before.
"""

from __future__ import annotations

import os
import random
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

__all__ = [
    "DEFAULT_MEMO_LIMIT",
    "DEFAULT_RETRY_CAP",
    "ChunkScheduler",
    "Executor",
    "PoolExecutor",
    "ResultStore",
    "Scheduler",
    "SerialExecutor",
    "StripedScheduler",
    "retry_cap",
    "retry_delay",
    "set_memo_limit",
]

DEFAULT_MEMO_LIMIT = 512
"""Default bound on the in-process memo (``ADASSURE_MEMO_LIMIT`` env)."""

DEFAULT_RETRY_CAP = 30.0
"""Default cap on a point's *total* retry-backoff sleep, seconds
(``ADASSURE_RETRY_CAP``)."""

_RNG = random.Random()
"""Process-local jitter source: seeded per process, so a fleet of workers
that fails simultaneously does not retry in lockstep."""


def retry_cap(cap: float | None = None) -> float:
    """Per-point total backoff budget: argument > env > default."""
    if cap is None:
        env = os.environ.get("ADASSURE_RETRY_CAP")
        if env:
            try:
                cap = float(env)
            except ValueError:
                cap = None
    if cap is None:
        cap = DEFAULT_RETRY_CAP
    return max(float(cap), 0.0)


def retry_delay(failures: int, slept: float, *, base: float | None = None,
                cap: float | None = None, rng=None) -> float:
    """Jittered, capped exponential backoff before retry ``failures``.

    ``base * 2**(failures-1)`` scaled by a uniform jitter in ``[0.5, 1.5)``
    so N workers that hit the same transient fault (an NFS blip on the
    shared cache, a briefly unreachable store) do not retry in lockstep
    and re-create the stampede that failed them.  The *total* sleep a
    single point may accumulate across its retries is capped
    (``slept`` is the accumulated sleep so far): past the cap, retries
    proceed immediately rather than stretching the campaign tail.
    """
    if base is None:
        from repro.experiments import runner
        base = runner._RETRY_BACKOFF
    delay = base * (2 ** (max(failures, 1) - 1))
    delay *= 0.5 + (rng if rng is not None else _RNG).random()
    remaining = retry_cap(cap) - slept
    return max(min(delay, remaining), 0.0)


# ---------------------------------------------------------------------------
# Scheduler: how pending points become shards
# ---------------------------------------------------------------------------

class Scheduler(ABC):
    """Partitions a pending spec list into executor-sized shards."""

    @abstractmethod
    def shards(self, points: list) -> list[list]:
        """Non-empty, non-overlapping shards covering ``points`` in order."""


class ChunkScheduler(Scheduler):
    """Pool-task chunks: ``$ADASSURE_CHUNK`` or a load-balance heuristic.

    Chunks amortize per-task pickle/dispatch overhead but must stay small
    enough that every worker gets several (load balancing, and a lost
    chunk costs little).  Four chunks per worker, capped at 8 points
    each; small grids keep chunk size 1.
    """

    def __init__(self, n_workers: int):
        self.n_workers = max(int(n_workers), 1)
        self.chunk_size = 1

    def shards(self, points: list) -> list[list]:
        size = None
        env = os.environ.get("ADASSURE_CHUNK")
        if env:
            try:
                size = max(int(env), 1)
            except ValueError:
                size = None
        if size is None:
            size = max(1, min(8, len(points) // (4 * self.n_workers)))
        self.chunk_size = size
        return [points[i:i + size] for i in range(0, len(points), size)]


class StripedScheduler(Scheduler):
    """Contiguous stripes of ``shard_points`` — the distributed claim unit.

    Contiguous (rather than round-robin) slices keep batch-compatible
    neighbours together, so a worker that runs its shard through the
    lockstep engine still finds full groups.
    """

    def __init__(self, shard_points: int):
        self.shard_points = max(int(shard_points), 1)

    def shards(self, points: list) -> list[list]:
        return [points[i:i + self.shard_points]
                for i in range(0, len(points), self.shard_points)]


# ---------------------------------------------------------------------------
# ResultStore: the shared commit point
# ---------------------------------------------------------------------------

def _memo_limit() -> int:
    try:
        return max(int(os.environ.get("ADASSURE_MEMO_LIMIT",
                                      DEFAULT_MEMO_LIMIT)), 1)
    except ValueError:
        return DEFAULT_MEMO_LIMIT


_MEMO: OrderedDict = OrderedDict()
"""The process-wide in-process layer: ``RunSpec -> GridRun``, bounded LRU
so multi-thousand-run sweeps cannot grow memory without limit (each
entry holds a full trace)."""

_MEMO_LIMIT = _memo_limit()


def set_memo_limit(limit: int) -> None:
    """Re-bound the in-process memo (evicts oldest entries immediately)."""
    global _MEMO_LIMIT
    if limit < 1:
        raise ValueError("memo limit must be >= 1")
    _MEMO_LIMIT = limit
    while len(_MEMO) > _MEMO_LIMIT:
        _MEMO.popitem(last=False)


def _memo_put(spec, run) -> None:
    _MEMO[spec] = run
    _MEMO.move_to_end(spec)
    while len(_MEMO) > _MEMO_LIMIT:
        _MEMO.popitem(last=False)


class ResultStore:
    """Memo + :class:`~repro.experiments.cache.RunCache` + spec ledger +
    optional :class:`~repro.experiments.cache.CheckpointManifest`, keyed
    by :class:`~repro.experiments.spec.RunSpec`.

    This is the object that makes every executor interchangeable: a run
    committed here is visible to the in-process memo, to every other
    process sharing the cache directory (the distributed workers' common
    store, a probe fleet), to ``adassure explain <key>`` through the
    ledger, and to the campaign's resume ledger — in that order, so a
    crash between steps loses bookkeeping, never results.  Values are
    :class:`~repro.experiments.spec.GridRun` records.
    """

    def __init__(self, cache, catalog: str | None = None, manifest=None):
        if catalog is None and cache is not None:
            from repro.core.spec import catalog_fingerprint
            catalog = catalog_fingerprint()
        self.cache = cache
        self.catalog = catalog
        self.manifest = manifest

    def key(self, spec) -> str | None:
        return None if self.cache is None else spec.key(self.catalog)

    def contains(self, spec) -> bool:
        return self.cache is not None and self.cache.contains(self.key(spec))

    def resolve(self, spec):
        """``(GridRun, source)`` for an already-known run, else ``None``.

        ``source`` is ``"memo"`` or ``"disk"`` so the caller can account
        hits per layer.  A ``GridRun`` unpacks as ``(result, report)``.
        """
        run = _MEMO.get(spec)
        source = "memo"
        if run is not None:
            _MEMO.move_to_end(spec)
        else:
            run = self.load(spec)
            if run is None:
                return None
            _memo_put(spec, run)
            source = "disk"
        if self.manifest is not None:
            self.manifest.complete(spec)
        return run, source

    def load(self, spec):
        """Disk-only lookup (no memo, no manifest side effects)."""
        if self.cache is None:
            return None
        entry = self.cache.load(self.key(spec))
        if entry is None:
            return None
        from repro.experiments.spec import GridRun
        return GridRun(spec, *entry)

    def commit(self, spec, run) -> None:
        """Persist one completed run (idempotent, atomic on disk)."""
        _memo_put(spec, run)
        if self.cache is not None:
            # Result-commit-before-ledger-update: the atomic cache write
            # is the run's durability moment; everything after is
            # bookkeeping a crash may lose without losing work.
            key = self.key(spec)
            self.cache.store(key, run.result, run.report, run.diagnosis)
            self.cache.record_params(key, spec.to_dict())
        if self.manifest is not None:
            self.manifest.complete(spec)

    def adopt(self, spec, run) -> None:
        """Bookkeeping for a run another process already committed."""
        _memo_put(spec, run)
        if self.manifest is not None:
            self.manifest.complete(spec)

    def quarantine(self, spec, error: str) -> None:
        """Ledger a run that exhausted its retries."""
        if self.manifest is not None:
            self.manifest.quarantine(spec, error)

    def close(self) -> None:
        """Give the manifest's lease back (campaign finished or aborted)."""
        if self.manifest is not None:
            self.manifest.release()


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

class Executor(ABC):
    """Runs ``(spec, failures)`` work items, merging completions.

    ``merge(spec, run, phases)`` is called for every completed run as it
    finishes (the incremental checkpoint).  The return value is the
    leftover items — specs this executor could not finish, with their
    accumulated failure counts — which the caller hands to the next
    executor in the chain (ultimately :class:`SerialExecutor`, which
    owns retries and quarantine and never leaves leftovers).
    """

    name = "executor"

    @abstractmethod
    def execute(self, items: list[tuple], merge, stats,
                quarantine=None) -> list[tuple]:
        """items/return: ``[(spec, failures), ...]``."""


class PoolExecutor(Executor):
    """Crash-tolerant single-host ``ProcessPoolExecutor`` fan-out.

    The pool half of the fault-tolerance contract: a chunk that exceeds
    its wall-clock budget is abandoned (its worker may be hung, so the
    pool is dropped without joining it), a point that raises comes back
    with one failure on its ledger, and a pool collapse
    (:class:`BrokenProcessPool` — a worker OOM-killed or dying mid-task)
    returns every unfinished point.  Leftovers go to the serial path,
    which owns retries and quarantine.
    """

    name = "pool"

    def __init__(self, n_workers: int, timeout: float | None = None):
        self.n_workers = max(int(n_workers), 1)
        self.timeout = timeout

    def execute(self, items, merge, stats, quarantine=None):
        from repro.experiments import runner
        points = [point for point, _ in items]
        scheduler = ChunkScheduler(self.n_workers)
        chunks = scheduler.shards(points)
        stats.chunk_size = scheduler.chunk_size
        leftover: list[tuple] = []
        abandoned = False
        pool = ProcessPoolExecutor(max_workers=self.n_workers)

        def merge_outcomes(outcomes: list[tuple]) -> None:
            for point, run, phases, error in outcomes:
                if error is None:
                    merge(point, run, phases)
                else:
                    leftover.append((point, 1))

        try:
            futures = [(pool.submit(runner._execute_chunk, chunk), chunk)
                       for chunk in chunks]
            for index, (future, chunk) in enumerate(futures):
                budget = (None if self.timeout is None
                          else self.timeout * len(chunk))
                try:
                    outcomes = future.result(timeout=budget)
                except FutureTimeout:
                    stats.timeouts += 1
                    leftover.extend((point, 0) for point in chunk)
                    abandoned = True
                    continue
                except BrokenProcessPool:
                    stats.pool_failures += 1
                    for late_future, late_chunk in futures[index:]:
                        if (late_future.done() and not late_future.cancelled()
                                and late_future.exception() is None):
                            merge_outcomes(late_future.result())
                        else:
                            leftover.extend((p, 0) for p in late_chunk)
                    break
                except Exception:
                    # Chunk-level failure (e.g. the result failed to
                    # pickle): every point gets one failure on its ledger.
                    leftover.extend((point, 1) for point in chunk)
                    continue
                merge_outcomes(outcomes)
        finally:
            # A hung worker must not hang the campaign: once a chunk has
            # been abandoned, drop the pool without waiting for it.
            pool.shutdown(wait=not abandoned, cancel_futures=True)
        return leftover


class SerialExecutor(Executor):
    """The terminal executor: bounded retry + jittered backoff + quarantine.

    Each point gets ``retries`` re-executions beyond its first attempt
    (failures inherited from earlier executors count against the budget),
    with jittered exponential backoff between attempts
    (:func:`retry_delay`) whose accumulated sleep is capped per point
    (``ADASSURE_RETRY_CAP``) so a flaky tail cannot stretch a campaign
    indefinitely.  A point that exhausts the budget is quarantined —
    recorded in ``stats`` and via ``quarantine`` — instead of aborting
    the campaign.  Never leaves leftovers.
    """

    name = "serial"

    def __init__(self, retries: int):
        self.retries = max(int(retries), 0)

    def execute(self, items, merge, stats, quarantine=None):
        from repro.experiments import runner
        for point, failures in items:
            slept = 0.0
            while True:
                if failures:
                    stats.retries += 1
                    delay = retry_delay(failures, slept)
                    slept += delay
                    if delay > 0.0:
                        time.sleep(delay)
                try:
                    merge(*runner._execute_point(point))
                    break
                except Exception as exc:
                    failures += 1
                    if failures > self.retries:
                        error = f"{type(exc).__name__}: {exc}"
                        stats.quarantined.append((point, error))
                        if quarantine is not None:
                            quarantine(point, error)
                        break
        return []
