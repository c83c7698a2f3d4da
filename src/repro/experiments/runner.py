"""The one execution pipeline: :func:`drain`, and the campaigns built on it.

Every run the experiments execute is a
:class:`~repro.experiments.spec.RunSpec`, and every batch of specs goes
through :func:`drain`:

1. **declare** — the caller hands over its whole spec list;
2. **resolve** — each unique spec is looked up in the
   :class:`~repro.experiments.backend.ResultStore`: the in-process LRU
   memo (bounded, default 512 runs), then the persistent content-addressed
   disk cache (:mod:`repro.experiments.cache`), so a repeated campaign
   re-simulates nothing;
3. **batch** — with the lockstep engine selected (:func:`choose_sim_engine`),
   the misses are grouped by ``(scenario, duration)``, chunked at
   :func:`_batch_lanes` lanes and stepped through
   :func:`~repro.sim.batch.run_batch` (:func:`simulate_batch`, the
   drain's simulate-only half); a chunk the engine rejects falls back
   whole;
4. **fall back** — everything not batched goes to the caller's executor
   chain: serial in place by default; for :func:`run_grid` a
   single-host ``ProcessPoolExecutor`` fan-out
   (:class:`~repro.experiments.backend.PoolExecutor`, ``workers=`` /
   ``ADASSURE_WORKERS``) or the multi-host lease-claimed worker fleet
   (:class:`~repro.experiments.distributed.DistributedExecutor`,
   ``executor="distributed"`` / ``ADASSURE_EXECUTOR``), and finally the
   terminal :class:`~repro.experiments.backend.SerialExecutor`, which
   owns retries and quarantine;
5. **check + commit** — every fresh run is checked, diagnosed and
   committed through the store (memo + disk + spec ledger + checkpoint
   manifest) as soon as it completes.

Because every run is fully seeded, every backend produces bit-identical
results; executors only change wall-clock time.  Each drain reports
timings and hit counts into :data:`repro.experiments.stats.STATS`.

The :func:`run_grid` chain is **crash-tolerant**: a campaign of
thousands of points must survive one sick point, one dead worker, or one
dead *host*.  Concretely,

* every pool point gets a wall-clock budget (``point_timeout=`` /
  ``ADASSURE_POINT_TIMEOUT``; unlimited by default) — an overdue point is
  abandoned to the pool and re-run serially;
* a collapsed pool (``BrokenProcessPool``, e.g. a worker OOM-killed or
  ``os._exit``-ing) is not fatal: the surviving points re-run serially;
* failing points are retried with jittered exponential backoff
  (``ADASSURE_POINT_RETRIES``, default 2; total per-point backoff capped
  by ``ADASSURE_RETRY_CAP``) and finally **quarantined** — reported in
  :class:`~repro.experiments.stats.GridStats` (and ``--stats``) instead
  of aborting the campaign;
* completed points are checkpointed to the disk cache *as they finish*,
  with a campaign-level :class:`~repro.experiments.cache.CheckpointManifest`
  ledger, so an interrupted campaign resumes from where it died and
  re-runs only the missing points;
* distributed workers that die mid-shard lose their lease after the
  heartbeat TTL and the shard is reclaimed — see
  :mod:`repro.experiments.distributed` for the full failure semantics.
"""

from __future__ import annotations

import os
import time
import warnings

from repro.core.checker import check_trace
from repro.core.diagnosis import diagnose
from repro.core.verdicts import CheckReport
from repro.experiments.backend import (
    _MEMO,
    PoolExecutor,
    ResultStore,
    SerialExecutor,
    set_memo_limit,
)
from repro.experiments.cache import CheckpointManifest, RunCache
from repro.experiments.spec import GridRun, RunSpec, build_grid, build_scenario
from repro.experiments.stats import STATS, GridStats
from repro.sim.batch import run_batch
from repro.sim.engine import RunResult

__all__ = [
    "drain",
    "run_grid",
    "run_scored",
    "scored_store",
    "simulate_batch",
    "clear_cache",
    "resolve_executor",
    "choose_sim_engine",
    "resolve_workers",
    "set_memo_limit",
]

DEFAULT_BATCH_LANES = 64
"""Default lanes per batched simulation group (``ADASSURE_BATCH_LANES``)."""

DEFAULT_POINT_RETRIES = 2
"""Default retry budget per failing point (``ADASSURE_POINT_RETRIES``)."""

_RETRY_BACKOFF = 0.25
"""Base of the exponential retry backoff, seconds (doubles per attempt)."""


def _point_timeout(timeout: float | None) -> float | None:
    """Per-point wall-clock budget: argument > env > unlimited."""
    if timeout is None:
        env = os.environ.get("ADASSURE_POINT_TIMEOUT")
        if env:
            try:
                timeout = float(env)
            except ValueError:
                timeout = None
    if timeout is not None and timeout <= 0:
        return None
    return timeout


def _point_retries(retries: int | None) -> int:
    """Per-point retry budget: argument > env > default."""
    if retries is None:
        env = os.environ.get("ADASSURE_POINT_RETRIES")
        if env:
            try:
                retries = int(env)
            except ValueError:
                retries = None
    if retries is None:
        retries = DEFAULT_POINT_RETRIES
    return max(int(retries), 0)


def clear_cache(disk: bool = False) -> None:
    """Forget every run this process remembers, so the next drain is cold.

    Drops the run memo, the scenario cache, the batch engine's
    cross-lane DARE-gain memo (and its hit/solve counters) and its
    sensor-schedule cache.

    Args:
        disk: also wipe the persistent on-disk cache layer.
    """
    from repro.sim.batch.controllers import clear_dare_memo
    from repro.sim.batch.noise import clear_schedule_cache
    _MEMO.clear()
    build_scenario.cache_clear()
    clear_dare_memo()
    clear_schedule_cache()
    if disk:
        cache = RunCache.from_env()
        if cache is not None:
            cache.clear()


def choose_sim_engine(engine: str | None = None,
                      pending: int = 0) -> tuple[str, str]:
    """Effective engine *and why*: argument > ``ADASSURE_SIM`` > auto.

    ``"serial"`` steps every run through its own
    :class:`~repro.sim.engine.SimulationRunner`; ``"batch"`` groups
    compatible runs and steps them in lockstep through
    :func:`repro.sim.batch.run_batch` (bit-identical results, one core).
    Auto selects the batch engine whenever at least two runs are
    actually pending and NumPy imports (the batch engine is
    array-native); otherwise serial.  ``ADASSURE_SIM=serial`` is the
    opt-out.  Returns ``(engine, reason)`` — the reason lands in
    ``GridStats.sim_engine_reason`` (and a distributed campaign's
    :class:`~repro.experiments.distributed.GridSpec`) so ``--stats``
    shows how the engine was picked.
    """
    reason = "engine argument"
    if engine is None:
        engine = os.environ.get("ADASSURE_SIM", "").strip() or None
        reason = "ADASSURE_SIM"
    if engine is not None:
        engine = engine.strip().lower()
        if engine not in ("serial", "batch"):
            raise ValueError(
                f"unknown simulation engine {engine!r}; "
                "expected 'serial' or 'batch'")
        return engine, reason
    if pending < 2:
        return "serial", f"auto: {pending} pending run(s)"
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy ships with the repo
        return "serial", "auto: numpy unavailable"
    return "batch", f"auto: {pending} pending run(s)"


def _batch_lanes() -> int:
    """Lanes per batch group: ``ADASSURE_BATCH_LANES`` or the default."""
    env = os.environ.get("ADASSURE_BATCH_LANES")
    if env:
        try:
            return max(int(env), 2)
        except ValueError:
            pass
    return DEFAULT_BATCH_LANES


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: argument > ``ADASSURE_WORKERS`` > cores-1."""
    if workers is None:
        env = os.environ.get("ADASSURE_WORKERS")
        if env:
            try:
                workers = int(env)
            except ValueError:
                workers = None
    if workers is None:
        workers = (os.cpu_count() or 2) - 1
    return max(int(workers), 1)


def resolve_executor(executor: str | None = None) -> str:
    """Effective campaign executor: argument > ``ADASSURE_EXECUTOR`` > auto.

    * ``"auto"`` — today's single-host behaviour: batch prepass when the
      batch engine is selected, then pool (or serial on one core);
    * ``"serial"`` — force the in-process serial path;
    * ``"pool"`` — force the single-host process pool;
    * ``"distributed"`` — spawn a lease-claimed worker fleet sharing the
      disk cache (:mod:`repro.experiments.distributed`); other hosts can
      join with ``adassure worker``.
    """
    if executor is None:
        env = os.environ.get("ADASSURE_EXECUTOR", "").strip()
        executor = env or "auto"
    executor = executor.strip().lower()
    if executor not in ("auto", "serial", "pool", "distributed"):
        raise ValueError(
            f"unknown executor {executor!r}; expected 'auto', 'serial', "
            "'pool' or 'distributed'")
    return executor


def resolve_dist_workers(dist_workers: int | None = None) -> int:
    """Distributed fleet size: argument > ``ADASSURE_DIST_WORKERS`` > ≥2.

    The default is at least two workers — a one-worker "fleet" is legal
    (still crash-tolerant via lease reclaim on restart) but defeats the
    point of asking for the distributed executor.
    """
    if dist_workers is None:
        env = os.environ.get("ADASSURE_DIST_WORKERS")
        if env:
            try:
                dist_workers = int(env)
            except ValueError:
                dist_workers = None
        if dist_workers is None:
            dist_workers = max(resolve_workers(None), 2)
    return max(int(dist_workers), 1)


# ---------------------------------------------------------------------------
# Execution: one spec, one batch, one drain
# ---------------------------------------------------------------------------

def _score(spec: RunSpec, result: RunResult) -> tuple[GridRun, dict]:
    """Check + diagnose one simulated run; returns the run and its
    check/diagnose phase times."""
    t0 = time.perf_counter()
    report = check_trace(result.trace)
    t1 = time.perf_counter()
    diagnosis = diagnose(report)
    t2 = time.perf_counter()
    return (GridRun(spec, result, report, diagnosis),
            {"check": t1 - t0, "diagnose": t2 - t1})


def _execute_point(spec: RunSpec) -> tuple[RunSpec, GridRun, dict]:
    """Simulate (serial engine) + check + diagnose one spec.

    Top-level so it pickles into pool workers; returns the spec, the
    scored run and per-phase wall times.
    """
    t0 = time.perf_counter()
    result = spec.run()
    simulate = time.perf_counter() - t0
    run, phases = _score(spec, result)
    return spec, run, {"simulate": simulate, **phases}


def _execute_chunk(specs: list[RunSpec]) -> list[tuple]:
    """Pool work unit: execute a batch of specs in one task.

    Failures are captured *per spec* — ``(spec, None, None, error)``
    instead of ``(spec, run, phases, None)`` — so one sick point does
    not discard its chunk-mates' finished work.  Calls
    ``_execute_point`` through the module global so test sabotage
    (monkeypatched into forked workers) still applies.
    """
    out = []
    for spec in specs:
        try:
            out.append(_execute_point(spec) + (None,))
        except Exception as exc:
            out.append((spec, None, None, f"{type(exc).__name__}: {exc}"))
    return out


def simulate_batch(specs: list[RunSpec], stats: GridStats, emit,
                   min_lanes: int = 1) -> list[RunSpec]:
    """The drain's simulate-only half: lockstep-simulate ``specs``.

    Groups by ``(scenario, duration)`` — the compatibility key the batch
    engine requires — in first-seen order, chunks each group at
    :func:`_batch_lanes` lanes and runs every chunk of at least
    ``min_lanes`` specs through :func:`~repro.sim.batch.run_batch`,
    calling ``emit(spec, result)`` per lane as its chunk finishes.  A
    chunk the engine rejects is a ``batch_fallbacks`` tick and comes back
    whole with the too-small chunks: the return value is every spec not
    simulated.  Results are raw — nothing is checked or committed here.
    """
    from repro.sim.batch.controllers import dare_memo_counters
    groups: dict[tuple, list[RunSpec]] = {}
    for spec in specs:
        groups.setdefault((spec.scenario, spec.duration), []).append(spec)
    lanes = _batch_lanes()
    dare0 = dare_memo_counters()
    leftover: list[RunSpec] = []
    for group in groups.values():
        for start in range(0, len(group), lanes):
            chunk = group[start:start + lanes]
            if len(chunk) < min_lanes:
                leftover.extend(chunk)
                continue
            try:
                built = [spec.build() for spec in chunk]
                t0 = time.perf_counter()
                results = run_batch(built)
            except Exception:
                stats.batch_fallbacks += 1
                leftover.extend(chunk)
                continue
            stats.phase_time["simulate"] += time.perf_counter() - t0
            stats.batch_groups += 1
            stats.batch_points += len(chunk)
            for spec, result in zip(chunk, results):
                emit(spec, result)
    dare1 = dare_memo_counters()
    stats.dare_memo_hits += dare1["hits"] - dare0["hits"]
    stats.dare_memo_solves += dare1["solves"] - dare0["solves"]
    return leftover


def _serial(specs: list[RunSpec], merge) -> None:
    """The default fallback: run each spec serially, in place; a failure
    raises to the caller."""
    for spec in specs:
        merge(*_execute_point(spec))


def drain(specs, store: ResultStore, stats: GridStats, *,
          sim_engine: str | None = None, fallback=_serial,
          batch_locally: bool = True) -> dict[RunSpec, GridRun]:
    """Execute ``specs`` — the one pipeline every campaign runs through.

    Declare -> resolve (memo, disk) -> group by ``(scenario, duration)``
    -> chunk at :func:`_batch_lanes` -> :func:`~repro.sim.batch.run_batch`
    (chunks of two or more lanes, when :func:`choose_sim_engine` picks
    the batch engine) -> ``fallback(specs, merge)`` for everything not
    batched (serial in place by default) -> check + diagnose -> commit
    through ``store``.  ``batch_locally=False`` hands every miss to the
    fallback (a distributed fleet batches on its workers instead).

    Returns every resolved or executed spec's :class:`GridRun`; specs a
    fallback quarantined are absent.  Counters accumulate into
    ``stats``; recording it is the caller's job.
    """
    runs: dict[RunSpec, GridRun] = {}
    pending: list[RunSpec] = []
    for spec in dict.fromkeys(specs):
        hit = store.resolve(spec)
        if hit is None:
            pending.append(spec)
            continue
        runs[spec], source = hit
        if source == "memo":
            stats.memo_hits += 1
        else:
            stats.disk_hits += 1
    stats.sim_engine, stats.sim_engine_reason = choose_sim_engine(
        sim_engine, len(pending))

    def merge(spec: RunSpec, run: GridRun, phases: dict | None) -> None:
        # Incremental checkpoint: every completed run lands in the store
        # as soon as it finishes.  ``phases=None`` marks a run executed
        # elsewhere (a distributed worker) and adopted from the shared
        # store — already durable, so only the local bookkeeping runs.
        runs[spec] = run
        if phases is None:
            store.adopt(spec, run)
            stats.dist_points += 1
            return
        store.commit(spec, run)
        stats.executed += 1
        for phase, seconds in phases.items():
            stats.phase_time[phase] += seconds

    if stats.sim_engine == "batch" and batch_locally:
        pending = simulate_batch(
            pending, stats, lambda spec, result: merge(
                spec, *_score(spec, result)), min_lanes=2)
    fallback(pending, merge)
    return runs


def _record(stats: GridStats, store: ResultStore, wall_start: float) -> None:
    if store.cache is not None:
        stats.disk_errors = store.cache.counters.errors
    stats.wall_time = time.perf_counter() - wall_start
    STATS.record(stats)


def scored_store() -> ResultStore:
    """The process-wide result store without a campaign manifest (memo +
    disk cache + spec ledger) — what off-grid runs and probes use."""
    return ResultStore(RunCache.from_env())


def run_scored(spec: RunSpec) -> tuple[RunResult, CheckReport]:
    """Cached execution of one run: :func:`drain` over a single spec.

    Returns ``(result, report)``; a simulation failure raises (E14
    measures crashes this way).
    """
    wall_start = time.perf_counter()
    stats = GridStats(workers=1, grid_points=1)
    store = scored_store()
    run = drain([spec], store, stats)[spec]
    _record(stats, store, wall_start)
    return run.result, run.report


def run_grid(
    scenarios: tuple[str, ...] | list[str],
    controllers: tuple[str, ...] | list[str],
    attacks: tuple[str, ...] | list[str],
    seeds: tuple[int, ...] | list[int],
    intensity: float = 1.0,
    onset: float = 15.0,
    duration: float | None = None,
    workers: int | None = None,
    point_timeout: float | None = None,
    retries: int | None = None,
    sim_engine: str | None = None,
    executor: str | None = None,
    dist_workers: int | None = None,
    shard_points: int | None = None,
) -> list[GridRun]:
    """Run (and score) the full cartesian grid.

    Results come back in grid order (scenario-major, seed-minor) and are
    identical regardless of ``workers`` or ``executor`` — the backends
    only change how the uncached points are executed.  Hits are served
    from the in-process memo first, then from the persistent disk cache;
    freshly executed points are merged back into both layers *as they
    complete* (the incremental checkpoint an interrupted campaign
    resumes from).

    The grid is a :func:`~repro.experiments.spec.build_grid` spec list
    executed by :func:`drain`: with the batch engine (auto-selected for
    two or more pending points; ``sim_engine`` / ``ADASSURE_SIM``
    override), compatible uncached points are stepped in lockstep through
    the array-native batch engine (:mod:`repro.sim.batch`) before
    anything reaches the pool; results are bit-identical to the serial
    engine, and any group the batch engine rejects falls back to the
    executor chain.

    With ``executor="distributed"`` (or ``ADASSURE_EXECUTOR=distributed``),
    the uncached points are instead striped into lease-claimable shards
    and executed by ``dist_workers`` independent worker *processes*
    sharing the disk cache as their common result store — additional
    hosts can join the same campaign with ``adassure worker``.  Shard
    size is ``shard_points`` (or ``ADASSURE_SHARD_POINTS``).

    Execution is crash-tolerant: slow points are re-run serially after
    ``point_timeout`` seconds, a collapsed worker pool (or a wholly dead
    distributed fleet) degrades to serial execution of the surviving
    points, and a point that still fails after ``retries`` re-executions
    is quarantined — dropped from the returned list and reported via
    :data:`~repro.experiments.stats.STATS` — rather than aborting the
    campaign.  Callers that require the full grid can compare
    ``len(result)`` against their request.
    """
    wall_start = time.perf_counter()
    stats = GridStats(workers=1)

    grid = build_grid(scenarios, controllers, attacks, seeds,
                      intensity=intensity, onset=onset, duration=duration)
    stats.grid_points = len(grid)

    cache = RunCache.from_env()
    manifest = CheckpointManifest.for_grid(cache, grid)
    if manifest is not None and manifest.lease_conflict:
        # Another live campaign owns this grid's ledger.  The work still
        # runs (the per-point cache stays shared and consistent); only
        # the manifest goes read-only.  Report it — a silently lost
        # ledger is exactly what the lease exists to prevent.
        stats.lease_conflicts += 1
        warnings.warn(
            f"checkpoint manifest {manifest.path.name} is held by another "
            "live campaign; this run proceeds without updating the shared "
            "ledger", RuntimeWarning, stacklevel=2)
    store = ResultStore(cache, manifest=manifest)

    mode = resolve_executor(executor)
    if mode == "distributed" and cache is None:
        warnings.warn(
            "the distributed executor needs the disk cache as its "
            "shared result store (ADASSURE_CACHE=0 disables it); "
            "falling back to the single-host executor chain",
            RuntimeWarning, stacklevel=2)
        mode = "auto"

    def execute(specs: list[RunSpec], merge) -> None:
        # The executor chain for everything the batch prepass left: the
        # primary executor — process pool or distributed fleet — takes
        # it; all leftovers (timed-out points, collapse survivors,
        # dead-fleet remainders, first-failure points) fall back to the
        # terminal serial executor, which owns retries and quarantine
        # and always converges.
        items = [(spec, 0) for spec in specs]
        if mode == "distributed" and items:
            from repro.experiments.distributed import DistributedExecutor
            items = DistributedExecutor(
                grid, store, resolve_dist_workers(dist_workers),
                shard_points=shard_points, sim_engine=stats.sim_engine,
                sim_engine_reason=stats.sim_engine_reason,
            ).execute(items, merge, stats)
            stats.pool_policy = "distributed"
        else:
            n_workers = resolve_workers(workers)
            use_pool = (mode in ("auto", "pool")
                        and n_workers > 1 and len(items) > 1)
            if use_pool and workers is None and (os.cpu_count() or 1) < 2:
                # Measured: on a single exposed core the pool's
                # pickle/dispatch overhead makes it *slower* than serial
                # (~0.87x).  When the count came from the environment
                # rather than an explicit argument, auto-select the
                # serial path and record why.
                use_pool = False
                stats.pool_policy = "serial-single-core"
            else:
                stats.pool_policy = "pool" if use_pool else "serial"
            stats.workers = min(n_workers, len(items)) if use_pool else 1
            if use_pool:
                items = PoolExecutor(
                    stats.workers,
                    timeout=_point_timeout(point_timeout),
                ).execute(items, merge, stats)
        SerialExecutor(_point_retries(retries)).execute(
            items, merge, stats, store.quarantine)

    try:
        runs = drain(grid, store, stats, sim_engine=sim_engine,
                     fallback=execute, batch_locally=mode != "distributed")
    finally:
        # The lease must not outlive the campaign: a leaked lease
        # would lock this grid's ledger until the TTL expires.
        store.close()
    _record(stats, store, wall_start)
    return [runs[spec] for spec in grid if spec in runs]
