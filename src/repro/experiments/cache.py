"""Persistent, content-addressed on-disk cache for scored runs.

Every run is a pure function of its :class:`~repro.experiments.spec.RunSpec`
*and* of the code that scores it — the simulator is fully seeded and the
assertion catalog deterministic.  That makes runs content-addressable:
the cache key (:meth:`~repro.experiments.spec.RunSpec.key`) is a SHA-256
over the canonical spec salted with the package version and the catalog
fingerprint, so a cache populated by one catalog revision is silently
invalidated by the next.

Layout (under ``$ADASSURE_CACHE_DIR`` or ``~/.cache/adassure``)::

    <root>/v3/ab/<key>.trace.npz        version-stamped columnar binary
                                        trace (``repro.trace.io`` format
                                        v2; the suffix is historical;
                                        inspectable via `adassure check`)
    <root>/v3/ab/<key>.scored.pkl       pickled scenario + metrics +
                                        outcome + CheckReport + diagnosis
    <root>/v3/params/ab/<key>.params.json
                                        the spec ledger: the run's
                                        ``RunSpec.to_dict()``, so
                                        `adassure explain <key>` can
                                        rebuild any cached run

Traces are stored as the binary bytes themselves — no re-compression
wrapper — so a cache hit is one inflate and one un-shuffle per channel
straight into the columnar view the vectorized checker consumes.
Loading sniffs the payload format, so a cache directory can in principle
hold version 1 ``.npz`` or JSONL entries too (the versioned root isolates
each layout from the others regardless).  Keys are salted with the
package version, so builds that write different trace formats never
read, evict and rewrite each other's entries in a shared directory.

Entries are written atomically (tmp file + rename) so concurrent workers
and concurrent campaigns can share a cache directory.  Any unreadable or
truncated entry is treated as a miss, deleted, and re-run — a corrupt
cache can cost time, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.core.verdicts import CheckReport
from repro.locking import FileLease
from repro.sim.engine import RunResult
from repro.trace.io import (
    TraceTruncationWarning,
    trace_from_bytes,
    trace_to_npz_bytes,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheCounters",
    "CheckpointManifest",
    "RunCache",
    "default_cache_dir",
    "grid_identity",
]

CACHE_FORMAT_VERSION = 3
"""Bumped whenever the on-disk entry layout or key space changes.

v2: traces stored as columnar ``.trace.npz`` binary instead of gzip'd
JSONL (smaller entries, much faster loads, no double compression).
v3: every entry is keyed by its :class:`~repro.experiments.spec.RunSpec`
and ledgered under ``params/`` (grid points, extension runs and probes
share one key space).
"""

_TRACE_SUFFIX = ".trace.npz"
_SCORED_SUFFIX = ".scored.pkl"


def default_cache_dir() -> Path:
    """``$ADASSURE_CACHE_DIR``, else ``~/.cache/adassure``."""
    env = os.environ.get("ADASSURE_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "adassure"


def grid_identity(specs) -> str:
    """Stable campaign id: a hash of the full spec list, version-salted.

    Shared by the checkpoint manifest, the distributed shard board and
    the serialized grid spec, so every process that enumerates the same
    campaign — coordinator, resuming run, worker on another host —
    agrees on one ledger/board identity.
    """
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "code": repro.__version__,
        "grid": [spec.to_dict() for spec in specs],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:40]


@dataclass(slots=True)
class CacheCounters:
    """Hit/miss accounting for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    """Entries that existed but failed to load (treated as misses)."""

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "errors": self.errors}


class RunCache:
    """Persistent store of scored runs, keyed by ``RunSpec.key()``.

    The value side is the ``(result, report, diagnosis)`` triple the grid
    runner produces: the trace travels as the columnar binary format
    (exact float round-trip), everything derived (scenario object,
    metrics, outcome, check report, diagnosis) as one pickle.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = (Path(root).expanduser() if root is not None
                     else default_cache_dir()) / f"v{CACHE_FORMAT_VERSION}"
        self.counters = CacheCounters()

    @staticmethod
    def from_env() -> "RunCache | None":
        """The process-wide cache, or ``None`` when disabled.

        ``ADASSURE_CACHE=0`` (or ``off``/``false``) turns the disk layer
        off entirely; ``ADASSURE_CACHE_DIR`` relocates it.
        """
        flag = os.environ.get("ADASSURE_CACHE", "1").strip().lower()
        if flag in ("0", "off", "false", "no"):
            return None
        return RunCache()

    # -- path helpers ---------------------------------------------------
    def _shard(self, key: str) -> Path:
        return self.root / key[:2]

    def _trace_path(self, key: str) -> Path:
        return self._shard(key) / (key + _TRACE_SUFFIX)

    def _scored_path(self, key: str) -> Path:
        return self._shard(key) / (key + _SCORED_SUFFIX)

    def contains(self, key: str) -> bool:
        return self._trace_path(key).exists() and self._scored_path(key).exists()

    # -- load/store -----------------------------------------------------
    def load(self, key: str):
        """``(RunResult, CheckReport, diagnosis)`` or ``None`` on miss.

        Corrupt or partial entries are evicted and reported as misses.
        """
        trace_path = self._trace_path(key)
        scored_path = self._scored_path(key)
        try:
            with warnings.catch_warnings():
                # Entries are written atomically, so a truncated payload
                # here is corruption, not an interrupted write — the
                # salvage path must not quietly serve a shortened trace.
                # (Binary traces already hard-fail on truncation; the
                # filter covers any legacy JSONL payloads the format
                # sniffer accepts.)
                warnings.simplefilter("error", TraceTruncationWarning)
                trace = trace_from_bytes(trace_path.read_bytes())
            with scored_path.open("rb") as f:
                scored = pickle.load(f)
            result = RunResult(
                trace=trace,
                metrics=scored["metrics"],
                outcome=scored["outcome"],
                scenario=scored["scenario"],
                controller_name=scored["controller_name"],
                attack_label=scored["attack_label"],
            )
            report = scored["report"]
            if not isinstance(report, CheckReport):
                raise TypeError("cache entry holds no CheckReport")
            self.counters.hits += 1
            return result, report, scored["diagnosis"]
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except Exception:
            # Truncated write, stale pickle from an old code layout,
            # bit rot: evict and re-simulate rather than crash a campaign.
            self.counters.errors += 1
            self.counters.misses += 1
            self.evict(key)
            return None

    def store(self, key: str, result: RunResult, report: CheckReport,
              diagnosis) -> None:
        """Persist one scored run; atomic, best-effort (IO errors are
        swallowed — the cache is an accelerator, not a database)."""
        try:
            shard = self._shard(key)
            shard.mkdir(parents=True, exist_ok=True)
            scored = {
                "metrics": result.metrics,
                "outcome": result.outcome,
                "scenario": result.scenario,
                "controller_name": result.controller_name,
                "attack_label": result.attack_label,
                "report": report,
                "diagnosis": diagnosis,
            }
            # Store the binary bytes directly: the npz payload is already
            # compressed, so wrapping it in another encoder would only
            # add CPU and size (the v1 layout's double-gzip mistake).
            self._atomic_write(self._trace_path(key),
                               trace_to_npz_bytes(result.trace))
            self._atomic_write(self._scored_path(key),
                               pickle.dumps(scored, protocol=pickle.HIGHEST_PROTOCOL))
            self.counters.stores += 1
        except Exception:
            # Disk full, permissions, an unpicklable report object —
            # storing is an optimization, so fail toward "miss next
            # time", never toward crashing the campaign.  Drop any
            # half-written pair so load() cannot see a torn entry.
            self.counters.errors += 1
            self.evict(key)

    # -- spec ledger ----------------------------------------------------
    def _params_path(self, key: str) -> Path:
        return self.root / "params" / key[:2] / (key + ".params.json")

    def record_params(self, key: str, params: dict) -> None:
        """Ledger entry mapping a cache key to its spec dict.

        Written once per key (the first commit wins; later commits of
        the same key are byte-identical anyway).
        :func:`~repro.experiments.counterfactual.resolve_cache_key` reads
        it to make ``adassure explain <key>`` work for every entry.
        Atomic and best-effort, like :meth:`store`.
        """
        try:
            path = self._params_path(key)
            if path.exists():
                return
            path.parent.mkdir(parents=True, exist_ok=True)
            data = json.dumps(params, sort_keys=True) + "\n"
            self._atomic_write(path, data.encode("utf-8"))
        except Exception:
            self.counters.errors += 1

    def load_params(self, key: str) -> dict | None:
        """The spec dict recorded for ``key``, or ``None``."""
        try:
            return json.loads(
                self._params_path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def evict(self, key: str) -> None:
        """Drop one entry (both payload files), ignoring races."""
        for path in (self._trace_path(key), self._scored_path(key)):
            try:
                path.unlink()
            except OSError:
                pass

    # -- lease/manifest health ------------------------------------------
    def _lease_events_path(self) -> Path:
        return self.root / "checkpoints" / "lease_events.log"

    def log_lease_event(self, kind: str, detail: dict) -> None:
        """Append one lease incident to the campaign directory's log.

        Conflicts are rare, operator-relevant events (a second campaign
        fighting over a ledger, a shard lease stolen mid-run), so they
        are persisted — ``adassure cache stats`` reports the cumulative
        count.  One small JSON line per event; appends of a line this
        size are atomic on POSIX, and the log is best-effort anyway.
        """
        try:
            path = self._lease_events_path()
            path.parent.mkdir(parents=True, exist_ok=True)
            line = json.dumps({"kind": kind, "time": time.time(), **detail})
            with path.open("a", encoding="utf-8") as f:
                f.write(line + "\n")
        except OSError:
            pass

    def lease_event_count(self) -> int:
        """Lease incidents ever logged into this cache directory."""
        try:
            with self._lease_events_path().open("r", encoding="utf-8") as f:
                return sum(1 for line in f if line.strip())
        except OSError:
            return 0

    # -- maintenance ----------------------------------------------------
    def stats(self) -> dict:
        """Entry count and byte footprint of the disk layer."""
        entries = 0
        total_bytes = 0
        if self.root.exists():
            entries = sum(1 for _ in self.root.rglob("*" + _SCORED_SUFFIX))
            total_bytes = sum(p.stat().st_size for p in self.root.rglob("*")
                              if p.is_file())
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "session": self.counters.as_dict(),
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = self.stats()["entries"]
        if self.root.exists():
            shutil.rmtree(self.root, ignore_errors=True)
        return removed


class CheckpointManifest:
    """Progress ledger for one grid campaign, persisted under the cache.

    The per-point disk cache already makes an interrupted campaign
    resumable — completed points hit the cache on the next invocation.
    The manifest adds the *campaign-level* record the cache cannot
    express: which grid this was, how far it got, and which points were
    quarantined after exhausting their retries.  ``adassure`` campaigns
    write it incrementally (after every completed point), so a killed
    process leaves an accurate ledger behind.

    Layout: ``<cache root>/checkpoints/<grid id>.json`` where the grid id
    hashes the full spec list with the usual version salt; completed and
    quarantined entries are ``RunSpec.to_dict()`` records.

    Concurrent campaigns over the *same grid* in the *same cache dir* are
    guarded by an advisory :class:`~repro.locking.FileLease` sidecar
    (``<grid id>.lease``): the first writer owns the ledger, a second
    writer detects the live lease and goes **read-only** — it still runs
    (the per-point disk cache keeps the work shared and consistent) but
    stops flushing the manifest, so the owner's ledger cannot be
    corrupted by interleaved rewrites.  The conflict is surfaced on
    :attr:`lease_conflict` (and by the runner as a warning + stats
    field), never swallowed.  A lease whose heartbeat is older than the
    TTL (``ADASSURE_LEASE_TTL``) is treated as abandoned and taken over.
    """

    def __init__(self, path: Path, grid_id: str, total: int,
                 lease: FileLease | None = None):
        self.path = path
        self.grid_id = grid_id
        self.total = total
        self.completed: list[dict] = []
        self.quarantined: list[dict] = []
        self._seen: set = set()
        self.lease = lease if lease is not None else FileLease(
            path.with_suffix(".lease"))
        self.lease_conflict = not self.lease.acquire()
        from repro.experiments.spec import RunSpec
        try:
            prior = json.loads(self.path.read_text(encoding="utf-8"))
            if prior.get("grid_id") == grid_id:
                self.completed = list(prior.get("completed", []))
                self.quarantined = list(prior.get("quarantined", []))
                self._seen = {RunSpec.from_dict(d) for d in self.completed}
        except (OSError, ValueError, TypeError):
            pass  # absent or corrupt: start a fresh ledger

    @staticmethod
    def for_grid(cache: "RunCache | None",
                 grid: list) -> "CheckpointManifest | None":
        """The manifest for this grid, or ``None`` with the cache off."""
        if cache is None:
            return None
        grid_id = grid_identity(grid)
        path = cache.root / "checkpoints" / (grid_id + ".json")
        manifest = CheckpointManifest(path, grid_id, total=len(grid))
        if manifest.lease_conflict:
            holder = manifest.lease.holder() or {}
            cache.log_lease_event("manifest-lease-conflict", {
                "grid_id": grid_id,
                "holder": holder.get("owner", "<unknown>"),
            })
        return manifest

    @property
    def resumed(self) -> int:
        """Points already ledgered by a previous (interrupted) campaign."""
        return len(self._seen)

    def complete(self, spec) -> None:
        if spec in self._seen:
            return
        self._seen.add(spec)
        self.completed.append(spec.to_dict())
        self.flush()

    def quarantine(self, spec, error: str) -> None:
        self.quarantined.append({"spec": spec.to_dict(), "error": error})
        self.flush()

    def release(self) -> None:
        """Give the manifest's lease back (campaign finished or aborted)."""
        self.lease.release()

    def flush(self) -> None:
        """Best-effort atomic write; IO errors never fail a campaign.

        A manifest that lost the lease race is read-only: flushing would
        interleave two writers' ledgers, so it is skipped entirely (the
        in-memory view still tracks this campaign's own progress).
        """
        if self.lease_conflict:
            return
        self.lease.refresh()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            payload = {
                "grid_id": self.grid_id,
                "total": self.total,
                "completed": self.completed,
                "quarantined": self.quarantined,
            }
            tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(payload) + "\n", encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:
            pass
