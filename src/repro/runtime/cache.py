"""Content-addressed, on-disk result cache for simulation jobs.

Blobs are JSON files keyed by the job's content hash and guarded by a
*fingerprint* of the simulator source tree: editing any ``repro`` module
invalidates every cached result, because an analytical model change can
shift any number.  Layout::

    <root>/<key[:2]>/<key>.json    # {"fingerprint", "key", "job", "result"}

The root comes from (in priority order) the constructor argument, the
``REPRO_CACHE_DIR`` environment variable, or ``.repro_cache`` under the
current directory.  Corrupt or stale blobs are deleted and reported as
misses — the runner then simply re-simulates.

One bounded, process-wide memory tier fronts every cache: a disk hit
keeps the decoded result, keyed by ``(root, fingerprint, key)``, so a
repeat load skips the read and the parse.  Blobs are content-addressed
under a fixed fingerprint, so an entry is never stale.  Only ``load``
fills it: a store is not read back by most writers, and what the tier
returns is always what ``json.loads`` returned for the disk hit.
Returned dicts are shared between loads and must not be mutated.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from .jobs import SimJob

__all__ = [
    "ResultCache",
    "CacheStats",
    "code_fingerprint",
    "as_cache",
    "clear_memory_tier",
    "shared_cache",
]

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"

_FINGERPRINT: str | None = None

#: Entries the memory tier keeps, least recently used evicted first.  A
#: serving process probes the same job and clean-tile keys request after
#: request; entries are small decoded result dicts (~1-5 KiB).
MEMORY_TIER_MAX = 8192

_MEMORY: "OrderedDict[tuple[str, str, str], dict]" = OrderedDict()
_MEMORY_LOCK = threading.Lock()


def clear_memory_tier() -> None:
    """Drop every memory-tier entry (cold measurements, tests)."""
    with _MEMORY_LOCK:
        _MEMORY.clear()


def code_fingerprint() -> str:
    """Digest of every ``.py`` file in the ``repro`` package (memoized).

    Cheap enough to compute once per process (~100 small files) and
    exactly as strong as needed: any source edit — model constants,
    simulator logic, the job schema itself — yields a new fingerprint
    and therefore a cold cache.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        pkg = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(pkg.rglob("*.py")):
            digest.update(path.relative_to(pkg).as_posix().encode())
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one cache instance.

    Counters move through :meth:`add`, under a lock: one cache is read
    and written by a service's event loop, its batch thread and its
    search threads at once, and a bare ``+=`` can lose an update.
    """

    hits: int = 0
    memory_hits: int = 0  # the hits the memory tier served
    misses: int = 0
    stores: int = 0
    invalidations: int = 0  # fingerprint mismatches evicted
    corrupt: int = 0  # undecodable blobs evicted
    store_errors: int = 0  # writes that failed with an OSError
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, *names: str, n: int = 1) -> None:
        """Add ``n`` to each named counter."""
        with self._lock:
            for name in names:
                setattr(self, name, getattr(self, name) + n)

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "corrupt": self.corrupt,
            "store_errors": self.store_errors,
        }


@dataclass
class ResultCache:
    """Content-addressed store of ``SimulationResult.to_dict()`` blobs."""

    root: Path = field(default_factory=lambda: Path(
        os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR
    ))
    fingerprint: str = field(default_factory=code_fingerprint)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> dict | None:
        """The cached result dict for ``key``, or ``None`` on miss.

        Every failure mode — absent, unreadable, undecodable, stale
        fingerprint — degrades to a miss so a damaged cache can never
        break a sweep, only slow it down.  The memory tier answers
        first; a disk hit fills it.
        """
        return self.lookup(key)[0]

    def lookup(self, key: str) -> tuple[dict | None, str | None]:
        """:meth:`load` and the tier that answered (``"memory"``,
        ``"disk"``; ``None`` on a miss), for callers that count their
        own hits: ``stats`` also moves with other threads' loads."""
        memory_key = (str(self.root), self.fingerprint, key)
        with _MEMORY_LOCK:
            result = _MEMORY.get(memory_key)
            if result is not None:
                _MEMORY.move_to_end(memory_key)
        if result is not None:
            self.stats.add("hits", "memory_hits")
            return result, "memory"
        path = self.path_for(key)
        try:
            raw = path.read_text()
        except OSError:
            self.stats.add("misses")
            return None, None
        except UnicodeDecodeError:
            self.stats.add("corrupt", "misses")
            self._evict(path)
            return None, None
        try:
            blob = json.loads(raw)
            if blob["fingerprint"] != self.fingerprint:
                self.stats.add("invalidations", "misses")
                self._evict(path)
                return None, None
            result = blob["result"]
            if not isinstance(result, dict):
                raise TypeError("result blob is not a dict")
        except (json.JSONDecodeError, KeyError, TypeError):
            self.stats.add("corrupt", "misses")
            self._evict(path)
            return None, None
        self.stats.add("hits")
        with _MEMORY_LOCK:
            _MEMORY[memory_key] = result
            while len(_MEMORY) > MEMORY_TIER_MAX:
                _MEMORY.popitem(last=False)
        return result, "disk"

    def store(self, key: str, result: dict, job: SimJob | None = None) -> bool:
        """Atomically write one result blob (tempfile + rename).

        A write that fails with an ``OSError`` (a full disk, a read-only
        root) removes its temporary file, counts in
        ``stats.store_errors`` and returns ``False``: a cache that cannot
        grow slows a run down, it never fails it.
        """
        path = self.path_for(key)
        blob = {
            "fingerprint": self.fingerprint,
            "key": key,
            "job": job.as_dict() if job is not None else None,
            "result": result,
        }
        tmp = None
        try:
            try:
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            except FileNotFoundError:
                # Only a store into a new shard pays for the mkdir.
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            # ``dumps`` runs the C encoder; ``dump`` to a file streams
            # through the pure-Python one.  The text is the same.
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(blob))
            os.replace(tmp, path)
        except BaseException as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if not isinstance(exc, OSError):
                raise
            self.stats.add("store_errors")
            return False
        self.stats.add("stores")
        return True

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """Every blob path under the root, sorted (stable for tests)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self.entries())

    def disk_stats(self) -> dict:
        """On-disk footprint summary for ``repro cache stats``."""
        entries = self.entries()
        total_bytes = 0
        oldest: float | None = None
        newest: float | None = None
        for path in entries:
            try:
                stat = path.stat()
            except OSError:
                continue
            total_bytes += stat.st_size
            mtime = stat.st_mtime
            oldest = mtime if oldest is None else min(oldest, mtime)
            newest = mtime if newest is None else max(newest, mtime)
        return {
            "root": str(self.root),
            "fingerprint": self.fingerprint,
            "entries": len(entries),
            "bytes": total_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def clear(self) -> int:
        """Delete all blobs; returns how many were removed."""
        root = str(self.root)
        with _MEMORY_LOCK:
            for memory_key in [k for k in _MEMORY if k[0] == root]:
                del _MEMORY[memory_key]
        removed = 0
        for blob in self.entries():
            self._evict(blob)
            removed += 1
        return removed

    def prune(self, max_age_seconds: float, *, now: float | None = None) -> int:
        """Delete blobs last written more than ``max_age_seconds`` ago.

        Age is judged by mtime (the store time — blobs are immutable
        once written).  Returns the number of blobs removed.
        """
        if max_age_seconds < 0:
            raise ValueError("max_age_seconds must be >= 0")
        cutoff = (now if now is not None else time.time()) - max_age_seconds
        removed = 0
        for path in self.entries():
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            if mtime < cutoff:
                self._evict(path)
                removed += 1
        return removed

    def prune_bytes(self, max_bytes: int) -> int:
        """Evict oldest blobs until the cache fits in ``max_bytes``.

        The complement of :meth:`prune`: age-based pruning bounds
        staleness, this bounds the on-disk footprint — which is what a
        long-lived cluster replica's cache shard needs.  Eviction is
        oldest-first by mtime, so the warm working set survives.
        Returns the number of blobs removed.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
            total += stat.st_size
        entries.sort()  # oldest first
        removed = 0
        for _, path, size in entries:
            if total <= max_bytes:
                break
            self._evict(path)
            total -= size
            removed += 1
        return removed

    def _evict(self, path: Path) -> None:
        """Delete one blob and its memory-tier entry."""
        with _MEMORY_LOCK:
            _MEMORY.pop((str(self.root), self.fingerprint, path.stem), None)
        try:
            path.unlink()
        except OSError:
            pass


_SHARED: dict[str, ResultCache] = {}
_SHARED_LOCK = threading.Lock()


def shared_cache(root) -> ResultCache:
    """The process's one :class:`ResultCache` at ``root``.

    Separate instances at one root share its blobs and the memory tier
    but not their counters: the job runner's per-tile cache and the
    service that reports it in ``/stats`` both take it from here, so
    what the jobs count is what ``/stats`` shows.  One entry per root a
    process ever names.
    """
    key = str(Path(root))
    with _SHARED_LOCK:
        cache = _SHARED.get(key)
        if cache is None:
            cache = _SHARED[key] = ResultCache(root=key)
        return cache


def as_cache(cache: "ResultCache | bool | None") -> ResultCache | None:
    """Normalise the user-facing ``cache`` argument.

    ``True`` means "the default cache location", ``None``/``False`` mean
    "no caching", and an explicit :class:`ResultCache` passes through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    return cache
