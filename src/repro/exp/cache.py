"""Deterministic on-disk result cache for sweep experiments.

Entries are keyed by a content hash over (experiment name, point
parameters, code version).  The code version is itself a content hash of
every ``repro`` source file, so editing the simulator invalidates every
cached result while leaving re-runs of unchanged experiments instant.

Payloads must be JSON-serializable — sweep point functions return plain
dicts of floats/ints/strings, which also keeps cached artifacts diffable.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from typing import Any, Dict, Mapping, Optional

_MISSING = object()

_CODE_VERSION: Optional[str] = None


def canonical_json(value: Any) -> str:
    """Stable serialization used for hashing parameters."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def code_version() -> str:
    """Content hash of the installed ``repro`` package sources.

    Memoized per process; any change to any ``.py`` file under the package
    produces a different version and therefore different cache keys.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for root, dirs, files in sorted(os.walk(package_dir)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, package_dir).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def _read_entry(path: str) -> Optional[Dict[str, Any]]:
    """The entry stored at ``path``, or None when the file is absent,
    unreadable or holds anything but a JSON object with a ``payload``."""
    try:
        with open(path) as handle:
            entry = json.load(handle)
    except (OSError, ValueError):
        return None
    return entry if isinstance(entry, dict) and "payload" in entry else None


#: Default entry cap.  Sweeps produce a handful of entries per figure per
#: code version, so thousands of files means many stale versions — bound
#: the growth instead of keeping every version forever.
DEFAULT_MAX_ENTRIES = 4096


class ResultCache:
    """Content-addressed store of sweep-point results.

    One JSON file per entry under ``directory``; the filename is the cache
    key, so lookups are a single ``open`` and invalidation is ``rm -rf``.

    The store is LRU-bounded: every hit and put stamps its entry with the
    next value of a *monotonic* recency counter (persisted in a sidecar
    index file, shared by every process using the directory), and when a
    put pushes the entry count past ``max_entries`` the least-recently-
    used entries are evicted — preferring entries written by *other* code
    versions, whose keys can never be looked up again.  Recency used to
    ride on file mtimes (wall clock), so an NTP step or VM resume could
    reorder eviction.  The counter only ever goes up.
    """

    #: Sidecar recency index (filename -> sequence number).  Deliberately
    #: not ``*.json`` so entry listing never mistakes it for an entry.
    INDEX_NAME = "_lru.idx"

    def __init__(self, directory: str,
                 version: Optional[str] = None,
                 max_entries: Optional[int] = DEFAULT_MAX_ENTRIES) -> None:
        self.directory = directory
        self.version = version if version is not None else code_version()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    def key(self, experiment: str, params: Mapping[str, Any]) -> str:
        material = canonical_json({
            "experiment": experiment,
            "params": dict(params),
            "code": self.version,
        })
        return hashlib.sha256(material.encode()).hexdigest()[:24]

    def path_for(self, experiment: str, params: Mapping[str, Any]) -> str:
        return os.path.join(self.directory,
                            f"{experiment}-{self.key(experiment, params)}.json")

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(self, experiment: str, params: Mapping[str, Any]) -> Any:
        """Cached payload, or :data:`MISSING` if absent/corrupt."""
        path = self.path_for(experiment, params)
        entry = _read_entry(path)
        if entry is None:
            self.misses += 1
            return _MISSING
        self._touch(path)  # LRU recency: a hit keeps the entry young
        self.hits += 1
        return entry["payload"]

    def put(self, experiment: str, params: Mapping[str, Any],
            payload: Any) -> str:
        """Persist ``payload``; returns the entry's path."""
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(experiment, params)
        entry: Dict[str, Any] = {
            "experiment": experiment,
            "params": dict(params),
            "code_version": self.version,
            "created": time.time(),
            "payload": payload,
        }
        # A private temp file per call: two writers of one key (another
        # process, or another ResultCache on this directory) must not
        # rename each other's half-written files away.
        fd, tmp = tempfile.mkstemp(dir=self.directory,
                                   prefix=os.path.basename(path) + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, default=str)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
        self._touch(path)
        if self.max_entries is not None:
            self._evict(self.max_entries)
        return path

    # ------------------------------------------------------------------
    # Monotonic recency index
    # ------------------------------------------------------------------

    def _index_path(self) -> str:
        return os.path.join(self.directory, self.INDEX_NAME)

    def _load_index(self) -> Dict[str, int]:
        """Filename -> recency sequence; a corrupt or missing index is
        just an empty one (entries then sort as oldest, tie-broken by
        mtime, and get re-stamped on their next touch)."""
        try:
            with open(self._index_path()) as handle:
                raw = json.load(handle)
            return {str(name): int(seq)
                    for name, seq in raw.get("entries", {}).items()}
        except (OSError, ValueError, TypeError, AttributeError):
            return {}

    def _write_index(self, entries: Dict[str, int]) -> None:
        tmp = f"{self._index_path()}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as handle:
                json.dump({"entries": entries}, handle)
            os.replace(tmp, self._index_path())
        except OSError:
            pass

    def _touch(self, path: str) -> None:
        """Stamp ``path`` as most-recently-used: the next value of the
        store-wide monotonic counter, never the wall clock."""
        entries = self._load_index()
        entries[os.path.basename(path)] = max(entries.values(), default=0) + 1
        self._write_index(entries)

    # ------------------------------------------------------------------
    # Size bounding / maintenance
    # ------------------------------------------------------------------

    def _entry_paths(self) -> "list[str]":
        if not os.path.isdir(self.directory):
            return []
        return [os.path.join(self.directory, name)
                for name in os.listdir(self.directory)
                if name.endswith(".json")]

    def entry_count(self) -> int:
        return len(self._entry_paths())

    def _entry_version(self, path: str) -> Optional[str]:
        """The ``code_version`` recorded in an entry (None = not an
        entry)."""
        entry = _read_entry(path)
        return None if entry is None else entry.get("code_version")

    def _evict(self, max_entries: int) -> int:
        """Bring the store under ``max_entries``, least-recently-used
        first (by the monotonic index; mtime only tie-breaks entries the
        index has never seen), but preferring entries from other code
        versions (their keys can never match a lookup under this version
        again)."""
        paths = self._entry_paths()
        excess = len(paths) - max_entries
        if excess <= 0:
            return 0
        index = self._load_index()

        def recency(path: str) -> "tuple[int, float]":
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                mtime = 0.0
            return index.get(os.path.basename(path), 0), mtime

        removed = 0
        dropped: "list[str]" = []
        stale = sorted((p for p in paths
                        if self._entry_version(p) != self.version),
                       key=recency)
        fresh = sorted((p for p in paths if p not in set(stale)), key=recency)
        for path in stale + fresh:
            if removed >= excess:
                break
            try:
                os.remove(path)
                removed += 1
                dropped.append(os.path.basename(path))
            except OSError:
                pass
        if dropped:
            for name in dropped:
                index.pop(name, None)
            self._write_index(index)
        self.evictions += removed
        return removed

    def prune(self) -> int:
        """Drop entries written by other code versions (stale keys);
        returns how many were removed."""
        removed = 0
        index = self._load_index()
        for path in self._entry_paths():
            if self._entry_version(path) != self.version:
                try:
                    os.remove(path)
                    removed += 1
                    index.pop(os.path.basename(path), None)
                except OSError:
                    pass
        if removed:
            self._write_index(index)
        return removed

    def stats(self) -> Dict[str, Any]:
        """Summary for ``repro cache stats``."""
        paths = self._entry_paths()
        stale = sum(1 for p in paths if self._entry_version(p) != self.version)
        total_bytes = 0
        for path in paths:
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {
            "directory": self.directory,
            "code_version": self.version,
            "entries": len(paths),
            "stale_entries": stale,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "max_entries": self.max_entries,
        }

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = 0
        if not os.path.isdir(self.directory):
            return removed
        for name in os.listdir(self.directory):
            if name.endswith(".json"):
                os.remove(os.path.join(self.directory, name))
                removed += 1
        try:
            os.remove(self._index_path())
        except OSError:
            pass
        return removed

    @staticmethod
    def is_missing(value: Any) -> bool:
        return value is _MISSING


MISSING = _MISSING
