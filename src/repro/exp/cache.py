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
import re
import tempfile
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: What :meth:`ResultCache.get` returns for an absent or corrupt entry.
MISSING = object()

_CODE_VERSION: Optional[str] = None

#: An entry's file name: ``<experiment>-<24 hex digits of key>.json``.
_ENTRY_NAME = re.compile(r".+-[0-9a-f]{24}\.json\Z")

#: The recency index of the flat layout, which kept every version's
#: entries side by side at the top level; ``prune`` migrates both away.
_FLAT_INDEX = "_lru.idx"


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


class ResultCache:
    """Content-addressed store of sweep-point results.

    Each entry is one JSON file, ``<experiment>-<key>.json``, in the
    directory of the code version that wrote it, ``<directory>/<version>``.
    A lookup is one ``open``, a put one private temp file plus
    ``os.replace``, and :meth:`prune` removes the other versions' entries,
    which can never match a lookup again.  Files the cache did not write
    are left alone.
    """

    def __init__(self, directory: str, version: Optional[str] = None) -> None:
        self.directory = directory
        self.version = version if version is not None else code_version()
        self.hits = 0
        self.misses = 0

    def key(self, experiment: str, params: Mapping[str, Any]) -> str:
        material = canonical_json({
            "experiment": experiment,
            "params": dict(params),
            "code": self.version,
        })
        return hashlib.sha256(material.encode()).hexdigest()[:24]

    def path_for(self, experiment: str, params: Mapping[str, Any]) -> str:
        return os.path.join(self.directory, self.version,
                            f"{experiment}-{self.key(experiment, params)}.json")

    def get(self, experiment: str, params: Mapping[str, Any]) -> Any:
        """Cached payload, or :data:`MISSING` if absent/corrupt."""
        entry = _read_entry(self.path_for(experiment, params))
        if entry is None:
            self.misses += 1
            return MISSING
        self.hits += 1
        return entry["payload"]

    def put(self, experiment: str, params: Mapping[str, Any],
            payload: Any) -> str:
        """Persist ``payload``; returns the entry's path."""
        path = self.path_for(experiment, params)
        version_dir = os.path.dirname(path)
        os.makedirs(version_dir, exist_ok=True)
        entry = {"experiment": experiment, "params": dict(params),
                 "code_version": self.version, "created": time.time(),
                 "payload": payload}
        # A private temp file per call: two writers of one key (another
        # process, or another ResultCache on this directory) must not
        # rename each other's half-written files away.
        fd, tmp = tempfile.mkstemp(dir=version_dir,
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
        return path

    def _files(self) -> List[Tuple[str, Optional[str]]]:
        """``(path, version)`` of each version directory's entries, and of
        the flat layout's top-level entries and index (version None)."""
        files: List[Tuple[str, Optional[str]]] = []
        if not os.path.isdir(self.directory):
            return files
        for name in os.listdir(self.directory):
            path = os.path.join(self.directory, name)
            if os.path.isdir(path):
                files += [(os.path.join(path, entry), name)
                          for entry in os.listdir(path)
                          if _ENTRY_NAME.match(entry)]
            elif name == _FLAT_INDEX or _ENTRY_NAME.match(name):
                files.append((path, None))
        return files

    def _remove(self, files: List[Tuple[str, Optional[str]]]) -> int:
        """Remove ``files`` and the version directories they leave empty;
        returns how many files were removed."""
        removed = 0
        for path, _version in files:
            with contextlib.suppress(OSError):
                os.remove(path)
                removed += 1
        for version in {version for _path, version in files if version}:
            with contextlib.suppress(OSError):
                os.rmdir(os.path.join(self.directory, version))
        return removed

    def prune(self) -> int:
        """Drop the other versions' entries and the flat layout's files;
        returns how many were removed."""
        return self._remove([f for f in self._files()
                             if f[1] != self.version])

    def clear(self) -> int:
        """Drop every version's entries; returns how many were removed."""
        return self._remove(self._files())

    def stats(self) -> Dict[str, Any]:
        """Summary for ``repro cache stats``; counts files, opens none."""
        files = self._files()
        total_bytes = 0
        for path, _version in files:
            with contextlib.suppress(OSError):
                total_bytes += os.path.getsize(path)
        return {
            "directory": self.directory,
            "code_version": self.version,
            "entries": len(files),
            "stale_entries": sum(version != self.version
                                 for _path, version in files),
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    @staticmethod
    def is_missing(value: Any) -> bool:
        return value is MISSING
