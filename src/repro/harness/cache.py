"""Content-addressed disk cache for sweep results.

A simulation run is a pure function of its inputs -- the machine
configuration, the workload parameters and the seed -- and of the
simulator's source.  The cache keys each
:class:`~repro.harness.executor.RunSummary` by a SHA-256 over the
canonical JSON form of those inputs plus :func:`source_digest`, a hash
of every ``src/repro/**/*.py`` file (relative path and bytes) read once
per process.  Any source edit therefore moves every key: a stale hit
cannot happen, and the price is one cold rebuild per edit.

Each entry embeds a SHA-256 ``checksum`` over its summary payload,
verified on every read.  An entry that does not parse, has no checksum
or fails it (a torn write, a flipped bit) is logged to stderr, deleted
and counted (``corrupt``); the read reports a miss, so the spec reruns
and the rewritten entry heals the cache.

Entries live as individual JSON files under ``.repro-cache/`` (one file
per key, atomically written), so concurrent sweeps and pool workers can
share a cache directory without locking.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.harness.executor import RunSpec, RunSummary
from repro.sim.config import MachineConfig

DEFAULT_CACHE_DIR = Path(".repro-cache")

# The ``repro`` package directory: every module under it can change a
# run's result.
_SOURCE_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over every ``.py`` file of the package: its path relative
    to the package root, then its bytes.  Computed once per process."""
    digest = hashlib.sha256()
    files = sorted(
        (path.relative_to(_SOURCE_ROOT).as_posix(), path)
        for path in _SOURCE_ROOT.rglob("*.py")
    )
    for relative, path in files:
        data = path.read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def canonical_config(config: MachineConfig) -> Dict[str, Any]:
    """A JSON-stable dict of every config field (enums as values)."""
    out: Dict[str, Any] = {}
    for fld in dataclasses.fields(config):
        value = getattr(config, fld.name)
        if isinstance(value, enum.Enum):
            value = value.value
        out[fld.name] = value
    return out


def _digest(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def spec_key(spec: RunSpec) -> str:
    """SHA-256 fingerprint of everything that determines a run's result."""
    return _digest({
        "source": source_digest(),
        "config": canonical_config(spec.resolved_config()),
        "workload": spec.workload_params(),
    })


def _record_files(directory: Path):
    """Cache records only: 64-hex-named ``.json`` files (in-flight
    ``.tmp-*`` writes are not records)."""
    for path in directory.glob("*.json"):
        stem = path.stem
        if len(stem) == 64 and all(c in "0123456789abcdef" for c in stem):
            yield path


class ResultCache:
    """Disk-backed map from :class:`RunSpec` to :class:`RunSummary`.

    ``hits`` / ``misses`` count ``get`` outcomes so callers can report
    the cache's effectiveness; ``corrupt`` counts discarded entries.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0  # torn/corrupted entries discarded on read

    # ------------------------------------------------------------------
    def key_for(self, spec: RunSpec) -> str:
        return spec_key(spec)

    def _path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    def contains_key(self, key: str) -> bool:
        """Existence probe without loading or counting a hit.

        The planner's one-pass probe: a stat per entry instead of a
        parse.  A corrupt entry passes the probe but falls back to a
        recompute at ``get`` time.
        """
        return self._path_for(key).is_file()

    def get(self, spec: RunSpec) -> Optional[RunSummary]:
        return self.get_by_key(self.key_for(spec))

    def get_by_key(self, key: str) -> Optional[RunSummary]:
        path = self._path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            # Missing entry: a plain miss.
            self.misses += 1
            return None
        try:
            data = json.loads(raw)
            if data["checksum"] != _digest(data["summary"]):
                raise ValueError("payload checksum mismatch")
            summary = RunSummary.from_dict(data["summary"])
        except (ValueError, KeyError, TypeError):
            # The file exists but its payload is torn, bit-flipped,
            # unchecksummed or stale-format: warn, delete, count, and
            # miss -- the rerun rewrites a good entry.
            self._discard_corrupt(path, key)
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def _discard_corrupt(self, path: Path, key: str) -> None:
        self.corrupt += 1
        print(
            f"[cache] corrupt entry {key[:16]}... "
            "(checksum/parse failure): deleting, will recompute",
            file=sys.stderr,
        )
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, spec: RunSpec, summary: RunSummary) -> Path:
        return self.put_by_key(self.key_for(spec), spec, summary)

    def put_by_key(self, key: str, spec: RunSpec,
                   summary: RunSummary) -> Path:
        path = self._path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        payload = summary.to_dict()
        record = {
            "key": key,
            "spec": spec.describe(),
            "summary": payload,
            # Torn-write detection: verified on every read.
            "checksum": _digest(payload),
        }
        # Atomic publish: concurrent writers of the same key race
        # harmlessly (both write equivalent content).
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for entry in _record_files(self.root):
                entry.unlink()
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in _record_files(self.root))
