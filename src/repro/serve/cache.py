"""Persistent LRU store of calibrated ε-thresholds.

Calibration is the dominant cold-start cost of an assessment sweep: every
new ``(m, k, p_hat-bucket)`` combination pays a Monte-Carlo pass.  The
combinations are heavily shared across servers (histories of similar
length and quality) and across runs (the paper's config rarely changes),
so a process-wide LRU with JSON persistence makes repeated calibrations
free — attach one :class:`CalibrationCache` to any number of
:class:`~repro.core.calibration.ThresholdCalibrator` instances via
``calibrator.attach_store(cache)``.

Keys are the full calibration identity
``(m, k, p_key, confidence, n_sets, distance, seed)``, so calibrators
with different settings or seeds can safely share one store.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..obs import runtime as _obs
from ..resilience import runtime as _res

_log = logging.getLogger(__name__)

__all__ = ["CalibrationCache"]

#: (m, k, p_key, confidence, n_sets, distance_name, seed)
CacheKey = Tuple[int, int, float, float, int, str, int]

_SCHEMA = "repro.serve.calibration_cache/v2"
#: this cache's earlier formats: their keys lack the seed and their
#: values predate the per-key ε streams, so they load as a cold start
_OLDER_SCHEMAS = ("repro.serve.calibration_cache/v1",)


class CalibrationCache:
    """LRU ε-threshold store with optional on-disk JSON persistence.

    Parameters
    ----------
    maxsize:
        Entry budget; least-recently-used entries are evicted beyond it.
    path:
        Default persistence location.  When given and the file exists,
        the cache warm-starts from it immediately; :meth:`save` writes
        back to the same place unless overridden.
    """

    def __init__(self, maxsize: int = 4096, path: Optional[str] = None):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = maxsize
        self._path = path
        self._entries: "OrderedDict[CacheKey, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if path is not None and os.path.exists(path):
            self.load(path)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def maxsize(self) -> int:
        """The entry budget."""
        return self._maxsize

    def get(self, key: CacheKey) -> Optional[float]:
        """The stored threshold for ``key``, refreshing its recency."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            if _obs.enabled:
                _obs.registry.inc("serve.calibration_cache.misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if _obs.enabled:
            _obs.registry.inc("serve.calibration_cache.hits")
        return value

    def put(self, key: CacheKey, value: float) -> None:
        """Store a threshold, evicting the least-recently-used overflow."""
        self._entries[key] = float(value)
        self._entries.move_to_end(key)
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            if _obs.enabled:
                _obs.registry.inc("serve.calibration_cache.evictions")

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus the current size."""
        return {
            "size": len(self._entries),
            "maxsize": self._maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    # ------------------------------------------------------------------ #
    # persistence

    def save(self, path: Optional[str] = None) -> str:
        """Write the cache to JSON atomically; returns the path written.

        The snapshot lands in a temp file in the target directory and is
        moved into place with :func:`os.replace`, so a crash mid-write
        leaves the previous snapshot intact instead of a truncated file.
        """
        target = path or self._path
        if target is None:
            raise ValueError("no path given and the cache has no default path")
        payload = {
            "schema": _SCHEMA,
            "entries": [[list(key), value] for key, value in self._entries.items()],
        }
        directory = os.path.dirname(target)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory or "."
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp_path, target)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return target

    def load(self, path: Optional[str] = None) -> int:
        """Merge entries from a JSON snapshot; returns how many loaded.

        Loaded entries count as least-recently-used relative to entries
        already present.  A truncated or otherwise corrupt snapshot (a
        crashed writer, a bad disk) yields **0 entries and a warning
        event** — a cold cache recalibrates correctly, whereas aborting
        the service start turns one bad file into an outage.  So does
        a snapshot in one of this cache's older schemas: its thresholds
        are stale, not wrong-path.  A file that parses but carries a
        *foreign schema* still raises ``ValueError``: that is a wrong
        path, not corruption, and silently ignoring it would hide a
        configuration bug.
        """
        source = path or self._path
        if source is None:
            raise ValueError("no path given and the cache has no default path")
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = fh.read()
            if _res.armed:
                raw = _res.inject("serve.cache.load", value=raw)
            payload = json.loads(raw)
            schema = payload.get("schema") if isinstance(payload, dict) else None
            if schema in _OLDER_SCHEMAS:
                raise ValueError(f"{source}: an older {schema} snapshot")
            if schema != _SCHEMA:
                raise _SchemaMismatch(f"{source}: not a {_SCHEMA} snapshot")
            entries = []
            for raw_key, value in payload.get("entries", []):
                m, k, p_key, confidence, n_sets, distance, seed = raw_key
                entries.append(
                    (
                        (
                            int(m),
                            int(k),
                            float(p_key),
                            float(confidence),
                            int(n_sets),
                            str(distance),
                            int(seed),
                        ),
                        float(value),
                    )
                )
        except FileNotFoundError:
            raise
        except _SchemaMismatch as exc:
            raise ValueError(str(exc)) from None
        except (json.JSONDecodeError, ValueError, TypeError, OSError, _res.InjectedFault) as exc:
            _log.warning("calibration cache %s unreadable (%s); starting cold", source, exc)
            _res.emit("cache_load_failed", site="serve.cache.load", path=str(source), error=repr(exc))
            if _obs.enabled:
                _obs.registry.inc("serve.calibration_cache.load_failures")
            return 0
        loaded = 0
        for key, value in entries:
            if key not in self._entries:
                self._entries[key] = value
                self._entries.move_to_end(key, last=False)
                loaded += 1
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return loaded


class _SchemaMismatch(Exception):
    """Internal marker: parsed fine but is not our snapshot format."""
