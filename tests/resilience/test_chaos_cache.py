"""Chaos tests for the persistent calibration cache.

A corrupt snapshot (truncated write, bad disk, injected corruption)
must never stop a service from starting — the cache comes up cold, the
run recalibrates, and because calibration is deterministic the verdicts
are bit-identical to a run that never had a cache at all.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.events import EventLog
from repro.resilience import FaultPlan
from repro.resilience import runtime as res
from repro.serve import CalibrationCache

from .conftest import make_service


def _warm_cache(tmp_path, name="cache.json"):
    path = str(tmp_path / name)
    cache = CalibrationCache(path=path)
    service = make_service(calibration_cache=cache)
    baseline = service.assess_many()
    cache.save()
    return path, baseline


class TestCorruptSnapshotRecovery:
    def test_truncated_snapshot_loads_cold_with_event(self, tmp_path):
        path, _ = _warm_cache(tmp_path)
        raw = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw[: len(raw) // 2])
        log = EventLog()
        with res.activate(event_log=log):
            cache = CalibrationCache(path=path)
        assert len(cache) == 0
        failures = [e for e in log.events if e["event"] == "cache_load_failed"]
        assert len(failures) == 1
        assert failures[0]["site"] == "serve.cache.load"

    def test_injected_corruption_at_load_site(self, tmp_path, chaos_seed):
        path, _ = _warm_cache(tmp_path)
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("serve.cache.load", "corrupt", max_fires=1)
        with res.activate(plan):
            cache = CalibrationCache(path=path)
        assert len(cache) == 0
        # the file itself is intact: a later load succeeds
        assert cache.load(path) > 0

    def test_cold_recovery_is_bit_identical(self, tmp_path, chaos_seed):
        path, baseline = _warm_cache(tmp_path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{ not json")
        cache = CalibrationCache(path=path)  # comes up cold, no raise
        service = make_service(calibration_cache=cache)
        assert service.assess_many() == baseline

    def test_foreign_schema_still_raises(self, tmp_path):
        """A parseable file of the wrong schema is a wrong *path*, not
        corruption — silently cold-starting would hide a config bug."""
        path = str(tmp_path / "other.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": "something/else", "entries": []}, fh)
        with pytest.raises(ValueError, match="snapshot"):
            CalibrationCache(path=path)

    def test_missing_file_still_raises_on_explicit_load(self, tmp_path):
        cache = CalibrationCache()
        with pytest.raises(FileNotFoundError):
            cache.load(str(tmp_path / "never-written.json"))
