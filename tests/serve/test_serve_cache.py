"""CalibrationCache: LRU semantics and JSON persistence."""

from __future__ import annotations

import json

import pytest

from repro.core.calibration import ThresholdCalibrator
from repro.obs.events import EventLog
from repro.resilience import runtime as res
from repro.serve import CalibrationCache


def _key(i: int):
    return (10, 20 + i, 0.95, 0.95, 100, "l1", 12345)


class TestLRU:
    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError, match="maxsize"):
            CalibrationCache(maxsize=0)

    def test_get_put_and_counters(self):
        cache = CalibrationCache(maxsize=4)
        assert cache.get(_key(0)) is None
        cache.put(_key(0), 0.5)
        assert cache.get(_key(0)) == 0.5
        assert cache.stats() == {
            "size": 1,
            "maxsize": 4,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
        }

    def test_eviction_drops_least_recently_used(self):
        cache = CalibrationCache(maxsize=3)
        for i in range(3):
            cache.put(_key(i), float(i))
        cache.get(_key(0))  # refresh 0: now 1 is the oldest
        cache.put(_key(3), 3.0)
        assert cache.get(_key(1)) is None
        assert cache.get(_key(0)) == 0.0
        assert cache.evictions == 1


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "nested" / "thresholds.json")
        cache = CalibrationCache(path=path)
        for i in range(5):
            cache.put(_key(i), float(i) / 10)
        assert cache.save() == path
        reloaded = CalibrationCache(path=path)  # warm-starts from disk
        assert len(reloaded) == 5
        for i in range(5):
            assert reloaded.get(_key(i)) == pytest.approx(float(i) / 10)

    def test_loaded_entries_rank_below_existing_ones(self, tmp_path):
        path = str(tmp_path / "t.json")
        donor = CalibrationCache()
        donor.put(_key(0), 0.1)
        donor.save(path)
        cache = CalibrationCache(maxsize=1)
        cache.put(_key(1), 0.2)
        cache.load(path)  # overflow evicts the loaded (least-recent) entry
        assert cache.get(_key(1)) == 0.2
        assert cache.get(_key(0)) is None

    def test_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "something/else", "entries": []}))
        with pytest.raises(ValueError, match="snapshot"):
            CalibrationCache().load(str(path))

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError, match="path"):
            CalibrationCache().save()


class TestCalibratorIntegration:
    def test_attach_store_shares_thresholds_across_calibrators(self):
        cache = CalibrationCache()
        first = ThresholdCalibrator(n_sets=50)
        first.attach_store(cache)
        eps = first.threshold(m=10, k=12, p_hat=0.95)
        assert len(cache) >= 1
        second = ThresholdCalibrator(n_sets=50)
        second.attach_store(cache)
        misses_before = cache.misses
        assert second.threshold(m=10, k=12, p_hat=0.95) == eps
        assert cache.hits >= 1
        # the second calibrator answered from the store, not Monte Carlo
        assert cache.misses == misses_before

    def test_other_seed_misses_the_shared_entries(self):
        cache = CalibrationCache()
        first = ThresholdCalibrator(n_sets=50, seed=1)
        first.attach_store(cache)
        first.threshold(m=10, k=12, p_hat=0.95)
        other = ThresholdCalibrator(n_sets=50, seed=2)
        other.attach_store(cache)
        hits_before = cache.hits
        other.threshold(m=10, k=12, p_hat=0.95)
        # the other seed calibrated its own threshold, beside the first's
        assert cache.hits == hits_before
        assert other.cache_stats == (0, 1)
        assert len(cache) == 2

    def test_v1_snapshot_starts_cold(self, tmp_path):
        path = tmp_path / "v1.json"
        entry = [[10, 20, 0.95, 0.95, 100, "l1"], 0.5]
        path.write_text(
            json.dumps({"schema": "repro.serve.calibration_cache/v1", "entries": [entry]})
        )
        log = EventLog()
        with res.activate(event_log=log):
            assert CalibrationCache().load(str(path)) == 0
            cache = CalibrationCache(path=str(path))  # a service still starts
        assert len(cache) == 0
        failures = [e for e in log.events if e["event"] == "cache_load_failed"]
        assert len(failures) == 2

    def test_detach_store(self):
        cache = CalibrationCache()
        calibrator = ThresholdCalibrator(n_sets=50)
        calibrator.attach_store(cache)
        calibrator.attach_store(None)
        calibrator.threshold(m=10, k=5, p_hat=0.9)
        assert len(cache) == 0


class TestAtomicityAndCorruption:
    def test_save_leaves_no_temp_files(self, tmp_path):
        cache = CalibrationCache()
        cache.put(_key(0), 0.25)
        target = tmp_path / "nested" / "cache.json"
        cache.save(str(target))
        assert target.exists()
        siblings = [p.name for p in target.parent.iterdir()]
        assert siblings == ["cache.json"]

    def test_save_replaces_previous_snapshot_atomically(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = CalibrationCache()
        first.put(_key(0), 0.25)
        first.save(path)
        second = CalibrationCache()
        second.put(_key(1), 0.5)
        second.put(_key(2), 0.75)
        second.save(path)
        reloaded = CalibrationCache()
        assert reloaded.load(path) == 2
        assert reloaded.get(_key(1)) == 0.5

    def test_truncated_snapshot_loads_zero_entries(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = CalibrationCache()
        cache.put(_key(0), 0.25)
        cache.save(path)
        raw = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw[: len(raw) // 2])
        fresh = CalibrationCache()
        assert fresh.load(path) == 0
        assert len(fresh) == 0

    def test_garbage_snapshot_loads_zero_entries(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("not json at all")
        fresh = CalibrationCache()
        assert fresh.load(str(path)) == 0

    def test_constructor_warm_start_survives_corruption(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"schema": "repro.serve.calibration_cache/v1", "entries": [[')
        cache = CalibrationCache(path=str(path))  # no raise
        assert len(cache) == 0

    def test_missing_file_still_raises(self, tmp_path):
        cache = CalibrationCache()
        with pytest.raises(FileNotFoundError):
            cache.load(str(tmp_path / "absent.json"))
