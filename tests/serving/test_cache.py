"""Tests for the counting LRU cache behind the serving engine."""

import sys
import threading

import pytest

from repro.serving import LRUCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = LRUCache(2, name="c")
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_contains_does_not_count(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert cache.hits == 0
        assert cache.misses == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_update_existing_key_keeps_size(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2


class TestEviction:
    def test_least_recent_evicted(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now least recent
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # "b" is now least recent
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10


class TestDisabledAndClear:
    def test_capacity_zero_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None  # put stored nothing
        assert cache.misses == 1
        assert cache.evictions == 0

    def test_clear_keeps_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        assert cache.get("a") is None

    def test_snapshot_fields(self):
        cache = LRUCache(4, name="hot")
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        snap = cache.snapshot()
        assert snap == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "invalidations": 0,
            "hit_rate": 0.5,
            "size": 1,
            "capacity": 4,
        }


class TestPurgeAndInvalidations:
    def test_purge_removes_matching_and_counts(self):
        cache = LRUCache(8)
        for v in range(4):
            cache.put((v % 2, v), v)
        dropped = cache.purge(lambda key: key[0] == 0)
        assert dropped == 2
        assert cache.invalidations == 2
        assert len(cache) == 2
        assert cache.get((1, 1)) == 1
        assert cache.get((0, 0)) is None

    def test_purge_nothing_matches(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.purge(lambda key: False) == 0
        assert cache.invalidations == 0
        assert "a" in cache

    def test_clear_counts_invalidations(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert cache.invalidations == 2
        cache.clear()  # idempotent: nothing left to drop
        assert cache.invalidations == 2

    def test_purge_preserves_recency_of_survivors(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.purge(lambda key: key == "a")
        cache.put("c", 3)  # room for both: "a" was purged, not evicted
        assert "b" in cache
        assert "c" in cache
        assert cache.evictions == 0


class TestConcurrentAccess:
    def test_readers_survive_a_purging_writer(self):
        """Lookups, inserts and purges from several threads never raise."""
        cache = LRUCache(64)
        stop = threading.Event()
        errors = []

        def reader(seed):
            key = seed
            try:
                while not stop.is_set():
                    key = (key * 31 + 7) % 97
                    if cache.get((key % 4, key)) is None:
                        cache.put((key % 4, key), key)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        try:
            for thread in threads:
                thread.start()
            for version in range(400):
                cache.purge(lambda key, v=version: key[0] != v % 4)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.hits > 0 and cache.invalidations > 0
