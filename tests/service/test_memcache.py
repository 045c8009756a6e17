"""Bounded-LRU response cache tests."""

from repro.service import LRUCache


class TestLRUCache:
    def test_get_put_round_trip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing", "default") == "default"

    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats()["evictions"] == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite refreshes a
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_bound_enforced(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 7

    def test_contains_is_metrics_free(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        stats = cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0

    def test_clear_keeps_lifetime_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1

    def test_minimum_bound_is_one(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(cache) == 1
