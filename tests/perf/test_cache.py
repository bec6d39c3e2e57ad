"""Unit tests for the cost-bounded LRU cache, key quantization and the
fleet-wide merge of per-process cache stats."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.perf.cache import (
    KEY_DECIMALS,
    LRUCache,
    quantize_array,
    quantize_scalar,
)


class TestQuantization:
    def test_scalar_rounds_to_key_decimals(self):
        assert quantize_scalar(0.1 + 1e-14) == quantize_scalar(0.1)
        assert quantize_scalar(0.1 + 1e-9) != quantize_scalar(0.1)

    def test_negative_zero_normalized(self):
        assert quantize_array(np.array([-0.0])) == quantize_array(np.array([0.0]))
        assert quantize_scalar(-0.0) == quantize_scalar(0.0)

    def test_array_key_is_hashable_and_stable(self):
        values = np.array([1.0, 2.5, -3.25])
        key = quantize_array(values)
        assert isinstance(key, bytes)
        assert key == quantize_array(values + 10.0 ** (-KEY_DECIMALS - 2))
        assert key != quantize_array(values + 1e-6)

    def test_array_key_distinguishes_shape_content(self):
        assert quantize_array(np.array([1.0, 2.0])) != quantize_array(
            np.array([2.0, 1.0])
        )


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(max_cost=10)
        assert cache.get("a") is None
        cache.put("a", 1, cost=1)
        assert cache.get("a") == 1
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.entries == 1
        assert stats.hit_ratio == 0.5

    def test_cost_bounded_eviction_is_lru_ordered(self):
        cache = LRUCache(max_cost=3)
        cache.put("a", "A", cost=1)
        cache.put("b", "B", cost=1)
        cache.put("c", "C", cost=1)
        cache.get("a")  # refresh "a"; "b" is now least recent
        cache.put("d", "D", cost=1)
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache
        assert cache.stats.evictions == 1

    def test_large_insert_evicts_many(self):
        cache = LRUCache(max_cost=4)
        for key in "abcd":
            cache.put(key, key, cost=1)
        cache.put("big", "BIG", cost=3)
        assert "big" in cache
        assert cache.stats.cost <= 4
        assert cache.stats.evictions == 3

    def test_oversized_entry_not_cached(self):
        cache = LRUCache(max_cost=2)
        cache.put("huge", "X", cost=3)
        assert "huge" not in cache
        assert len(cache) == 0

    def test_replacing_entry_updates_cost(self):
        cache = LRUCache(max_cost=5)
        cache.put("a", "old", cost=4)
        cache.put("a", "new", cost=2)
        assert cache.get("a") == "new"
        assert cache.stats.cost == 2
        assert len(cache) == 1

    def test_clear_resets_contents_and_cost(self):
        cache = LRUCache(max_cost=5)
        cache.put("a", 1, cost=2)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.cost == 0
        assert cache.get("a") is None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(max_cost=-1)

    def test_zero_budget_caches_nothing(self):
        cache = LRUCache(max_cost=0)
        cache.put("a", 1, cost=1)
        assert len(cache) == 0

    def test_stats_as_dict_round_trip(self):
        cache = LRUCache(max_cost=4)
        cache.put("a", 1, cost=1)
        cache.get("a")
        cache.get("missing")
        stats = cache.stats.as_dict()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "cost": 1,
            "entries": 1,
            "hit_ratio": 0.5,
        }

    def test_concurrent_access_is_consistent(self):
        """Hammer one cache from several threads; counters must balance."""
        cache = LRUCache(max_cost=64)
        errors = []

        def worker(worker_id):
            try:
                for i in range(200):
                    key = (worker_id, i % 8)
                    value = cache.get(key)
                    if value is None:
                        cache.put(key, key, cost=1)
                    elif value != key:
                        raise AssertionError("cross-thread value corruption")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats
        assert stats.hits + stats.misses == 4 * 200
        assert stats.cost <= 64


class TestMergeCacheStats:
    def test_numeric_leaves_sum_and_special_keys(self):
        from repro.perf.engine import merge_cache_stats

        merged = merge_cache_stats([
            {"spectra": {"hits": 2, "misses": 1},
             "orders": {"count": 2, "min": 3, "max": 7, "mean": 5.0}},
            {"spectra": {"hits": 5, "misses": 0},
             "orders": {"count": 6, "min": 1, "max": 5, "mean": 2.0}},
        ])
        assert merged["spectra"] == {"hits": 7, "misses": 1}
        # min/max take extrema; mean is weighted by the sibling count.
        assert merged["orders"]["count"] == 8
        assert merged["orders"]["min"] == 1
        assert merged["orders"]["max"] == 7
        assert merged["orders"]["mean"] == pytest.approx(
            (5.0 * 2 + 2.0 * 6) / 8
        )

    def test_empty_and_missing_inputs_are_skipped(self):
        from repro.perf.engine import merge_cache_stats

        assert merge_cache_stats([]) == {}
        assert merge_cache_stats([{}, {"a": 1}, None]) == {"a": 1}
