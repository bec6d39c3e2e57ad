"""Unit tests for the fix-scoped memo, key quantization and the
fleet-wide merge of per-process cache stats."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.perf.cache import (
    KEY_DECIMALS,
    ScopedCache,
    fix_scope,
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


class TestFixScope:
    def test_outside_any_scope_nothing_is_kept(self):
        cache = ScopedCache()
        cache.put("a", 1)
        assert cache.get("a") is None
        assert cache.stats.misses == 1

    def test_entries_live_until_the_scope_closes(self):
        cache = ScopedCache()
        with fix_scope():
            assert cache.get("a") is None
            cache.put("a", 1)
            assert cache.get("a") == 1
        with fix_scope():
            assert cache.get("a") is None
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 2)
        assert stats.as_dict() == {
            "hits": 1,
            "misses": 2,
            "hit_ratio": pytest.approx(1 / 3),
        }

    def test_nested_scopes_join_the_outermost(self):
        cache = ScopedCache()
        with fix_scope():
            with fix_scope():
                cache.put("a", 1)
            assert cache.get("a") == 1

    @fix_scope()
    def _put_and_get(self, cache):
        cache.put("a", 1)
        return cache.get("a")

    def test_decorator_form_opens_a_scope_per_call(self):
        cache = ScopedCache()
        assert self._put_and_get(cache) == 1
        assert cache.get("a") is None

    def test_scope_closes_on_error(self):
        cache = ScopedCache()
        with pytest.raises(RuntimeError):
            with fix_scope():
                cache.put("a", 1)
                raise RuntimeError("fix failed")
        with fix_scope():
            assert cache.get("a") is None

    def test_caches_keep_separate_tables(self):
        first, second = ScopedCache(), ScopedCache()
        with fix_scope():
            first.put("a", 1)
            assert second.get("a") is None

    def test_threads_neither_share_nor_drop_each_others_memo(self):
        """One thread closing its scope leaves another's memo intact."""
        cache = ScopedCache()
        opened, closed = threading.Event(), threading.Event()
        seen = {}

        def other_fix():
            with fix_scope():
                seen["foreign"] = cache.get("main")
                cache.put("other", 2)
                opened.set()
            closed.set()

        with fix_scope():
            cache.put("main", 1)
            thread = threading.Thread(target=other_fix)
            thread.start()
            assert opened.wait(10) and closed.wait(10)
            thread.join()
            assert cache.get("main") == 1
            assert cache.get("other") is None
        assert seen["foreign"] is None

    def test_concurrent_counters_balance(self):
        """Counters stay exact when several threads share one cache."""
        cache = ScopedCache()
        errors = []

        def worker(worker_id):
            try:
                with fix_scope():
                    for i in range(200):
                        key = (worker_id, i % 8)
                        value = cache.get(key)
                        if value is None:
                            cache.put(key, key)
                        elif value != key:
                            raise AssertionError("cross-thread value")
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
        assert stats.misses == 4 * 8


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
