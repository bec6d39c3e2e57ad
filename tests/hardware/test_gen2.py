"""Tests for repro.hardware.gen2."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hardware.gen2 import (
    Gen2Config,
    expected_read_rate,
    simulate_inventory,
)


def _always(probability: float):
    return lambda epc, t: probability


class TestConfig:
    def test_invalid_q_range(self):
        with pytest.raises(ConfigurationError):
            Gen2Config(initial_q=9, max_q=8)

    def test_invalid_timing(self):
        with pytest.raises(ConfigurationError):
            Gen2Config(slot_duration_s=0.0)


class TestInventory:
    def test_events_within_duration(self, rng):
        result = simulate_inventory(["A", "B"], _always(0.9), 3.0, rng=rng)
        assert all(0.0 <= e.time_s <= 3.0 for e in result.events)

    def test_start_time_offset(self, rng):
        result = simulate_inventory(
            ["A"], _always(0.9), 2.0, rng=rng, start_time_s=100.0
        )
        assert all(100.0 <= e.time_s <= 102.0 for e in result.events)

    def test_timestamps_increase(self, rng):
        result = simulate_inventory(["A", "B", "C"], _always(0.8), 3.0, rng=rng)
        times = [e.time_s for e in result.events]
        assert times == sorted(times)

    def test_zero_probability_no_reads(self, rng):
        result = simulate_inventory(["A", "B"], _always(0.0), 2.0, rng=rng)
        assert result.events == []
        assert result.stats.singletons == 0

    def test_duplicate_epcs_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            simulate_inventory(["A", "A"], _always(0.5), 1.0, rng=rng)

    def test_invalid_duration(self, rng):
        with pytest.raises(ValueError):
            simulate_inventory(["A"], _always(0.5), 0.0, rng=rng)

    def test_stats_accounting(self, rng):
        result = simulate_inventory(
            ["A", "B", "C", "D"], _always(0.7), 5.0, rng=rng
        )
        stats = result.stats
        assert stats.slots == stats.singletons + stats.collisions + stats.empties
        assert stats.rounds > 0
        assert 0.0 < stats.efficiency <= 1.0

    def test_single_tag_never_collides(self, rng):
        result = simulate_inventory(["A"], _always(1.0), 3.0, rng=rng)
        assert result.stats.collisions == 0
        assert result.stats.singletons > 0

    def test_events_for_filters(self, rng):
        result = simulate_inventory(["A", "B"], _always(0.8), 3.0, rng=rng)
        a_events = result.events_for("A")
        assert all(e.epc == "A" for e in a_events)
        assert len(a_events) + len(result.events_for("B")) == len(result.events)

    def test_orientation_dependent_sampling(self, rng):
        """The paper's Fig 4b effect: tags answering with higher probability
        are read more often."""

        def biased(epc, t):
            return 0.9 if epc == "HOT" else 0.25

        result = simulate_inventory(["HOT", "COLD"], biased, 8.0, rng=rng)
        assert len(result.events_for("HOT")) > 1.5 * len(
            result.events_for("COLD")
        )

    def test_q_adapts_to_large_population(self, rng):
        """With 20 tags, an adapted frame keeps efficiency near 1/e."""
        epcs = [f"T{i}" for i in range(20)]
        result = simulate_inventory(epcs, _always(1.0), 10.0, rng=rng)
        assert 0.15 < result.stats.efficiency < 0.55

    def test_read_rate_reasonable(self, rng):
        """Two spinning tags at the default timing give tens of reads/s."""
        result = simulate_inventory(["A", "B"], _always(0.9), 10.0, rng=rng)
        per_tag_rate = len(result.events_for("A")) / 10.0
        assert per_tag_rate > 10.0


def test_expected_read_rate_monotone():
    assert expected_read_rate(1) > expected_read_rate(10)
    with pytest.raises(ValueError):
        expected_read_rate(0)
