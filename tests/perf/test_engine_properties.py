"""Property tests: engine equivalence and memo correctness.

Randomized :class:`SnapshotSeries` — including the 3-snapshot minimum,
non-uniform (even duplicate) timestamps, and windows covering less than
one rotation — must produce harmonic-engine spectra within its
``power_budget`` of the reference.  The memo tests pin the hit/miss
semantics the speedup relies on inside one fix scope: the adaptive
engine's spectra memo returns the same object on a repeat, changed
phases reuse the harmonic steering phasors, changed grids miss them, and
quantization only merges inputs that agree far below the equivalence
budget.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spectrum import (
    SnapshotSeries,
    default_azimuth_grid,
    default_polar_grid,
)
from repro.errors import InsufficientDataError
from repro.perf import HarmonicEngine, ReferenceEngine, create_engine, fix_scope

# Hypothesis-heavy perf suite: runs in the dedicated CI slow job.
pytestmark = pytest.mark.slow

AZIMUTH_GRID = default_azimuth_grid(np.deg2rad(5.0))
POLAR_GRID = default_polar_grid(np.deg2rad(15.0))
BUDGET = HarmonicEngine.power_budget

_unit_floats = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def snapshot_series(draw, min_snapshots=3, max_snapshots=24):
    """Random series: non-uniform times, arbitrary rotation coverage."""
    n = draw(st.integers(min_snapshots, max_snapshots))
    # Sorted non-uniform offsets; duplicates are allowed (times need only
    # be non-decreasing) and exercised whenever the draw repeats a value.
    offsets = np.sort(np.array(draw(
        st.lists(_unit_floats, min_size=n, max_size=n)
    )))
    angular_speed = draw(st.floats(0.3, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    period = 2.0 * np.pi / abs(angular_speed)
    # From well under one rotation (0.2 periods) to several.
    span = draw(st.floats(0.2, 3.0)) * period
    phases = 2.0 * np.pi * np.array(draw(
        st.lists(_unit_floats, min_size=n, max_size=n)
    ))
    return SnapshotSeries(
        times=offsets * span,
        phases=phases,
        wavelength=draw(st.floats(0.2, 0.5)),
        radius=draw(st.floats(0.02, 0.2)),
        angular_speed=angular_speed,
        phase0=draw(st.floats(0.0, 2.0 * np.pi)),
    )


def _assert_within_budget(expected, actual):
    """Azimuth profiles and peak powers agree within the harmonic budget.

    Peak *positions* are not compared: noise-only series often have
    mirror-symmetric profiles whose twin maxima tie to the last bits, so
    rounding alone decides which twin wins (by up to pi), while the peak
    power is the same.  The golden traces compare peak positions.
    """
    assert np.max(np.abs(expected.power - actual.power)) <= BUDGET
    assert abs(expected.peak_power - actual.peak_power) <= BUDGET


class TestEngineEquivalenceProperties:
    @given(series=snapshot_series(), sigma=st.sampled_from([None, 0.1, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_azimuth_spectrum_within_budget(self, series, sigma):
        expected = ReferenceEngine().azimuth_spectrum(
            series, AZIMUTH_GRID, sigma
        )
        actual = HarmonicEngine().azimuth_spectrum(series, AZIMUTH_GRID, sigma)
        _assert_within_budget(expected, actual)

    @given(series=snapshot_series(max_snapshots=12),
           sigma=st.sampled_from([None, 0.14]))
    @settings(max_examples=15, deadline=None)
    def test_joint_spectrum_within_budget(self, series, sigma):
        expected = ReferenceEngine().joint_spectrum(
            series, AZIMUTH_GRID, POLAR_GRID, sigma
        )
        actual = HarmonicEngine().joint_spectrum(
            series, AZIMUTH_GRID, POLAR_GRID, sigma
        )
        # Only the surface: the polar rows at +/-pi/2 (cos = 0) are
        # constant, so when one holds the maximum every azimuth ties and
        # rounding picks where the local refinement starts, which moves
        # the refined peak.  The golden traces compare joint peaks.
        assert np.max(np.abs(expected.power - actual.power)) <= BUDGET

    @given(series=snapshot_series(min_snapshots=3, max_snapshots=3))
    @settings(max_examples=15, deadline=None)
    def test_three_snapshot_minimum_supported(self, series):
        """The legal minimum series size works and stays equivalent."""
        expected = ReferenceEngine().azimuth_spectrum(series, AZIMUTH_GRID, 0.2)
        actual = HarmonicEngine().azimuth_spectrum(series, AZIMUTH_GRID, 0.2)
        _assert_within_budget(expected, actual)


def _series(phase_offset=0.0, n=40, seed=3):
    rng = np.random.default_rng(seed)
    return SnapshotSeries(
        times=np.sort(rng.uniform(0.0, 10.0, n)),
        phases=np.mod(rng.uniform(0.0, 2.0 * np.pi, n) + phase_offset,
                      2.0 * np.pi),
        wavelength=0.325,
        radius=0.1,
        angular_speed=1.1,
        phase0=0.2,
    )


class TestCacheSemantics:
    def test_first_call_misses_everything(self):
        with HarmonicEngine() as engine:
            engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
            stats = engine.cache_stats()
        for memo in ("steering", "geometry"):
            assert stats[memo]["hits"] == 0
            assert stats[memo]["misses"] == 1

    def test_identical_repeat_hits_spectrum_cache(self):
        with create_engine("adaptive-harmonic") as engine, fix_scope():
            first = engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
            before = engine.cache_stats()
            second = engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
            after = engine.cache_stats()
        assert second is first
        assert after["adaptive"]["spectra"]["hits"] == 1
        # The memoized spectrum short-circuits before the dense stage.
        for memo in ("steering", "geometry"):
            assert after[memo] == before[memo]

    def test_changed_phases_reuse_steering_only(self):
        """New measurements, same geometry: the expensive tables are reused."""
        with HarmonicEngine() as engine, fix_scope():
            engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
            engine.azimuth_spectrum(
                _series(phase_offset=1.0), AZIMUTH_GRID, 0.14
            )
            stats = engine.cache_stats()
        for memo in ("steering", "geometry"):
            assert stats[memo]["hits"] == 1
            assert stats[memo]["misses"] == 1

    def test_changed_grid_misses_steering(self):
        other_grid = default_azimuth_grid(np.deg2rad(4.0))
        with HarmonicEngine() as engine, fix_scope():
            engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
            engine.azimuth_spectrum(_series(), other_grid, 0.14)
            stats = engine.cache_stats()
        assert stats["steering"]["hits"] == 0
        assert stats["steering"]["misses"] == 2

    def test_sub_quantum_perturbation_shares_entry(self):
        """Geometry agreeing below 1e-12 shares one memo entry.

        Times are pinned to 8 decimals so the 1e-14 nudge cannot land on
        a rounding-boundary of the key quantizer's 12-decimal cells.
        """
        raw = _series()
        base = replace(raw, times=np.round(raw.times, 8))
        nudged = replace(base, times=base.times + 1e-14)
        with HarmonicEngine() as engine, fix_scope():
            engine.azimuth_spectrum(base, AZIMUTH_GRID, 0.14)
            second = engine.azimuth_spectrum(nudged, AZIMUTH_GRID, 0.14)
            stats = engine.cache_stats()
        for memo in ("steering", "geometry"):
            assert stats[memo]["hits"] == 1
        expected = ReferenceEngine().azimuth_spectrum(nudged, AZIMUTH_GRID, 0.14)
        _assert_within_budget(expected, second)

    def test_supra_quantum_perturbation_recomputes(self):
        """Inputs differing by more than the quantum must NOT collide."""
        base = _series()
        moved = replace(base, times=base.times + 1e-6)
        with HarmonicEngine() as engine, fix_scope():
            engine.azimuth_spectrum(base, AZIMUTH_GRID, 0.14)
            second = engine.azimuth_spectrum(moved, AZIMUTH_GRID, 0.14)
            stats = engine.cache_stats()
        for memo in ("steering", "geometry"):
            assert stats[memo]["hits"] == 0
        expected = ReferenceEngine().azimuth_spectrum(moved, AZIMUTH_GRID, 0.14)
        _assert_within_budget(expected, second)

    @given(sigma=st.floats(allow_nan=False, max_value=0.0))
    @settings(max_examples=10, deadline=None)
    def test_invalid_sigma_rejected(self, sigma):
        with HarmonicEngine() as engine:
            with pytest.raises(ValueError):
                engine.azimuth_spectrum(_series(), AZIMUTH_GRID, sigma)

    def test_insufficient_snapshots_rejected(self):
        short = SnapshotSeries(
            np.array([0.0, 1.0]), np.array([0.1, 0.2]), 0.325, 0.1, 1.0
        )
        with HarmonicEngine() as engine:
            with pytest.raises(InsufficientDataError):
                engine.azimuth_spectrum(short, AZIMUTH_GRID, None)
        with pytest.raises(InsufficientDataError):
            ReferenceEngine().azimuth_spectrum(short, AZIMUTH_GRID, None)

    def test_cached_spectra_are_immutable(self):
        """The serving engine's memo hands every pass of a fix the same
        spectrum objects, so no caller may write into them."""
        channels = [_series(), _series(seed=4)]
        with create_engine("adaptive-harmonic") as engine, fix_scope():
            spectra = [
                engine.azimuth_spectrum(channels[0], AZIMUTH_GRID, 0.14),
                engine.joint_spectrum(
                    channels[0], AZIMUTH_GRID, POLAR_GRID, 0.14
                ),
                engine.fused_joint_spectrum(
                    channels, AZIMUTH_GRID, POLAR_GRID, 0.14
                ),
            ]
        for spectrum in spectra:
            with pytest.raises(ValueError):
                spectrum.power[0] = 99.0
