"""Property tests: engine equivalence and cache correctness.

Randomized :class:`SnapshotSeries` — including the 3-snapshot minimum,
non-uniform (even duplicate) timestamps, and windows covering less than
one rotation — must produce *bit-identical* spectra from the batched
engine, because it shares the reference implementation's arithmetic
kernels.  The cache tests pin the hit/miss semantics the speedup relies
on inside one fix scope: repeats hit, changed phases reuse steering but
recompute spectra, changed grids miss everything, and quantization only
merges inputs that agree far below the equivalence tolerance.
"""

from __future__ import annotations

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
from repro.perf import BatchedEngine, ReferenceEngine, fix_scope

# Hypothesis-heavy perf suite: runs in the dedicated CI slow job.
pytestmark = pytest.mark.slow

AZIMUTH_GRID = default_azimuth_grid(np.deg2rad(5.0))
POLAR_GRID = default_polar_grid(np.deg2rad(15.0))

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


class TestEngineEquivalenceProperties:
    @given(series=snapshot_series(), sigma=st.sampled_from([None, 0.1, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_azimuth_spectrum_bit_identical(self, series, sigma):
        expected = ReferenceEngine().azimuth_spectrum(
            series, AZIMUTH_GRID, sigma
        )
        with BatchedEngine() as engine:
            actual = engine.azimuth_spectrum(series, AZIMUTH_GRID, sigma)
        assert np.array_equal(expected.power, actual.power)
        assert expected.peak_azimuth == actual.peak_azimuth
        assert expected.peak_power == actual.peak_power

    @given(series=snapshot_series(max_snapshots=12),
           sigma=st.sampled_from([None, 0.14]))
    @settings(max_examples=15, deadline=None)
    def test_joint_spectrum_bit_identical(self, series, sigma):
        expected = ReferenceEngine().joint_spectrum(
            series, AZIMUTH_GRID, POLAR_GRID, sigma
        )
        with BatchedEngine() as engine:
            actual = engine.joint_spectrum(
                series, AZIMUTH_GRID, POLAR_GRID, sigma
            )
        assert np.array_equal(expected.power, actual.power)
        assert expected.peak_azimuth == actual.peak_azimuth
        assert expected.peak_polar == actual.peak_polar

    @given(series=snapshot_series(min_snapshots=3, max_snapshots=3))
    @settings(max_examples=15, deadline=None)
    def test_three_snapshot_minimum_supported(self, series):
        """The legal minimum series size works and stays equivalent."""
        expected = ReferenceEngine().azimuth_spectrum(series, AZIMUTH_GRID, 0.2)
        with BatchedEngine() as engine:
            actual = engine.azimuth_spectrum(series, AZIMUTH_GRID, 0.2)
        assert np.array_equal(expected.power, actual.power)

    @given(series=snapshot_series())
    @settings(max_examples=10, deadline=None)
    def test_streaming_path_bit_identical(self, series):
        """A tiny block budget forces the uncached streaming fallback."""
        expected = ReferenceEngine().joint_spectrum(
            series, AZIMUTH_GRID, POLAR_GRID, 0.14
        )
        with BatchedEngine(max_block_elements=64) as engine:
            actual = engine.joint_spectrum(
                series, AZIMUTH_GRID, POLAR_GRID, 0.14
            )
        assert np.array_equal(expected.power, actual.power)


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
        with BatchedEngine() as engine:
            engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
            stats = engine.cache_stats()
        assert stats["steering"]["hits"] == 0
        assert stats["steering"]["misses"] == 1
        assert stats["spectra"]["hits"] == 0
        assert stats["spectra"]["misses"] == 1

    def test_identical_repeat_hits_spectrum_cache(self):
        with BatchedEngine() as engine, fix_scope():
            first = engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
            second = engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
            stats = engine.cache_stats()
        assert second is first
        assert stats["spectra"]["hits"] == 1
        # The cached spectrum short-circuits before the steering lookup.
        assert stats["steering"]["misses"] == 1

    def test_changed_phases_reuse_steering_only(self):
        """New measurements, same geometry: the expensive trig is reused."""
        with BatchedEngine() as engine, fix_scope():
            engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
            engine.azimuth_spectrum(
                _series(phase_offset=1.0), AZIMUTH_GRID, 0.14
            )
            stats = engine.cache_stats()
        assert stats["steering"]["hits"] == 1
        assert stats["steering"]["misses"] == 1
        assert stats["spectra"]["hits"] == 0
        assert stats["spectra"]["misses"] == 2
        assert stats["residuals"]["misses"] == 2

    def test_profile_switch_reuses_residuals(self):
        """The R-to-Q fallback pays the phase wrap only once."""
        with BatchedEngine() as engine, fix_scope():
            engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
            engine.azimuth_spectrum(_series(), AZIMUTH_GRID, None)
            stats = engine.cache_stats()
        assert stats["residuals"]["hits"] == 1
        assert stats["residuals"]["misses"] == 1
        assert stats["spectra"]["misses"] == 2  # R and Q are distinct spectra

    def test_changed_grid_misses_steering(self):
        other_grid = default_azimuth_grid(np.deg2rad(4.0))
        with BatchedEngine() as engine, fix_scope():
            engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
            engine.azimuth_spectrum(_series(), other_grid, 0.14)
            stats = engine.cache_stats()
        assert stats["steering"]["hits"] == 0
        assert stats["steering"]["misses"] == 2

    def test_sub_quantum_perturbation_shares_entry(self):
        """Inputs agreeing below 1e-12 are the same cached spectrum.

        Phases are pinned to 8 decimals so the 1e-14 nudge cannot land on
        a rounding-boundary of the key quantizer's 12-decimal cells.
        """
        raw = _series()
        base = SnapshotSeries(
            raw.times,
            np.round(raw.phases, 8),
            raw.wavelength,
            raw.radius,
            raw.angular_speed,
            raw.phase0,
        )
        nudged = SnapshotSeries(
            base.times,
            base.phases + 1e-14,
            base.wavelength,
            base.radius,
            base.angular_speed,
            base.phase0,
        )
        with BatchedEngine() as engine, fix_scope():
            first = engine.azimuth_spectrum(base, AZIMUTH_GRID, 0.14)
            second = engine.azimuth_spectrum(nudged, AZIMUTH_GRID, 0.14)
        assert second is first

    def test_supra_quantum_perturbation_recomputes(self):
        """Inputs differing by more than the quantum must NOT collide."""
        base = _series()
        moved = SnapshotSeries(
            base.times,
            base.phases + 1e-6,
            base.wavelength,
            base.radius,
            base.angular_speed,
            base.phase0,
        )
        with BatchedEngine() as engine, fix_scope():
            first = engine.azimuth_spectrum(base, AZIMUTH_GRID, 0.14)
            second = engine.azimuth_spectrum(moved, AZIMUTH_GRID, 0.14)
            stats = engine.cache_stats()
        assert second is not first
        assert stats["spectra"]["hits"] == 0
        expected = ReferenceEngine().azimuth_spectrum(moved, AZIMUTH_GRID, 0.14)
        assert np.array_equal(second.power, expected.power)

    @given(sigma=st.floats(allow_nan=False, max_value=0.0))
    @settings(max_examples=10, deadline=None)
    def test_invalid_sigma_rejected(self, sigma):
        with BatchedEngine() as engine:
            with pytest.raises(ValueError):
                engine.azimuth_spectrum(_series(), AZIMUTH_GRID, sigma)

    def test_insufficient_snapshots_rejected(self):
        short = SnapshotSeries(
            np.array([0.0, 1.0]), np.array([0.1, 0.2]), 0.325, 0.1, 1.0
        )
        with BatchedEngine() as engine:
            with pytest.raises(InsufficientDataError):
                engine.azimuth_spectrum(short, AZIMUTH_GRID, None)
        with pytest.raises(InsufficientDataError):
            ReferenceEngine().azimuth_spectrum(short, AZIMUTH_GRID, None)

    def test_cached_spectra_are_immutable(self):
        with BatchedEngine() as engine:
            spectrum = engine.azimuth_spectrum(_series(), AZIMUTH_GRID, 0.14)
        with pytest.raises(ValueError):
            spectrum.power[0] = 99.0
