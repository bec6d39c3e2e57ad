"""Tests for repro.core.spectrum."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spectrum import (
    SnapshotSeries,
    _refine_peak_circular,
    _refine_peak_clamped,
    combine_spectra,
    compute_q_profile,
    compute_q_profile_3d,
    compute_r_profile,
    compute_r_profile_3d,
    default_azimuth_grid,
    default_polar_grid,
    peak_sharpness,
)
from repro.errors import InsufficientDataError


class TestSnapshotSeries:
    def test_validates_shapes(self, make_series):
        with pytest.raises(ValueError):
            SnapshotSeries(np.zeros(3), np.zeros(4), 0.325, 0.1, 1.0)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            SnapshotSeries(
                np.array([0.0, 1.0, 0.5]), np.zeros(3), 0.325, 0.1, 1.0
            )

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            SnapshotSeries(np.zeros(2), np.zeros(2), -1.0, 0.1, 1.0)

    def test_rejects_zero_speed(self):
        with pytest.raises(ValueError):
            SnapshotSeries(np.zeros(2), np.zeros(2), 0.325, 0.1, 0.0)

    def test_relative_phases_zero_first(self, make_series):
        series = make_series(azimuth=0.5)
        relative = series.relative_phases()
        assert relative[0] == pytest.approx(0.0)
        assert np.all(np.abs(relative) <= np.pi + 1e-12)

    def test_len(self, make_series):
        assert len(make_series(azimuth=0.1, n=57)) == 57

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_times(self, bad):
        """Regression: a NaN/Inf timestamp used to flow straight into the
        steering model and poison the whole spectrum."""
        with pytest.raises(ValueError, match="finite"):
            SnapshotSeries(
                np.array([0.0, 1.0, bad]), np.zeros(3), 0.325, 0.1, 1.0
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_phases(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SnapshotSeries(
                np.array([0.0, 1.0, 2.0]),
                np.array([0.1, bad, 0.3]),
                0.325, 0.1, 1.0,
            )

    @pytest.mark.parametrize(
        "field", ["wavelength", "radius", "angular_speed", "phase0"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_scalars(self, field, bad):
        """NaN slipped past the old sign checks (NaN <= 0 is False)."""
        kwargs = {
            "times": np.array([0.0, 1.0, 2.0]),
            "phases": np.zeros(3),
            "wavelength": 0.325,
            "radius": 0.1,
            "angular_speed": 1.0,
            "phase0": 0.0,
        }
        kwargs[field] = bad
        with pytest.raises(ValueError):
            SnapshotSeries(**kwargs)


class TestGrids:
    def test_azimuth_grid_covers_circle(self):
        grid = default_azimuth_grid(np.deg2rad(1.0))
        assert grid[0] == 0.0
        assert grid[-1] < 2 * np.pi
        assert grid.size == 360

    def test_polar_grid_symmetric(self):
        grid = default_polar_grid(np.deg2rad(2.0))
        assert grid[0] == pytest.approx(-np.pi / 2)
        assert grid[-1] == pytest.approx(np.pi / 2)


class TestPeakRefinement:
    """Edge cases of the sub-grid parabolic peak interpolators."""

    GRID = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)

    def test_circular_wraps_peak_at_first_point(self):
        """A maximum at index 0 interpolates across the wrap seam."""
        power = np.array([1.0, 0.6, 0.2, 0.1, 0.1, 0.1, 0.2, 0.8])
        azimuth, peak = _refine_peak_circular(self.GRID, power)
        # The wrapped left neighbor (0.8) beats the right one (0.6), so
        # the refined peak sits just below 2*pi rather than just above 0.
        assert 1.5 * np.pi < azimuth < 2.0 * np.pi
        assert peak >= 1.0

    def test_circular_wraps_peak_at_last_point(self):
        power = np.array([0.8, 0.2, 0.1, 0.1, 0.1, 0.2, 0.6, 1.0])
        azimuth, peak = _refine_peak_circular(self.GRID, power)
        # Pulled toward the larger wrapped neighbor at index 0, but the
        # result stays normalized inside [0, 2*pi).
        assert self.GRID[-1] < azimuth < 2.0 * np.pi
        assert peak >= 1.0

    def test_circular_flat_spectrum_returns_grid_point(self):
        """Zero curvature must not divide by zero; grid point wins."""
        power = np.full(8, 0.5)
        azimuth, peak = _refine_peak_circular(self.GRID, power)
        assert azimuth == self.GRID[0]
        assert peak == 0.5

    def test_circular_two_equal_maxima_picks_first(self):
        power = np.array([0.1, 0.9, 0.1, 0.1, 0.1, 0.9, 0.1, 0.1])
        azimuth, _peak = _refine_peak_circular(self.GRID, power)
        # np.argmax ties break to the lowest index; symmetric equal
        # neighbors leave the refined azimuth on the grid point.
        assert azimuth == pytest.approx(self.GRID[1])

    def test_circular_result_stays_in_range(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            azimuth, _ = _refine_peak_circular(self.GRID, rng.random(8))
            assert 0.0 <= azimuth < 2.0 * np.pi

    def test_clamped_boundary_peak_not_extrapolated(self):
        """A maximum at either end returns the endpoint untouched."""
        grid = np.linspace(-1.0, 1.0, 9)
        rising = np.linspace(0.0, 1.0, 9)
        azimuth, peak = _refine_peak_clamped(grid, rising)
        assert azimuth == grid[-1]
        assert peak == 1.0
        falling = rising[::-1].copy()
        azimuth, peak = _refine_peak_clamped(grid, falling)
        assert azimuth == grid[0]
        assert peak == 1.0

    def test_clamped_flat_spectrum_returns_grid_point(self):
        grid = np.linspace(-1.0, 1.0, 9)
        azimuth, peak = _refine_peak_clamped(grid, np.full(9, 0.3))
        assert azimuth == grid[0]
        assert peak == 0.3

    def test_clamped_two_equal_maxima_picks_first(self):
        grid = np.linspace(-1.0, 1.0, 9)
        power = np.array([0.1, 0.2, 0.9, 0.2, 0.1, 0.2, 0.9, 0.2, 0.1])
        azimuth, _peak = _refine_peak_clamped(grid, power)
        assert azimuth == pytest.approx(grid[2])

    def test_clamped_tiny_grid_degenerates_gracefully(self):
        grid = np.array([0.0, 0.5])
        azimuth, peak = _refine_peak_clamped(grid, np.array([0.2, 0.7]))
        assert azimuth == 0.5
        assert peak == 0.7

    def test_interior_peak_moves_toward_larger_neighbor(self):
        grid = np.linspace(-1.0, 1.0, 9)
        power = np.array([0.1, 0.2, 0.5, 1.0, 0.9, 0.3, 0.2, 0.1, 0.1])
        azimuth, peak = _refine_peak_clamped(grid, power)
        assert grid[3] < azimuth < grid[4]
        assert peak >= 1.0


class TestQProfile:
    def test_peak_at_truth_noiseless(self, make_series):
        for phi in [0.0, 1.2, 3.5, 5.9]:
            series = make_series(azimuth=phi)
            spectrum = compute_q_profile(series)
            error = abs(
                np.angle(np.exp(1j * (spectrum.peak_azimuth - phi)))
            )
            assert error < np.deg2rad(0.3)

    def test_peak_power_near_one(self, make_series):
        spectrum = compute_q_profile(make_series(azimuth=2.0))
        assert spectrum.peak_power == pytest.approx(1.0, abs=1e-3)

    def test_diversity_invariance(self, make_series):
        base = compute_q_profile(make_series(azimuth=1.0, diversity=0.0))
        shifted = compute_q_profile(make_series(azimuth=1.0, diversity=2.7))
        assert np.allclose(base.power, shifted.power, atol=1e-9)

    def test_insufficient_snapshots(self, make_series):
        with pytest.raises(InsufficientDataError):
            compute_q_profile(make_series(azimuth=1.0, n=2))

    def test_phase0_respected(self, make_series):
        phi = 2.2
        series = make_series(azimuth=phi, phase0=1.5)
        spectrum = compute_q_profile(series)
        error = abs(np.angle(np.exp(1j * (spectrum.peak_azimuth - phi))))
        assert error < np.deg2rad(0.3)

    @given(st.floats(min_value=0.0, max_value=2 * np.pi - 1e-6))
    @settings(max_examples=20, deadline=None)
    def test_peak_tracks_truth_property(self, phi):
        from helpers import make_series as factory

        series = factory(azimuth=phi, n=120)
        spectrum = compute_q_profile(series)
        error = abs(np.angle(np.exp(1j * (spectrum.peak_azimuth - phi))))
        assert error < np.deg2rad(0.5)


class TestRProfile:
    def test_peak_at_truth_noisy(self, make_series):
        phi = 3.1
        series = make_series(azimuth=phi, noise_std=0.1, n=300)
        spectrum = compute_r_profile(series)
        error = abs(np.angle(np.exp(1j * (spectrum.peak_azimuth - phi))))
        assert error < np.deg2rad(1.0)

    def test_sharper_than_q(self, make_series):
        """The paper's headline claim: R's peak is far sharper than Q's."""
        series = make_series(azimuth=1.9, noise_std=0.1, n=300)
        q = compute_q_profile(series)
        r = compute_r_profile(series)
        assert peak_sharpness(r) > 2.0 * peak_sharpness(q)

    def test_reference_noise_invariance(self, make_series):
        """R must not be dragged by the first snapshot's own noise."""
        phi = 0.8
        series = make_series(azimuth=phi, n=200)
        # Corrupt only the reference snapshot by a large offset.
        phases = series.phases.copy()
        phases[0] = np.mod(phases[0] + 0.3, 2 * np.pi)
        corrupted = SnapshotSeries(
            series.times, phases, series.wavelength,
            series.radius, series.angular_speed, series.phase0,
        )
        spectrum = compute_r_profile(corrupted)
        error = abs(np.angle(np.exp(1j * (spectrum.peak_azimuth - phi))))
        assert error < np.deg2rad(0.5)

    def test_bad_sigma_rejected(self, make_series):
        with pytest.raises(ValueError):
            compute_r_profile(make_series(azimuth=0.2), sigma=0.0)

    def test_power_at_lookup(self, make_series):
        spectrum = compute_r_profile(make_series(azimuth=1.0))
        assert spectrum.power_at(spectrum.peak_azimuth) == pytest.approx(
            np.max(spectrum.power)
        )


class TestJointProfiles:
    def test_q3d_peak_at_truth(self, make_series):
        phi, gamma = 2.4, 0.45
        series = make_series(azimuth=phi, polar=gamma, n=250)
        spectrum = compute_q_profile_3d(series)
        azimuth_error = abs(
            np.angle(np.exp(1j * (spectrum.peak_azimuth - phi)))
        )
        assert azimuth_error < np.deg2rad(1.0)
        # The polar peak is sign-ambiguous for a horizontal disk.
        assert abs(abs(spectrum.peak_polar) - gamma) < np.deg2rad(2.0)

    def test_r3d_peak_at_truth(self, make_series):
        phi, gamma = 4.0, 0.3
        series = make_series(azimuth=phi, polar=gamma, noise_std=0.1, n=250)
        spectrum = compute_r_profile_3d(series)
        azimuth_error = abs(
            np.angle(np.exp(1j * (spectrum.peak_azimuth - phi)))
        )
        assert azimuth_error < np.deg2rad(1.5)
        assert abs(abs(spectrum.peak_polar) - gamma) < np.deg2rad(4.0)

    def test_mirror_peaks_symmetric(self, make_series):
        """Fig 8: two symmetric peaks in the polar axis."""
        series = make_series(azimuth=1.0, polar=0.5, n=200)
        spectrum = compute_q_profile_3d(series)
        polar = spectrum.polar_grid
        row_up = int(np.argmin(np.abs(polar - 0.5)))
        row_down = int(np.argmin(np.abs(polar + 0.5)))
        azimuth_col = int(np.argmin(np.abs(spectrum.azimuth_grid - 1.0)))
        assert spectrum.power[row_up, azimuth_col] == pytest.approx(
            spectrum.power[row_down, azimuth_col], rel=1e-6
        )

    def test_power_shape(self, make_series):
        azimuths = default_azimuth_grid(np.deg2rad(5.0))
        polars = default_polar_grid(np.deg2rad(5.0))
        spectrum = compute_q_profile_3d(
            make_series(azimuth=0.4, n=100), azimuths, polars
        )
        assert spectrum.power.shape == (polars.size, azimuths.size)


class TestCombineSpectra:
    def test_single_spectrum_identity(self, make_series):
        spectrum = compute_q_profile(make_series(azimuth=1.0))
        combined = combine_spectra([spectrum])
        assert np.allclose(combined.power, spectrum.power)

    def test_two_channels_sharpen_estimate(self, make_series):
        phi = 2.9
        a = compute_r_profile(
            make_series(azimuth=phi, wavelength=0.3245, noise_std=0.1, seed=1)
        )
        b = compute_r_profile(
            make_series(azimuth=phi, wavelength=0.3255, noise_std=0.1, seed=2)
        )
        combined = combine_spectra([a, b])
        error = abs(np.angle(np.exp(1j * (combined.peak_azimuth - phi))))
        assert error < np.deg2rad(1.0)

    def test_mismatched_grids_rejected(self, make_series):
        a = compute_q_profile(
            make_series(azimuth=1.0), default_azimuth_grid(np.deg2rad(1.0))
        )
        b = compute_q_profile(
            make_series(azimuth=1.0), default_azimuth_grid(np.deg2rad(2.0))
        )
        with pytest.raises(ValueError):
            combine_spectra([a, b])

    def test_size_mismatch_error_names_both_sizes(self, make_series):
        """Mixing grids (e.g. a coarse adaptive spectrum with a dense one)
        must fail with a message that says which spectrum diverges how."""
        a = compute_q_profile(
            make_series(azimuth=1.0), default_azimuth_grid(np.deg2rad(1.0))
        )
        b = compute_q_profile(
            make_series(azimuth=1.0), default_azimuth_grid(np.deg2rad(2.0))
        )
        with pytest.raises(ValueError, match=r"spectrum 0 has 360.*spectrum 1 has 180"):
            combine_spectra([a, b])

    def test_shifted_grid_error_reports_deviation(self, make_series):
        grid = default_azimuth_grid(np.deg2rad(1.0))
        a = compute_q_profile(make_series(azimuth=1.0), grid)
        b = compute_q_profile(make_series(azimuth=1.0), grid + 1e-3)
        with pytest.raises(ValueError, match=r"spectrum 1.*deviates.*1\.000e-03"):
            combine_spectra([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_spectra([])


def test_peak_sharpness_rejects_full_window(make_series):
    spectrum = compute_q_profile(make_series(azimuth=0.3))
    with pytest.raises(ValueError):
        peak_sharpness(spectrum, window=10.0)
