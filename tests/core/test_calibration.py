"""Tests for repro.core.calibration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import (
    REFERENCE_ORIENTATION_RAD,
    FourierSeries,
    OrientationCalibrator,
    estimate_diversity,
    fit_fourier_series,
    make_orientation_profile,
    profile_distance,
    residual_rms,
)
from repro.errors import CalibrationError


class TestFourierSeries:
    def test_constant_series(self):
        series = FourierSeries(a0=2.0, cosine=np.zeros(1), sine=np.zeros(1))
        grid = np.linspace(0, 2 * np.pi, 10)
        assert np.allclose(series(grid), 2.0)

    def test_first_harmonic(self):
        series = FourierSeries(a0=0.0, cosine=np.array([1.0]), sine=np.array([0.0]))
        assert series(0.0) == pytest.approx(1.0)
        assert series(np.pi) == pytest.approx(-1.0)

    def test_mismatched_coefficients_rejected(self):
        with pytest.raises(ValueError):
            FourierSeries(a0=0.0, cosine=np.zeros(2), sine=np.zeros(3))

    def test_peak_to_peak(self):
        series = FourierSeries(a0=5.0, cosine=np.array([1.5]), sine=np.array([0.0]))
        assert series.peak_to_peak() == pytest.approx(3.0, rel=1e-4)

    def test_scalar_call_returns_float(self):
        series = FourierSeries(a0=1.0, cosine=np.array([0.5]), sine=np.array([0.5]))
        assert isinstance(series(1.0), float)


class TestFourierFit:
    @given(
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
    )
    @settings(max_examples=30)
    def test_exact_recovery(self, a0, c1, s1, c2, s2):
        """A noise-free order-2 series is recovered exactly."""
        truth = FourierSeries(
            a0=a0, cosine=np.array([c1, c2]), sine=np.array([s1, s2])
        )
        x = np.linspace(0, 2 * np.pi, 41, endpoint=False)
        fitted = fit_fourier_series(x, np.asarray(truth(x)), order=2)
        grid = np.linspace(0, 2 * np.pi, 100)
        assert np.allclose(fitted(grid), truth(grid), atol=1e-8)

    def test_noisy_fit_is_close(self):
        rng = np.random.default_rng(3)
        truth = make_orientation_profile(
            np.array([0.1, 0.3]), np.array([0.5, 1.2])
        )
        x = rng.uniform(0, 2 * np.pi, 600)
        y = np.asarray(truth.series(x)) + 0.05 * rng.standard_normal(600)
        fitted = fit_fourier_series(x, y, order=2)
        grid = np.linspace(0, 2 * np.pi, 200)
        assert np.sqrt(np.mean((fitted(grid) - truth.series(grid)) ** 2)) < 0.02

    def test_too_few_samples_raises(self):
        x = np.linspace(0, 1, 4)
        with pytest.raises(CalibrationError):
            fit_fourier_series(x, np.sin(x), order=2)

    def test_bad_order_raises(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(ValueError):
            fit_fourier_series(x, np.sin(x), order=0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            fit_fourier_series(np.zeros(5), np.zeros(6), order=1)


class TestDiversityEstimation:
    def test_constant_offset_recovered(self):
        rng = np.random.default_rng(5)
        theoretical = rng.uniform(0, 2 * np.pi, 300)
        measured = theoretical + 1.7
        assert estimate_diversity(measured, theoretical) == pytest.approx(1.7)

    def test_offset_recovered_across_wrap(self):
        rng = np.random.default_rng(6)
        theoretical = rng.uniform(0, 2 * np.pi, 300)
        measured = np.mod(theoretical + 5.0, 2 * np.pi)
        estimated = estimate_diversity(measured, theoretical)
        assert np.mod(estimated, 2 * np.pi) == pytest.approx(5.0, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            estimate_diversity(np.array([]), np.array([]))


class TestOrientationProfile:
    def test_correction_zero_at_reference(self):
        profile = make_orientation_profile(
            np.array([0.2, 0.3]), np.array([0.1, 0.4])
        )
        assert profile.correction(REFERENCE_ORIENTATION_RAD) == pytest.approx(0.0)

    def test_apply_removes_offset(self):
        profile = make_orientation_profile(np.array([0.3]), np.array([0.0]))
        orientations = np.linspace(0, 2 * np.pi, 50)
        base = 1.234
        contaminated = base + np.asarray(profile.correction(orientations))
        cleaned = profile.apply(contaminated, orientations)
        assert np.allclose(cleaned, base)

    def test_apply_shape_mismatch(self):
        profile = make_orientation_profile(np.array([0.3]), np.array([0.0]))
        with pytest.raises(ValueError):
            profile.apply(np.zeros(3), np.zeros(4))


class TestOrientationCalibrator:
    def test_fit_from_center_spin_recovers_profile(self):
        rng = np.random.default_rng(9)
        truth = make_orientation_profile(
            np.array([0.05, 0.30, 0.04]), np.array([0.3, 1.1, 2.0])
        )
        orientations = rng.uniform(0, 2 * np.pi, 800)
        constant = 4.0  # geometric phase + diversity at the disk center
        phases = np.mod(
            constant + np.asarray(truth.offset(orientations))
            + 0.1 * rng.standard_normal(800),
            2 * np.pi,
        )
        calibrator = OrientationCalibrator(fourier_order=3)
        fitted = calibrator.fit_from_center_spin(orientations, phases)
        assert profile_distance(fitted, truth) < 0.03

    def test_calibrate_roundtrip(self):
        rng = np.random.default_rng(10)
        truth = make_orientation_profile(np.array([0.0, 0.35]), np.array([0.0, 0.8]))
        calibrator = OrientationCalibrator(fourier_order=2)
        orientations = rng.uniform(0, 2 * np.pi, 500)
        phases = np.mod(2.0 + np.asarray(truth.offset(orientations)), 2 * np.pi)
        fitted = calibrator.fit_from_center_spin(orientations, phases)
        edge_orientations = rng.uniform(0, 2 * np.pi, 100)
        raw = np.asarray(truth.correction(edge_orientations))  # pure offset signal
        cleaned = calibrator.calibrate(fitted, raw, edge_orientations)
        assert float(np.sqrt(np.mean(cleaned**2))) < 0.02

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            OrientationCalibrator(fourier_order=0)


class TestResidualRms:
    def test_zero_for_identical(self):
        theta = np.linspace(0, 5, 50)
        assert residual_rms(theta, theta) == pytest.approx(0.0, abs=1e-9)

    def test_constant_offset_removed(self):
        theta = np.linspace(0, 5, 50)
        assert residual_rms(theta + 0.9, theta) == pytest.approx(0.0, abs=1e-9)

    def test_constant_offset_kept_when_asked(self):
        theta = np.linspace(0, 5, 50)
        rms = residual_rms(theta + 0.5, theta, remove_constant=False)
        assert rms == pytest.approx(0.5, abs=1e-9)

    def test_wrapping_in_residual(self):
        measured = np.array([2 * np.pi - 0.05])
        theoretical = np.array([0.05])
        assert residual_rms(measured, theoretical, remove_constant=False) == (
            pytest.approx(0.1, abs=1e-9)
        )


def test_profile_distance_identical_profiles():
    profile = make_orientation_profile(np.array([0.2]), np.array([0.3]))
    assert profile_distance(profile, profile) == pytest.approx(0.0, abs=1e-12)
