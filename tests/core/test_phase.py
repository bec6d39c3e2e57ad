"""Tests for repro.core.phase."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.phase import (
    TWO_PI,
    circular_mean,
    circular_std,
    phase_to_distance_error,
    relative_phase_model,
    smooth_phase_sequence,
    spinning_distance,
    theoretical_phase,
    wrap_phase,
    wrap_phase_signed,
)


class TestWrapping:
    def test_wrap_phase_scalar(self):
        assert wrap_phase(TWO_PI + 0.3) == pytest.approx(0.3)

    def test_wrap_phase_array(self):
        result = wrap_phase(np.array([-0.1, TWO_PI, 3 * np.pi]))
        assert np.allclose(result, [TWO_PI - 0.1, 0.0, np.pi])

    @given(
        arrays(
            float,
            st.integers(min_value=1, max_value=30),
            elements=st.floats(min_value=-50, max_value=50),
        )
    )
    def test_wrap_signed_range(self, values):
        wrapped = np.asarray(wrap_phase_signed(values))
        assert np.all(wrapped > -np.pi - 1e-12)
        assert np.all(wrapped <= np.pi + 1e-12)

    @given(st.floats(min_value=-50, max_value=50))
    def test_signed_and_unsigned_agree(self, value):
        difference = wrap_phase(value) - wrap_phase_signed(value)
        assert abs(difference % TWO_PI) < 1e-9 or abs(
            difference % TWO_PI - TWO_PI
        ) < 1e-9


class TestSmoothing:
    def test_removes_wrap_jumps(self):
        continuous = np.linspace(0.0, 4 * TWO_PI, 400)
        wrapped = np.mod(continuous, TWO_PI)
        smoothed = smooth_phase_sequence(wrapped)
        assert np.allclose(smoothed, continuous, atol=1e-9)

    def test_descending_sequence(self):
        continuous = np.linspace(5 * TWO_PI, 0.0, 300)
        wrapped = np.mod(continuous, TWO_PI)
        smoothed = smooth_phase_sequence(wrapped)
        assert np.allclose(np.diff(smoothed), np.diff(continuous), atol=1e-9)

    def test_no_jump_is_identity(self):
        theta = np.array([0.1, 0.4, 0.2, 0.5])
        assert np.allclose(smooth_phase_sequence(theta), theta)

    def test_empty_sequence(self):
        assert smooth_phase_sequence(np.array([])).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            smooth_phase_sequence(np.zeros((2, 2)))

    @given(
        arrays(
            float,
            st.integers(min_value=2, max_value=100),
            elements=st.floats(min_value=-0.5, max_value=0.5),
        )
    )
    @settings(max_examples=30)
    def test_smoothing_inverts_wrapping(self, increments):
        """Any sequence with steps < pi survives a wrap/smooth round trip."""
        continuous = 1.0 + np.cumsum(increments)
        smoothed = smooth_phase_sequence(np.mod(continuous, TWO_PI))
        # Smoothing recovers the sequence up to a constant 2*pi multiple.
        offset = smoothed[0] - continuous[0]
        assert abs(offset % TWO_PI) < 1e-9 or abs(offset % TWO_PI - TWO_PI) < 1e-9
        assert np.allclose(np.diff(smoothed), np.diff(continuous), atol=1e-9)


class TestDistanceModel:
    def test_distance_range(self):
        times = np.linspace(0, 10, 500)
        d = spinning_distance(times, 2.0, 0.1, 1.0, 0.3)
        assert np.all(d >= 1.9 - 1e-12)
        assert np.all(d <= 2.1 + 1e-12)

    def test_closest_when_tag_faces_reader(self):
        # At omega*t + phase0 == phi the tag is nearest the reader.
        d = spinning_distance(np.array([0.5]), 2.0, 0.1, 1.0, 0.5)
        assert d[0] == pytest.approx(1.9)

    def test_polar_shrinks_modulation(self):
        times = np.linspace(0, 6.28, 100)
        flat = spinning_distance(times, 2.0, 0.1, 1.0, 0.0, 0.0)
        steep = spinning_distance(times, 2.0, 0.1, 1.0, 0.0, np.pi / 3)
        assert np.ptp(steep) == pytest.approx(np.ptp(flat) * 0.5, rel=1e-9)

    def test_phase0_shifts_pattern(self):
        times = np.linspace(0, 6.28, 100)
        shifted = spinning_distance(times, 2.0, 0.1, 1.0, 0.7, phase0=0.3)
        rolled = spinning_distance(times + 0.3, 2.0, 0.1, 1.0, 0.7)
        assert np.allclose(shifted, rolled)


class TestTheoreticalPhase:
    def test_in_range(self):
        times = np.linspace(0, 12, 300)
        theta = theoretical_phase(times, 0.325, 2.0, 0.1, 1.0, 0.3)
        assert np.all(theta >= 0.0)
        assert np.all(theta < TWO_PI)

    def test_diversity_shifts_phase(self):
        times = np.linspace(0, 5, 50)
        base = theoretical_phase(times, 0.325, 2.0, 0.1, 1.0, 0.3)
        shifted = theoretical_phase(
            times, 0.325, 2.0, 0.1, 1.0, 0.3, diversity=1.0
        )
        assert np.allclose(np.mod(shifted - base, TWO_PI), 1.0)

    def test_period_matches_rotation(self):
        omega = 1.3
        period = TWO_PI / omega
        times = np.array([0.2, 0.2 + period])
        theta = theoretical_phase(times, 0.325, 2.0, 0.1, omega, 0.9)
        assert theta[0] == pytest.approx(theta[1], abs=1e-9)


class TestRelativePhaseModel:
    def test_zero_at_first_snapshot(self):
        times = np.linspace(0, 5, 40)
        c = relative_phase_model(times, 0.325, 0.1, 1.0, 0.4)
        assert c[0] == pytest.approx(0.0)

    def test_matches_theoretical_difference(self):
        times = np.linspace(0, 5, 40)
        phi = 1.1
        theta = theoretical_phase(times, 0.325, 2.0, 0.1, 1.0, phi)
        c = relative_phase_model(times, 0.325, 0.1, 1.0, phi)
        expected = np.mod(theta - theta[0], TWO_PI)
        assert np.allclose(np.mod(c, TWO_PI), expected, atol=1e-9)

    def test_broadcast_shape(self):
        times = np.linspace(0, 5, 40)
        grid = np.linspace(0, TWO_PI, 16, endpoint=False)
        c = relative_phase_model(times, 0.325, 0.1, 1.0, grid)
        assert c.shape == (16, 40)

    def test_2d_broadcast_shape(self):
        times = np.linspace(0, 5, 40)
        azimuths = np.linspace(0, TWO_PI, 8, endpoint=False)
        polars = np.linspace(-1.0, 1.0, 5)
        c = relative_phase_model(
            times, 0.325, 0.1, 1.0,
            azimuths[np.newaxis, :], polars[:, np.newaxis],
        )
        assert c.shape == (5, 8, 40)

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError):
            relative_phase_model(np.array([]), 0.325, 0.1, 1.0, 0.0)

    def test_polar_symmetry(self):
        """Horizontal-disk model cannot distinguish +gamma from -gamma."""
        times = np.linspace(0, 5, 40)
        up = relative_phase_model(times, 0.325, 0.1, 1.0, 0.4, 0.5)
        down = relative_phase_model(times, 0.325, 0.1, 1.0, 0.4, -0.5)
        assert np.allclose(up, down)


class TestCircularStats:
    def test_circular_mean_simple(self):
        assert circular_mean(np.array([0.1, -0.1])) == pytest.approx(0.0)

    def test_circular_mean_across_wrap(self):
        angles = np.array([np.pi - 0.1, -np.pi + 0.1])
        assert abs(circular_mean(angles)) == pytest.approx(np.pi, abs=1e-9)

    def test_circular_mean_empty_raises(self):
        with pytest.raises(ValueError):
            circular_mean(np.array([]))

    def test_circular_std_concentrated(self):
        rng = np.random.default_rng(0)
        angles = 0.05 * rng.standard_normal(20000)
        assert circular_std(angles) == pytest.approx(0.05, rel=0.05)

    def test_circular_std_uniform_is_large(self):
        rng = np.random.default_rng(1)
        angles = rng.uniform(-np.pi, np.pi, 5000)
        assert circular_std(angles) > 1.5


def test_phase_to_distance_error_paper_figure():
    """0.7 rad at lambda ~ 32.5 cm is ~1.8 cm (the paper rounds to ~2 cm
    from the doubled path; with their lambda/2 effective wavelength the
    quoted 0.9 cm appears — both follow from the same formula)."""
    error = phase_to_distance_error(0.7, 0.325)
    assert error == pytest.approx(0.0181, abs=2e-4)
