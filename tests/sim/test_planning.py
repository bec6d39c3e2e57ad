"""Tests for repro.sim.planning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point2
from repro.errors import ConfigurationError
from repro.sim.planning import (
    PlannedDisk,
    accuracy_map,
    bearing_error_std,
    position_covariance,
    predicted_rmse,
    recommend_center_distance,
)

DEFAULT_DISKS = [
    PlannedDisk(Point2(-0.25, 0.0)),
    PlannedDisk(Point2(0.25, 0.0)),
]


class TestBearingError:
    def test_scales_inverse_radius(self):
        small = bearing_error_std(0.05, 200)
        large = bearing_error_std(0.20, 200)
        assert small == pytest.approx(4.0 * large, rel=1e-9)

    def test_scales_inverse_sqrt_snapshots(self):
        few = bearing_error_std(0.10, 100)
        many = bearing_error_std(0.10, 400)
        assert few == pytest.approx(2.0 * many, rel=1e-9)

    def test_sub_degree_at_defaults(self):
        sigma = bearing_error_std(0.10, 250)
        assert sigma < np.deg2rad(0.3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bearing_error_std(0.0, 100)
        with pytest.raises(ValueError):
            bearing_error_std(0.1, 1)


class TestPositionCovariance:
    def test_error_grows_with_distance(self):
        sigma = [0.002, 0.002]
        near = position_covariance(Point2(0.0, 1.0), DEFAULT_DISKS, sigma)
        far = position_covariance(Point2(0.0, 3.0), DEFAULT_DISKS, sigma)
        assert np.trace(far) > np.trace(near)

    def test_symmetric_positive_definite(self):
        cov = position_covariance(
            Point2(0.5, 1.5), DEFAULT_DISKS, [0.002, 0.002]
        )
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_degenerate_geometry_rejected(self):
        collinear = [
            PlannedDisk(Point2(-0.25, 0.0)),
            PlannedDisk(Point2(0.25, 0.0)),
        ]
        # Target on the line through both disk centers -> parallel bearings.
        with pytest.raises(ConfigurationError):
            position_covariance(Point2(5.0, 0.0), collinear, [0.002, 0.002])

    def test_third_disk_reduces_error(self):
        target = Point2(0.3, 2.0)
        sigma2 = [0.002, 0.002]
        sigma3 = [0.002, 0.002, 0.002]
        three = DEFAULT_DISKS + [PlannedDisk(Point2(0.0, 0.5))]
        cov2 = position_covariance(target, DEFAULT_DISKS, sigma2)
        cov3 = position_covariance(target, three, sigma3)
        assert np.trace(cov3) < np.trace(cov2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            position_covariance(Point2(0, 1), DEFAULT_DISKS[:1], [0.002])
        with pytest.raises(ValueError):
            position_covariance(Point2(0, 1), DEFAULT_DISKS, [0.002, -1.0])


class TestPredictedRmse:
    def test_centimeter_scale_at_defaults(self):
        rmse = predicted_rmse(Point2(0.4, 1.9), DEFAULT_DISKS)
        assert 0.001 < rmse < 0.10

    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=1.0, max_value=3.0),
    )
    @settings(max_examples=25)
    def test_finite_and_positive_off_axis(self, x, y):
        rmse = predicted_rmse(Point2(x, y), DEFAULT_DISKS)
        assert np.isfinite(rmse) and rmse > 0

    def test_matches_simulator_order_of_magnitude(
        self, calibrated_scenario_2d
    ):
        """The a-priori prediction should land within ~4x of the simulated
        error (it ignores orientation residuals and model error)."""
        target = Point2(0.4, 1.9)
        _fix, error = calibrated_scenario_2d.locate_2d(target)
        predicted = predicted_rmse(target, DEFAULT_DISKS)
        assert error.combined < 6.0 * max(predicted, 0.005) + 0.05


class TestAccuracyMap:
    def test_map_shape_and_nan_near_disks(self):
        grid = accuracy_map(
            DEFAULT_DISKS, (-1.0, 1.0), (-0.5, 2.0), resolution=0.25
        )
        assert grid.rmse.shape == (len(grid.ys), len(grid.xs))
        assert np.isnan(grid.at(Point2(-0.25, 0.0)))  # on a disk
        assert np.isfinite(grid.at(Point2(0.0, 1.5)))

    def test_coverage_fraction_monotone(self):
        grid = accuracy_map(
            DEFAULT_DISKS, (-1.5, 1.5), (0.8, 2.5), resolution=0.25
        )
        assert grid.coverage_fraction(0.5) >= grid.coverage_fraction(0.05)
        assert 0.0 <= grid.coverage_fraction(0.02) <= 1.0


class TestRecommendation:
    def test_wider_baseline_wins_at_depth(self):
        best, rmse = recommend_center_distance(
            Point2(0.0, 2.0), [0.2, 0.4, 0.6, 0.8]
        )
        assert best == pytest.approx(0.8)
        assert rmse > 0

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            recommend_center_distance(Point2(0, 2), [])
