"""Tests for repro.core.locator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.geometry import Point2, Point3
from repro.core.locator import (
    TagspinLocator2D,
    TagspinLocator3D,
    spectra_to_bearings,
)
from repro.core.spectrum import AngleSpectrum, JointSpectrum
from repro.errors import AmbiguityError


def _azimuth_spectrum(peak: float, power: float = 0.9) -> AngleSpectrum:
    grid = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    values = np.exp(-0.5 * ((np.angle(np.exp(1j * (grid - peak)))) / 0.05) ** 2)
    return AngleSpectrum(grid, power * values, peak, power)


def _joint_spectrum(peak_azimuth: float, peak_polar: float) -> JointSpectrum:
    azimuths = np.linspace(0, 2 * np.pi, 90, endpoint=False)
    polars = np.linspace(-np.pi / 2, np.pi / 2, 45)
    power = np.zeros((45, 90))
    return JointSpectrum(azimuths, polars, power, peak_azimuth, peak_polar, 0.8)


class TestLocator2D:
    def test_exact_bearings(self):
        target = Point2(0.4, 1.9)
        centers = [Point2(-0.25, 0.0), Point2(0.25, 0.0)]
        spectra = [_azimuth_spectrum(c.bearing_to(target)) for c in centers]
        fix = TagspinLocator2D().locate(centers, spectra)
        assert fix.position.distance_to(target) < 1e-6
        assert fix.residual < 1e-6
        assert 0 < fix.confidence <= 1.0

    def test_three_disks(self):
        target = Point2(-0.8, 2.4)
        centers = [Point2(-0.5, 0.0), Point2(0.5, 0.0), Point2(0.0, 0.6)]
        spectra = [_azimuth_spectrum(c.bearing_to(target)) for c in centers]
        fix = TagspinLocator2D().locate(centers, spectra)
        assert fix.position.distance_to(target) < 1e-6

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TagspinLocator2D().locate([Point2(0, 0)], [])

    def test_single_disk_rejected(self):
        with pytest.raises(ValueError):
            TagspinLocator2D().locate(
                [Point2(0, 0)], [_azimuth_spectrum(1.0)]
            )

    def test_parallel_bearings_raise(self):
        centers = [Point2(0.0, 0.0), Point2(0.0, 1.0)]
        spectra = [_azimuth_spectrum(0.5), _azimuth_spectrum(0.5)]
        with pytest.raises(AmbiguityError):
            TagspinLocator2D().locate(centers, spectra)

    def test_confidence_is_geometric_mean(self):
        target = Point2(0.2, 1.5)
        centers = [Point2(-0.25, 0.0), Point2(0.25, 0.0)]
        spectra = [
            _azimuth_spectrum(centers[0].bearing_to(target), power=0.4),
            _azimuth_spectrum(centers[1].bearing_to(target), power=0.9),
        ]
        fix = TagspinLocator2D().locate(centers, spectra)
        assert fix.confidence == pytest.approx(np.sqrt(0.4 * 0.9))


class TestLocator3D:
    def _exact_spectra(self, target: Point3, centers):
        return [
            _joint_spectrum(c.azimuth_to(target), c.polar_to(target))
            for c in centers
        ]

    def test_exact_recovery_positive_z(self):
        target = Point3(0.3, 1.8, 0.7)
        centers = [Point3(-0.25, 0, 0), Point3(0.25, 0, 0)]
        fix = TagspinLocator3D().locate(centers, self._exact_spectra(target, centers))
        assert fix.position.distance_to(target) < 1e-6

    def test_mirror_candidate_reported(self):
        target = Point3(0.3, 1.8, 0.7)
        centers = [Point3(-0.25, 0, 0), Point3(0.25, 0, 0)]
        fix = TagspinLocator3D().locate(centers, self._exact_spectra(target, centers))
        assert fix.mirror.z == pytest.approx(-0.7, abs=1e-6)
        assert len(fix.candidates) == 2

    def test_prior_selects_negative(self):
        target = Point3(0.3, 1.8, -0.5)
        centers = [Point3(-0.25, 0, 0), Point3(0.25, 0, 0)]
        locator = TagspinLocator3D(z_min=-1.0, z_max=0.0)
        fix = locator.locate(centers, self._exact_spectra(target, centers))
        assert fix.position.z == pytest.approx(-0.5, abs=1e-6)

    def test_prior_excludes_both_raises(self):
        target = Point3(0.3, 1.8, 0.7)
        centers = [Point3(-0.25, 0, 0), Point3(0.25, 0, 0)]
        locator = TagspinLocator3D(z_min=5.0, z_max=6.0)
        with pytest.raises(AmbiguityError):
            locator.locate(centers, self._exact_spectra(target, centers))

    def test_prefer_sign_negative(self):
        target = Point3(0.3, 1.8, 0.6)
        centers = [Point3(-0.25, 0, 0), Point3(0.25, 0, 0)]
        locator = TagspinLocator3D(prefer_sign=-1)
        fix = locator.locate(centers, self._exact_spectra(target, centers))
        assert fix.position.z == pytest.approx(-0.6, abs=1e-6)

    def test_disk_plane_offset_respected(self):
        """Disks below z=0 (the paper's -9.5 cm desk offset)."""
        plane_z = -0.095
        target = Point3(0.0, 2.0, 0.4)
        centers = [Point3(-0.25, 0, plane_z), Point3(0.25, 0, plane_z)]
        fix = TagspinLocator3D(z_min=plane_z).locate(
            centers, self._exact_spectra(target, centers)
        )
        assert fix.position.z == pytest.approx(0.4, abs=1e-6)

    def test_invalid_prior_rejected(self):
        with pytest.raises(ValueError):
            TagspinLocator3D(z_min=1.0, z_max=0.0)

    def test_invalid_prefer_sign(self):
        with pytest.raises(ValueError):
            TagspinLocator3D(prefer_sign=0)


def test_spectra_to_bearings():
    centers = [Point2(0, 0), Point2(1, 0)]
    spectra = [_azimuth_spectrum(0.2), _azimuth_spectrum(1.4)]
    bearings = spectra_to_bearings(centers, spectra)
    assert bearings[0].azimuth == pytest.approx(0.2)
    assert bearings[1].origin == Point2(1, 0)
    with pytest.raises(ValueError):
        spectra_to_bearings(centers, spectra[:1])
