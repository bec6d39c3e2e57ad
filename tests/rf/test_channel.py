"""Tests for repro.rf.channel."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.geometry import Point3
from repro.hardware.tags import make_tag
from repro.rf.antenna import AntennaPort, PanelAntenna
from repro.rf.channel import BackscatterChannel
from repro.rf.multipath import centered_room
from repro.rf.noise import NOISELESS


@pytest.fixture
def antenna() -> AntennaPort:
    return AntennaPort(
        port_id=1,
        position=Point3(0.0, 2.0, 0.0),
        pattern=PanelAntenna(boresight_azimuth=-math.pi / 2),
        diversity_rad=1.0,
    )


@pytest.fixture
def tag(rng):
    return make_tag("squiggle", rng)


def _observe(channel, antenna, tag, rng, positions=None, n=50):
    if positions is None:
        positions = np.tile([0.0, 0.0, 0.0], (n, 1))
    orientations = np.full(positions.shape[0], np.pi / 2)
    wavelengths = np.full(positions.shape[0], 0.325)
    return channel.observe(antenna, tag, positions, orientations, wavelengths, rng)


class TestObserve:
    def test_phase_matches_geometry(self, antenna, tag, rng):
        channel = BackscatterChannel(
            noise=NOISELESS, include_orientation_effect=False
        )
        snapshot = _observe(channel, antenna, tag, rng, n=5)
        expected = np.mod(
            4 * np.pi * 2.0 / 0.325
            + channel.link_diversity(antenna, tag),
            2 * np.pi,
        )
        assert np.allclose(snapshot.measured_phases_rad, expected, atol=1e-9)

    def test_orientation_effect_injected(self, antenna, tag, rng):
        base = BackscatterChannel(noise=NOISELESS, include_orientation_effect=False)
        with_orientation = BackscatterChannel(noise=NOISELESS)
        positions = np.tile([0.0, 0.0, 0.0], (3, 1))
        orientations = np.array([0.3, 1.1, 2.0])
        wavelengths = np.full(3, 0.325)
        a = base.observe(antenna, tag, positions, orientations, wavelengths, rng)
        b = with_orientation.observe(
            antenna, tag, positions, orientations, wavelengths, rng
        )
        offsets = np.asarray(tag.orientation_truth.offset(orientations))
        measured_offsets = np.mod(
            b.measured_phases_rad - a.measured_phases_rad, 2 * np.pi
        )
        assert np.allclose(
            np.angle(np.exp(1j * (measured_offsets - offsets))), 0.0, atol=1e-9
        )

    def test_diversity_sum_mod_2pi(self, antenna, tag):
        channel = BackscatterChannel()
        expected = math.fmod(
            antenna.diversity_rad + tag.diversity_rad, 2 * math.pi
        )
        assert channel.link_diversity(antenna, tag) == pytest.approx(expected)

    def test_rssi_decreases_with_distance(self, antenna, tag, rng):
        channel = BackscatterChannel(noise=NOISELESS)
        near = _observe(
            channel, antenna, tag, rng,
            positions=np.tile([0.0, 1.0, 0.0], (5, 1)),
        )
        far = _observe(
            channel, antenna, tag, rng,
            positions=np.tile([0.0, -2.0, 0.0], (5, 1)),
        )
        assert np.mean(near.rssi_dbm) > np.mean(far.rssi_dbm)

    def test_energized_flag(self, antenna, tag, rng):
        channel = BackscatterChannel(noise=NOISELESS)
        snapshot = _observe(channel, antenna, tag, rng, n=3)
        assert np.all(snapshot.energized)

    def test_shape_validation(self, antenna, tag, rng):
        channel = BackscatterChannel()
        with pytest.raises(ValueError):
            channel.observe(
                antenna, tag, np.zeros((3, 2)), np.zeros(3), np.full(3, 0.3), rng
            )
        with pytest.raises(ValueError):
            channel.observe(
                antenna, tag, np.zeros((3, 3)), np.zeros(4), np.full(3, 0.3), rng
            )

    def test_multipath_changes_phase(self, antenna, tag, rng):
        clean = BackscatterChannel(noise=NOISELESS)
        multipath = BackscatterChannel(
            noise=NOISELESS, room=centered_room(9.0, 6.0)
        )
        a = _observe(clean, antenna, tag, rng, n=3)
        b = _observe(multipath, antenna, tag, rng, n=3)
        assert not np.allclose(a.measured_phases_rad, b.measured_phases_rad)


class TestReadProbability:
    def test_zero_when_unpowered(self, antenna, tag):
        channel = BackscatterChannel()
        probability = channel.read_probability(
            antenna, tag, Point3(0.0, -80.0, 0.0), np.pi / 2, 0.325
        )
        assert probability == 0.0

    def test_orientation_modulates(self, antenna, tag):
        channel = BackscatterChannel()
        facing = channel.read_probability(
            antenna, tag, Point3(0.0, 0.0, 0.0), np.pi / 2, 0.325
        )
        edge_on = channel.read_probability(
            antenna, tag, Point3(0.0, 0.0, 0.0), 0.0, 0.325
        )
        assert facing > edge_on > 0.0

    def test_probability_bounded(self, antenna, tag):
        channel = BackscatterChannel()
        for rho in np.linspace(0, 2 * np.pi, 16):
            p = channel.read_probability(
                antenna, tag, Point3(0.0, 0.0, 0.0), rho, 0.325
            )
            assert 0.0 <= p <= 1.0
