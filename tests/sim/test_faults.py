"""Tests for repro.sim.faults: graceful degradation and detection."""

from __future__ import annotations

import pytest

from repro.core.geometry import Point3
from repro.errors import ConfigurationError, InsufficientDataError
from repro.server.health import (
    ISSUE_NOT_SEEN,
    ISSUE_POOR_COVERAGE,
    DeploymentMonitor,
)
from repro.sim.faults import (
    bias_timestamps,
    chain,
    drop_reads,
    jam_window,
    silence_tag,
    stall_disk,
)

POSE = Point3(0.4, 1.9, 0.0)


@pytest.fixture(scope="module")
def collection(calibrated_scenario_2d):
    batch, reader = calibrated_scenario_2d.collect(POSE)
    return calibrated_scenario_2d, batch, reader


class TestTransforms:
    def test_drop_reads_fraction(self, collection, rng):
        _scenario, batch, _reader = collection
        thinned = drop_reads(batch, 0.5, rng)
        assert 0.35 * len(batch) < len(thinned) < 0.65 * len(batch)

    def test_drop_reads_single_tag(self, collection, rng):
        scenario, batch, _reader = collection
        epc = scenario.scene.registry.epcs()[0]
        thinned = drop_reads(batch, 1.0, rng, epc=epc)
        assert all(r.epc != epc for r in thinned.reports)

    def test_drop_reads_invalid_fraction(self, collection, rng):
        _scenario, batch, _reader = collection
        with pytest.raises(ConfigurationError):
            drop_reads(batch, 1.5, rng)

    def test_silence_tag(self, collection):
        scenario, batch, _reader = collection
        epc = scenario.scene.registry.epcs()[1]
        silenced = silence_tag(batch, epc)
        assert epc not in silenced.epcs()

    def test_jam_window_randomizes_phases(self, collection, rng):
        _scenario, batch, _reader = collection
        jammed = jam_window(batch, 0.0, 3.0, rng)
        changed = sum(
            1
            for a, b in zip(batch.reports, jammed.reports)
            if a.phase_rad != b.phase_rad
        )
        in_window = sum(1 for r in batch.reports if r.reader_time_s <= 3.0)
        assert changed >= 0.95 * in_window

    def test_jam_window_validation(self, collection, rng):
        _scenario, batch, _reader = collection
        with pytest.raises(ConfigurationError):
            jam_window(batch, 2.0, 1.0, rng)

    def test_chain_composes(self, collection, rng):
        scenario, batch, _reader = collection
        epc = scenario.scene.registry.epcs()[0]
        result = chain(
            batch,
            lambda b: drop_reads(b, 0.2, rng),
            lambda b: silence_tag(b, epc),
        )
        assert epc not in result.epcs()
        assert len(result) < len(batch)


class TestGracefulDegradation:
    def test_moderate_loss_still_accurate(self, collection, rng):
        scenario, batch, reader = collection
        thinned = drop_reads(batch, 0.5, rng)
        fix = scenario.system.locate_2d(thinned, 1)
        truth = reader.antenna(1).position.horizontal()
        assert fix.position.distance_to(truth) < 0.15

    def test_silenced_tag_raises(self, collection):
        scenario, batch, _reader = collection
        epc = scenario.scene.registry.epcs()[0]
        with pytest.raises(InsufficientDataError):
            scenario.system.locate_2d(silence_tag(batch, epc), 1)

    def test_short_jam_survivable(self, collection, rng):
        """An EMI burst covering a fraction of the capture shifts the fix
        but R's likelihood weighting keeps it bounded."""
        scenario, batch, reader = collection
        jammed = jam_window(batch, 1.0, 2.5, rng)
        fix = scenario.system.locate_2d(jammed, 1)
        truth = reader.antenna(1).position.horizontal()
        assert fix.position.distance_to(truth) < 0.35

    def test_clock_drift_degrades(self, collection):
        """Uncorrected reader-clock drift rotates the disk-angle model and
        biases the bearings measurably."""
        scenario, batch, reader = collection
        truth = reader.antenna(1).position.horizontal()
        clean_error = scenario.system.locate_2d(batch, 1).position.distance_to(
            truth
        )
        drifted = bias_timestamps(batch, drift_ppm=3000.0)
        drift_error = scenario.system.locate_2d(drifted, 1).position.distance_to(
            truth
        )
        assert drift_error > clean_error


class TestMonitorDetection:
    def test_stalled_disk_detected(self, collection):
        scenario, batch, _reader = collection
        epc = scenario.scene.registry.epcs()[0]
        disk = scenario.scene.registry.get(epc).disk
        stalled = stall_disk(batch, disk, epc)
        monitor = DeploymentMonitor(scenario.scene.registry)
        report = monitor.check_tag(stalled, epc)
        assert ISSUE_POOR_COVERAGE in report.issues

    def test_silenced_tag_detected(self, collection):
        scenario, batch, _reader = collection
        epc = scenario.scene.registry.epcs()[1]
        monitor = DeploymentMonitor(scenario.scene.registry)
        report = monitor.check_tag(silence_tag(batch, epc), epc)
        assert report.issues == (ISSUE_NOT_SEEN,)
