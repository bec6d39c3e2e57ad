"""Tests for repro.core.pipeline (series extraction and localization)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.geometry import Point2, Point3
from repro.core.pipeline import PipelineConfig
from repro.errors import InsufficientDataError, UnknownTagError
from repro.hardware.llrp import ReportBatch, TagReportData
from repro.sim.scenario import ScenarioConfig, TagspinScenario


def _report(epc, t_s, phase, antenna=1, channel=8):
    return TagReportData(
        epc=epc,
        antenna_port=antenna,
        channel_index=channel,
        reader_timestamp_us=int(t_s * 1e6),
        host_timestamp_us=int((t_s + 0.02) * 1e6),
        phase_rad=phase,
        rssi_dbm=-55.0,
    )


class TestSeriesExtraction:
    def test_extract_series_basic(self, calibrated_scenario_2d):
        scenario = calibrated_scenario_2d
        pose = Point3(0.3, 1.7, 0.0)
        batch, _reader = scenario.collect(pose)
        epc = scenario.scene.registry.epcs()[0]
        series_list = scenario.system.extract_series(batch, epc, 1)
        assert len(series_list) == 1  # fixed channel by default
        series = series_list[0]
        assert len(series) >= scenario.config.pipeline.min_snapshots
        assert np.all(np.diff(series.times) >= 0)

    def test_extract_unknown_tag(self, calibrated_scenario_2d):
        scenario = calibrated_scenario_2d
        pose = Point3(0.3, 1.7, 0.0)
        batch, _reader = scenario.collect(pose)
        with pytest.raises(UnknownTagError):
            scenario.system.extract_series(batch, "DEADBEEF", 1)

    def test_extract_requires_min_snapshots(self, calibrated_scenario_2d):
        scenario = calibrated_scenario_2d
        epc = scenario.scene.registry.epcs()[0]
        batch = ReportBatch([_report(epc, 0.1 * i, 0.5) for i in range(4)])
        with pytest.raises(InsufficientDataError):
            scenario.system.extract_series(batch, epc, 1)

    def test_extract_splits_channels(self, calibrated_scenario_2d):
        scenario = calibrated_scenario_2d
        epc = scenario.scene.registry.epcs()[0]
        reports = [
            _report(epc, 0.05 * i, 0.5, channel=(3 if i % 2 else 9))
            for i in range(60)
        ]
        series_list = scenario.system.extract_series(ReportBatch(reports), epc, 1)
        assert len(series_list) == 2
        assert series_list[0].wavelength != series_list[1].wavelength

    def test_antenna_filtering(self, calibrated_scenario_2d):
        scenario = calibrated_scenario_2d
        epc = scenario.scene.registry.epcs()[0]
        reports = [_report(epc, 0.05 * i, 0.5, antenna=2) for i in range(40)]
        with pytest.raises(InsufficientDataError):
            scenario.system.extract_series(ReportBatch(reports), epc, 1)


class TestLocalization2D:
    def test_locate_2d_accuracy(self, calibrated_scenario_2d):
        fix, error = calibrated_scenario_2d.locate_2d(Point2(0.5, 2.0))
        assert error.combined < 0.15

    def test_locate_2d_needs_two_tags(self, calibrated_scenario_2d):
        scenario = calibrated_scenario_2d
        pose = Point3(0.5, 2.0, 0.0)
        batch, _reader = scenario.collect(pose)
        epc = scenario.scene.registry.epcs()[0]
        only_one = batch.filter_epc(epc)
        with pytest.raises(InsufficientDataError):
            scenario.system.locate_2d(only_one, 1)

    def test_q_profile_pipeline_also_works(self):
        config = ScenarioConfig(
            pipeline=PipelineConfig(use_enhanced_profile=False), seed=21
        )
        scenario = TagspinScenario(config)
        fix, error = scenario.locate_2d(Point2(-0.4, 1.6))
        assert error.combined < 0.3

    def test_disk_spectra_diagnostics(self, calibrated_scenario_2d):
        scenario = calibrated_scenario_2d
        pose = Point3(0.2, 1.9, 0.0)
        batch, reader = scenario.collect(pose)
        diagnostics = scenario.system.disk_spectra_2d(batch, 1)
        assert len(diagnostics) == 2
        antenna = reader.antenna(1).position
        for diag in diagnostics:
            truth = diag.record.disk.center.azimuth_to(antenna)
            error = abs(
                np.angle(np.exp(1j * (diag.azimuth.peak_azimuth - truth)))
            )
            assert error < np.deg2rad(3.0)


class TestLocalization3D:
    def test_locate_3d_accuracy(self, calibrated_scenario_3d):
        fix, error = calibrated_scenario_3d.locate_3d(Point3(0.4, 1.9, 0.5))
        assert error.combined < 0.30
        assert error.z is not None

    def test_mirror_candidate_below_plane(self, calibrated_scenario_3d):
        fix, _error = calibrated_scenario_3d.locate_3d(Point3(0.4, 1.9, 0.5))
        plane_z = -0.095
        assert fix.mirror.z < plane_z < fix.position.z


class TestHostTimeAblation:
    def test_host_time_degrades_accuracy(self):
        """The paper's reason to use reader timestamps: network latency
        jitter corrupts the time base of the SAR correlation."""
        pose = Point2(0.4, 1.8)
        reader_time = TagspinScenario(ScenarioConfig(seed=31))
        fix_r, error_r = reader_time.locate_2d(pose)
        host_time = TagspinScenario(
            ScenarioConfig(
                pipeline=PipelineConfig(use_host_time=True), seed=31
            )
        )
        fix_h, error_h = host_time.locate_2d(pose)
        assert error_h.combined > error_r.combined


class TestVerticalDiskInPipeline:
    def test_vertical_third_disk_resolves_sign_without_prior(self):
        """A registry containing a vertically spinning third tag lets the
        pipeline pick the correct mirror candidate even when the height
        prior is uninformative and the preferred sign is wrong."""
        from repro.hardware.reader import SpinningTagUnit
        from repro.hardware.rotator import vertical_disk
        from repro.hardware.tags import make_tag
        from repro.server.registry import SpinningTagRecord

        config = ScenarioConfig(
            deployment=__import__(
                "repro.sim.scene", fromlist=["DeploymentSpec"]
            ).DeploymentSpec(
                disk_centers=(
                    Point3(-0.25, 0.0, 0.0),
                    Point3(0.25, 0.0, 0.0),
                )
            ),
            pipeline=PipelineConfig(
                orientation_calibration=False, prefer_sign=1
            ),
            seed=151,
        )
        scenario = TagspinScenario(config)
        disk = vertical_disk(Point3(0.0, 0.35, 0.0), 0.10, 1.0)
        tag = make_tag(rng=scenario.rng)
        scenario.scene.registry.register(
            SpinningTagRecord(epc=tag.epc, disk=disk)
        )
        scenario.scene.spinning_units.append(
            SpinningTagUnit(disk=disk, tag=tag)
        )

        truth = Point3(0.4, 1.5, -0.9)  # well below the disk plane
        fix, error = scenario.locate_3d(truth)
        # prefer_sign=+1 would have picked the +z mirror; the vertical disk
        # must override it.
        assert fix.position.z < -0.3
        assert error.combined < 0.4
