"""Tests for repro.server.health (deployment monitoring)."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

import pytest

from repro.core.geometry import Point3
from repro.fleet.worker import DeploymentSpec
from repro.server.health import (
    ISSUE_LOW_READ_RATE,
    ISSUE_NOT_SEEN,
    ISSUE_POOR_COVERAGE,
    ISSUE_WEAK_PEAK,
    DeploymentMonitor,
    HealthReport,
    format_health_table,
)
from repro.server.registry import SpinningTagRecord, TagRegistry

#: On another engine, peak powers must agree with the reference engine's
#: this closely (the adaptive engines refine the peak to an angular
#: tolerance instead of reading it off the dense grid).
PEAK_POWER_TOLERANCE = 1e-3


@pytest.fixture(scope="module")
def healthy_batch(calibrated_scenario_2d):
    batch, _reader = calibrated_scenario_2d.collect(Point3(0.4, 1.9, 0.0))
    return batch


def assert_same_verdict(got: HealthReport, want: HealthReport) -> None:
    assert got.epc == want.epc
    assert got.issues == want.issues
    if want.peak_power is None:
        assert got.peak_power is None
    else:
        assert got.peak_power == pytest.approx(
            want.peak_power, abs=PEAK_POWER_TOLERANCE
        )


class MonitorCases:
    """Runs each case's monitor on ``engine``.

    Off the reference engine every check is also run on a reference
    monitor, and verdicts and peak powers must match it.
    """

    #: The monitor's engine (``None``: the reference engine).
    engine = None

    def monitor(self, registry) -> DeploymentMonitor:
        return DeploymentMonitor(registry, engine=self.engine)

    def check_tag(self, registry, batch, epc) -> HealthReport:
        report = self.monitor(registry).check_tag(batch, epc)
        if self.engine is not None:
            assert_same_verdict(
                report, DeploymentMonitor(registry).check_tag(batch, epc)
            )
        return report

    def check_all(self, registry, batch) -> Dict[str, HealthReport]:
        reports = self.monitor(registry).check_all(batch)
        if self.engine is not None:
            reference = DeploymentMonitor(registry).check_all(batch)
            assert reports.keys() == reference.keys()
            for epc, report in reports.items():
                assert_same_verdict(report, reference[epc])
        return reports


class TestHealthyDeployment(MonitorCases):
    def test_all_healthy(self, calibrated_scenario_2d, healthy_batch):
        reports = self.check_all(
            calibrated_scenario_2d.scene.registry, healthy_batch
        )
        assert len(reports) == 2
        for report in reports.values():
            assert report.healthy, report.issues
            assert report.read_rate_hz > 10.0
            assert report.rotation_coverage > 0.8
            assert report.peak_power is not None
            assert report.peak_power > 0.4

    def test_unhealthy_list_empty(self, calibrated_scenario_2d, healthy_batch):
        monitor = self.monitor(calibrated_scenario_2d.scene.registry)
        assert monitor.unhealthy(healthy_batch) == []


class TestFailureDetection(MonitorCases):
    def test_unseen_tag_flagged(self, calibrated_scenario_2d, healthy_batch):
        registry = calibrated_scenario_2d.scene.registry
        epc = registry.epcs()[0]
        stripped = healthy_batch.filter_epc(registry.epcs()[1])
        report = self.check_tag(registry, stripped, epc)
        assert ISSUE_NOT_SEEN in report.issues

    def test_stale_registry_speed_weakens_peak(
        self, calibrated_scenario_2d, healthy_batch
    ):
        """A wrong angular speed in the registry collapses the spectrum
        peak: the monitor should notice the model mismatch."""
        true_registry = calibrated_scenario_2d.scene.registry
        stale = TagRegistry()
        for record in true_registry:
            wrong_disk = replace(
                record.disk, angular_speed=record.disk.angular_speed * 1.5
            )
            stale.register(
                SpinningTagRecord(
                    epc=record.epc,
                    disk=wrong_disk,
                    model_key=record.model_key,
                    orientation_profile=record.orientation_profile,
                )
            )
        for report in self.check_all(stale, healthy_batch).values():
            assert ISSUE_WEAK_PEAK in report.issues

    def test_sparse_reads_flag_rate(self, calibrated_scenario_2d, healthy_batch):
        registry = calibrated_scenario_2d.scene.registry
        epc = registry.epcs()[0]
        from repro.hardware.llrp import ReportBatch

        tag_reports = [r for r in healthy_batch.reports if r.epc == epc]
        sparse = ReportBatch(tag_reports[::12])
        report = self.check_tag(registry, sparse, epc)
        assert ISSUE_LOW_READ_RATE in report.issues

    def test_stalled_disk_flags_coverage(
        self, calibrated_scenario_2d, healthy_batch
    ):
        """Keep only reads from a small slice of the rotation — what a
        stalled disk produces."""
        registry = calibrated_scenario_2d.scene.registry
        epc = registry.epcs()[0]
        record = registry.get(epc)
        from repro.hardware.llrp import ReportBatch

        period = record.disk.period
        slice_reports = [
            r
            for r in healthy_batch.reports
            if r.epc == epc and (r.reader_time_s % period) < 0.15 * period
        ]
        report = self.check_tag(registry, ReportBatch(slice_reports), epc)
        assert ISSUE_POOR_COVERAGE in report.issues


class TestHealthyDeploymentOnServingEngine(TestHealthyDeployment):
    """The healthy cases on the engine servers share with their monitor."""

    engine = DeploymentSpec.engine


class TestFailureDetectionOnServingEngine(TestFailureDetection):
    """The failure cases on the engine servers share with their monitor."""

    engine = DeploymentSpec.engine


def test_format_health_table(calibrated_scenario_2d, healthy_batch):
    monitor = DeploymentMonitor(calibrated_scenario_2d.scene.registry)
    table = format_health_table(list(monitor.check_all(healthy_batch).values()))
    assert "rate_hz" in table
    assert "ok" in table
