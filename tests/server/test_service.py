"""Tests for repro.server.service (the central localization server)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.geometry import Point3
from repro.errors import ConfigurationError, InsufficientDataError
from repro.hardware.llrp import TagReportData
from repro.server.service import LocalizationServer


def _report(i: int, port: int = 1) -> TagReportData:
    return TagReportData(
        epc="E2-CAP-1",
        antenna_port=port,
        channel_index=3,
        reader_timestamp_us=1_000 * i,
        host_timestamp_us=1_000 * i + 40,
        phase_rad=0.5,
        rssi_dbm=-60.0,
    )


@pytest.fixture(scope="module")
def served(calibrated_scenario_2d):
    """A server fed with one reader's stream, plus the ground truth."""
    scenario = calibrated_scenario_2d
    pose = Point3(0.5, 1.9, 0.0)
    batch, reader = scenario.collect(pose)
    server = LocalizationServer(
        scenario.scene.registry, scenario.config.pipeline
    )
    server.ingest("reader-1", batch.reports)
    return server, reader


class TestIngestion:
    def test_ingest_counts(self, served):
        server, _reader = served
        assert server.stream_report_count("reader-1", 1) > 100

    def test_streams_listing(self, served):
        server, _reader = served
        assert ("reader-1", 1) in server.streams()

    def test_buffer_cap(self, calibrated_scenario_2d):
        scenario = calibrated_scenario_2d
        pose = Point3(0.5, 1.9, 0.0)
        batch, _reader = scenario.collect(pose)
        server = LocalizationServer(scenario.scene.registry, max_buffer=50)
        server.ingest("r", batch.reports)
        assert server.stream_report_count("r", 1) == 50
        assert server.batch_for("r", 1).reports == batch.reports[-50:]
        # Across several calls that each cross the cap, on two ports:
        # every stream keeps its newest 50 reports, in arrival order.
        two_ports = [
            replace(report, antenna_port=1 + i % 2)
            for i, report in enumerate(batch.reports)
        ]
        server = LocalizationServer(scenario.scene.registry, max_buffer=50)
        for start in range(0, len(two_ports), 37):
            server.ingest("r", two_ports[start : start + 37])
        for port in (1, 2):
            newest = [r for r in two_ports if r.antenna_port == port][-50:]
            assert server.batch_for("r", port).reports == newest

    def test_buffer_cap_holds_when_a_batch_raises(self, calibrated_scenario_2d):
        """A negative port mid-batch raises; the reports before it stay
        buffered, trimmed to the cap like any other call."""
        server = LocalizationServer(
            calibrated_scenario_2d.scene.registry, max_buffer=5
        )
        reports = [_report(i) for i in range(10)]
        server.ingest("r", reports[:3])
        with pytest.raises(ConfigurationError):
            server.ingest(
                "r", reports[3:8] + [_report(99, port=-1)] + reports[8:]
            )
        assert server.batch_for("r", 1).reports == reports[3:8]

    def test_invalid_buffer(self, calibrated_scenario_2d):
        with pytest.raises(ValueError):
            LocalizationServer(
                calibrated_scenario_2d.scene.registry, max_buffer=0
            )


class TestIngestValidation:
    """Junk stream keys are configuration errors, not quarantined data."""

    @pytest.fixture()
    def server(self, calibrated_scenario_2d):
        return LocalizationServer(calibrated_scenario_2d.scene.registry)

    def _report(self, antenna_port=1):
        from repro.hardware.llrp import TagReportData

        return TagReportData(
            epc="E2-TEST",
            antenna_port=antenna_port,
            channel_index=0,
            reader_timestamp_us=1_000,
            host_timestamp_us=1_000,
            phase_rad=1.0,
            rssi_dbm=-60.0,
        )

    def test_empty_reader_name_rejected(self, server):
        with pytest.raises(ConfigurationError, match="reader_name"):
            server.ingest("", [self._report()])

    def test_whitespace_reader_name_rejected(self, server):
        with pytest.raises(ConfigurationError, match="'   '"):
            server.ingest("   ", [self._report()])

    def test_empty_reader_name_rejected_even_without_reports(self, server):
        """The junk key is wrong regardless of payload."""
        with pytest.raises(ConfigurationError):
            server.ingest("", [])

    def test_negative_antenna_port_rejected_with_value(self, server):
        with pytest.raises(ConfigurationError, match="-3"):
            server.ingest("reader-1", [self._report(antenna_port=-3)])
        assert server.streams() == []  # no junk bucket left behind

    def test_resilient_server_rejects_before_creating_validators(
        self, calibrated_scenario_2d
    ):
        from repro.server.resilience import ResilientLocalizationServer

        server = ResilientLocalizationServer(
            calibrated_scenario_2d.scene.registry
        )
        with pytest.raises(ConfigurationError, match="-1"):
            server.ingest("reader-1", [self._report(antenna_port=-1)])
        assert server.quarantine_stats("reader-1", -1).received == 0
        with pytest.raises(ConfigurationError, match="reader_name"):
            server.ingest("", [self._report()])


class TestQueries:
    def test_locate_antenna_2d(self, served):
        server, reader = served
        fix = server.locate_antenna_2d("reader-1", 1)
        truth = reader.antenna(1).position.horizontal()
        assert fix.position.distance_to(truth) < 0.15

    def test_locate_unknown_stream(self, served):
        server, _reader = served
        with pytest.raises(InsufficientDataError):
            server.locate_antenna_2d("ghost-reader", 1)

    def test_locate_all_2d(self, served):
        server, reader = served
        fixes = server.locate_all_2d("reader-1")
        assert set(fixes) == {1}
        truth = reader.antenna(1).position.horizontal()
        assert fixes[1].position.distance_to(truth) < 0.15

    def test_clear(self, calibrated_scenario_2d):
        scenario = calibrated_scenario_2d
        pose = Point3(0.5, 1.9, 0.0)
        batch, _reader = scenario.collect(pose)
        server = LocalizationServer(scenario.scene.registry)
        server.ingest("r", batch.reports)
        server.clear("r")
        assert server.streams() == []

    def test_multi_antenna_streams(self, calibrated_scenario_2d):
        scenario = calibrated_scenario_2d
        pose = Point3(0.2, 1.7, 0.0)
        batch, reader = scenario.collect(pose, num_antennas=2)
        server = LocalizationServer(
            scenario.scene.registry, scenario.config.pipeline
        )
        server.ingest("r", batch.reports)
        fixes = server.locate_all_2d("r")
        assert set(fixes) == {1, 2}
        for port, fix in fixes.items():
            truth = reader.antenna(port).position.horizontal()
            assert fix.position.distance_to(truth) < 0.2
