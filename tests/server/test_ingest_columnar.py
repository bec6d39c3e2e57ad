"""Differential tests: ResilientLocalizationServer.ingest_columnar.

``ingest`` and ``ingest_columnar`` share one screen-and-buffer loop and
differ only in how they split a batch by antenna port; these tests
check the columnar adapter — the per-port split and its all-or-nothing
stream-key check — leaves buffers, stats and fixes as object ingest
does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.geometry import Point3
from repro.errors import ConfigurationError
from repro.hardware.llrp_columnar import ColumnarReportBatch
from repro.server.resilience import ResilientLocalizationServer
from repro.sim import faults

POSE = Point3(0.35, -0.85, 0.0)


@pytest.fixture(scope="module")
def collected(calibrated_scenario_2d):
    batch, _reader = calibrated_scenario_2d.collect(POSE)
    rng = np.random.default_rng(5)
    batch = faults.duplicate_reports(batch, 0.15, rng)
    batch = faults.pi_slips(batch, 0.1, rng)
    return calibrated_scenario_2d, batch


def _servers(scenario):
    return (
        ResilientLocalizationServer(
            scenario.scene.registry, scenario.config.pipeline
        ),
        ResilientLocalizationServer(
            scenario.scene.registry, scenario.config.pipeline
        ),
    )


class TestIngestColumnar:
    def test_streams_and_stats_match_object_path(self, collected):
        scenario, batch = collected
        object_server, columnar_server = _servers(scenario)
        object_count = object_server.ingest("r", batch.reports)
        columnar_count = columnar_server.ingest_columnar(
            "r", ColumnarReportBatch.from_reports(batch.reports)
        )
        assert columnar_count == object_count
        assert columnar_server.streams() == object_server.streams()
        for key in object_server.streams():
            assert (
                columnar_server.snapshot_streams()[key]
                == object_server.snapshot_streams()[key]
            )
            assert (
                columnar_server.quarantine_stats(*key).as_dict()
                == object_server.quarantine_stats(*key).as_dict()
            )

    def test_fix_matches_object_path(self, collected):
        scenario, batch = collected
        object_server, columnar_server = _servers(scenario)
        object_server.ingest("r", batch.reports)
        columnar_server.ingest_columnar(
            "r", ColumnarReportBatch.from_reports(batch.reports)
        )
        fix_object, _ = object_server.locate_antenna_2d_diagnosed("r")
        fix_columnar, _ = columnar_server.locate_antenna_2d_diagnosed("r")
        assert fix_columnar.position == fix_object.position

    def test_invalid_port_is_all_or_nothing(self, collected):
        scenario, batch = collected
        _, server = _servers(scenario)
        cols = ColumnarReportBatch.from_reports(batch.reports)
        bad_ports = cols.antenna_port.copy()
        bad_ports[-1] = -1  # negative ports can never name a stream
        broken = ColumnarReportBatch(
            epcs=cols.epcs,
            epc_index=cols.epc_index,
            antenna_port=bad_ports,
            channel_index=cols.channel_index,
            reader_timestamp_us=cols.reader_timestamp_us,
            host_timestamp_us=cols.host_timestamp_us,
            phase_rad=cols.phase_rad,
            rssi_dbm=cols.rssi_dbm,
        )
        with pytest.raises(ConfigurationError):
            server.ingest_columnar("r", broken)
        assert server.streams() == []

    def test_empty_batch(self, collected):
        scenario, _batch = collected
        _, server = _servers(scenario)
        assert server.ingest_columnar("r", ColumnarReportBatch.empty()) == 0
