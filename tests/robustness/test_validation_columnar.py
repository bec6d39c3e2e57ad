"""Differential tests: ReportValidator.process_columnar vs process.

The columnar entry point is an adapter: it turns the batch back into
report objects and runs the one screen.  These tests check the adapter
— dtype handling of ``from_reports`` and wire columns (int64, uint64,
timestamps beyond int64) — gives the object path's survivors, in the
same order, with the same quarantine accounting, on clean streams and
on every fault class the screens exist for.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.hardware.llrp_columnar import ColumnarReportBatch
from repro.hardware.llrp import TagReportData
from repro.robustness.validation import ReportValidator, ValidationConfig


def make_report(
    time_s: float = 0.0,
    phase: float = 1.0,
    epc: str = "E2-TEST-1",
    channel: int = 8,
    rssi: float = -60.0,
    antenna: int = 1,
) -> TagReportData:
    return TagReportData(
        epc=epc,
        antenna_port=antenna,
        channel_index=channel,
        reader_timestamp_us=round(time_s * 1e6),
        host_timestamp_us=round(time_s * 1e6) + 1500,
        phase_rad=phase,
        rssi_dbm=rssi,
    )


def smooth_stream(n: int = 80, dt: float = 0.05) -> list:
    return [
        make_report(
            time_s=i * dt,
            phase=float(np.mod(1.0 + 0.3 * np.sin(0.5 * i * dt), 2 * np.pi)),
        )
        for i in range(n)
    ]


def _differential(reports, config=None):
    object_validator = ReportValidator(
        copy.deepcopy(config) if config else None
    )
    columnar_validator = ReportValidator(
        copy.deepcopy(config) if config else None
    )
    object_out = object_validator.process(list(reports))
    columnar_out = columnar_validator.process_columnar(
        ColumnarReportBatch.from_reports(list(reports))
    )
    assert columnar_out == object_out
    assert (
        columnar_validator.stats.__dict__ == object_validator.stats.__dict__
    )
    return object_out


class TestCleanStreams:
    def test_clean_stream(self):
        out = _differential(smooth_stream())
        assert len(out) == 80

    def test_empty(self):
        assert _differential([]) == []


class TestFaultClasses:
    def test_phase_out_of_range(self):
        reports = smooth_stream(20)
        reports[3] = make_report(time_s=0.15, phase=2 * math.pi + 0.4)
        reports[7] = make_report(time_s=0.35, phase=-0.2)
        _differential(reports)

    def test_rssi_out_of_range(self):
        reports = smooth_stream(20)
        reports[4] = make_report(time_s=0.2, rssi=+10.0)
        _differential(reports)

    def test_bad_channel(self):
        reports = smooth_stream(20)
        reports[5] = make_report(time_s=0.25, channel=0)
        reports[6] = make_report(time_s=0.3, channel=999)
        _differential(reports)

    def test_negative_timestamp(self):
        reports = smooth_stream(20)
        bad = make_report(time_s=0.45)
        reports[9] = TagReportData(
            epc=bad.epc,
            antenna_port=bad.antenna_port,
            channel_index=bad.channel_index,
            reader_timestamp_us=-5,
            host_timestamp_us=bad.host_timestamp_us,
            phase_rad=bad.phase_rad,
            rssi_dbm=bad.rssi_dbm,
        )
        _differential(reports)

    def test_duplicates(self):
        reports = smooth_stream(30)
        reports = reports[:10] + [reports[9]] * 3 + reports[10:]
        _differential(reports)

    def test_reordered(self):
        reports = smooth_stream(30)
        reports[12], reports[20] = reports[20], reports[12]
        _differential(reports)

    def test_pi_slips_repaired_identically(self):
        reports = smooth_stream(60)
        for i in (15, 16, 40):
            r = reports[i]
            reports[i] = make_report(
                time_s=r.reader_timestamp_us / 1e6,
                phase=float(np.mod(r.phase_rad + np.pi, 2 * np.pi)),
            )
        _differential(reports)

    def test_everything_at_once(self):
        reports = smooth_stream(60)
        reports[3] = make_report(time_s=0.15, phase=7.5)
        reports[10] = make_report(time_s=0.5, rssi=+5.0)
        reports[20] = make_report(time_s=1.0, channel=0)
        reports = reports[:30] + [reports[29]] * 2 + reports[30:]
        reports[40], reports[45] = reports[45], reports[40]
        _differential(reports)

    def test_custom_config(self):
        config = ValidationConfig(repair_pi_slips=False, dedup_memory=4)
        reports = smooth_stream(25)
        reports = reports[:6] + [reports[5]] * 2 + reports[6:]
        reports[12], reports[13] = reports[13], reports[12]
        _differential(reports, config)


class TestWireDtypeColumns:
    def test_uint64_timestamps_from_wire(self):
        """Wire decode yields uint64 timestamps; screens must cope."""
        reports = smooth_stream(20)
        cols = ColumnarReportBatch.from_reports(reports)
        wire_cols = ColumnarReportBatch(
            epcs=cols.epcs,
            epc_index=cols.epc_index,
            antenna_port=cols.antenna_port,
            channel_index=cols.channel_index,
            reader_timestamp_us=cols.reader_timestamp_us.astype(np.uint64),
            host_timestamp_us=cols.host_timestamp_us.astype(np.uint64),
            phase_rad=cols.phase_rad,
            rssi_dbm=cols.rssi_dbm,
        )
        a = ReportValidator()
        b = ReportValidator()
        assert b.process_columnar(wire_cols) == a.process(reports)
        assert b.stats.__dict__ == a.stats.__dict__

    def test_huge_uint64_not_misread_as_negative(self):
        reports = smooth_stream(5)
        cols = ColumnarReportBatch.from_reports(reports)
        big = cols.reader_timestamp_us.astype(np.uint64).copy()
        big[2] = np.uint64(2**63 + 17)  # would wrap negative as int64
        wire_cols = ColumnarReportBatch(
            epcs=cols.epcs,
            epc_index=cols.epc_index,
            antenna_port=cols.antenna_port,
            channel_index=cols.channel_index,
            reader_timestamp_us=big,
            host_timestamp_us=cols.host_timestamp_us.astype(np.uint64),
            phase_rad=cols.phase_rad,
            rssi_dbm=cols.rssi_dbm,
        )
        validator = ReportValidator()
        out = validator.process_columnar(wire_cols)
        # The huge timestamp is *not* screened as negative; it survives
        # the bad_timestamp screen (later screens may still act on it).
        assert validator.stats.bad_timestamp == 0
        assert len(out) >= 1
