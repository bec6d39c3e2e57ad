"""Tests for repro.hardware.llrp_columnar (struct-of-arrays decode)."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.errors import WireProtocolError
from repro.hardware.llrp import ReportBatch, TagReportData
from repro.hardware.llrp_columnar import (
    REGULAR_RECORD_BYTES,
    ColumnarReportBatch,
    decode_ro_access_report_columnar,
)
from repro.hardware.llrp_wire import (
    decode_ro_access_report,
    encode_ro_access_report,
    encode_tag_report,
)


def _report(i: int, **overrides) -> TagReportData:
    defaults = dict(
        epc=f"E20000000000000000{i:06X}",
        antenna_port=1 + i % 4,
        channel_index=1 + i % 16,
        reader_timestamp_us=2_000_000 + 997 * i,
        host_timestamp_us=2_000_040 + 997 * i,
        phase_rad=(i * 0.61) % 6.28,
        rssi_dbm=-70.0 + (i % 30),
    )
    defaults.update(overrides)
    return TagReportData(**defaults)


def _frame(reports, message_id: int = 1) -> bytes:
    return encode_ro_access_report(ReportBatch(list(reports)), message_id)


def _strip_custom(frame: bytes) -> bytes:
    """Remove each report's Custom parameter (vendor extension)."""
    body = frame[10:]
    out = []
    offset = 0
    while offset < len(body):
        _ptype, length = struct.unpack_from(">HH", body, offset)
        record = body[offset : offset + length]
        # Custom param is the trailing 22 bytes of the canonical record.
        inner = record[4:]
        kept = b""
        ioff = 0
        while ioff < len(inner):
            itype, ilen = struct.unpack_from(">HH", inner, ioff)
            if itype != 1023:
                kept += inner[ioff : ioff + ilen]
            ioff += ilen
        out.append(struct.pack(">HH", 240, 4 + len(kept)) + kept)
        offset += length
    new_body = b"".join(out)
    header = struct.pack(
        ">HII",
        struct.unpack_from(">H", frame, 0)[0],
        10 + len(new_body),
        struct.unpack_from(">I", frame, 6)[0],
    )
    return header + new_body


class TestFastPath:
    def test_record_size_is_canonical(self):
        assert len(encode_tag_report(_report(0))) == REGULAR_RECORD_BYTES

    def test_differential_identity(self):
        frame = _frame([_report(i) for i in range(120)])
        _mid, expect = decode_ro_access_report(frame)
        _mid, cols = decode_ro_access_report_columnar(frame)
        assert cols.to_reports() == list(expect.reports)

    def test_phase_bit_identical(self):
        frame = _frame([_report(i) for i in range(64)])
        _mid, expect = decode_ro_access_report(frame)
        _mid, cols = decode_ro_access_report_columnar(frame)
        expected = np.array([r.phase_rad for r in expect.reports])
        assert np.array_equal(cols.phase_rad, expected)

    def test_epc_table_dedups(self):
        reports = [
            _report(i, epc="E2000000000000000000AB00") for i in range(10)
        ] + [_report(i, epc="E2000000000000000000CD01") for i in range(5)]
        _mid, cols = decode_ro_access_report_columnar(_frame(reports))
        assert len(cols.epcs) == 2
        # Trailing 0x00 in the EPC must survive the byte plumbing.
        assert cols.epcs[0] == "E2000000000000000000AB00"
        assert cols.epc_index.tolist() == [0] * 10 + [1] * 5

    def test_message_id_passthrough(self):
        mid, _cols = decode_ro_access_report_columnar(
            _frame([_report(0)], message_id=77)
        )
        assert mid == 77

    def test_empty_frame(self):
        _mid, cols = decode_ro_access_report_columnar(_frame([]))
        assert len(cols) == 0
        assert cols.to_reports() == []


class TestGeneralPath:
    def test_vendor_extension_missing(self):
        frame = _strip_custom(_frame([_report(i) for i in range(8)]))
        _mid, expect = decode_ro_access_report(frame)
        _mid, cols = decode_ro_access_report_columnar(frame)
        assert cols.to_reports() == list(expect.reports)
        assert all(r.phase_rad == 0.0 for r in cols.to_reports())

    def test_mixed_regular_and_alien_param(self):
        base = _frame([_report(i) for i in range(4)])
        # Append an unknown top-level parameter: length stays honest, so
        # both decoders must skip it identically (general path).
        alien = struct.pack(">HH", 500, 8) + b"\xaa\xbb\xcc\xdd"
        frame = (
            base[:2]
            + struct.pack(">I", len(base) + len(alien))
            + base[6:]
            + alien
        )
        _mid, expect = decode_ro_access_report(frame)
        _mid, cols = decode_ro_access_report_columnar(frame)
        assert cols.to_reports() == list(expect.reports)

    def test_errors_match_object_path(self):
        frame = bytearray(_frame([_report(0)]))
        frame[-1:] = b""  # truncate one byte; keep header length honest
        frame[2:6] = struct.pack(">I", len(frame))
        object_error = columnar_error = None
        try:
            decode_ro_access_report(bytes(frame))
        except WireProtocolError as exc:
            object_error = (str(exc), exc.offset)
        try:
            decode_ro_access_report_columnar(bytes(frame))
        except WireProtocolError as exc:
            columnar_error = (str(exc), exc.offset)
        assert object_error is not None
        assert columnar_error == object_error

    def test_wrong_message_type_rejected(self):
        keepalive = struct.pack(">HII", (1 << 10) | 62, 10, 1)
        with pytest.raises(WireProtocolError, match="RO_ACCESS_REPORT"):
            decode_ro_access_report_columnar(keepalive)


class TestColumnarBatchOps:
    def test_from_reports_round_trip(self):
        reports = [_report(i) for i in range(30)]
        cols = ColumnarReportBatch.from_reports(reports)
        assert cols.to_reports() == reports

    @pytest.mark.parametrize(
        "timestamps", ([5, 2**63 + 17, 20], [-5, 2**63 + 17])
    )
    def test_from_reports_keeps_u64_timestamps_exact(self, timestamps):
        """FirstSeenTimestampUTC is a u64: values past int64 (mixed with
        the negative ones the screen rejects) must survive exactly."""
        reports = [
            _report(i, reader_timestamp_us=us, host_timestamp_us=us)
            for i, us in enumerate(timestamps)
        ]
        cols = ColumnarReportBatch.from_reports(reports)
        assert cols.to_reports() == reports
        assert cols.select(np.array([1])).to_reports() == reports[1:2]

    def test_select_mask(self):
        reports = [_report(i) for i in range(10)]
        cols = ColumnarReportBatch.from_reports(reports)
        mask = np.asarray(cols.antenna_port == 2)
        picked = cols.select(mask)
        assert picked.to_reports() == [
            r for r in reports if r.antenna_port == 2
        ]

    def test_antenna_ports_first_appearance(self):
        reports = [
            _report(0, antenna_port=3),
            _report(1, antenna_port=1),
            _report(2, antenna_port=3),
            _report(3, antenna_port=2),
        ]
        cols = ColumnarReportBatch.from_reports(reports)
        assert cols.antenna_ports() == [3, 1, 2]

    def test_shape_validation(self):
        cols = ColumnarReportBatch.from_reports([_report(0)])
        with pytest.raises(ValueError, match="shape"):
            ColumnarReportBatch(
                epcs=cols.epcs,
                epc_index=cols.epc_index,
                antenna_port=np.empty(3, dtype=np.int64),
                channel_index=cols.channel_index,
                reader_timestamp_us=cols.reader_timestamp_us,
                host_timestamp_us=cols.host_timestamp_us,
                phase_rad=cols.phase_rad,
                rssi_dbm=cols.rssi_dbm,
            )
