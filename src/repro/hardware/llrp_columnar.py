"""Columnar (struct-of-arrays) decoding of RO_ACCESS_REPORT frames.

The object decoder in :mod:`repro.hardware.llrp_wire` materializes one
``TagReportData`` dataclass per read — at wire rate that per-report
Python object churn, not the solver, is the ingest bottleneck.  This
module unpacks a whole frame into ndarray columns instead:

* **fast path** — frames our encoder produces have a fixed per-report
  layout (the same six parameters in the same order, 71 bytes per
  report).  When every report in a frame matches that template, all
  columns are extracted with vectorized big-endian views over the frame
  buffer: zero per-report Python work.
* **irregular frames** — anything else (vendor extension missing,
  unknown parameters, foreign EPC lengths) is decoded by the object
  decoder, :func:`~repro.hardware.llrp_wire.decode_ro_access_report`,
  and columnarized.  There is one TLV walk, so corrupt input raises the
  *identical* :class:`~repro.errors.WireProtocolError` at the identical
  byte offset.

The fast path is differentially bit-identical to the object decoder —
the phase column replicates
:func:`~repro.hardware.llrp_wire.decode_phase`'s exact float64
operation order, so ``cols.to_reports()`` compares equal to the object
decode on every input (property- and fuzz-tested).

:class:`ColumnarReportBatch` is also the fleet's one ingest format:
mailboxes, sharded workers and the server take it, and
:meth:`ColumnarReportBatch.from_reports` adapts report objects to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import WireProtocolError
from repro.hardware.llrp import TagReportData
from repro.hardware.llrp_wire import (
    MSG_RO_ACCESS_REPORT,
    PHASE_UNITS,
    decode_message_header,
    decode_ro_access_report,
    encode_tag_report,
)

__all__ = [
    "ColumnarReportBatch",
    "decode_ro_access_report_columnar",
    "REGULAR_RECORD_BYTES",
]


@dataclass
class ColumnarReportBatch:
    """One decoded report batch as parallel ndarray columns.

    ``epcs`` is the deduplicated EPC table; ``epc_index[i]`` indexes the
    i-th report's EPC into it.  Timestamp columns are ``uint64`` off the
    wire (the field is a u64 there).  :meth:`from_reports` keeps every
    timestamp exact: ``int64`` when all fit (it must represent the
    negative timestamps the validation layer screens for), else
    ``uint64``, else Python ints in an ``object`` column.
    """

    epcs: List[str]
    epc_index: np.ndarray
    antenna_port: np.ndarray
    channel_index: np.ndarray
    reader_timestamp_us: np.ndarray
    host_timestamp_us: np.ndarray
    phase_rad: np.ndarray
    rssi_dbm: np.ndarray

    def __len__(self) -> int:
        return int(self.epc_index.shape[0])

    def __post_init__(self) -> None:
        n = self.epc_index.shape[0]
        for name in (
            "antenna_port",
            "channel_index",
            "reader_timestamp_us",
            "host_timestamp_us",
            "phase_rad",
            "rssi_dbm",
        ):
            column = getattr(self, name)
            if column.shape != (n,):
                raise ValueError(
                    f"column {name!r} has shape {column.shape}, "
                    f"expected ({n},)"
                )

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "ColumnarReportBatch":
        return cls(
            epcs=[],
            epc_index=np.empty(0, dtype=np.int64),
            antenna_port=np.empty(0, dtype=np.int64),
            channel_index=np.empty(0, dtype=np.int64),
            reader_timestamp_us=np.empty(0, dtype=np.uint64),
            host_timestamp_us=np.empty(0, dtype=np.uint64),
            phase_rad=np.empty(0, dtype=np.float64),
            rssi_dbm=np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_reports(
        cls, reports: Sequence[TagReportData]
    ) -> "ColumnarReportBatch":
        """Columnarize object reports; timestamps stay exact."""
        epcs: List[str] = []
        table: Dict[str, int] = {}
        index = np.empty(len(reports), dtype=np.int64)
        for i, report in enumerate(reports):
            slot = table.get(report.epc)
            if slot is None:
                slot = table[report.epc] = len(epcs)
                epcs.append(report.epc)
            index[i] = slot
        return cls(
            epcs=epcs,
            epc_index=index,
            antenna_port=np.array(
                [r.antenna_port for r in reports], dtype=np.int64
            ),
            channel_index=np.array(
                [r.channel_index for r in reports], dtype=np.int64
            ),
            reader_timestamp_us=_timestamp_column(
                [r.reader_timestamp_us for r in reports]
            ),
            host_timestamp_us=_timestamp_column(
                [r.host_timestamp_us for r in reports]
            ),
            phase_rad=np.array(
                [r.phase_rad for r in reports], dtype=np.float64
            ),
            rssi_dbm=np.array(
                [r.rssi_dbm for r in reports], dtype=np.float64
            ),
        )

    # ------------------------------------------------------------------
    def to_reports(self) -> List[TagReportData]:
        """Materialize object reports, field-identical to object decode."""
        epcs = self.epcs
        return [
            TagReportData(
                epc=epcs[idx],
                antenna_port=antenna,
                channel_index=channel,
                reader_timestamp_us=reader_us,
                host_timestamp_us=host_us,
                phase_rad=phase,
                rssi_dbm=rssi,
            )
            for idx, antenna, channel, reader_us, host_us, phase, rssi in zip(
                self.epc_index.tolist(),
                self.antenna_port.tolist(),
                self.channel_index.tolist(),
                self.reader_timestamp_us.tolist(),
                self.host_timestamp_us.tolist(),
                self.phase_rad.tolist(),
                self.rssi_dbm.tolist(),
            )
        ]

    def select(
        self, which: Union[np.ndarray, Sequence[int]]
    ) -> "ColumnarReportBatch":
        """Row subset (boolean mask or index array); shares the EPC table."""
        which = np.asarray(which)
        return ColumnarReportBatch(
            epcs=self.epcs,
            epc_index=self.epc_index[which],
            antenna_port=self.antenna_port[which],
            channel_index=self.channel_index[which],
            reader_timestamp_us=self.reader_timestamp_us[which],
            host_timestamp_us=self.host_timestamp_us[which],
            phase_rad=self.phase_rad[which],
            rssi_dbm=self.rssi_dbm[which],
        )

    def antenna_ports(self) -> List[int]:
        """Distinct antenna ports in first-appearance order."""
        ports, first = np.unique(self.antenna_port, return_index=True)
        return [int(p) for p in ports[np.argsort(first)]]


def _timestamp_column(values: List[int]) -> np.ndarray:
    """``int64`` if every value fits, else ``uint64``, else exact ints."""
    for dtype in (np.int64, np.uint64):
        try:
            return np.array(values, dtype=dtype)
        except OverflowError:
            continue
    return np.array(values, dtype=object)


# ---------------------------------------------------------------------------
# Regular-layout fast path
# ---------------------------------------------------------------------------

def _build_template() -> Tuple[bytes, np.ndarray]:
    """The canonical encoded record and a mask of its fixed bytes."""
    zero = TagReportData(
        epc="0" * 24,
        antenna_port=0,
        channel_index=0,
        reader_timestamp_us=0,
        host_timestamp_us=0,
        phase_rad=0.0,
        rssi_dbm=0.0,
    )
    template = encode_tag_report(zero)
    mask = np.zeros(len(template), dtype=bool)
    # TLV headers, plus the Custom parameter's vendor id and subtype,
    # are structural; everything else is per-report payload.
    for fixed in (
        slice(0, 8),    # TagReportData + EPC-96 headers
        slice(20, 24),  # AntennaID header
        slice(26, 30),  # PeakRSSI header
        slice(31, 35),  # ChannelIndex header
        slice(37, 41),  # FirstSeenTimestampUTC header
        slice(49, 61),  # Custom header + vendor id + subtype
    ):
        mask[fixed] = True
    return template, mask


_TEMPLATE_BYTES, _FIXED_MASK = _build_template()
#: Bytes per report record in the canonical (fast-path) layout.
REGULAR_RECORD_BYTES = len(_TEMPLATE_BYTES)
_TEMPLATE = np.frombuffer(_TEMPLATE_BYTES, dtype=np.uint8)

# Payload byte ranges within one canonical record.
_EPC = slice(8, 20)
_ANTENNA = slice(24, 26)
_RSSI = 30
_CHANNEL = slice(35, 37)
_READER_US = slice(41, 49)
_PHASE = slice(61, 63)
_HOST_US = slice(63, 71)


def _decode_regular(records: np.ndarray) -> ColumnarReportBatch:
    """Vectorized column extraction from template-conforming records."""
    # Dedup EPCs against a dict of 12-byte slices: a handful of tags
    # repeat across thousands of reads, so this is a few dict hits per
    # report — ~10x cheaper than np.unique(axis=0)'s row sort, and the
    # table comes out in first-appearance order like from_reports.
    epc_blob = records[:, _EPC].tobytes()
    table: Dict[bytes, int] = {}
    epcs: List[str] = []
    epc_index = np.empty(records.shape[0], dtype=np.int64)
    for i in range(records.shape[0]):
        key = epc_blob[12 * i : 12 * i + 12]
        slot = table.get(key)
        if slot is None:
            slot = table[key] = len(epcs)
            epcs.append(key.hex().upper())
        epc_index[i] = slot
    phase_units = (
        records[:, _PHASE].copy().view(">u2").ravel().astype(np.int64)
    )
    # Exactly decode_phase()'s float64 operation order, elementwise.
    phase_rad = (
        (phase_units % PHASE_UNITS).astype(np.float64)
        * 2.0
        * math.pi
        / PHASE_UNITS
    )
    return ColumnarReportBatch(
        epcs=epcs,
        epc_index=epc_index,
        antenna_port=(
            records[:, _ANTENNA].copy().view(">u2").ravel().astype(np.int64)
        ),
        channel_index=(
            records[:, _CHANNEL].copy().view(">u2").ravel().astype(np.int64)
        ),
        reader_timestamp_us=(
            records[:, _READER_US].copy().view(">u8").ravel()
        ),
        host_timestamp_us=(
            records[:, _HOST_US].copy().view(">u8").ravel()
        ),
        phase_rad=phase_rad,
        rssi_dbm=records[:, _RSSI].view(np.int8).astype(np.float64),
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def decode_ro_access_report_columnar(
    data: bytes, base_offset: int = 0
) -> Tuple[int, ColumnarReportBatch]:
    """Parse an RO_ACCESS_REPORT frame into columns.

    Differentially identical to
    :func:`~repro.hardware.llrp_wire.decode_ro_access_report`, which
    decodes the frames the fast path does not take:
    ``cols.to_reports()`` equals the object decode, and corrupt frames
    raise the same typed errors at the same byte offsets.
    """
    message_type, length, message_id = decode_message_header(
        data, base_offset
    )
    if message_type != MSG_RO_ACCESS_REPORT:
        raise WireProtocolError(
            f"expected RO_ACCESS_REPORT, got message type {message_type}",
            offset=base_offset,
        )
    if length != len(data):
        raise WireProtocolError(
            f"LLRP message length mismatch: header says {length}, "
            f"frame holds {len(data)} bytes",
            offset=base_offset,
        )
    body = data[10:]
    if not body:
        return message_id, ColumnarReportBatch.empty()
    if len(body) % REGULAR_RECORD_BYTES == 0:
        records = np.frombuffer(body, dtype=np.uint8).reshape(
            -1, REGULAR_RECORD_BYTES
        )
        if bool(
            np.all(records[:, _FIXED_MASK] == _TEMPLATE[_FIXED_MASK])
        ):
            return message_id, _decode_regular(records)
    _mid, batch = decode_ro_access_report(data, base_offset)
    cols = ColumnarReportBatch.from_reports(batch.reports)
    # Wire timestamps are u64, whatever from_reports chose.
    cols.reader_timestamp_us = cols.reader_timestamp_us.astype(np.uint64)
    cols.host_timestamp_us = cols.host_timestamp_us.astype(np.uint64)
    return message_id, cols
