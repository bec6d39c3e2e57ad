"""Shared fakes for the fleet serving-tier tests.

``FakeLocalizationServer`` duck-types the slice of
:class:`~repro.server.resilience.ResilientLocalizationServer` the actor
and checkpoint layers touch, so mechanics tests (ordering, deadlines,
crashes, supervision) run in milliseconds; the integration and chaos
tests use the real server against the session-scoped calibrated
scenario.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.errors import InsufficientDataError
from repro.hardware.llrp import TagReportData
from repro.hardware.llrp_columnar import ColumnarReportBatch
from repro.robustness.diagnostics import DegradationState
from repro.robustness.validation import QuarantineStats


def make_report(
    i: int,
    epc: str = "EPC-SPIN-1",
    antenna_port: int = 1,
    phase: float = 0.0,
) -> TagReportData:
    return TagReportData(
        epc=epc,
        antenna_port=antenna_port,
        channel_index=7,
        reader_timestamp_us=1_000 * i,
        host_timestamp_us=1_000 * i + 40,
        phase_rad=phase,
        rssi_dbm=-55.0,
    )


def columns(reports) -> ColumnarReportBatch:
    """A columnar batch of ``reports``, the fleet's one ingest format."""
    return ColumnarReportBatch.from_reports(list(reports))


class FakeLocalizationServer:
    """Duck-typed stand-in for the resilient server."""

    def __init__(
        self,
        registry_epcs: Tuple[str, ...] = ("EPC-SPIN-1",),
        locate_delay_s: float = 0.0,
    ) -> None:
        self.registry = set(registry_epcs)
        self.locate_delay_s = locate_delay_s
        self.locate_error: Optional[Exception] = None
        self.ingest_error: Optional[Exception] = None
        self.locate_calls = 0
        self._streams: Dict[Tuple[str, int], List[TagReportData]] = {}
        self._quarantine: Dict[Tuple[str, int], QuarantineStats] = {}
        self._degradation: Dict[Tuple[str, int], DegradationState] = {}

    # -- ingest --------------------------------------------------------
    def ingest(self, reader_name: str, reports) -> int:
        if self.ingest_error is not None:
            raise self.ingest_error
        reports = list(reports)
        for report in reports:
            key = (reader_name, report.antenna_port)
            self._streams.setdefault(key, []).append(report)
            stats = self._quarantine.setdefault(key, QuarantineStats())
            stats.received += 1
            stats.accepted += 1
        return len(reports)

    def ingest_columnar(self, reader_name: str, cols) -> int:
        return self.ingest(reader_name, cols.to_reports())

    # -- queries -------------------------------------------------------
    def locate_antenna_2d_diagnosed(
        self, reader_name: str, antenna_port: int = 1
    ):
        self.locate_calls += 1
        if self.locate_delay_s:
            time.sleep(self.locate_delay_s)
        if self.locate_error is not None:
            raise self.locate_error
        if (reader_name, antenna_port) not in self._streams:
            raise InsufficientDataError(
                f"no reports for {reader_name!r}:{antenna_port}"
            )
        return (f"fix-{reader_name}-{antenna_port}", "diagnostics")

    def locate_antenna_2d(self, reader_name: str, antenna_port: int = 1):
        fix, _diag = self.locate_antenna_2d_diagnosed(
            reader_name, antenna_port
        )
        return fix

    # -- checkpoint surface --------------------------------------------
    def streams(self):
        return sorted(self._streams)

    def snapshot_streams(self):
        return {key: list(reports) for key, reports in self._streams.items()}

    def restore_streams(self, streams) -> int:
        self._streams = {
            key: list(reports) for key, reports in streams.items()
        }
        return sum(len(r) for r in self._streams.values())

    def restore_degradation(self, states) -> None:
        self._degradation.update(states)

    def degradation_states(self):
        return dict(self._degradation)

    def quarantine_stats(self, reader_name: str, antenna_port: int):
        return self._quarantine.get(
            (reader_name, antenna_port), QuarantineStats()
        )

    def all_quarantine_stats(self):
        return dict(self._quarantine)


class RecordingServerFactory:
    """Server factory that remembers every incarnation it built."""

    def __init__(self, locate_delay_s: float = 0.0) -> None:
        self.servers: List[FakeLocalizationServer] = []
        self.locate_delay_s = locate_delay_s

    def __call__(self) -> FakeLocalizationServer:
        server = FakeLocalizationServer(locate_delay_s=self.locate_delay_s)
        self.servers.append(server)
        return server
