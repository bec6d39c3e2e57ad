"""The central localization server.

The paper's infrastructure includes "a central localization server which
stores the spinning tags' locations, moving speeds and other system
settings"; readers stream their signal snapshots to it and it answers with
their positions.  :class:`LocalizationServer` is that component: it ingests
LLRP reports incrementally (from any number of readers/antennas), tracks
per-antenna report buffers and serves 2D/3D position queries through the
Tagspin pipeline.

The repeated poll-after-append pattern is served on
``engine="adaptive-harmonic"``, the fleet's default
(:class:`~repro.fleet.worker.DeploymentSpec`): a fix only needs the
spectrum peak, which the coarse-to-fine search finds over harmonic
steering tables realized by batched inverse FFTs.  Engines memoize only
inside one fix (:func:`~repro.perf.cache.fix_scope`), keyed on values
(series geometry, phases, grid), never on stream identity, so clearing
or restoring a buffer needs no engine bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.locator import Fix2D, Fix3D
from repro.core.pipeline import PipelineConfig, TagspinSystem
from repro.errors import ConfigurationError, InsufficientDataError
from repro.hardware.llrp import ReportBatch, TagReportData
from repro.perf.engine import EngineSpec
from repro.server.registry import TagRegistry

#: A stream is identified by (reader name, antenna port).
StreamKey = Tuple[str, int]


def validate_stream_key(reader_name: str, antenna_port: int) -> None:
    """Reject stream keys that could never name a physical stream.

    An empty reader name or a negative antenna port silently creates a
    junk stream bucket that no query will ever find again; both indicate
    a misconfigured client, not bad RF data, so they raise
    :class:`~repro.errors.ConfigurationError` naming the value instead
    of being quarantined.
    """
    if not isinstance(reader_name, str) or not reader_name.strip():
        raise ConfigurationError(
            f"reader_name must be a non-empty string, got {reader_name!r}"
        )
    if antenna_port < 0:
        raise ConfigurationError(
            f"antenna_port must be non-negative, got {antenna_port!r} "
            f"(reader {reader_name!r})"
        )


@dataclass
class StreamBuffer:
    """Per-(reader, antenna) accumulation of reports."""

    reports: List[TagReportData] = field(default_factory=list)

    def spinning_read_counts(self, registry: TagRegistry) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for report in self.reports:
            if report.epc in registry:
                counts[report.epc] = counts.get(report.epc, 0) + 1
        return counts


class LocalizationServer:
    """Ingests report streams and answers reader-position queries."""

    def __init__(
        self,
        registry: TagRegistry,
        config: Optional[PipelineConfig] = None,
        max_buffer: int = 100_000,
        engine: EngineSpec = None,
    ) -> None:
        if max_buffer < 1:
            raise ValueError("max_buffer must be positive")
        self.registry = registry
        self.system = TagspinSystem(registry, config, engine=engine)
        self.max_buffer = max_buffer
        self._streams: Dict[StreamKey, StreamBuffer] = {}

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(
        self, reader_name: str, reports: Iterable[TagReportData]
    ) -> int:
        """Append reports to the appropriate stream buffers.

        Reports for EPCs not in the registry are kept too (the reader may
        also see ordinary tags); the pipeline filters by registry itself.
        Returns the number of reports accepted.
        """
        validate_stream_key(reader_name, 0)
        accepted = 0
        touched: Dict[int, StreamBuffer] = {}
        try:
            for report in reports:
                port = report.antenna_port
                buffer = touched.get(port)
                if buffer is None:
                    if port < 0:
                        raise ConfigurationError(
                            f"antenna_port must be non-negative, got "
                            f"{port!r} (reader {reader_name!r})"
                        )
                    buffer = touched[port] = self._streams.setdefault(
                        (reader_name, port), StreamBuffer()
                    )
                buffer.reports.append(report)
                accepted += 1
        finally:
            # Keep the freshest window (old snapshots describe a stale
            # disk phase anyway), trimmed once per call, not per report.
            for buffer in touched.values():
                excess = len(buffer.reports) - self.max_buffer
                if excess > 0:
                    del buffer.reports[:excess]
        return accepted

    def streams(self) -> List[StreamKey]:
        return sorted(self._streams)

    def snapshot_streams(self) -> Dict[StreamKey, List[TagReportData]]:
        """Copy of every stream buffer (checkpoint capture path)."""
        return {
            key: list(buffer.reports)
            for key, buffer in self._streams.items()
        }

    def restore_streams(
        self, streams: Dict[StreamKey, List[TagReportData]]
    ) -> int:
        """Replace all buffers wholesale (checkpoint restore path).

        Restored reports bypass per-report validation — they were
        validated before the snapshot was taken, and re-screening would
        falsely flag the whole window as duplicates.  Returns the number
        of reports restored.
        """
        restored: Dict[StreamKey, StreamBuffer] = {}
        for (reader_name, antenna_port), reports in streams.items():
            validate_stream_key(reader_name, antenna_port)
            window = list(reports)[-self.max_buffer :]
            restored[(reader_name, antenna_port)] = StreamBuffer(window)
        self._streams = restored
        return sum(len(b.reports) for b in restored.values())

    def stream_report_count(self, reader_name: str, antenna_port: int) -> int:
        buffer = self._streams.get((reader_name, antenna_port))
        return len(buffer.reports) if buffer else 0

    def clear(self, reader_name: str, antenna_port: Optional[int] = None) -> None:
        """Drop buffered reports of one reader (optionally one antenna)."""
        keys = [
            key
            for key in self._streams
            if key[0] == reader_name
            and (antenna_port is None or key[1] == antenna_port)
        ]
        for key in keys:
            del self._streams[key]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _batch_for(self, reader_name: str, antenna_port: int) -> ReportBatch:
        buffer = self._streams.get((reader_name, antenna_port))
        if buffer is None or not buffer.reports:
            raise InsufficientDataError(
                f"no reports buffered for {reader_name!r} antenna {antenna_port}"
            )
        return ReportBatch(list(buffer.reports))

    def batch_for(self, reader_name: str, antenna_port: int = 1) -> ReportBatch:
        """Copy of one antenna's buffered reports (health checks, CLI).

        Raises :class:`~repro.errors.InsufficientDataError` when the
        stream has no buffered reports.
        """
        return self._batch_for(reader_name, antenna_port)

    def locate_antenna_2d(
        self, reader_name: str, antenna_port: int = 1
    ) -> Fix2D:
        """2D position of one reader antenna from its buffered stream."""
        batch = self._batch_for(reader_name, antenna_port)
        return self.system.locate_2d(batch, antenna_port)

    def locate_antenna_3d(
        self, reader_name: str, antenna_port: int = 1
    ) -> Fix3D:
        """3D position of one reader antenna from its buffered stream."""
        batch = self._batch_for(reader_name, antenna_port)
        return self.system.locate_3d(batch, antenna_port)

    def locate_all_2d(self, reader_name: str) -> Dict[int, Fix2D]:
        """Locate every antenna of ``reader_name`` that has buffered data.

        Antennas whose buffers cannot support a fix are skipped — the paper
        calibrates "even multiple target antennas" in one pass, and partial
        coverage is normal while the reader is still interrogating.
        """
        fixes: Dict[int, Fix2D] = {}
        for name, port in self.streams():
            if name != reader_name:
                continue
            try:
                fixes[port] = self.locate_antenna_2d(name, port)
            except InsufficientDataError:
                continue
        return fixes
