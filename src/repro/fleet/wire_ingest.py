"""Asyncio wire ingest endpoint and recording replay for the fleet tier.

This is the missing transport between raw reader TCP streams and the
fleet serving tier: a :class:`WireIngestEndpoint` accepts connections,
reassembles LLRP frames from arbitrary chunk fragments, decodes
``RO_ACCESS_REPORT`` batches into columns and offers them, as they are,
to one :class:`~repro.fleet.supervisor.FleetSupervisor` deployment's
``offer_columnar``.  :func:`replay_into_supervisor` closes the loop for load
and regression testing: it serves a :class:`~repro.sim.wire_recording
.WireRecording` through a loopback socket at 1x–1000x of the captured
pacing and returns the fix the fleet produced, alongside the recorded
ground truth.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.pipeline import PipelineConfig
from repro.errors import ConfigurationError, WireProtocolError
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.worker import DeploymentSpec
from repro.hardware.llrp_stream import StreamingLLRPParser, StreamStats
from repro.obs.metrics import get_registry, telemetry_enabled
from repro.server.resilience import ResilientLocalizationServer
from repro.sim.wire_recording import WireRecording

#: Read size for the endpoint's receive loop.
DEFAULT_READ_BYTES = 1 << 16


@dataclass
class ConnectionReport:
    """Outcome of one ingest connection."""

    stats: StreamStats
    reports_offered: int = 0
    reports_enqueued: int = 0
    error: Optional[str] = None


class WireIngestEndpoint:
    """TCP server feeding decoded wire batches into one deployment.

    Each connection gets its own :class:`StreamingLLRPParser`, so
    interleaved readers cannot corrupt each other's reassembly state.
    Decoded columnar batches are offered to the supervisor's mailbox —
    the endpoint inherits the fleet tier's backpressure (overload sheds,
    it never buffers unboundedly).
    """

    def __init__(
        self,
        supervisor: FleetSupervisor,
        deployment_id: str,
        reader_name: str,
        on_error: str = "resync",
        read_bytes: int = DEFAULT_READ_BYTES,
    ) -> None:
        if read_bytes < 1:
            raise ConfigurationError(
                f"read_bytes must be positive, got {read_bytes}"
            )
        self.supervisor = supervisor
        self.deployment_id = deployment_id
        self.reader_name = reader_name
        self.on_error = on_error
        self.read_bytes = read_bytes
        self.connections: List[ConnectionReport] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: List[asyncio.Future] = []

    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise ConfigurationError("endpoint already started")
        self._server = await asyncio.start_server(
            self._accept, host=host, port=port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        """Stop listening and wait for in-flight connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.drain()

    async def drain(self) -> None:
        """Wait until every accepted connection has been fully ingested."""
        while self._handlers:
            pending = [task for task in self._handlers if not task.done()]
            if not pending:
                break
            await asyncio.wait(pending)

    # ------------------------------------------------------------------
    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._handlers.append(task)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> ConnectionReport:
        parser = StreamingLLRPParser(on_error=self.on_error)
        report = ConnectionReport(stats=parser.stats)
        self.connections.append(report)
        try:
            while True:
                chunk = await reader.read(self.read_bytes)
                if not chunk:
                    parser.close()
                    break
                self._offer(parser, chunk, report)
        except WireProtocolError as exc:
            # on_error="raise": a corrupt stream drops the connection
            # with a diagnostic instead of poisoning the deployment.
            report.error = str(exc)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        return report

    def _offer(
        self,
        parser: StreamingLLRPParser,
        chunk: bytes,
        report: ConnectionReport,
    ) -> None:
        batches = [cols for _mid, cols in parser.feed_columnar(chunk)]
        for cols in batches:
            if not len(cols):
                continue
            report.reports_offered += len(cols)
            report.reports_enqueued += self.supervisor.offer_columnar(
                self.deployment_id, self.reader_name, cols
            )
        if telemetry_enabled():
            registry = get_registry()
            registry.counter(
                "tagspin_wire_bytes_total",
                "Raw LLRP bytes consumed off the wire.",
                deployment=self.deployment_id,
            ).inc(len(chunk))
            frames = len(batches)
            if frames:
                registry.counter(
                    "tagspin_wire_frames_total",
                    "Complete LLRP report frames decoded off the wire.",
                    deployment=self.deployment_id,
                ).inc(frames)
            offered = sum(len(cols) for cols in batches)
            if offered:
                registry.counter(
                    "tagspin_wire_reports_total",
                    "Tag reports decoded from wire frames and offered "
                    "to the supervisor.",
                    deployment=self.deployment_id,
                ).inc(offered)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> StreamStats:
        """Aggregate stream counters across every connection so far."""
        total = StreamStats()
        for connection in self.connections:
            for key, value in connection.stats.as_dict().items():
                setattr(total, key, getattr(total, key) + value)
        return total


async def replay_frames(
    recording: WireRecording,
    writer: asyncio.StreamWriter,
    speed: float = 1.0,
    fragment_bytes: Optional[int] = None,
) -> int:
    """Stream a recording's frames into ``writer`` at ``speed``x pacing.

    ``fragment_bytes`` deliberately splits every frame into smaller
    writes so the replay also exercises the receiver's reassembly —
    a load test that only ever sends whole frames is too polite.
    Returns the number of bytes written.
    """
    if fragment_bytes is not None and fragment_bytes < 1:
        raise ConfigurationError(
            f"fragment_bytes must be positive, got {fragment_bytes}"
        )
    written = 0
    for delay_s, frame in recording.replay_schedule(speed):
        if delay_s > 0.0:
            await asyncio.sleep(delay_s)
        step = fragment_bytes if fragment_bytes is not None else len(frame)
        for start in range(0, len(frame), max(1, step)):
            writer.write(frame[start : start + step])
            await writer.drain()
        written += len(frame)
    return written


@dataclass
class ReplayResult:
    """What came out of replaying one recording through the fleet."""

    fix: object
    diagnostics: object
    truth: Optional[object]
    reports_offered: int
    reports_enqueued: int
    stream_stats: dict = field(default_factory=dict)

    @property
    def error_m(self) -> Optional[float]:
        """Replayed-fix error against the recorded ground truth [m]."""
        if self.truth is None:
            return None
        return self.fix.position.distance_to(self.truth.horizontal())


def clone_deployment_ids(deployment_id: str, deployments: int) -> List[str]:
    """The synthetic deployment ids a fan-out replay clones onto.

    ``deployments=1`` keeps the plain ``deployment_id`` (back-compat);
    ``M > 1`` yields ``{deployment_id}-000 … {deployment_id}-{M-1}`` —
    the same naming the sharded bench uses, so hash routing spreads the
    clones across workers.
    """
    if deployments < 1:
        raise ConfigurationError(
            f"deployments must be positive, got {deployments}"
        )
    if deployments == 1:
        return [deployment_id]
    return [f"{deployment_id}-{i:03d}" for i in range(deployments)]


async def replay_into_supervisor(
    recording: WireRecording,
    speed: float = 100.0,
    reader_name: str = "reader-1",
    antenna_port: int = 1,
    pipeline: Optional[PipelineConfig] = None,
    engine: Optional[str] = DeploymentSpec.engine,
    fragment_bytes: Optional[int] = None,
    deployment_id: str = "replay",
    deployments: int = 1,
):
    """Serve a recording through a loopback fleet and return its fix.

    Builds a :class:`FleetSupervisor` from the recording's registry
    snapshot, streams every captured frame over a real socket at
    ``speed``x, waits for ingest to drain, and asks each deployment for
    a 2D fix on ``(reader_name, antenna_port)``.  Deployments serve on
    ``engine``, by default the fleet's serving engine
    (:class:`~repro.fleet.worker.DeploymentSpec`).

    ``deployments=M`` clones the one recording across M synthetic
    deployments (each with its own endpoint, loopback connection and
    concurrent frame stream) — the multi-deployment load shape the
    sharded fleet bench replays, without needing M captures.  Returns a
    single :class:`ReplayResult` for ``M == 1`` (back-compat) and a
    list of M results otherwise.
    """
    registry = recording.build_registry()
    config = pipeline if pipeline is not None else PipelineConfig()
    deployment_ids = clone_deployment_ids(deployment_id, deployments)

    def server_factory() -> ResilientLocalizationServer:
        return ResilientLocalizationServer(registry, config, engine=engine)

    supervisor = FleetSupervisor()
    endpoints: List[WireIngestEndpoint] = []
    for clone_id in deployment_ids:
        supervisor.add_deployment(clone_id, server_factory)
        endpoints.append(
            WireIngestEndpoint(supervisor, clone_id, reader_name)
        )
    results: List[ReplayResult] = []
    try:
        writers: List[asyncio.StreamWriter] = []
        for endpoint in endpoints:
            host, port = await endpoint.start()
            _reader, writer = await asyncio.open_connection(host, port)
            writers.append(writer)
        await asyncio.gather(*(
            replay_frames(
                recording, writer, speed=speed,
                fragment_bytes=fragment_bytes,
            )
            for writer in writers
        ))
        for writer in writers:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        for endpoint in endpoints:
            await endpoint.drain()
        for clone_id, endpoint in zip(deployment_ids, endpoints):
            fix, diagnostics = await supervisor.locate_2d(
                clone_id, reader_name, antenna_port
            )
            results.append(ReplayResult(
                fix=fix,
                diagnostics=diagnostics,
                truth=recording.truth,
                reports_offered=sum(
                    c.reports_offered for c in endpoint.connections
                ),
                reports_enqueued=sum(
                    c.reports_enqueued for c in endpoint.connections
                ),
                stream_stats=endpoint.stats.as_dict(),
            ))
    finally:
        for endpoint in endpoints:
            await endpoint.stop()
        await supervisor.stop()
    if deployments == 1:
        return results[0]
    return results
