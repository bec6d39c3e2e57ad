"""Serving targets and the closed-loop traffic that drives them.

Every session is a fresh deployment whose reader connection is a
:class:`~repro.hardware.llrp_stream.StreamingLLRPParser` fed the
recording's MTU-sized chunks; each decoded batch goes straight to the
target's ``offer_columnar``.  Neither target names a spectrum engine:
deployments get the default of :class:`repro.fleet.worker.DeploymentSpec`
in this process and in sharded workers alike, so a change of the serving
default is measured as shipped.
"""

from __future__ import annotations

import asyncio
import itertools
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Sequence

from repro.core.pipeline import PipelineConfig
from repro.fleet.actor import ActorConfig
from repro.fleet.checkpoint import MemoryCheckpointStore
from repro.fleet.sharding import ShardedFleet, shard_for
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.worker import DeploymentSpec
from repro.hardware.llrp_stream import StreamingLLRPParser
from repro.server.resilience import ResilientLocalizationServer

from perfbench.recordings import Recording

#: Closed-loop clients of poll and sharded, and sharded's worker count:
#: one per core of the 2-core host the baseline was taken on.
CLIENTS = 2
#: Concurrent sessions (slots) bulk interleaves frames across.
BULK_DEPLOYMENTS = 8
#: Every deployment checkpoints after this many ingest batches, into a
#: memory store in process and into the sharded fleet's file store.
CHECKPOINT_EVERY = 20


@dataclass(frozen=True)
class Session:
    """One calibration session: a fresh deployment fed one recording."""

    deployment_id: str
    reader_name: str
    recording: Recording


@dataclass
class SessionOutcome:
    """How far a session got inside the window."""

    session: Session
    frames_fed: int = 0
    #: The newest fix, and how many frames it covers.
    final_fix: object = None
    final_fix_frames: int = 0
    #: Bulk: the session ended and its deployment was stopped.
    retired: bool = False

    @property
    def fed_all(self) -> bool:
        return self.frames_fed == self.session.recording.frames

    @property
    def completed(self) -> bool:
        """Every frame was fed and the newest fix covers them all."""
        frames = self.session.recording.frames
        return self.frames_fed == frames == self.final_fix_frames


@dataclass
class RunResult:
    """What one timed window did, as the clients saw it."""

    started: float = 0.0
    ended: float = 0.0
    frames: int = 0
    bytes: int = 0
    #: Wire reports offered, per deployment.
    fed: Counter = field(default_factory=Counter)
    fixes_requested: int = 0
    fix_errors: List[str] = field(default_factory=list)
    #: Per frame, seconds from offering its first chunk to receiving the
    #: fix that includes it (poll, sharded) or to its batch being
    #: buffered, so that a fix could include it (bulk).
    latencies: List[float] = field(default_factory=list)
    #: Reports fed to the deployment when each fix was requested.
    buffered_at_fix: List[int] = field(default_factory=list)
    sessions: List[SessionOutcome] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.ended - self.started

    @property
    def reports(self) -> int:
        return sum(self.fed.values())


def _factory(recording: Recording):
    """Server factory of one in-process deployment, built as workers do."""
    registry = recording.wire.build_registry()

    def factory() -> ResilientLocalizationServer:
        return ResilientLocalizationServer(
            registry, PipelineConfig(), engine=DeploymentSpec.engine
        )

    return factory


class InProcessTarget:
    """A :class:`FleetSupervisor` on this process's event loop."""

    def __init__(self, actor_config=None, store=None) -> None:
        self.store = store
        self.supervisor = FleetSupervisor(store=store)
        self.actor_config = actor_config
        self.deployments: List[str] = []

    async def add(self, session: Session) -> None:
        """Register the session's deployment; return once its actor serves."""
        if session.deployment_id in self.deployments:
            return
        self.supervisor.add_deployment(
            session.deployment_id,
            _factory(session.recording),
            self.actor_config,
        )
        self.deployments.append(session.deployment_id)
        while True:
            actor = self.supervisor.actor(session.deployment_id)
            if actor is not None and actor.running:
                return
            await asyncio.sleep(0)

    def offer_columnar(self, deployment_id: str, reader_name: str, cols) -> int:
        return self.supervisor.offer_columnar(deployment_id, reader_name, cols)

    async def locate_2d(self, deployment_id: str, reader_name: str):
        return await self.supervisor.locate_2d(deployment_id, reader_name)

    async def ingested(self, deployment_ids: Sequence[str]) -> None:
        """Yield to the loop until these deployments' mailboxes are empty.

        An actor ingests every batch it takes before it waits again, so
        empty mailboxes after a yield mean the batches are buffered.
        """
        mailboxes = [
            self.supervisor.actor(deployment_id).mailbox
            for deployment_id in deployment_ids
        ]
        await asyncio.sleep(0)
        while any(mailbox.pending_reports for mailbox in mailboxes):
            await asyncio.sleep(0)

    async def retire(self, deployment_id: str) -> None:
        """End a finished session: stop its actor, drop its checkpoint."""
        actor = self.supervisor.actor(deployment_id)
        if actor is not None:
            await actor.stop()
        if self.store is not None:
            self.store.delete(deployment_id)

    async def settle(self) -> None:
        """Nothing is left in flight once the clients have returned."""

    def accounting(self, deployment_id: str) -> dict:
        return self.supervisor.accounting(deployment_id)

    def engine_stats(self) -> List[dict]:
        stats = []
        for deployment_id in self.deployments:
            actor = self.supervisor.actor(deployment_id)
            if actor is not None:
                stats.append(actor.server.engine_cache_stats())
        return stats

    def metrics_snapshot(self) -> dict:
        return self.supervisor.metrics_snapshot()

    def pids(self) -> List[int]:
        return []

    def ring_fallbacks(self) -> int:
        return 0

    async def close(self) -> None:
        await self.supervisor.stop()


class ShardedTarget:
    """A :class:`ShardedFleet` of CLIENTS worker processes."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.fleet = ShardedFleet(workers=CLIENTS, checkpoint_dir=str(workdir))
        self.fleet.start()
        self.deployments: List[str] = []

    async def add(self, session: Session) -> None:
        """Register the session's deployment on its shard; returns once
        the worker's actor serves."""
        if session.deployment_id in self.deployments:
            return
        spec = DeploymentSpec(
            deployment_id=session.deployment_id,
            registry_records=tuple(session.recording.wire.registry_records),
            actor_config=ActorConfig(checkpoint_every=CHECKPOINT_EVERY),
        )
        await asyncio.to_thread(self.fleet.add_deployment, spec)
        self.deployments.append(session.deployment_id)

    def offer_columnar(self, deployment_id: str, reader_name: str, cols) -> int:
        return self.fleet.offer_columnar(deployment_id, reader_name, cols)

    async def locate_2d(self, deployment_id: str, reader_name: str):
        return await self.fleet.locate_2d(deployment_id, reader_name)

    async def settle(self) -> None:
        """Wait until the workers have accounted every dispatched report."""
        await asyncio.to_thread(self.fleet.drain)

    def accounting(self, deployment_id: str) -> dict:
        return self.fleet.accounting(deployment_id)

    def engine_stats(self) -> List[dict]:
        return list(self.fleet.engine_stats().values())

    def metrics_snapshot(self) -> dict:
        return self.fleet.metrics_snapshot()

    def pids(self) -> List[int]:
        return [info["pid"] for info in self.fleet.worker_info() if info["pid"]]

    def ring_fallbacks(self) -> int:
        return sum(info["ring_fallbacks"] for info in self.fleet.worker_info())

    async def close(self) -> None:
        await asyncio.to_thread(self.fleet.close)
        shutil.rmtree(self.workdir, ignore_errors=True)


def make_target(workload: str, workdir: Path):
    """A fresh serving target for ``workload``."""
    if workload == "sharded":
        return ShardedTarget(workdir)
    return InProcessTarget(
        ActorConfig(checkpoint_every=CHECKPOINT_EVERY), MemoryCheckpointStore()
    )


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

def session_id(client: int, number: int) -> str:
    """A client's ``number``-th deployment id, chosen to hash to shard
    ``client``, so concurrent sessions of the two clients land on
    different sharded workers.  Poll uses the same ids."""
    for salt in itertools.count():
        candidate = f"c{client}-s{number:03d}-{salt}"
        if shard_for(candidate, CLIENTS) == client:
            return candidate
    raise AssertionError("unreachable")


def poll_sessions(pool: Sequence[Recording], client: int) -> Iterator[Session]:
    """Client ``client``'s sessions: recordings client, client + 2, ..."""
    for number in itertools.count():
        deployment_id = session_id(client, number)
        recording = pool[(client + number * CLIENTS) % len(pool)]
        yield Session(deployment_id, f"reader-{deployment_id}", recording)


def bulk_session(pool: Sequence[Recording], slot: int, number: int) -> Session:
    """Bulk slot ``slot``'s ``number``-th session, on recording ``slot``."""
    deployment_id = f"b{slot}-s{number:03d}"
    return Session(deployment_id, f"reader-{deployment_id}", pool[slot])


def first_sessions(workload: str, pool: Sequence[Recording]) -> List[Session]:
    """The sessions a target serves from its first moment (its set-up)."""
    if workload == "bulk":
        return [bulk_session(pool, slot, 0) for slot in range(len(pool))]
    return [next(poll_sessions(pool, client)) for client in range(CLIENTS)]


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------

def _feed(target, parser, session: Session, chunks, result: RunResult) -> None:
    """One frame over the wire: chunks to the parser, batches to offer."""
    for chunk in chunks:
        for _message_id, cols in parser.feed_columnar(chunk):
            target.offer_columnar(session.deployment_id, session.reader_name, cols)
            result.fed[session.deployment_id] += len(cols)
        result.bytes += len(chunk)
    result.frames += 1


async def poll_client(target, sessions, deadline, result, trace) -> None:
    """One closed-loop client: sessions back to back, a fix per frame."""
    for session in sessions:
        if time.perf_counter() >= deadline:
            return
        await target.add(session)
        parser = StreamingLLRPParser()
        trace.bind(session.deployment_id, session.reader_name, parser)
        outcome = SessionOutcome(session)
        result.sessions.append(outcome)
        for frame, chunks in enumerate(session.recording.chunks):
            if time.perf_counter() >= deadline:
                break
            start = time.perf_counter()
            trace.begin_frame(session.deployment_id, frame)
            _feed(target, parser, session, chunks, result)
            outcome.frames_fed = frame + 1
            result.fixes_requested += 1
            result.buffered_at_fix.append(result.fed[session.deployment_id])
            try:
                fix, _diagnostics = await target.locate_2d(
                    session.deployment_id, session.reader_name
                )
            except Exception as exc:  # a failed request; serving goes on
                result.fix_errors.append(
                    f"{session.deployment_id} frame {frame}: {exc!r}"
                )
                continue
            end = time.perf_counter()
            result.latencies.append(end - start)
            trace.end_frame(session.deployment_id, frame, start, end)
            outcome.final_fix, outcome.final_fix_frames = fix, frame + 1


async def bulk_generator(target, pool, deadline, result, trace) -> None:
    """Interleave the frames of one session per recording, round by round.

    Slot ``k`` serves recording ``k`` in sessions back to back, each on a
    fresh deployment, and starts ``k * CHECKPOINT_EVERY / slots``
    rounds late so the slots' checkpoints fall in different rounds.  A
    round offers the next frame of every slot, then yields until every
    mailbox is empty: mailboxes drain as fast as frames arrive and never
    shed.  A frame's latency runs to the end of its round.  After the
    deadline each slot finishes its session and stops; a session is
    retired when its slot starts the next one, so each slot's last
    session stays up for verification fixes.
    """
    slots = len(pool)
    feeding = [None] * slots
    numbers = [0] * slots
    stopped = [False] * slots
    for round_number in itertools.count():
        started = []
        for slot in range(slots):
            if stopped[slot] or round_number < slot * CHECKPOINT_EVERY // slots:
                continue
            current = feeding[slot]
            if current is not None and current[0].fed_all:
                if time.perf_counter() >= deadline:
                    stopped[slot] = True
                    continue
                await target.retire(current[0].session.deployment_id)
                current[0].retired = True
                current = None
            if current is None:
                session = bulk_session(pool, slot, numbers[slot])
                numbers[slot] += 1
                await target.add(session)
                parser = StreamingLLRPParser()
                trace.bind(session.deployment_id, session.reader_name, parser)
                current = feeding[slot] = (SessionOutcome(session), parser)
                result.sessions.append(current[0])
            outcome, parser = current
            session, frame = outcome.session, outcome.frames_fed
            start = time.perf_counter()
            trace.begin_frame(session.deployment_id, frame)
            _feed(target, parser, session, session.recording.chunks[frame], result)
            outcome.frames_fed = frame + 1
            started.append((session.deployment_id, frame, start))
        if all(stopped):
            return
        await target.ingested([deployment_id for deployment_id, _f, _s in started])
        end = time.perf_counter()
        for deployment_id, frame, start in started:
            result.latencies.append(end - start)
            trace.end_frame(deployment_id, frame, start, end)


async def run(workload, target, pool, seconds, trace) -> RunResult:
    """Drive ``target`` with ``workload``'s traffic for ``seconds``."""
    result = RunResult()
    result.started = time.perf_counter()
    deadline = result.started + seconds
    if workload == "bulk":
        await bulk_generator(target, pool, deadline, result, trace)
    else:
        await asyncio.gather(*(
            poll_client(target, poll_sessions(pool, client), deadline, result, trace)
            for client in range(CLIENTS)
        ))
    result.ended = time.perf_counter()
    return result


async def replay(target, session: Session, frames: int):
    """Feed a session's first ``frames`` frames, then return one fix."""
    await target.add(session)
    parser = StreamingLLRPParser()
    scratch = RunResult()
    for chunks in session.recording.chunks[:frames]:
        _feed(target, parser, session, chunks, scratch)
    fix, _diagnostics = await target.locate_2d(
        session.deployment_id, session.reader_name
    )
    return fix
