"""Hash-sharded multi-process fleet front-end.

:class:`ShardedFleet` scales the fault-tolerant serving tier past one
core: it spawns ``workers`` processes (``spawn`` start method; one
duplex pipe each), routes every deployment to
``blake2b(deployment_id) % workers`` (*stable* — Python's salted
``hash()`` would route differently in every process), and runs a full
:class:`~repro.fleet.supervisor.FleetSupervisor` inside each worker, so
restart-with-backoff, circuit breakers and checkpoint/restore keep
working per shard.

**Owner affinity.**  A deployment's stream buffers, validators and
engine caches live in one worker, so every report for it must land on
the worker that owns that state.  The hash route guarantees that; it is
also why work stealing is deliberately absent.

**Zero-copy columnar transport.**  ``offer_columnar`` packs the batch's
arrays into a per-worker ``multiprocessing.shared_memory`` ring
(:class:`ShmRing`, a bip-buffer) and sends only a tiny
``(offset, metadata)`` tuple down the pipe; the worker copies the rows
out with ``np.frombuffer`` views and acks a ``release``.  When the ring
is full (consumer behind) the batch falls back to inline pickling —
counted, never dropped.

**Exact cross-incarnation ledger.**  Every offer the worker processes
is acknowledged with a full accounting snapshot.  The parent tracks how
many reports it *dispatched* per deployment; when a worker dies
(chaos SIGKILL, shutdown overrun), reports dispatched but never
acknowledged are folded into ``lost_in_crash``, keeping
``offered == shed + pending + delivered + lost_in_crash`` exact across
process incarnations — the same invariant the in-process chaos harness
asserts, now across ``kill -9``.

**Exact cross-incarnation metrics.**  The same ledger acks carry each
worker's :mod:`repro.obs` metrics-registry snapshot; dead incarnations
fold into ``_metrics_folds`` exactly like the report ledger, so
:meth:`ShardedFleet.metrics_snapshot` stays exact across SIGKILL +
restart cycles (counters and histograms merge element-wise; see
:func:`repro.obs.exposition.merge_snapshots`).
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, WorkerUnavailableError
from repro.fleet.events import (
    EVENT_INGEST_REJECTED,
    EVENT_WORKER_KILLED,
    EVENT_WORKER_LOST,
    EVENT_WORKER_RESTARTED,
    EVENT_WORKER_STARTED,
    EVENT_WORKER_STOPPED,
    EventLog,
)
from repro.fleet.supervisor import SupervisorPolicy
from repro.fleet.worker import (
    DeploymentSpec,
    WorkerOptions,
    thread_pin_env,
    worker_main,
)
from repro.hardware.llrp_columnar import ColumnarReportBatch

#: Default per-worker shared-memory ring capacity (bytes).
DEFAULT_RING_BYTES = 1 << 22

#: Ledger keys, in the order the fold code walks them.
_LEDGER_KEYS = (
    "offered",
    "shed",
    "delivered",
    "pending",
    "received",
    "accepted",
    "quarantined",
    "rejected_invalid",
    "rejected_open",
    "lost_in_crash",
)


def _zero_ledger() -> dict:
    return {key: 0 for key in _LEDGER_KEYS}


def shard_for(deployment_id: str, workers: int) -> int:
    """Stable shard index of a deployment (salt-free blake2b)."""
    if workers < 1:
        raise ValueError("workers must be positive")
    digest = hashlib.blake2b(
        deployment_id.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % workers


class ShmRing:
    """Parent-side bip-buffer allocator over one shared-memory segment.

    Allocation and release are both parent-side (the worker only *acks*
    releases over the pipe), so no cross-process locking is needed: the
    pipe's FIFO ordering guarantees releases arrive in allocation order,
    which is exactly the discipline a bip-buffer requires.  A process-
    local lock is still required — ``alloc`` runs on the offering thread
    while ``release`` runs on the per-worker reader thread, and a lost
    update on ``_used`` would either hand out bytes overlapping an
    in-flight slot (silent data corruption) or strand the ring in
    permanent pickle fallback.
    """

    def __init__(self, nbytes: int = DEFAULT_RING_BYTES) -> None:
        if nbytes < 64:
            raise ValueError("ring too small")
        self.capacity = nbytes
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self._lock = threading.Lock()
        self._head = 0
        self._used = 0
        self._inflight: Deque[Tuple[int, int, int]] = deque()

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def buf(self):
        return self._shm.buf

    @property
    def used(self) -> int:
        return self._used

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def alloc(self, size: int) -> Optional[int]:
        """Reserve ``size`` contiguous bytes; None when the ring is full."""
        size = max(8, (size + 7) & ~7)
        if size > self.capacity:
            return None
        with self._lock:
            pad = 0
            offset = self._head
            if offset + size > self.capacity:
                # Wrap: the skipped tail bytes stay accounted until
                # release.
                pad = self.capacity - offset
                offset = 0
            if size + pad > self.capacity - self._used:
                return None
            self._inflight.append((offset, size, pad))
            self._used += size + pad
            self._head = (offset + size) % self.capacity
            return offset

    def release(self, offset: int) -> None:
        """Free the oldest slot (FIFO); ``offset`` cross-checks protocol."""
        with self._lock:
            if not self._inflight:
                raise ValueError("release with no slot in flight")
            slot_offset, size, pad = self._inflight.popleft()
            if slot_offset != offset:
                self._inflight.appendleft((slot_offset, size, pad))
                raise ValueError(
                    f"out-of-order release: expected {slot_offset}, "
                    f"got {offset}"
                )
            self._used -= size + pad

    def cancel(self, offset: int) -> bool:
        """Undo the *newest* allocation (it was never shipped).

        Used when the pipe send fails after a successful :meth:`alloc`:
        the worker will never ack a release for that slot, so the parent
        must take the bytes back itself or the accounting leaks until
        the ring degrades to permanent pickle fallback.  Only the most
        recent slot can be cancelled (anything older may already be in
        flight); returns False when ``offset`` is not that slot.
        """
        with self._lock:
            if not self._inflight or self._inflight[-1][0] != offset:
                return False
            slot_offset, size, pad = self._inflight.pop()
            self._used -= size + pad
            # Rewind the head to where this alloc found it (the slot
            # start, or the pre-wrap tail when the alloc wrapped).
            self._head = (
                self.capacity - pad if pad else slot_offset
            ) % self.capacity
            return True

    def close(self, unlink: bool = True) -> None:
        with self._lock:
            self._inflight.clear()
            self._used = 0
        try:
            self._shm.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


@dataclass
class _Route:
    """Parent-side bookkeeping of one deployment."""

    spec: DeploymentSpec
    shard: int
    #: Reports handed to the worker this process incarnation.
    dispatched: int = 0
    #: Ledger folded from dead worker incarnations.
    folds: dict = field(default_factory=_zero_ledger)
    #: Reports rejected parent-side while the worker was down.
    rejected_down: int = 0


class _WorkerHandle:
    """Everything the parent tracks about one worker process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.Process] = None
        self.conn = None
        self.ring: Optional[ShmRing] = None
        self.reader: Optional[threading.Thread] = None
        self.send_lock = threading.Lock()
        self.pending: Dict[int, Future] = {}
        self.last_ledger: Dict[str, dict] = {}
        #: Latest metrics-registry snapshot piggybacked on a ledger ack;
        #: the crash-fold source when this incarnation dies uncleanly.
        self.last_metrics: Optional[dict] = None
        self.alive = False
        self.stopping = False
        self.final: Optional[dict] = None
        self.ring_fallbacks = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None


class ShardedFleet:
    """Multi-core fleet: N worker processes behind one hash router."""

    def __init__(
        self,
        workers: int = 2,
        policy: Optional[SupervisorPolicy] = None,
        events: Optional[EventLog] = None,
        checkpoint_dir: Optional[str] = None,
        ring_bytes: int = DEFAULT_RING_BYTES,
        threads_per_worker: int = 1,
        request_timeout_s: float = 30.0,
        start_method: str = "spawn",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.policy = policy
        self.events = events if events is not None else EventLog()
        self.ring_bytes = ring_bytes
        self.threads_per_worker = threads_per_worker
        self.request_timeout_s = request_timeout_s
        self._ctx = multiprocessing.get_context(start_method)
        self._owns_checkpoint_dir = checkpoint_dir is None
        # Always file-backed: checkpoints must outlive worker processes
        # for the cross-process warm restart to exist at all.
        self.checkpoint_dir = (
            checkpoint_dir
            if checkpoint_dir is not None
            else tempfile.mkdtemp(prefix="tagspin-fleet-")
        )
        self._workers = [_WorkerHandle(i) for i in range(workers)]
        self._routes: Dict[str, _Route] = {}
        #: Metrics snapshots folded from dead worker incarnations (the
        #: telemetry analogue of the per-route ledger folds).
        self._metrics_folds: Optional[dict] = None
        self._rid = itertools.count(1)
        self._events_lock = threading.Lock()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for handle in self._workers:
            self._spawn(handle)

    def __enter__(self) -> "ShardedFleet":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        handle.ring = ShmRing(self.ring_bytes)
        handle.conn = parent_conn
        handle.pending = {}
        handle.last_ledger = {}
        handle.last_metrics = None
        handle.stopping = False
        handle.final = None
        options = WorkerOptions(
            policy=self.policy,
            checkpoint_dir=self.checkpoint_dir,
            threads=self.threads_per_worker,
        )
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, handle.index, handle.ring.name, options),
            name=f"tagspin-shard-{handle.index}",
            daemon=True,
        )
        # Export the pinning env *before* spawn: the child reads these at
        # numpy/BLAS import time, long before worker_main runs.
        saved = {
            name: os.environ.get(name)
            for name in thread_pin_env(self.threads_per_worker)
        }
        os.environ.update(thread_pin_env(self.threads_per_worker))
        try:
            process.start()
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
        child_conn.close()  # parent's copy; child holds the real end
        handle.process = process
        handle.alive = True
        handle.reader = threading.Thread(
            target=self._reader_loop,
            args=(handle,),
            name=f"shard-{handle.index}-reader",
            daemon=True,
        )
        handle.reader.start()
        self._emit(
            f"worker-{handle.index}", EVENT_WORKER_STARTED, pid=process.pid
        )

    def _emit(self, deployment_id: str, kind: str, **details) -> None:
        with self._events_lock:
            self.events.emit(deployment_id, kind, **details)

    # ------------------------------------------------------------------
    # Pipe plumbing
    # ------------------------------------------------------------------
    def _reader_loop(self, handle: _WorkerHandle) -> None:
        conn = handle.conn
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "reply":
                future = handle.pending.pop(message[1], None)
                if future is not None:
                    future.set_result((message[2], message[3]))
            elif kind == "ledger":
                handle.last_ledger[message[1]] = message[2]
                if len(message) > 3:
                    handle.last_metrics = message[3]
            elif kind == "release":
                if handle.ring is not None:
                    try:
                        handle.ring.release(message[1])
                    except ValueError:  # pragma: no cover - protocol bug
                        pass
        handle.alive = False
        for rid in list(handle.pending):
            future = handle.pending.pop(rid, None)
            if future is not None and not future.done():
                future.set_exception(
                    WorkerUnavailableError(
                        f"worker {handle.index} exited with this request "
                        f"outstanding"
                    )
                )
        if not handle.stopping and not self._closed:
            self._emit(
                f"worker-{handle.index}",
                EVENT_WORKER_LOST,
                pid=handle.pid,
            )

    def _send(self, handle: _WorkerHandle, message) -> None:
        if not handle.alive:
            raise WorkerUnavailableError(
                f"worker {handle.index} is not running"
            )
        try:
            with handle.send_lock:
                handle.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            handle.alive = False
            raise WorkerUnavailableError(
                f"worker {handle.index} pipe broke: {exc}"
            ) from exc

    def _request_future(self, handle: _WorkerHandle, kind: str,
                        *args) -> Tuple[int, Future]:
        rid = next(self._rid)
        future: Future = Future()
        handle.pending[rid] = future
        try:
            self._send(handle, (kind, rid, *args))
        except WorkerUnavailableError:
            handle.pending.pop(rid, None)
            raise
        return rid, future

    def _request(self, handle: _WorkerHandle, kind: str, *args,
                 timeout: Optional[float] = None):
        rid, future = self._request_future(handle, kind, *args)
        try:
            ok, payload = future.result(
                timeout if timeout is not None else self.request_timeout_s
            )
        except FutureTimeoutError:
            handle.pending.pop(rid, None)
            raise WorkerUnavailableError(
                f"worker {handle.index} request {kind!r} timed out"
            ) from None
        if not ok:
            if isinstance(payload, BaseException):
                raise payload
            raise WorkerUnavailableError(str(payload))
        return payload

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, deployment_id: str) -> int:
        return shard_for(deployment_id, self.workers)

    def _route(self, deployment_id: str) -> _Route:
        try:
            return self._routes[deployment_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown deployment {deployment_id!r}"
            ) from None

    def _handle(self, deployment_id: str) -> _WorkerHandle:
        return self._workers[self._route(deployment_id).shard]

    def deployment_ids(self) -> Sequence[str]:
        return sorted(self._routes)

    # ------------------------------------------------------------------
    # Fleet membership
    # ------------------------------------------------------------------
    def add_deployment(self, spec: DeploymentSpec) -> dict:
        """Register one deployment on its hash-owned shard.

        Blocks until the worker's actor is serving; returns the worker's
        add receipt (includes ``warm_restored``).
        """
        if not self._started:
            self.start()
        if spec.deployment_id in self._routes:
            raise ConfigurationError(
                f"deployment {spec.deployment_id!r} already registered"
            )
        shard = self.shard_of(spec.deployment_id)
        receipt = self._request(self._workers[shard], "add", spec)
        self._routes[spec.deployment_id] = _Route(spec=spec, shard=shard)
        return receipt

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def offer(self, deployment_id: str, reader_name: str,
              reports: Sequence) -> int:
        """Route an object-path batch (pickled over the pipe)."""
        route = self._route(deployment_id)
        handle = self._workers[route.shard]
        count = len(reports)
        try:
            self._send(
                handle, ("offer", deployment_id, reader_name, list(reports))
            )
        except WorkerUnavailableError:
            self._reject_down(route, deployment_id, reader_name, count)
            return 0
        route.dispatched += count
        return count

    def offer_columnar(self, deployment_id: str, reader_name: str,
                       cols: ColumnarReportBatch) -> int:
        """Route a columnar batch through shared memory (zero-copy).

        Falls back to inline pickling when the ring has no room — the
        batch is never dropped parent-side; ``ring_fallbacks`` counts
        how often the consumer fell behind.
        """
        route = self._route(deployment_id)
        handle = self._workers[route.shard]
        count = len(cols)
        try:
            offset = (
                handle.ring.alloc(cols.packed_nbytes())
                if handle.alive and handle.ring is not None
                else None
            )
            if offset is None:
                handle.ring_fallbacks += 1
                self._send(
                    handle,
                    ("offer_cols_inline", deployment_id, reader_name, cols),
                )
            else:
                try:
                    meta = cols.pack_into(handle.ring.buf, offset)
                    self._send(
                        handle,
                        ("offer_cols", deployment_id, reader_name, offset,
                         meta),
                    )
                except BaseException:
                    # The worker never saw this slot, so it will never
                    # ack a release — take the bytes back here or the
                    # ring accounting leaks across incarnations.
                    if handle.ring is not None:
                        handle.ring.cancel(offset)
                    raise
        except WorkerUnavailableError:
            self._reject_down(route, deployment_id, reader_name, count)
            return 0
        route.dispatched += count
        return count

    def _reject_down(self, route: _Route, deployment_id: str,
                     reader_name: str, count: int) -> None:
        route.rejected_down += count
        self._emit(
            deployment_id,
            EVENT_INGEST_REJECTED,
            reader_name=reader_name,
            reports=count,
            error=f"worker {route.shard} down",
        )

    # ------------------------------------------------------------------
    # Serving API
    # ------------------------------------------------------------------
    def locate_2d_sync(self, deployment_id: str, reader_name: str,
                       antenna_port: int = 1):
        """2D fix + diagnostics from the owning worker (blocking)."""
        return self._request(
            self._handle(deployment_id),
            "locate",
            deployment_id,
            reader_name,
            antenna_port,
        )

    async def locate_2d(self, deployment_id: str, reader_name: str,
                        antenna_port: int = 1):
        return await asyncio.to_thread(
            self.locate_2d_sync, deployment_id, reader_name, antenna_port
        )

    def checkpoint(self, deployment_id: str) -> int:
        return self._request(
            self._handle(deployment_id), "checkpoint", deployment_id
        )

    def actor_stats(self, deployment_id: str) -> dict:
        return self._request(
            self._handle(deployment_id), "actor_stats", deployment_id
        )

    def kill_deployment_actor(self, deployment_id: str) -> None:
        """Chaos hook: crash one actor *inside* its worker (in-process
        supervision — restart/backoff/breaker — handles it there)."""
        self._request(self._handle(deployment_id), "kill", deployment_id)

    def drain(self, timeout_s: float = 30.0,
              poll_s: float = 0.01) -> None:
        """Block until every dispatched report is fully accounted.

        Polls each live worker's accounting until, per deployment,
        nothing is pending and ``offered + rejected_open`` matches what
        the parent dispatched (i.e. nothing is still in the pipe or
        mailbox).  Deployments on dead workers are skipped — their fate
        is already folded.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            settled = True
            for handle in self._workers:
                if not handle.alive:
                    continue
                try:
                    ledgers = self._request(handle, "sync")
                except WorkerUnavailableError:
                    # Died mid-drain: skip it, like any other dead
                    # worker — its fate is folded on kill/restart.
                    continue
                handle.last_ledger.update(ledgers)
                for deployment_id, snap in ledgers.items():
                    route = self._routes.get(deployment_id)
                    if route is None:
                        continue
                    seen = snap["offered"] + snap["rejected_open"]
                    if snap["pending"] or seen < route.dispatched:
                        settled = False
            if settled:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"fleet did not drain within {timeout_s}s"
                )
            time.sleep(poll_s)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def accounting(self, deployment_id: str) -> dict:
        """Lifetime ledger across *worker* incarnations.

        Live worker state (fresh ``sync`` when reachable, else the last
        ledger ack) plus everything folded from dead incarnations, plus
        parent-side rejections while the worker was down.  The chaos
        invariant ``offered == shed + pending + delivered +
        lost_in_crash`` holds exactly, even after ``kill -9``.
        """
        route = self._route(deployment_id)
        handle = self._workers[route.shard]
        totals = dict(route.folds)
        snap: Optional[dict] = None
        if handle.alive:
            try:
                ledgers = self._request(handle, "sync")
                handle.last_ledger.update(ledgers)
                snap = ledgers.get(deployment_id)
            except WorkerUnavailableError:
                snap = handle.last_ledger.get(deployment_id)
        if snap is not None:
            for key in _LEDGER_KEYS:
                totals[key] += snap[key]
        totals["rejected_open"] += route.rejected_down
        return totals

    def _fold_worker(self, handle: _WorkerHandle, crashed: bool) -> None:
        """Fold a finished worker incarnation into parent-side ledgers.

        ``crashed`` means the final ledger acks may predate reports
        still in the pipe: those in-transit reports were offered (the
        parent dispatched them) and lost (no process ever saw them), so
        they land in both ``offered`` and ``lost_in_crash`` — exactly
        the buckets that keep the invariant balanced.

        The incarnation's metrics snapshot folds alongside the ledger:
        a clean stop reports its final registry state, a crash falls
        back to the snapshot that rode the last ledger ack — the same
        consistency point the ledger fold itself uses.  ``last_metrics``
        is consumed so the incarnation is folded exactly once.
        """
        from repro.obs.exposition import merge_snapshots

        snapshot = None
        if handle.final is not None:
            snapshot = handle.final.get("metrics")
        if snapshot is None:
            snapshot = handle.last_metrics
        if snapshot is not None:
            self._metrics_folds = merge_snapshots(
                [self._metrics_folds, snapshot]
            )
        handle.last_metrics = None
        for deployment_id, route in self._routes.items():
            if route.shard != handle.index:
                continue
            snap = handle.last_ledger.pop(
                deployment_id, None
            ) or _zero_ledger()
            in_transit = max(
                0,
                route.dispatched
                - snap["offered"]
                - snap["rejected_open"],
            )
            folds = route.folds
            folds["offered"] += snap["offered"] + in_transit
            folds["shed"] += snap["shed"]
            folds["delivered"] += snap["delivered"]
            folds["received"] += snap["received"]
            folds["accepted"] += snap["accepted"]
            folds["quarantined"] += snap["quarantined"]
            folds["rejected_invalid"] += snap["rejected_invalid"]
            folds["rejected_open"] += snap["rejected_open"]
            if crashed:
                folds["lost_in_crash"] += (
                    snap["lost_in_crash"] + snap["pending"] + in_transit
                )
            else:
                folds["pending"] += snap["pending"]
                folds["lost_in_crash"] += snap["lost_in_crash"] + in_transit
            route.dispatched = 0

    # ------------------------------------------------------------------
    # Metrics (exact across worker incarnations)
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Fleet-wide ``tagspin-metrics/1`` snapshot, exact across
        worker restarts.

        Merges, point-in-time (nothing here mutates fold state, so
        repeated calls never double-count):

        * the parent process's own registry (router/event metrics),
        * every dead incarnation's fold (collected by
          :meth:`_fold_worker`, per-incarnation like the report ledger),
        * every live worker's current registry (a ``metrics`` request;
          the last ledger-ack snapshot when the request fails), and
        * the last-acked snapshot of a dead-but-not-yet-folded worker
          (uncommanded death before :meth:`restart_shard`).
        """
        from repro.obs.exposition import merge_snapshots
        from repro.obs.metrics import get_registry

        parts: List[Optional[dict]] = [
            get_registry().snapshot(),
            self._metrics_folds,
        ]
        for handle in self._workers:
            if handle.alive:
                try:
                    parts.append(self._request(handle, "metrics"))
                except WorkerUnavailableError:
                    parts.append(handle.last_metrics)
            else:
                # Folded incarnations were consumed (last_metrics is
                # None); an unfolded uncommanded death still holds its
                # last acked snapshot.
                parts.append(handle.last_metrics)
        return merge_snapshots(parts)

    # ------------------------------------------------------------------
    # Engine statistics (aggregated across workers)
    # ------------------------------------------------------------------
    def engine_stats(self) -> dict:
        """Per-deployment engine cache stats, merged across workers.

        Process fan-out used to zero these counters in the bench JSON;
        workers now report their live engines and the parent merges with
        :func:`~repro.perf.engine.merge_cache_stats`.
        """
        from repro.perf.engine import merge_cache_stats

        per_deployment: Dict[str, List[dict]] = {}
        for handle in self._workers:
            if not handle.alive:
                payload = (handle.final or {}).get("engine_stats", {})
            else:
                try:
                    payload = self._request(handle, "engine_stats")
                except WorkerUnavailableError:
                    continue
            for deployment_id, stats in payload.items():
                per_deployment.setdefault(deployment_id, []).append(stats)
        return {
            deployment_id: merge_cache_stats(stats_list)
            for deployment_id, stats_list in per_deployment.items()
        }

    def worker_info(self) -> List[dict]:
        info = []
        for handle in self._workers:
            if handle.alive:
                try:
                    payload = self._request(handle, "info")
                except WorkerUnavailableError:
                    payload = {}
            else:
                payload = {}
            info.append({
                "index": handle.index,
                "pid": handle.pid,
                "alive": handle.alive,
                "ring_fallbacks": handle.ring_fallbacks,
                "ring_inflight": (
                    handle.ring.inflight if handle.ring is not None else 0
                ),
                **payload,
            })
        return info

    def worker_events(self) -> dict:
        """Merged event counts: parent log + every reachable worker."""
        counts = dict(self.events.counts())
        for handle in self._workers:
            if handle.alive:
                try:
                    payload = self._request(handle, "events")
                except WorkerUnavailableError:
                    continue
            else:
                payload = (handle.final or {}).get("events", {})
            for kind, count in payload.items():
                counts[kind] = counts.get(kind, 0) + count
        return counts

    # ------------------------------------------------------------------
    # Chaos / recovery
    # ------------------------------------------------------------------
    def kill_worker(self, index: int) -> None:
        """Chaos hook: SIGKILL one worker process and fold its ledger."""
        handle = self._workers[index]
        if handle.process is None or handle.process.exitcode is not None:
            raise WorkerUnavailableError(
                f"worker {index} has no live process to kill"
            )
        handle.stopping = True  # suppress the worker-lost event
        handle.process.kill()
        handle.process.join(10.0)
        if handle.reader is not None:
            handle.reader.join(5.0)
        self._fold_worker(handle, crashed=True)
        self._teardown_handle(handle)
        self._emit(
            f"worker-{index}",
            EVENT_WORKER_KILLED,
            pid=handle.pid,
            reason="chaos",
        )

    def restart_shard(self, index: int) -> List[dict]:
        """Respawn a dead worker and re-add its deployments.

        Actors warm-start from the shared file-backed checkpoint store;
        the receipts' ``warm_restored`` flags say whether they did.
        """
        handle = self._workers[index]
        if handle.alive:
            raise ConfigurationError(
                f"worker {index} is still running; kill it first"
            )
        if handle.ring is not None:
            # Uncommanded death (reader saw EOF; nothing folded yet):
            # settle the dead incarnation's ledger and release its
            # shared-memory segment before spawning the replacement,
            # else the segment leaks, ``dispatched`` keeps the dead
            # incarnation's count and drain() can never settle.
            if handle.process is not None:
                handle.process.join(10.0)
            if handle.reader is not None:
                handle.reader.join(5.0)
            self._fold_worker(handle, crashed=True)
            self._teardown_handle(handle)
        self._spawn(handle)
        self._emit(
            f"worker-{index}",
            EVENT_WORKER_RESTARTED,
            pid=handle.pid,
        )
        receipts = []
        for deployment_id in self.deployment_ids():
            route = self._routes[deployment_id]
            if route.shard != index:
                continue
            receipts.append(self._request(handle, "add", route.spec))
        return receipts

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, deadline_s: float = 15.0) -> dict:
        """Graceful stop: checkpoint + stop every worker, join with a
        deadline, SIGKILL (with a structured event) on overrun.

        Idempotent; leaves no orphan processes behind either way.
        Returns a summary of which workers stopped cleanly.
        """
        if self._closed:
            return {"clean": [], "killed": [], "already_closed": True}
        self._closed = True
        deadline = time.monotonic() + deadline_s
        summary = {"clean": [], "killed": []}
        stop_futures: Dict[int, Future] = {}
        for handle in self._workers:
            handle.stopping = True
            if not handle.alive:
                continue
            try:
                _rid, future = self._request_future(handle, "stop")
                stop_futures[handle.index] = future
            except WorkerUnavailableError:
                continue
        for handle in self._workers:
            future = stop_futures.get(handle.index)
            if future is not None:
                try:
                    ok, payload = future.result(
                        max(0.05, deadline - time.monotonic())
                    )
                    if ok:
                        handle.final = payload
                        handle.last_ledger.update(payload["ledgers"])
                except (FutureTimeoutError, WorkerUnavailableError):
                    pass
            if handle.process is None:
                continue
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.exitcode is None:
                handle.process.kill()
                self._emit(
                    f"worker-{handle.index}",
                    EVENT_WORKER_KILLED,
                    pid=handle.pid,
                    reason="shutdown-deadline-overrun",
                    deadline_s=deadline_s,
                )
                handle.process.join(5.0)
                summary["killed"].append(handle.index)
                crashed = True
            else:
                crashed = handle.final is None
                if not crashed:
                    summary["clean"].append(handle.index)
                    self._emit(
                        f"worker-{handle.index}",
                        EVENT_WORKER_STOPPED,
                        pid=handle.pid,
                    )
            if handle.reader is not None:
                handle.reader.join(5.0)
            self._fold_worker(handle, crashed=crashed)
            self._teardown_handle(handle)
        if self._owns_checkpoint_dir:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        return summary

    async def aclose(self, deadline_s: float = 15.0) -> dict:
        """Async graceful shutdown (see :meth:`close`)."""
        return await asyncio.to_thread(self.close, deadline_s)

    def _teardown_handle(self, handle: _WorkerHandle) -> None:
        handle.alive = False
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
            handle.conn = None
        if handle.ring is not None:
            handle.ring.close(unlink=True)
            handle.ring = None
