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
engine live in one worker, so every report for it must land on
the worker that owns that state.  The hash route guarantees that; it is
also why work stealing is deliberately absent.

**One transport.**  Every offer is a
:class:`~repro.hardware.llrp_columnar.ColumnarReportBatch` from
``offer_columnar``, its ndarray columns pickled inside the ``offer``
message on the worker's pipe.  Batches are small (a served wire frame
decodes to ~49 reports, ~3.5 KB pickled), so no side channel is needed.

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
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    THREAD_PIN_ENV,
    DeploymentSpec,
    WorkerOptions,
    worker_main,
)
from repro.hardware.llrp_columnar import ColumnarReportBatch

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


def _incarnation_ledger(snap: Optional[dict], dispatched: int,
                        crashed: bool) -> dict:
    """What one finished worker incarnation adds to a deployment ledger.

    ``snap`` is the incarnation's last acked ledger and ``dispatched``
    what the parent sent it.  Reports dispatched but never acked were
    offered (the parent sent them) and lost (no process saw them), so
    they land in both ``offered`` and ``lost_in_crash``, the buckets
    that keep the invariant balanced.  A crash also loses everything
    still ``pending`` in the dead mailboxes.
    """
    totals = _zero_ledger()
    if snap is not None:
        for key in _LEDGER_KEYS:
            totals[key] = snap[key]
    in_transit = max(
        0, dispatched - totals["offered"] - totals["rejected_open"]
    )
    totals["offered"] += in_transit
    totals["lost_in_crash"] += in_transit
    if crashed:
        totals["lost_in_crash"] += totals["pending"]
        totals["pending"] = 0
    return totals


def shard_for(deployment_id: str, workers: int) -> int:
    """Stable shard index of a deployment (salt-free blake2b)."""
    if workers < 1:
        raise ValueError("workers must be positive")
    digest = hashlib.blake2b(
        deployment_id.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % workers


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

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def unfolded(self) -> bool:
        """Dead, with the incarnation's ledger not yet folded.

        An uncommanded death (the reader saw EOF) leaves the pipe open
        until :meth:`ShardedFleet._fold_worker` and the teardown that
        follows it, which clears ``conn``.
        """
        return not self.alive and self.conn is not None


class ShardedFleet:
    """Multi-core fleet: N worker processes behind one hash router."""

    def __init__(
        self,
        workers: int = 2,
        policy: Optional[SupervisorPolicy] = None,
        events: Optional[EventLog] = None,
        checkpoint_dir: Optional[str] = None,
        request_timeout_s: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.policy = policy
        self.events = events if events is not None else EventLog()
        self.request_timeout_s = request_timeout_s
        self._ctx = multiprocessing.get_context("spawn")
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
        handle.conn = parent_conn
        handle.pending = {}
        handle.last_ledger = {}
        handle.last_metrics = None
        handle.stopping = False
        handle.final = None
        options = WorkerOptions(
            policy=self.policy, checkpoint_dir=self.checkpoint_dir
        )
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, handle.index, options),
            name=f"tagspin-shard-{handle.index}",
            daemon=True,
        )
        # Export the pinning env *before* spawn: the child reads these at
        # numpy/BLAS import time, long before worker_main runs.
        saved = {name: os.environ.get(name) for name in THREAD_PIN_ENV}
        os.environ.update(THREAD_PIN_ENV)
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
    def offer_columnar(self, deployment_id: str, reader_name: str,
                       cols: ColumnarReportBatch) -> int:
        """Route a columnar batch (its columns pickled over the pipe)."""
        route = self._route(deployment_id)
        handle = self._workers[route.shard]
        count = len(cols)
        try:
            self._send(handle, ("offer", deployment_id, reader_name, cols))
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
        parent-side rejections while the worker was down.  A worker
        that died on its own and is not folded yet counts as the crash
        fold would count it; nothing is changed.  The chaos invariant
        ``offered == shed + pending + delivered + lost_in_crash`` holds
        exactly, even after ``kill -9``.
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
        elif handle.unfolded:
            snap = _incarnation_ledger(
                handle.last_ledger.get(deployment_id),
                route.dispatched,
                crashed=True,
            )
        if snap is not None:
            for key in _LEDGER_KEYS:
                totals[key] += snap[key]
        totals["rejected_open"] += route.rejected_down
        return totals

    def _fold_worker(self, handle: _WorkerHandle, crashed: bool) -> None:
        """Fold a finished worker incarnation into parent-side ledgers.

        ``crashed`` means the incarnation died without a final ledger;
        :func:`_incarnation_ledger` holds the arithmetic.

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
            ledger = _incarnation_ledger(
                handle.last_ledger.pop(deployment_id, None),
                route.dispatched,
                crashed,
            )
            for key in _LEDGER_KEYS:
                route.folds[key] += ledger[key]
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
                # Always 0: nothing falls back.  perfbench sums this key
                # over worker_info() and stops every sharded run without it.
                "ring_fallbacks": 0,
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
        if handle.unfolded:
            # Uncommanded death (reader saw EOF; nothing folded yet):
            # settle the dead incarnation's ledger before spawning the
            # replacement, else ``dispatched`` keeps the dead
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
