"""Worker-process body of the sharded fleet.

:func:`worker_main` is the ``multiprocessing`` entry point
:class:`~repro.fleet.sharding.ShardedFleet` spawns once per shard.  Each
worker runs a complete :class:`~repro.fleet.supervisor.FleetSupervisor`
event loop — restart-with-backoff, circuit breakers, checkpointing and
the exact report ledger all keep working *per shard* — and serves its
parent over one duplex pipe:

* control requests (``add``/``locate``/``checkpoint``/``sync``/…)
  carry a request id and get a ``("reply", rid, ok, payload)``;
* ingest (``offer`` / ``offer_cols`` / ``offer_cols_inline``) is
  fire-and-forget, but every offer is acknowledged with a
  ``("ledger", deployment_id, accounting, metrics)`` snapshot — the
  exact report ledger plus this process's metrics-registry snapshot —
  so the parent can fold exact cross-incarnation accounting *and*
  telemetry even when this process is SIGKILLed mid-stream (both ride
  the same message, so the folded metrics are always consistent with
  the folded ledger);
* ``offer_cols`` rows arrive through the shared-memory ring
  (:meth:`~repro.hardware.llrp_columnar.ColumnarReportBatch
  .unpack_from` — one copy out, no pickling) and the slot is released
  back to the parent with ``("release", offset)`` immediately.

**Thread-pool pinning.**  Workers must not oversubscribe cores: N
workers each letting BLAS/numba spawn ``os.cpu_count()`` threads for the
harmonic engine's ``exp``/``einsum`` accumulate is the profiling
follow-up ROADMAP item 3 warns about.  The parent therefore exports
``OMP_NUM_THREADS=…`` etc. *before* spawning (the only reliable moment —
BLAS reads them at import), and :func:`apply_thread_limits` additionally
applies ``threadpoolctl`` runtime limits here when that package is
importable.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

#: Environment variables that cap the common native thread pools.  Set
#: by the parent before spawn so BLAS/OpenMP/numba read them at import.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)


def thread_pin_env(threads: int) -> dict:
    """The environment a worker must inherit to pin its native pools."""
    if threads < 1:
        raise ValueError("threads must be positive")
    return {name: str(threads) for name in THREAD_ENV_VARS}


def apply_thread_limits(threads: int) -> dict:
    """Best-effort runtime pinning inside the worker; returns status.

    The env vars (set pre-spawn by the parent) are the load-bearing
    mechanism; ``threadpoolctl`` is applied on top when importable so
    pools that were already initialized get capped too.
    """
    status = {
        "threads": threads,
        "env": {
            name: os.environ.get(name) for name in THREAD_ENV_VARS
        },
        "threadpoolctl": False,
    }
    try:
        import threadpoolctl
    except ImportError:
        return status
    try:
        threadpoolctl.threadpool_limits(limits=threads)
        status["threadpoolctl"] = True
    except Exception:  # pragma: no cover - defensive
        pass
    return status


@dataclass(frozen=True)
class WorkerOptions:
    """Picklable configuration shipped to each worker at spawn."""

    #: Supervision policy of the in-worker :class:`FleetSupervisor`.
    policy: object = None
    #: Directory of the shared :class:`JsonCheckpointStore` (file-based
    #: so checkpoints survive the worker process itself).
    checkpoint_dir: str = ""
    #: Native threads each worker may use (BLAS/numba pinning).
    threads: int = 1
    #: Seconds to wait for a freshly added actor to start serving.
    add_deadline_s: float = 15.0


@dataclass(frozen=True)
class DeploymentSpec:
    """Picklable recipe for building one deployment inside a worker.

    Carries data, not objects-with-state: registry records and pipeline
    config are frozen dataclasses, and ``engine`` is a
    :func:`~repro.perf.engine.create_engine` name (engine *instances*
    hold caches/pools and never cross the process boundary).

    The ``engine`` default is the fleet's one serving engine, read by
    sharded workers, in-process actors and ``tagspin serve`` alike.
    ``"adaptive-harmonic"`` refines only the peak a fix needs, over
    harmonic tables cached per disk geometry: end to end it serves
    fixes several times faster than the dense engines and is the
    fastest engine on the sharded fleet (EXPERIMENTS.md, "Serving
    engine").
    """

    deployment_id: str
    registry_records: Tuple = ()
    pipeline: object = None
    engine: Optional[str] = "adaptive-harmonic"
    actor_config: object = None


@dataclass
class _WorkerState:
    """Mutable per-process serving state."""

    supervisor: object
    events: object
    servers: dict = field(default_factory=dict)
    pin_status: dict = field(default_factory=dict)


def _build_factory(spec: DeploymentSpec, state: _WorkerState):
    from repro.core.pipeline import PipelineConfig
    from repro.server.registry import TagRegistry
    from repro.server.resilience import ResilientLocalizationServer

    registry = TagRegistry()
    for record in spec.registry_records:
        registry.register(record)
    pipeline = (
        spec.pipeline if spec.pipeline is not None else PipelineConfig()
    )

    def factory() -> "ResilientLocalizationServer":
        server = ResilientLocalizationServer(
            registry, pipeline, engine=spec.engine
        )
        # Remember the newest incarnation's server so lifecycle hooks
        # (engine stats, close) reach the live engine.
        state.servers[spec.deployment_id] = server
        return server

    return factory


async def _wait_actor_running(supervisor, deployment_id, deadline_s):
    deadline = time.monotonic() + deadline_s
    while True:
        actor = supervisor.actor(deployment_id)
        if actor is not None and actor.running:
            return
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"actor for {deployment_id!r} did not start within "
                f"{deadline_s}s"
            )
        await asyncio.sleep(0.002)


async def _serve(conn, index: int, shm_name: str, options: WorkerOptions,
                 pin_status: dict) -> None:
    from multiprocessing import shared_memory

    from repro.fleet.checkpoint import (
        JsonCheckpointStore,
        MemoryCheckpointStore,
    )
    from repro.fleet.events import EVENT_INGEST_REJECTED, EventLog
    from repro.fleet.supervisor import FleetSupervisor, SupervisorPolicy
    from repro.hardware.llrp_columnar import ColumnarReportBatch

    loop = asyncio.get_running_loop()
    shm = None
    if shm_name:
        try:
            # track=False (3.13+) keeps the child's resource tracker from
            # double-unlinking the parent-owned segment.
            shm = shared_memory.SharedMemory(name=shm_name, track=False)
        except TypeError:  # pragma: no cover - Python < 3.13
            shm = shared_memory.SharedMemory(name=shm_name)
    store = (
        JsonCheckpointStore(Path(options.checkpoint_dir))
        if options.checkpoint_dir
        else MemoryCheckpointStore()
    )
    events = EventLog()
    policy = (
        options.policy if options.policy is not None else SupervisorPolicy()
    )
    supervisor = FleetSupervisor(policy=policy, events=events, store=store)
    state = _WorkerState(
        supervisor=supervisor, events=events, pin_status=pin_status
    )

    queue: "asyncio.Queue" = asyncio.Queue()
    background: set = set()

    def spawn_task(coro) -> None:
        task = asyncio.ensure_future(coro)
        background.add(task)
        task.add_done_callback(background.discard)

    def pump() -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                loop.call_soon_threadsafe(queue.put_nowait, None)
                return
            loop.call_soon_threadsafe(queue.put_nowait, message)

    threading.Thread(
        target=pump, name=f"shard-{index}-pump", daemon=True
    ).start()

    def send(message) -> None:
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):  # parent gone; keep draining
            pass

    def reply(rid, ok, payload) -> None:
        try:
            conn.send(("reply", rid, ok, payload))
        except (BrokenPipeError, OSError):
            pass
        except Exception as exc:  # unpicklable payload: still answer
            send(("reply", rid, False, RuntimeError(
                f"worker reply not picklable: {exc!r}"
            )))

    def ledger_ack(deployment_id: str) -> None:
        send((
            "ledger",
            deployment_id,
            supervisor.accounting(deployment_id),
            metrics_snapshot(),
        ))

    def metrics_snapshot() -> dict:
        from repro.obs.metrics import get_registry

        return get_registry().snapshot()

    def reject_ingest(deployment_id: str, reader_name: str,
                      exc: BaseException) -> None:
        """Record a failed fire-and-forget ingest without dying.

        An exception out of an ingest branch would otherwise escape the
        serve loop and take down every deployment on this shard.
        Control requests reply with their error; ingest has no reply, so
        the failure is recorded as an event (and the ledger snapshot is
        refreshed when the deployment is known).
        """
        events.emit(
            deployment_id,
            EVENT_INGEST_REJECTED,
            reader_name=reader_name,
            error=repr(exc),
        )
        try:
            ledger_ack(deployment_id)
        except Exception:  # unknown deployment (e.g. restart race)
            pass

    def engine_stats() -> dict:
        stats = {}
        for deployment_id, server in state.servers.items():
            try:
                stats[deployment_id] = server.engine_cache_stats()
            except Exception:  # pragma: no cover - defensive
                continue
        return stats

    async def handle_request(message) -> bool:
        """Process one control request; True means keep serving."""
        kind, rid = message[0], message[1]
        try:
            if kind == "add":
                spec: DeploymentSpec = message[2]
                supervisor.add_deployment(
                    spec.deployment_id,
                    _build_factory(spec, state),
                    spec.actor_config,
                )
                await _wait_actor_running(
                    supervisor, spec.deployment_id, options.add_deadline_s
                )
                actor = supervisor.actor(spec.deployment_id)
                reply(rid, True, {
                    "deployment_id": spec.deployment_id,
                    "warm_restored": bool(actor.stats.warm_restored),
                })
            elif kind == "locate":
                _, _, deployment_id, reader_name, antenna_port = message

                async def run_locate() -> None:
                    try:
                        result = await supervisor.locate_2d(
                            deployment_id, reader_name, antenna_port
                        )
                    except Exception as exc:
                        reply(rid, False, exc)
                        return
                    # A fix observed every batch before it (actor FIFO);
                    # refresh the parent's crash-fold snapshot to match.
                    ledger_ack(deployment_id)
                    reply(rid, True, result)

                # Fixes run concurrently with later ingest (the actor
                # serializes against its own mailbox; the worker loop
                # must not block on the solve).
                spawn_task(run_locate())
            elif kind == "checkpoint":
                deployment_id = message[2]

                async def run_checkpoint() -> None:
                    try:
                        seq = await supervisor.checkpoint(deployment_id)
                    except Exception as exc:
                        reply(rid, False, exc)
                        return
                    # Everything the checkpoint captured was delivered;
                    # without this ack a kill right after a checkpoint
                    # folds those (safely persisted) reports as lost.
                    ledger_ack(deployment_id)
                    reply(rid, True, seq)

                spawn_task(run_checkpoint())
            elif kind == "sync":
                reply(rid, True, {
                    deployment_id: supervisor.accounting(deployment_id)
                    for deployment_id in supervisor.deployment_ids()
                })
            elif kind == "engine_stats":
                reply(rid, True, engine_stats())
            elif kind == "actor_stats":
                deployment_id = message[2]
                actor = supervisor.actor(deployment_id)
                reply(rid, True, {
                    "incarnation": (
                        actor.incarnation if actor is not None else None
                    ),
                    "running": actor is not None and actor.running,
                    "warm_restored": (
                        actor.stats.warm_restored
                        if actor is not None
                        else False
                    ),
                    "stats": (
                        actor.stats.as_dict() if actor is not None else {}
                    ),
                    "breaker": supervisor.breaker_state(
                        deployment_id
                    ).value,
                })
            elif kind == "events":
                reply(rid, True, events.counts())
            elif kind == "metrics":
                reply(rid, True, metrics_snapshot())
            elif kind == "info":
                reply(rid, True, {
                    "pid": os.getpid(),
                    "index": index,
                    "pin": state.pin_status,
                    "deployments": list(supervisor.deployment_ids()),
                })
            elif kind == "kill":
                deployment_id = message[2]
                supervisor.kill(deployment_id)
                reply(rid, True, None)
            elif kind == "stop":
                for deployment_id in supervisor.deployment_ids():
                    try:
                        await supervisor.checkpoint(deployment_id)
                    except Exception:
                        pass  # breaker open / no actor: ledger still final
                stats = engine_stats()
                await supervisor.stop()
                for server in state.servers.values():
                    try:
                        server.close()
                    except Exception:  # pragma: no cover - defensive
                        pass
                reply(rid, True, {
                    "ledgers": {
                        deployment_id: supervisor.accounting(deployment_id)
                        for deployment_id in supervisor.deployment_ids()
                    },
                    "engine_stats": stats,
                    "events": events.counts(),
                    "metrics": metrics_snapshot(),
                })
                return False
            else:
                reply(rid, False, ValueError(
                    f"unknown worker request {kind!r}"
                ))
        except Exception as exc:
            reply(rid, False, exc)
        return True

    try:
        while True:
            message = await queue.get()
            if message is None:
                # Parent pipe closed without a stop: shut down quietly
                # (the parent is gone or crashed; nothing to reply to).
                await supervisor.stop()
                break
            kind = message[0]
            if kind == "offer":
                _, deployment_id, reader_name, reports = message
                try:
                    supervisor.offer(deployment_id, reader_name, reports)
                    ledger_ack(deployment_id)
                except Exception as exc:
                    reject_ingest(deployment_id, reader_name, exc)
            elif kind == "offer_cols":
                _, deployment_id, reader_name, slot_offset, meta = message
                try:
                    try:
                        cols = ColumnarReportBatch.unpack_from(
                            shm.buf, meta, offset=slot_offset, copy=True
                        )
                    finally:
                        # Release unconditionally (even on corrupt
                        # meta): the copy detached us from the segment,
                        # and a slot the parent never gets back wedges
                        # the ring's FIFO.
                        send(("release", slot_offset))
                    supervisor.offer_columnar(
                        deployment_id, reader_name, cols
                    )
                    ledger_ack(deployment_id)
                except Exception as exc:
                    reject_ingest(deployment_id, reader_name, exc)
            elif kind == "offer_cols_inline":
                _, deployment_id, reader_name, cols = message
                try:
                    supervisor.offer_columnar(
                        deployment_id, reader_name, cols
                    )
                    ledger_ack(deployment_id)
                except Exception as exc:
                    reject_ingest(deployment_id, reader_name, exc)
            else:
                keep_serving = await handle_request(message)
                if not keep_serving:
                    break
    finally:
        if shm is not None:
            shm.close()


def worker_main(conn, index: int, shm_name: str,
                options: WorkerOptions) -> None:
    """Entry point of one shard's worker process (spawn-safe)."""
    from repro.obs.metrics import refresh_from_env

    # Spawned children must honor the parent's TAGSPIN_DISABLE_TELEMETRY
    # even under fork (where module state was inherited pre-toggle).
    refresh_from_env()
    pin_status = apply_thread_limits(options.threads)
    try:
        asyncio.run(_serve(conn, index, shm_name, options, pin_status))
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
