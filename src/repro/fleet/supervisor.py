"""Restart supervision and per-deployment circuit breakers.

:class:`FleetSupervisor` runs one supervision task per deployment.  When
an actor crashes, the supervisor drains its mailbox (counting every
undelivered report — crash loss is accounted, never silent), folds the
dead incarnation's counters into the deployment's lifetime ledger, waits
out a full-jitter exponential backoff (reusing
:class:`~repro.server.resilience.RetryPolicy`), and starts a fresh
incarnation that warm-starts from the last checkpoint.

A deployment that keeps crashing trips its **circuit breaker**: more
than ``max_restarts`` crashes inside ``restart_window_s`` moves the
breaker to OPEN — ingest is rejected outright (counted) and fixes raise
:class:`~repro.errors.ActorUnavailableError` instead of feeding a crash
loop.  After ``open_cooldown_s`` the breaker goes HALF_OPEN and one
probe incarnation starts; surviving ``stability_probe_s`` closes the
breaker and clears the crash history, while another crash reopens it.
Every transition is a structured event.
"""

from __future__ import annotations

import asyncio
import enum
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Deque, Dict, Optional, Sequence

from repro.errors import ActorUnavailableError, ConfigurationError
from repro.fleet.actor import ActorConfig, DeploymentActor, ServerFactory
from repro.fleet.checkpoint import CheckpointStore
from repro.fleet.events import (
    EVENT_ACTOR_CRASHED,
    EVENT_ACTOR_RESTARTED,
    EVENT_ACTOR_STARTED,
    EVENT_ACTOR_STOPPED,
    EVENT_BREAKER_CLOSED,
    EVENT_BREAKER_HALF_OPEN,
    EVENT_BREAKER_OPENED,
    EVENT_INGEST_REJECTED,
    EventLog,
)
from repro.hardware.llrp import TagReportData
from repro.hardware.llrp_columnar import ColumnarReportBatch
from repro.server.resilience import RetryPolicy


class BreakerState(enum.Enum):
    """Circuit state of one deployment."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class SupervisorPolicy:
    """Restart and circuit-breaker tuning."""

    #: Crashes tolerated inside ``restart_window_s`` before the breaker
    #: opens (the (N+1)-th crash in the window trips it).
    max_restarts: int = 3
    restart_window_s: float = 60.0
    #: Backoff between restarts; give it a ``jitter_rng`` in production
    #: so a correlated outage doesn't restart every deployment in phase.
    backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=1_000_000, backoff_base_s=0.05, backoff_max_s=5.0
        )
    )
    #: OPEN-state cooldown before the half-open probe incarnation.
    open_cooldown_s: float = 1.0
    #: A probe incarnation surviving this long closes the breaker.
    stability_probe_s: float = 0.25


@dataclass
class _Ledger:
    """Lifetime report accounting of one deployment (all incarnations)."""

    offered: int = 0
    shed: int = 0
    delivered: int = 0
    pending: int = 0
    received: int = 0
    accepted: int = 0
    quarantined: int = 0
    rejected_invalid: int = 0
    rejected_open: int = 0
    lost_in_crash: int = 0

    def add_incarnation(self, accounting: dict) -> None:
        self.offered += accounting["offered"]
        self.shed += accounting["shed"]
        self.delivered += accounting["delivered"]
        self.received += accounting["received"]
        self.accepted += accounting["accepted"]
        self.quarantined += accounting["quarantined"]
        self.rejected_invalid += accounting["rejected_invalid"]

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "shed": self.shed,
            "delivered": self.delivered,
            "pending": self.pending,
            "received": self.received,
            "accepted": self.accepted,
            "quarantined": self.quarantined,
            "rejected_invalid": self.rejected_invalid,
            "rejected_open": self.rejected_open,
            "lost_in_crash": self.lost_in_crash,
        }


@dataclass
class _Deployment:
    deployment_id: str
    server_factory: ServerFactory
    actor_config: ActorConfig
    actor: Optional[DeploymentActor] = None
    task: Optional["asyncio.Task"] = None
    breaker: BreakerState = BreakerState.CLOSED
    incarnation: int = 0
    crash_times: Deque[float] = field(default_factory=deque)
    ledger: _Ledger = field(default_factory=_Ledger)
    stopping: bool = False


class FleetSupervisor:
    """Supervises many deployment actors inside one event loop.

    ``clock`` and ``sleep`` are injection points (tests pass stubs to
    drive the crash window and cooldowns deterministically).
    """

    def __init__(
        self,
        policy: Optional[SupervisorPolicy] = None,
        events: Optional[EventLog] = None,
        store: Optional[CheckpointStore] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Optional[Callable[[float], Awaitable[None]]] = None,
    ) -> None:
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.events = events if events is not None else EventLog()
        self.store = store
        self._clock = clock
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._deployments: Dict[str, _Deployment] = {}

    # ------------------------------------------------------------------
    # Fleet membership
    # ------------------------------------------------------------------
    def add_deployment(
        self,
        deployment_id: str,
        server_factory: ServerFactory,
        actor_config: Optional[ActorConfig] = None,
    ) -> None:
        """Register and immediately start one deployment."""
        if deployment_id in self._deployments:
            raise ConfigurationError(
                f"deployment {deployment_id!r} already registered"
            )
        deployment = _Deployment(
            deployment_id=deployment_id,
            server_factory=server_factory,
            actor_config=(
                actor_config if actor_config is not None else ActorConfig()
            ),
        )
        self._deployments[deployment_id] = deployment
        deployment.task = asyncio.ensure_future(self._supervise(deployment))

    def deployment_ids(self) -> Sequence[str]:
        return sorted(self._deployments)

    async def stop(self) -> None:
        """Stop every actor cleanly and wait for supervision to finish."""
        for deployment in self._deployments.values():
            deployment.stopping = True
            if deployment.actor is not None and deployment.actor.running:
                try:
                    await deployment.actor.stop()
                except ActorUnavailableError:
                    pass  # crashed while stopping; supervision exits anyway
        for deployment in self._deployments.values():
            if deployment.task is not None:
                try:
                    await deployment.task
                except asyncio.CancelledError:
                    pass

    # ------------------------------------------------------------------
    # Supervision loop
    # ------------------------------------------------------------------
    async def _supervise(self, deployment: _Deployment) -> None:
        while not deployment.stopping:
            actor = DeploymentActor(
                deployment.deployment_id,
                deployment.server_factory,
                config=deployment.actor_config,
                events=self.events,
                store=self.store,
                incarnation=deployment.incarnation,
            )
            deployment.actor = actor
            self.events.emit(
                deployment.deployment_id,
                EVENT_ACTOR_STARTED
                if deployment.incarnation == 0
                else EVENT_ACTOR_RESTARTED,
                incarnation=deployment.incarnation,
                warm=actor.stats.warm_restored,
            )
            run_task = asyncio.ensure_future(actor.run())
            if deployment.breaker is BreakerState.HALF_OPEN:
                done, _pending = await asyncio.wait(
                    {run_task}, timeout=self.policy.stability_probe_s
                )
                if not done:
                    self._close_breaker(deployment)
            try:
                await run_task
            except asyncio.CancelledError:
                self._collect(deployment, actor, crashed=True)
                raise
            except Exception as exc:
                self._collect(deployment, actor, crashed=True)
                self.events.emit(
                    deployment.deployment_id,
                    EVENT_ACTOR_CRASHED,
                    incarnation=deployment.incarnation,
                    error=repr(exc),
                )
                deployment.incarnation += 1
                await self._crash_backoff(deployment)
                continue
            # Clean exit.
            self._collect(deployment, actor, crashed=False)
            self.events.emit(
                deployment.deployment_id,
                EVENT_ACTOR_STOPPED,
                incarnation=deployment.incarnation,
            )
            return

    def _collect(
        self, deployment: _Deployment, actor: DeploymentActor, crashed: bool
    ) -> None:
        """Fold a finished incarnation into the lifetime ledger."""
        deployment.actor = None
        accounting = actor.accounting()
        lost, commands = actor.mailbox.drain()
        for command in commands:
            if command.future is not None and not command.future.done():
                command.future.set_exception(
                    ActorUnavailableError(
                        f"deployment {deployment.deployment_id!r} actor "
                        f"{'crashed' if crashed else 'stopped'} before "
                        f"serving this request"
                    )
                )
        if crashed:
            # Delivered-but-unvalidated reports died with the actor too
            # (a crash mid-ingest); fold them into the same bucket.
            in_flight = (
                accounting["delivered"]
                - accounting["received"]
                - accounting["rejected_invalid"]
            )
            deployment.ledger.lost_in_crash += lost + max(0, in_flight)
            accounting["delivered"] -= max(0, in_flight)
        else:
            # Undelivered at clean shutdown: still pending, still counted.
            deployment.ledger.pending += lost
        deployment.ledger.add_incarnation(accounting)

    async def _crash_backoff(self, deployment: _Deployment) -> None:
        now = self._clock()
        window = deployment.crash_times
        window.append(now)
        while window and now - window[0] > self.policy.restart_window_s:
            window.popleft()
        if (
            deployment.breaker is BreakerState.HALF_OPEN
            or len(window) > self.policy.max_restarts
        ):
            await self._open_breaker(deployment)
            return
        await self._sleep(self.policy.backoff.delay(len(window)))

    async def _open_breaker(self, deployment: _Deployment) -> None:
        deployment.breaker = BreakerState.OPEN
        self.events.emit(
            deployment.deployment_id,
            EVENT_BREAKER_OPENED,
            crashes_in_window=len(deployment.crash_times),
        )
        await self._sleep(self.policy.open_cooldown_s)
        deployment.breaker = BreakerState.HALF_OPEN
        self.events.emit(deployment.deployment_id, EVENT_BREAKER_HALF_OPEN)

    def _close_breaker(self, deployment: _Deployment) -> None:
        deployment.breaker = BreakerState.CLOSED
        deployment.crash_times.clear()
        self.events.emit(deployment.deployment_id, EVENT_BREAKER_CLOSED)

    # ------------------------------------------------------------------
    # Serving API
    # ------------------------------------------------------------------
    def _deployment(self, deployment_id: str) -> _Deployment:
        try:
            return self._deployments[deployment_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown deployment {deployment_id!r}"
            ) from None

    def offer(
        self,
        deployment_id: str,
        reader_name: str,
        reports: Sequence[TagReportData],
    ) -> int:
        """Route a batch of report objects; returns enqueued count.

        The object callers' adapter: the batch is columnarized
        (:meth:`ColumnarReportBatch.from_reports`) and takes the one
        ingest path, :meth:`offer_columnar`.
        """
        return self.offer_columnar(
            deployment_id,
            reader_name,
            ColumnarReportBatch.from_reports(reports),
        )

    def offer_columnar(
        self,
        deployment_id: str,
        reader_name: str,
        cols: ColumnarReportBatch,
    ) -> int:
        """Route a columnar batch to one deployment; returns kept rows.

        With the breaker OPEN (or the actor between incarnations) the
        batch is rejected and counted — callers see the loss immediately
        instead of discovering it at fix time.
        """
        deployment = self._deployment(deployment_id)
        actor = deployment.actor
        if deployment.breaker is BreakerState.OPEN or actor is None:
            deployment.ledger.rejected_open += len(cols)
            self.events.emit(
                deployment_id,
                EVENT_INGEST_REJECTED,
                reader_name=reader_name,
                reports=len(cols),
                error=f"breaker {deployment.breaker.value}"
                if deployment.breaker is BreakerState.OPEN
                else "actor restarting",
            )
            return 0
        return actor.offer_columnar(reader_name, cols)

    async def locate_2d(
        self, deployment_id: str, reader_name: str, antenna_port: int = 1
    ):
        """2D fix + diagnostics from one deployment's actor."""
        deployment = self._deployment(deployment_id)
        actor = deployment.actor
        if deployment.breaker is BreakerState.OPEN or actor is None:
            raise ActorUnavailableError(
                f"deployment {deployment_id!r} is not serving "
                f"(breaker {deployment.breaker.value})"
            )
        return await actor.request_fix(reader_name, antenna_port)

    async def checkpoint(self, deployment_id: str) -> int:
        deployment = self._deployment(deployment_id)
        actor = deployment.actor
        if actor is None:
            raise ActorUnavailableError(
                f"deployment {deployment_id!r} has no live actor"
            )
        return await actor.request_checkpoint()

    def kill(
        self, deployment_id: str, error: Optional[Exception] = None
    ) -> None:
        """Chaos hook: crash one deployment's current actor."""
        actor = self._deployment(deployment_id).actor
        if actor is None:
            raise ActorUnavailableError(
                f"deployment {deployment_id!r} has no live actor to kill"
            )
        actor.inject_crash(error)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def breaker_state(self, deployment_id: str) -> BreakerState:
        return self._deployment(deployment_id).breaker

    def actor(self, deployment_id: str) -> Optional[DeploymentActor]:
        return self._deployment(deployment_id).actor

    def accounting(self, deployment_id: str) -> dict:
        """Lifetime report ledger: dead incarnations plus the live one.

        The invariant the chaos harness asserts:
        ``offered == shed + pending + delivered + lost_in_crash`` and
        ``delivered == received + rejected_invalid`` with
        ``received == accepted + quarantined`` — every offered report is
        in exactly one bucket.  (``rejected_open`` counts batches turned
        away before they were ever offered to a mailbox.)
        """
        deployment = self._deployment(deployment_id)
        totals = _Ledger(**deployment.ledger.as_dict())
        if deployment.actor is not None:
            live = deployment.actor.accounting()
            totals.add_incarnation(live)
            totals.pending += live["pending"]
        return totals.as_dict()

    def metrics_snapshot(self) -> dict:
        """This process's ``tagspin-metrics/1`` registry snapshot.

        The in-process twin of
        :meth:`~repro.fleet.sharding.ShardedFleet.metrics_snapshot` —
        actors share the process-wide registry, so one snapshot covers
        every deployment.
        """
        from repro.obs.metrics import get_registry

        return get_registry().snapshot()
