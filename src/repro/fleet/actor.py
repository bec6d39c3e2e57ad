"""One supervised actor per deployment.

A :class:`DeploymentActor` owns one
:class:`~repro.server.resilience.ResilientLocalizationServer` and a
:class:`~repro.fleet.backpressure.BoundedMailbox`, and processes both
report batches and fix requests strictly in arrival order on the event
loop — the underlying server is not thread-safe, and serialization
through one mailbox is what makes it safe to multiplex thousands of
deployments in a single process.

Two protections bound each actor's blast radius:

* **Deadline budgets** — a fix solve runs on a worker thread under
  ``asyncio.wait_for``; if it exceeds ``fix_deadline_s`` the *caller*
  gets :class:`~repro.errors.FixDeadlineError` immediately while the
  actor quietly waits out the stray thread (never letting it race a
  subsequent ingest).  A pathological deployment degrades itself, not
  the event loop.
* **Checkpointing** — every ``checkpoint_every`` ingest batches the
  actor snapshots its serving state through a
  :class:`~repro.fleet.checkpoint.CheckpointStore`; after a crash the
  next incarnation warm-starts from the snapshot, so it serves fixes
  over the restored buffers without waiting for the stream to refill.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.errors import (
    ConfigurationError,
    FixDeadlineError,
    TagspinError,
)
from repro.fleet.backpressure import (
    DEFAULT_HIGH_WATER,
    BoundedMailbox,
    ColumnarIngestMessage,
    CommandMessage,
    IngestMessage,
)
from repro.fleet.checkpoint import (
    CheckpointStore,
    DeploymentCheckpoint,
)
from repro.fleet.events import (
    EVENT_CHECKPOINT_CORRUPT,
    EVENT_CHECKPOINT_RESTORED,
    EVENT_CHECKPOINT_SAVED,
    EVENT_FIX_DEADLINE,
    EVENT_INGEST_REJECTED,
    EVENT_REPORTS_SHED,
    EventLog,
)
from repro.hardware.llrp import TagReportData
from repro.obs.metrics import get_registry
from repro.server.resilience import ResilientLocalizationServer

#: Builds a fresh (empty) server for one deployment incarnation.
ServerFactory = Callable[[], ResilientLocalizationServer]


@dataclass(frozen=True)
class ActorConfig:
    """Tuning knobs of one deployment actor."""

    #: Pending-report bound of the ingest mailbox.
    high_water_mark: int = DEFAULT_HIGH_WATER
    #: Wall-clock budget per fix; ``None`` disables the deadline.
    fix_deadline_s: Optional[float] = None
    #: Auto-checkpoint every N ingest batches; 0 disables.
    checkpoint_every: int = 0


@dataclass
class ActorStats:
    """Counters of one actor incarnation (the supervisor accumulates
    totals across incarnations)."""

    #: Reports the server accepted into buffers (validator-approved).
    accepted: int = 0
    #: Reports delivered to the server whose whole batch was rejected as
    #: misconfigured (bad stream key) — never buffered, never silent.
    rejected_invalid: int = 0
    fixes_served: int = 0
    fixes_failed: int = 0
    deadline_misses: int = 0
    checkpoints_saved: int = 0
    #: Reports restored from a checkpoint (outside offer accounting).
    restored_reports: int = 0
    warm_restored: bool = False

    def as_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "rejected_invalid": self.rejected_invalid,
            "fixes_served": self.fixes_served,
            "fixes_failed": self.fixes_failed,
            "deadline_misses": self.deadline_misses,
            "checkpoints_saved": self.checkpoints_saved,
            "restored_reports": self.restored_reports,
            "warm_restored": self.warm_restored,
        }


class _CrashInjected(Exception):
    """Wrapper marking a chaos-injected crash (unwrapped before raising)."""


class DeploymentActor:
    """Serializes one deployment's ingest and fixes behind a mailbox."""

    def __init__(
        self,
        deployment_id: str,
        server_factory: ServerFactory,
        config: Optional[ActorConfig] = None,
        events: Optional[EventLog] = None,
        store: Optional[CheckpointStore] = None,
        incarnation: int = 0,
    ) -> None:
        self.deployment_id = deployment_id
        self.config = config if config is not None else ActorConfig()
        self.events = events if events is not None else EventLog()
        self.store = store
        self.incarnation = incarnation
        self.server = server_factory()
        self.stats = ActorStats()
        self.mailbox = BoundedMailbox(
            high_water=self.config.high_water_mark,
            is_infrastructure_epc=lambda epc: epc in self.server.registry,
        )
        self._checkpoint_seq = 0
        self._batches_since_checkpoint = 0
        self._running = False
        # Prebound per-deployment metrics: label resolution happens once
        # here, so the ingest/fix hot paths only pay an inc()/set().
        registry = get_registry()
        self._m_delivered = registry.counter(
            "tagspin_reports_delivered_total",
            "Reports delivered from the mailbox to the serving tier "
            "(matches the ledger's 'delivered').",
            deployment=deployment_id,
        )
        self._m_accepted = registry.counter(
            "tagspin_reports_accepted_total",
            "Reports the validator accepted into serving buffers.",
            deployment=deployment_id,
        )
        self._m_shed = registry.counter(
            "tagspin_reports_shed_total",
            "Reports shed by mailbox backpressure.",
            deployment=deployment_id,
        )
        self._m_pending = registry.gauge(
            "tagspin_mailbox_pending",
            "Reports currently queued in the actor mailbox.",
            deployment=deployment_id,
        )
        self._m_fixes = {
            outcome: registry.counter(
                "tagspin_fixes_total",
                "Fix requests served by outcome.",
                deployment=deployment_id,
                outcome=outcome,
            )
            for outcome in ("ok", "error", "deadline")
        }

    # ------------------------------------------------------------------
    # Producer-facing API (call from the event loop thread)
    # ------------------------------------------------------------------
    def offer(
        self, reader_name: str, reports: Sequence[TagReportData]
    ) -> int:
        """Offer a batch for ingest; returns how many were enqueued.

        Never blocks: overload sheds per the mailbox policy, and every
        shed report is surfaced as an :data:`EVENT_REPORTS_SHED` event.
        """
        kept, shed = self.mailbox.offer(reader_name, list(reports))
        if shed:
            self._m_shed.inc(shed)
            self.events.emit(
                self.deployment_id,
                EVENT_REPORTS_SHED,
                reader_name=reader_name,
                shed=shed,
                pending=self.mailbox.pending_reports,
            )
        self._m_pending.set(self.mailbox.pending_reports)
        return kept

    def offer_columnar(self, reader_name: str, cols) -> int:
        """Offer a columnar batch for ingest; returns how many rows kept.

        The zero-copy twin of :meth:`offer` — the batch stays columnar
        through the mailbox and is validated vectorized by
        :meth:`~repro.server.resilience.ResilientLocalizationServer
        .ingest_columnar`, with identical shedding policy and accounting.
        """
        kept, shed = self.mailbox.offer_columnar(reader_name, cols)
        if shed:
            self._m_shed.inc(shed)
            self.events.emit(
                self.deployment_id,
                EVENT_REPORTS_SHED,
                reader_name=reader_name,
                shed=shed,
                pending=self.mailbox.pending_reports,
            )
        self._m_pending.set(self.mailbox.pending_reports)
        return kept

    async def request_fix(self, reader_name: str, antenna_port: int = 1):
        """Enqueue a 2D fix request; resolves after all earlier batches.

        Returns ``(Fix2D, FixDiagnostics)`` or raises what the solve
        raised (:class:`~repro.errors.FixDeadlineError` on a blown
        deadline budget).
        """
        future = asyncio.get_event_loop().create_future()
        self.mailbox.put_command(
            CommandMessage(
                kind="locate",
                payload=(reader_name, antenna_port),
                future=future,
            )
        )
        return await future

    async def request_checkpoint(self) -> int:
        """Enqueue a checkpoint; resolves to the checkpoint sequence."""
        future = asyncio.get_event_loop().create_future()
        self.mailbox.put_command(CommandMessage(kind="checkpoint", future=future))
        return await future

    async def stop(self) -> None:
        """Ask the actor to finish queued work and exit cleanly."""
        future = asyncio.get_event_loop().create_future()
        self.mailbox.put_command(CommandMessage(kind="stop", future=future))
        await future

    def inject_crash(self, error: Optional[Exception] = None) -> None:
        """Chaos hook: make the actor die when it reaches this message."""
        self.mailbox.put_command(
            CommandMessage(
                kind="crash",
                payload=error if error is not None else RuntimeError(
                    "chaos: injected actor crash"
                ),
            )
        )

    # ------------------------------------------------------------------
    # Actor body
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Process messages until a stop command; raises on crash."""
        self._running = True
        self._restore()
        try:
            while True:
                message = await self.mailbox.get()
                if isinstance(message, (IngestMessage, ColumnarIngestMessage)):
                    self._handle_ingest(message)
                    await self._maybe_auto_checkpoint()
                    continue
                assert isinstance(message, CommandMessage)
                if message.kind == "locate":
                    await self._handle_locate(message)
                elif message.kind == "checkpoint":
                    self._handle_checkpoint(message)
                elif message.kind == "stop":
                    if message.future is not None and not message.future.done():
                        message.future.set_result(None)
                    return
                elif message.kind == "crash":
                    raise _CrashInjected(message.payload)
                else:  # pragma: no cover - defensive
                    raise ConfigurationError(
                        f"unknown actor command {message.kind!r}"
                    )
        except _CrashInjected as wrapper:
            raise wrapper.args[0] from None
        finally:
            self._running = False

    # -- ingest ---------------------------------------------------------
    def _handle_ingest(self, message) -> None:
        columnar = isinstance(message, ColumnarIngestMessage)
        size = len(message.cols) if columnar else len(message.reports)
        self._m_delivered.inc(size)
        try:
            if columnar:
                accepted = self.server.ingest_columnar(
                    message.reader_name, message.cols
                )
            else:
                accepted = self.server.ingest(
                    message.reader_name, message.reports
                )
            self.stats.accepted += accepted
            self._m_accepted.inc(accepted)
        except ConfigurationError as exc:
            # The whole batch was rejected before any report was
            # buffered (stream-key validation is all-or-nothing).
            self.stats.rejected_invalid += size
            self.events.emit(
                self.deployment_id,
                EVENT_INGEST_REJECTED,
                reader_name=message.reader_name,
                reports=size,
                error=str(exc),
            )
        self._m_pending.set(self.mailbox.pending_reports)

    # -- fixes ----------------------------------------------------------
    async def _handle_locate(self, message: CommandMessage) -> None:
        reader_name, antenna_port = message.payload
        future = message.future
        loop = asyncio.get_event_loop()
        task = loop.run_in_executor(
            None,
            self.server.locate_antenna_2d_diagnosed,
            reader_name,
            antenna_port,
        )
        deadline = self.config.fix_deadline_s
        try:
            if deadline is None:
                result = await task
            else:
                result = await asyncio.wait_for(asyncio.shield(task), deadline)
        except asyncio.TimeoutError:
            self.stats.deadline_misses += 1
            self.stats.fixes_failed += 1
            self._m_fixes["deadline"].inc()
            self.events.emit(
                self.deployment_id,
                EVENT_FIX_DEADLINE,
                reader_name=reader_name,
                antenna_port=antenna_port,
                deadline_s=deadline,
            )
            if future is not None and not future.done():
                future.set_exception(
                    FixDeadlineError(
                        f"fix for {reader_name!r}:{antenna_port} exceeded "
                        f"its {deadline}s budget"
                    )
                )
            # The solve thread is still running against our (not
            # thread-safe) server; wait it out before touching more
            # messages so ingest never races it.
            try:
                await task
            except Exception:
                pass
            return
        except TagspinError as exc:
            self.stats.fixes_failed += 1
            self._m_fixes["error"].inc()
            if future is not None and not future.done():
                future.set_exception(exc)
            return
        self.stats.fixes_served += 1
        self._m_fixes["ok"].inc()
        if future is not None and not future.done():
            future.set_result(result)

    # -- checkpointing ---------------------------------------------------
    async def _maybe_auto_checkpoint(self) -> None:
        if self.config.checkpoint_every <= 0 or self.store is None:
            return
        self._batches_since_checkpoint += 1
        if self._batches_since_checkpoint >= self.config.checkpoint_every:
            self._save_checkpoint()

    def _handle_checkpoint(self, message: CommandMessage) -> None:
        try:
            seq = self._save_checkpoint()
        except TagspinError as exc:
            if message.future is not None and not message.future.done():
                message.future.set_exception(exc)
            return
        if message.future is not None and not message.future.done():
            message.future.set_result(seq)

    def _save_checkpoint(self) -> int:
        if self.store is None:
            raise ConfigurationError(
                f"deployment {self.deployment_id!r} has no checkpoint store"
            )
        self._checkpoint_seq += 1
        snapshot = DeploymentCheckpoint.capture(
            self.deployment_id, self.server, self._checkpoint_seq
        )
        self.store.save(self.deployment_id, snapshot.to_json())
        self._batches_since_checkpoint = 0
        self.stats.checkpoints_saved += 1
        self.events.emit(
            self.deployment_id,
            EVENT_CHECKPOINT_SAVED,
            seq=snapshot.seq,
            reports=snapshot.report_count(),
        )
        return snapshot.seq

    def _restore(self) -> None:
        if self.store is None:
            return
        payload = self.store.load(self.deployment_id)
        if payload is None:
            return
        try:
            snapshot = DeploymentCheckpoint.from_json(payload)
        except TagspinError as exc:
            # A torn or garbled checkpoint downgrades recovery to a cold
            # start; it must never take the actor down with it.
            self.events.emit(
                self.deployment_id,
                EVENT_CHECKPOINT_CORRUPT,
                error=str(exc),
            )
            return
        snapshot.restore_into(self.server)
        self._checkpoint_seq = snapshot.seq
        self.stats.restored_reports = snapshot.report_count()
        self.stats.warm_restored = True
        self.events.emit(
            self.deployment_id,
            EVENT_CHECKPOINT_RESTORED,
            seq=snapshot.seq,
            reports=snapshot.report_count(),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def quarantine_totals(self) -> dict:
        """Validator counters summed over this incarnation's streams."""
        received = accepted = quarantined = 0
        for stats in self.server.all_quarantine_stats().values():
            received += stats.received
            accepted += stats.accepted
            quarantined += stats.quarantined
        return {
            "received": received,
            "accepted": accepted,
            "quarantined": quarantined,
        }

    def accounting(self) -> dict:
        """Exact report ledger of this incarnation."""
        ledger = dict(self.mailbox.stats.as_dict())
        ledger["pending"] = self.mailbox.pending_reports
        ledger.update(self.quarantine_totals())
        ledger["rejected_invalid"] = self.stats.rejected_invalid
        return ledger
