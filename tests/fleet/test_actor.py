"""Tests for repro.fleet.actor (serialization, deadlines, checkpoints)."""

from __future__ import annotations

import asyncio

import pytest

from fleet_helpers import (
    RecordingServerFactory,
    columns,
    make_report,
)

from repro.errors import (
    ConfigurationError,
    FixDeadlineError,
    InsufficientDataError,
)
from repro.fleet.actor import ActorConfig, DeploymentActor
from repro.fleet.checkpoint import MemoryCheckpointStore
from repro.fleet.events import (
    EVENT_CHECKPOINT_CORRUPT,
    EVENT_CHECKPOINT_RESTORED,
    EVENT_CHECKPOINT_SAVED,
    EVENT_FIX_DEADLINE,
    EVENT_INGEST_REJECTED,
    EVENT_REPORTS_SHED,
    EventLog,
)


def run_with_actor(actor, body):
    """Drive ``body(actor)`` with the actor's run loop alive, then stop."""

    async def scenario():
        run_task = asyncio.ensure_future(actor.run())
        try:
            result = await body()
        finally:
            if not run_task.done():
                await actor.stop()
            await run_task
        return result

    return asyncio.run(scenario())


class TestServing:
    def test_ingest_then_fix_in_order(self):
        factory = RecordingServerFactory()
        actor = DeploymentActor("dep-1", factory)

        async def body():
            actor.offer_columnar("r1", columns(make_report(i) for i in range(4)))
            return await actor.request_fix("r1", 1)

        fix, diag = run_with_actor(actor, body)
        assert fix == "fix-r1-1"
        assert diag == "diagnostics"
        assert actor.stats.accepted == 4
        assert actor.stats.fixes_served == 1

    def test_fix_error_propagates_and_actor_survives(self):
        factory = RecordingServerFactory()
        actor = DeploymentActor("dep-1", factory)

        async def body():
            with pytest.raises(InsufficientDataError):
                await actor.request_fix("silent-reader", 1)
            # Still serving afterwards:
            actor.offer_columnar("r1", columns([make_report(0)]))
            return await actor.request_fix("r1", 1)

        fix, _diag = run_with_actor(actor, body)
        assert fix == "fix-r1-1"
        assert actor.stats.fixes_failed == 1
        assert actor.stats.fixes_served == 1

    def test_invalid_batch_rejected_not_fatal(self):
        factory = RecordingServerFactory()
        events = EventLog()
        actor = DeploymentActor("dep-1", factory, events=events)

        async def body():
            server = factory.servers[0]
            server.ingest_error = ConfigurationError("bad stream key")
            actor.offer_columnar(
                "bad reader", columns([make_report(0), make_report(1)])
            )
            server_ok = factory.servers[0]
            # Wait for the rejection to be processed, then recover.
            while actor.mailbox.pending_reports:
                await asyncio.sleep(0.001)
            server_ok.ingest_error = None
            actor.offer_columnar("r1", columns([make_report(2)]))
            return await actor.request_fix("r1", 1)

        run_with_actor(actor, body)
        assert actor.stats.rejected_invalid == 2
        assert events.count(EVENT_INGEST_REJECTED) == 1
        ledger = actor.accounting()
        assert ledger["delivered"] == 3
        assert ledger["received"] == 1
        assert ledger["rejected_invalid"] == 2

    def test_shed_reports_emit_events(self):
        factory = RecordingServerFactory()
        events = EventLog()
        actor = DeploymentActor(
            "dep-1",
            factory,
            config=ActorConfig(high_water_mark=3),
            events=events,
        )
        # No run loop: offer synchronously so nothing drains.
        actor.offer_columnar(
            "r1", columns(make_report(i, epc="NOBODY") for i in range(5))
        )
        assert events.count(EVENT_REPORTS_SHED) == 1
        event = events.events(kind=EVENT_REPORTS_SHED)[0]
        assert event.detail["shed"] == 2


class TestDeadline:
    def test_slow_fix_raises_deadline_error(self):
        factory = RecordingServerFactory(locate_delay_s=0.25)
        events = EventLog()
        actor = DeploymentActor(
            "dep-1",
            factory,
            config=ActorConfig(fix_deadline_s=0.05),
            events=events,
        )

        async def body():
            actor.offer_columnar("r1", columns([make_report(0)]))
            with pytest.raises(FixDeadlineError):
                await actor.request_fix("r1", 1)
            # The actor keeps serving after the miss, and the stray
            # solve thread was waited out before this ran:
            factory.locate_delay_s = 0.0
            factory.servers[0].locate_delay_s = 0.0
            return await actor.request_fix("r1", 1)

        fix, _diag = run_with_actor(actor, body)
        assert fix == "fix-r1-1"
        assert actor.stats.deadline_misses == 1
        assert events.count(EVENT_FIX_DEADLINE) == 1
        assert events.events(kind=EVENT_FIX_DEADLINE)[0].detail[
            "deadline_s"
        ] == pytest.approx(0.05)

    def test_fast_fix_unaffected_by_deadline(self):
        factory = RecordingServerFactory()
        actor = DeploymentActor(
            "dep-1", factory, config=ActorConfig(fix_deadline_s=5.0)
        )

        async def body():
            actor.offer_columnar("r1", columns([make_report(0)]))
            return await actor.request_fix("r1", 1)

        fix, _diag = run_with_actor(actor, body)
        assert fix == "fix-r1-1"
        assert actor.stats.deadline_misses == 0


class TestCrash:
    def test_injected_crash_surfaces_from_run(self):
        factory = RecordingServerFactory()
        actor = DeploymentActor("dep-1", factory)

        async def scenario():
            run_task = asyncio.ensure_future(actor.run())
            actor.offer_columnar("r1", columns([make_report(0)]))
            actor.inject_crash(RuntimeError("boom"))
            with pytest.raises(RuntimeError, match="boom"):
                await run_task

        asyncio.run(scenario())
        assert not actor.running


class TestCheckpointing:
    def test_explicit_checkpoint_and_warm_restore(self):
        store = MemoryCheckpointStore()
        events = EventLog()
        factory = RecordingServerFactory()
        actor = DeploymentActor("dep-1", factory, events=events, store=store)

        async def body():
            actor.offer_columnar("r1", columns(make_report(i) for i in range(6)))
            seq = await actor.request_checkpoint()
            assert seq == 1
            return seq

        run_with_actor(actor, body)
        assert events.count(EVENT_CHECKPOINT_SAVED) == 1
        assert actor.stats.checkpoints_saved == 1

        # Second incarnation warm-starts from the stored snapshot.
        revived = DeploymentActor(
            "dep-1", factory, events=events, store=store, incarnation=1
        )

        async def body2():
            return await revived.request_fix("r1", 1)

        fix, _diag = run_with_actor(revived, body2)
        assert fix == "fix-r1-1"
        assert revived.stats.warm_restored
        assert revived.stats.restored_reports == 6
        assert events.count(EVENT_CHECKPOINT_RESTORED) == 1
        # The restore runs no fix of its own: only the request locates.
        assert factory.servers[1].locate_calls == 1
        assert factory.servers[1].snapshot_streams() == (
            factory.servers[0].snapshot_streams()
        )

    def test_auto_checkpoint_every_n_batches(self):
        store = MemoryCheckpointStore()
        factory = RecordingServerFactory()
        actor = DeploymentActor(
            "dep-1",
            factory,
            config=ActorConfig(checkpoint_every=2),
            store=store,
        )

        async def body():
            for i in range(5):
                actor.offer_columnar("r1", columns([make_report(i)]))
            while actor.mailbox.pending_reports:
                await asyncio.sleep(0.001)

        run_with_actor(actor, body)
        assert actor.stats.checkpoints_saved == 2  # after batches 2 and 4

    def test_corrupt_checkpoint_cold_starts(self):
        store = MemoryCheckpointStore()
        events = EventLog()
        factory = RecordingServerFactory()
        actor = DeploymentActor("dep-1", factory, events=events, store=store)

        async def body():
            actor.offer_columnar("r1", columns(make_report(i) for i in range(4)))
            await actor.request_checkpoint()

        run_with_actor(actor, body)
        store.corrupt("dep-1")

        revived = DeploymentActor(
            "dep-1", factory, events=events, store=store, incarnation=1
        )

        async def body2():
            actor_server = factory.servers[1]
            assert actor_server.snapshot_streams() == {}
            return None

        run_with_actor(revived, body2)
        assert not revived.stats.warm_restored
        assert revived.stats.restored_reports == 0
        assert events.count(EVENT_CHECKPOINT_CORRUPT) == 1

    def test_checkpoint_without_store_is_an_error(self):
        factory = RecordingServerFactory()
        actor = DeploymentActor("dep-1", factory)

        async def body():
            with pytest.raises(ConfigurationError, match="checkpoint store"):
                await actor.request_checkpoint()

        run_with_actor(actor, body)
