"""Tests for repro.fleet.supervisor (restarts, backoff, circuit breaker)."""

from __future__ import annotations

import asyncio
import dataclasses
from typing import List

import pytest

from fleet_helpers import RecordingServerFactory, make_report

from repro.errors import ActorUnavailableError, ConfigurationError
from repro.fleet.checkpoint import MemoryCheckpointStore
from repro.fleet.events import (
    EVENT_ACTOR_CRASHED,
    EVENT_ACTOR_RESTARTED,
    EVENT_ACTOR_STARTED,
    EVENT_ACTOR_STOPPED,
    EVENT_BREAKER_CLOSED,
    EVENT_BREAKER_HALF_OPEN,
    EVENT_BREAKER_OPENED,
    EventLog,
)
from repro.fleet.supervisor import (
    BreakerState,
    FleetSupervisor,
    SupervisorPolicy,
)
from repro.server.registry import TagRegistry
from repro.server.resilience import (
    ResilientLocalizationServer,
    RetryPolicy,
)


class RecordingSleep:
    """Injectable sleep that records delays and returns immediately."""

    def __init__(self) -> None:
        self.delays: List[float] = []

    async def __call__(self, delay: float) -> None:
        self.delays.append(delay)
        await asyncio.sleep(0)


class GatedSleep:
    """Injectable sleep that blocks until released (to observe the OPEN
    state while the supervisor sits in its cooldown)."""

    def __init__(self) -> None:
        self.pending: List[asyncio.Event] = []
        self.delays: List[float] = []

    async def __call__(self, delay: float) -> None:
        self.delays.append(delay)
        gate = asyncio.Event()
        self.pending.append(gate)
        await gate.wait()

    def release(self) -> None:
        for gate in self.pending:
            gate.set()
        self.pending.clear()


def fast_policy(**overrides) -> SupervisorPolicy:
    defaults = dict(
        max_restarts=2,
        restart_window_s=100.0,
        backoff=RetryPolicy(
            max_attempts=1_000_000, backoff_base_s=0.1, backoff_factor=2.0
        ),
        open_cooldown_s=7.0,
        stability_probe_s=0.02,
    )
    defaults.update(overrides)
    return SupervisorPolicy(**defaults)


async def wait_until(predicate, timeout_s: float = 5.0) -> None:
    async def poll():
        while not predicate():
            await asyncio.sleep(0.002)

    await asyncio.wait_for(poll(), timeout_s)


def running_actor(supervisor, deployment_id):
    actor = supervisor.actor(deployment_id)
    return actor is not None and actor.running


class TestRestart:
    def test_crash_restarts_with_backoff_and_serves_again(self):
        factory = RecordingServerFactory()
        events = EventLog()
        sleep = RecordingSleep()

        async def scenario():
            supervisor = FleetSupervisor(
                policy=fast_policy(), events=events, sleep=sleep
            )
            supervisor.add_deployment("dep-1", factory)
            await wait_until(lambda: running_actor(supervisor, "dep-1"))
            supervisor.offer("dep-1", "r1", [make_report(0)])
            fix, _diag = await supervisor.locate_2d("dep-1", "r1")
            assert fix == "fix-r1-1"

            supervisor.kill("dep-1", RuntimeError("chaos"))
            await wait_until(
                lambda: running_actor(supervisor, "dep-1")
                and supervisor.actor("dep-1").incarnation == 1
            )
            supervisor.offer("dep-1", "r1", [make_report(1)])
            fix2, _diag = await supervisor.locate_2d("dep-1", "r1")
            await supervisor.stop()
            return fix2

        fix2 = asyncio.run(scenario())
        assert fix2 == "fix-r1-1"
        assert len(factory.servers) == 2  # one per incarnation
        assert events.count(EVENT_ACTOR_STARTED) == 1
        assert events.count(EVENT_ACTOR_CRASHED) == 1
        assert events.count(EVENT_ACTOR_RESTARTED) == 1
        assert events.count(EVENT_ACTOR_STOPPED) == 1
        assert sleep.delays == [0.1]  # backoff.delay(1)

    def test_backoff_grows_with_repeated_crashes(self):
        factory = RecordingServerFactory()
        sleep = RecordingSleep()

        async def scenario():
            supervisor = FleetSupervisor(
                policy=fast_policy(max_restarts=10), sleep=sleep
            )
            supervisor.add_deployment("dep-1", factory)
            for generation in range(3):
                await wait_until(
                    lambda: running_actor(supervisor, "dep-1")
                    and supervisor.actor("dep-1").incarnation == generation
                )
                supervisor.kill("dep-1")
            await wait_until(
                lambda: running_actor(supervisor, "dep-1")
                and supervisor.actor("dep-1").incarnation == 3
            )
            await supervisor.stop()

        asyncio.run(scenario())
        assert sleep.delays == [0.1, 0.2, 0.4]

    def test_crash_loss_is_accounted(self):
        factory = RecordingServerFactory()

        async def scenario():
            supervisor = FleetSupervisor(policy=fast_policy())
            supervisor.add_deployment("dep-1", factory)
            await wait_until(lambda: running_actor(supervisor, "dep-1"))
            supervisor.offer("dep-1", "r1", [make_report(0)])
            await wait_until(
                lambda: supervisor.actor("dep-1").mailbox.pending_reports
                == 0
            )
            # Crash with a batch still queued behind the crash marker:
            supervisor.kill("dep-1")
            supervisor.offer(
                "dep-1", "r1", [make_report(i) for i in range(1, 6)]
            )
            await wait_until(
                lambda: running_actor(supervisor, "dep-1")
                and supervisor.actor("dep-1").incarnation == 1
            )
            accounting = supervisor.accounting("dep-1")
            await supervisor.stop()
            return accounting

        accounting = asyncio.run(scenario())
        assert accounting["offered"] == 6
        assert accounting["lost_in_crash"] == 5
        assert accounting["delivered"] == 1
        assert accounting["received"] == 1
        assert (
            accounting["offered"]
            == accounting["shed"]
            + accounting["pending"]
            + accounting["delivered"]
            + accounting["lost_in_crash"]
        )

    def test_pending_fix_fails_fast_on_crash(self):
        factory = RecordingServerFactory()

        async def scenario():
            supervisor = FleetSupervisor(policy=fast_policy())
            supervisor.add_deployment("dep-1", factory)
            await wait_until(lambda: running_actor(supervisor, "dep-1"))
            supervisor.kill("dep-1")
            # Enqueued behind the crash marker; must not hang forever.
            actor = supervisor.actor("dep-1")
            fix_task = asyncio.ensure_future(actor.request_fix("r1", 1))
            with pytest.raises(ActorUnavailableError):
                await asyncio.wait_for(fix_task, timeout=5.0)
            await supervisor.stop()

        asyncio.run(scenario())


class TestBreaker:
    def test_opens_after_crash_budget_then_half_open_then_closes(self):
        factory = RecordingServerFactory()
        events = EventLog()
        sleep = GatedSleep()
        clock_now = [0.0]

        async def scenario():
            supervisor = FleetSupervisor(
                policy=fast_policy(max_restarts=2),
                events=events,
                sleep=sleep,
                clock=lambda: clock_now[0],
            )
            supervisor.add_deployment("dep-1", factory)
            # Crash 1 and 2: plain restarts (inside the budget).
            for generation in range(2):
                await wait_until(
                    lambda: running_actor(supervisor, "dep-1")
                    and supervisor.actor("dep-1").incarnation == generation
                )
                supervisor.kill("dep-1")
                await wait_until(lambda: len(sleep.pending) == 1)
                assert supervisor.breaker_state("dep-1") is (
                    BreakerState.CLOSED
                )
                sleep.release()
            # Crash 3: budget exceeded -> breaker OPEN during cooldown.
            await wait_until(
                lambda: running_actor(supervisor, "dep-1")
                and supervisor.actor("dep-1").incarnation == 2
            )
            supervisor.kill("dep-1")
            await wait_until(lambda: len(sleep.pending) == 1)
            assert supervisor.breaker_state("dep-1") is BreakerState.OPEN
            assert sleep.delays[-1] == 7.0  # cooldown, not backoff

            # While OPEN: ingest is rejected and counted, fixes refuse.
            rejected = supervisor.offer(
                "dep-1", "r1", [make_report(i) for i in range(3)]
            )
            assert rejected == 0
            with pytest.raises(ActorUnavailableError):
                await supervisor.locate_2d("dep-1", "r1")

            # Cooldown over: HALF_OPEN probe starts and stabilizes.
            sleep.release()
            await wait_until(
                lambda: supervisor.breaker_state("dep-1")
                is BreakerState.CLOSED
            )
            supervisor.offer("dep-1", "r1", [make_report(9)])
            fix, _diag = await supervisor.locate_2d("dep-1", "r1")
            accounting = supervisor.accounting("dep-1")
            await supervisor.stop()
            return fix, accounting

        fix, accounting = asyncio.run(scenario())
        assert fix == "fix-r1-1"
        assert accounting["rejected_open"] == 3
        assert events.count(EVENT_BREAKER_OPENED) == 1
        assert events.count(EVENT_BREAKER_HALF_OPEN) == 1
        assert events.count(EVENT_BREAKER_CLOSED) == 1

    def test_half_open_crash_reopens(self):
        factory = RecordingServerFactory()
        events = EventLog()
        sleep = RecordingSleep()
        clock_now = [0.0]

        async def scenario():
            supervisor = FleetSupervisor(
                policy=fast_policy(max_restarts=0, stability_probe_s=10.0),
                events=events,
                sleep=sleep,
                clock=lambda: clock_now[0],
            )
            supervisor.add_deployment("dep-1", factory)
            # First crash trips the zero-tolerance breaker; the probe
            # incarnation is killed before it can stabilize, reopening.
            for _ in range(2):
                await wait_until(lambda: running_actor(supervisor, "dep-1"))
                supervisor.kill("dep-1")
                await wait_until(
                    lambda: events.count(EVENT_BREAKER_OPENED) >= 1
                )
            await wait_until(
                lambda: events.count(EVENT_BREAKER_OPENED) == 2
            )
            await wait_until(lambda: running_actor(supervisor, "dep-1"))
            await supervisor.stop()

        asyncio.run(scenario())
        assert events.count(EVENT_BREAKER_OPENED) == 2


class TestFleetShape:
    def test_deployments_are_isolated(self):
        factory_a = RecordingServerFactory()
        factory_b = RecordingServerFactory()

        async def scenario():
            supervisor = FleetSupervisor(policy=fast_policy())
            supervisor.add_deployment("dep-a", factory_a)
            supervisor.add_deployment("dep-b", factory_b)
            await wait_until(
                lambda: running_actor(supervisor, "dep-a")
                and running_actor(supervisor, "dep-b")
            )
            supervisor.kill("dep-a")
            # dep-b keeps serving while dep-a is down.
            supervisor.offer("dep-b", "r1", [make_report(0)])
            fix, _diag = await supervisor.locate_2d("dep-b", "r1")
            await wait_until(
                lambda: running_actor(supervisor, "dep-a")
                and supervisor.actor("dep-a").incarnation == 1
            )
            await supervisor.stop()
            return fix

        assert asyncio.run(scenario()) == "fix-r1-1"

    def test_duplicate_and_unknown_deployments_rejected(self):
        factory = RecordingServerFactory()

        async def scenario():
            supervisor = FleetSupervisor(policy=fast_policy())
            supervisor.add_deployment("dep-1", factory)
            with pytest.raises(ConfigurationError, match="already"):
                supervisor.add_deployment("dep-1", factory)
            with pytest.raises(ConfigurationError, match="unknown"):
                supervisor.offer("nope", "r1", [])
            assert supervisor.deployment_ids() == ["dep-1"]
            await supervisor.stop()

        asyncio.run(scenario())

    def test_checkpoint_via_supervisor(self):
        factory = RecordingServerFactory()
        store = MemoryCheckpointStore()

        async def scenario():
            supervisor = FleetSupervisor(policy=fast_policy(), store=store)
            supervisor.add_deployment("dep-1", factory)
            await wait_until(lambda: running_actor(supervisor, "dep-1"))
            supervisor.offer("dep-1", "r1", [make_report(0)])
            seq = await supervisor.checkpoint("dep-1")
            await supervisor.stop()
            return seq

        assert asyncio.run(scenario()) == 1
        assert store.saves == 1


class TestObjectOffer:
    def test_u64_timestamps_screen_as_object_ingest(self):
        """``offer`` columnarizes report objects.  A reader timestamp
        past int64 (a valid u64 FirstSeenTimestampUTC) must reach the
        server intact and screen as direct object ingest screens it."""
        reports = [
            dataclasses.replace(make_report(i), reader_timestamp_us=us)
            for i, us in enumerate((5, 2**63 + 17, 20))
        ]
        direct = ResilientLocalizationServer(TagRegistry())
        direct.ingest("r1", reports)

        async def scenario():
            supervisor = FleetSupervisor(policy=fast_policy())
            supervisor.add_deployment(
                "dep-1", lambda: ResilientLocalizationServer(TagRegistry())
            )
            await wait_until(lambda: running_actor(supervisor, "dep-1"))
            assert supervisor.offer("dep-1", "r1", reports) == 3
            await wait_until(
                lambda: supervisor.accounting("dep-1")["received"] == 3
            )
            server = supervisor.actor("dep-1").server
            stats = server.quarantine_stats("r1", 1).as_dict()
            ledger = supervisor.accounting("dep-1")
            await supervisor.stop()
            return stats, ledger

        stats, ledger = asyncio.run(scenario())
        assert stats == direct.quarantine_stats("r1", 1).as_dict()
        assert (stats["accepted"], stats["reordered"]) == (3, 1)
        assert ledger["offered"] == ledger["delivered"] == 3
        assert ledger["received"] == ledger["accepted"] == 3
        assert ledger["shed"] == ledger["pending"] == 0
        assert ledger["quarantined"] == ledger["lost_in_crash"] == 0
