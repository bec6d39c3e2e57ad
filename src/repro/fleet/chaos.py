"""Chaos harness for the fleet serving tier.

Four fleet-level fault scenarios, each composed with the RF/transport
faults from :mod:`repro.sim.faults` and each asserting a recovery SLO
rather than just "it didn't crash":

* **actor-kill** — crash the actor mid-serving; fixes must resume within
  ``recovery_fix_budget`` offer+fix cycles and the restarted actor must
  warm-start from its checkpoint.
* **ingest-flood** — overload the mailbox with bystander-heavy traffic;
  shedding must target bystander reports first and the report ledger
  must reconcile exactly (``offered == shed + pending + delivered +
  lost``) — overload may lose data, never accounting.
* **checkpoint-corruption** — tear the stored checkpoint, then crash the
  actor; recovery must degrade to a cold start (corrupt event emitted,
  no garbage restored) and still serve fixes from fresh data.
* **clock-skew** — serve one deployment from two readers whose clocks
  disagree by seconds, one of them also duplicating and reordering its
  delivery; per-stream fixes must agree and the validator ledger must
  absorb the duplicates exactly.

``run_chaos_suite`` is synchronous (it owns its event loop via
:func:`asyncio.run`) so pytest, the benchmark and the CLI can all call
it directly.  Every scenario serves on the fleet's serving engine,
:attr:`~repro.fleet.worker.DeploymentSpec.engine`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.geometry import Point3
from repro.errors import TagspinError
from repro.fleet.actor import ActorConfig
from repro.fleet.checkpoint import MemoryCheckpointStore
from repro.fleet.events import (
    EVENT_CHECKPOINT_CORRUPT,
    EVENT_REPORTS_SHED,
    EventLog,
)
from repro.fleet.supervisor import FleetSupervisor, SupervisorPolicy
from repro.fleet.worker import DeploymentSpec
from repro.hardware.llrp import ReportBatch, TagReportData
from repro.server.resilience import ResilientLocalizationServer, RetryPolicy
from repro.sim import faults
from repro.sim.scenario import TagspinScenario, paper_default_scenario

#: Reader pose used for every chaos collection.
CHAOS_POSE = Point3(0.4, 1.9, 0.0)


@dataclass(frozen=True)
class ChaosConfig:
    """Tuning of one chaos run."""

    seed: int = 7
    #: SLO: fixes must succeed within this many offer+fix cycles after a
    #: fault clears.
    recovery_fix_budget: int = 3
    #: Reports per offered chunk (streamed ingestion granularity).
    chunk_size: int = 250
    #: Mailbox high-water mark used by the flood scenario.
    flood_high_water: int = 400
    #: Whole disk rotations of reader-clock skew injected by the skew
    #: scenario.  A whole-rotation offset is phase-consistent, so the
    #: skewed reader's fix must agree with the unskewed one; the same
    #: scenario also drives a *fractionally* skewed reader, whose fix is
    #: physically biased and only has to keep serving.
    skew_rotations: int = 3
    #: Fix positions of phase-consistently skewed readers must agree
    #: within this [m].
    skew_agreement_m: float = 0.05


@dataclass
class ScenarioOutcome:
    """Result of one chaos scenario."""

    name: str
    passed: bool
    slo: str
    details: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "slo": self.slo,
            "details": dict(self.details),
        }


@dataclass
class ChaosReport:
    """Aggregate result of a chaos suite run."""

    outcomes: List[ScenarioOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def outcome(self, name: str) -> ScenarioOutcome:
        for candidate in self.outcomes:
            if candidate.name == name:
                return candidate
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "scenarios": [outcome.as_dict() for outcome in self.outcomes],
        }


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
class _Harness:
    """One deployment under supervision, fed from a simulated collection."""

    def __init__(
        self,
        scenario: TagspinScenario,
        batch: ReportBatch,
        config: ChaosConfig,
        high_water: int = 1_000_000,
    ) -> None:
        self.scenario = scenario
        self.batch = batch
        self.config = config
        self.events = EventLog()
        self.store = MemoryCheckpointStore()
        self.supervisor = FleetSupervisor(
            policy=SupervisorPolicy(
                max_restarts=10,
                restart_window_s=300.0,
                backoff=RetryPolicy(
                    max_attempts=1_000_000,
                    backoff_base_s=0.005,
                    backoff_max_s=0.02,
                ),
                open_cooldown_s=0.05,
                stability_probe_s=0.05,
            ),
            events=self.events,
            store=self.store,
        )
        pipeline = scenario.config.pipeline
        registry = scenario.scene.registry

        def server_factory() -> ResilientLocalizationServer:
            return ResilientLocalizationServer(
                registry, pipeline, engine=DeploymentSpec.engine
            )

        self.deployment_id = "chaos-deployment"
        self.offered_total = 0
        self.supervisor.add_deployment(
            self.deployment_id,
            server_factory,
            ActorConfig(high_water_mark=high_water),
        )

    def chunks(self, batch: Optional[ReportBatch] = None) -> List[List[TagReportData]]:
        reports = (batch or self.batch).reports
        size = self.config.chunk_size
        return [
            list(reports[i : i + size]) for i in range(0, len(reports), size)
        ]

    def offer(self, reader_name: str, reports: List[TagReportData]) -> int:
        self.offered_total += len(reports)
        return self.supervisor.offer(self.deployment_id, reader_name, reports)

    async def drain(self, timeout_s: float = 10.0) -> None:
        """Wait until the live actor's mailbox is empty."""

        def drained() -> bool:
            actor = self.supervisor.actor(self.deployment_id)
            return actor is not None and actor.mailbox.pending_reports == 0

        await _wait_for(drained, timeout_s)

    async def fix(self, reader_name: str = "r1"):
        return await self.supervisor.locate_2d(
            self.deployment_id, reader_name
        )

    def accounting(self) -> dict:
        return self.supervisor.accounting(self.deployment_id)

    def reconciles(self) -> Tuple[bool, dict]:
        """Check the exact report ledger invariant."""
        acct = self.accounting()
        ok = (
            self.offered_total
            == acct["offered"] + acct["rejected_open"]
            and acct["offered"]
            == acct["shed"]
            + acct["pending"]
            + acct["delivered"]
            + acct["lost_in_crash"]
            and acct["delivered"]
            == acct["received"] + acct["rejected_invalid"]
            and acct["received"] == acct["accepted"] + acct["quarantined"]
        )
        return ok, acct

    async def shutdown(self) -> None:
        await self.supervisor.stop()


async def _wait_for(
    predicate: Callable[[], bool], timeout_s: float
) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("chaos harness: condition not reached in time")
        await asyncio.sleep(0.005)


async def _recover_fixes(
    harness: _Harness,
    pending_chunks: List[List[TagReportData]],
    reader_name: str = "r1",
) -> Tuple[int, object]:
    """Offer+fix cycles until a fix succeeds; returns (cycles, fix)."""
    budget = harness.config.recovery_fix_budget
    last_error: Optional[Exception] = None
    for cycle in range(1, budget + 1):
        if pending_chunks:
            harness.offer(reader_name, pending_chunks.pop(0))
            await harness.drain()
        try:
            fix, _diag = await harness.fix(reader_name)
            return cycle, fix
        except TagspinError as exc:
            last_error = exc
    raise AssertionError(
        f"no fix within {budget} recovery cycles: {last_error!r}"
    )


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
async def _run_actor_kill(
    scenario: TagspinScenario, batch: ReportBatch, config: ChaosConfig
) -> ScenarioOutcome:
    harness = _Harness(scenario, batch, config)
    details: Dict[str, object] = {}
    try:
        chunks = harness.chunks()
        half = max(1, len(chunks) // 2)
        await _wait_for(
            lambda: harness.supervisor.actor(harness.deployment_id)
            is not None,
            5.0,
        )
        for chunk in chunks[:half]:
            harness.offer("r1", chunk)
        await harness.drain()
        await harness.fix()  # baseline fix
        await harness.supervisor.checkpoint(harness.deployment_id)

        harness.supervisor.kill(harness.deployment_id)
        await _wait_for(
            lambda: (
                harness.supervisor.actor(harness.deployment_id) is not None
                and harness.supervisor.actor(
                    harness.deployment_id
                ).incarnation
                > 0
                and harness.supervisor.actor(harness.deployment_id).running
            ),
            10.0,
        )
        actor = harness.supervisor.actor(harness.deployment_id)
        warm = actor.stats.warm_restored
        restored = actor.stats.restored_reports
        cycles, _fix = await _recover_fixes(harness, chunks[half:])
        ledger_ok, acct = harness.reconciles()
        details.update(
            {
                "warm_restored": warm,
                "restored_reports": restored,
                "recovery_cycles": cycles,
                "ledger": acct,
            }
        )
        passed = (
            warm
            and restored > 0
            and cycles <= config.recovery_fix_budget
            and ledger_ok
        )
        return ScenarioOutcome(
            name="actor-kill",
            passed=passed,
            slo=(
                f"fix within {config.recovery_fix_budget} cycles of a crash, "
                f"warm-started from checkpoint, ledger exact"
            ),
            details=details,
        )
    finally:
        await harness.shutdown()


async def _run_ingest_flood(
    scenario: TagspinScenario, batch: ReportBatch, config: ChaosConfig
) -> ScenarioOutcome:
    harness = _Harness(
        scenario, batch, config, high_water=config.flood_high_water
    )
    details: Dict[str, object] = {}
    try:
        await _wait_for(
            lambda: harness.supervisor.actor(harness.deployment_id)
            is not None,
            5.0,
        )
        # Interleave calibration traffic with 2x bystander traffic (tags
        # the registry does not know), then flood without yielding so
        # the mailbox sees the whole burst at once.
        bystanders = [
            replace(report, epc=f"BYSTANDER-{i % 17:04d}")
            for i, report in enumerate(batch.reports)
        ]
        for chunk in harness.chunks():
            harness.offer("r1", chunk)
        for i in range(0, len(bystanders), config.chunk_size):
            harness.offer("r1", bystanders[i : i + config.chunk_size])
        shed_events = harness.events.count(EVENT_REPORTS_SHED)
        await harness.drain()
        cycles, _fix = await _recover_fixes(harness, [])
        ledger_ok, acct = harness.reconciles()
        actor = harness.supervisor.actor(harness.deployment_id)
        shed_stats = actor.mailbox.stats
        details.update(
            {
                "ledger": acct,
                "shed_events": shed_events,
                "shed_bystander": shed_stats.shed_bystander,
                "shed_infrastructure": shed_stats.shed_infrastructure,
                "recovery_cycles": cycles,
            }
        )
        passed = (
            acct["shed"] > 0
            and shed_events > 0
            and shed_stats.shed_bystander > 0
            and ledger_ok
            and cycles <= config.recovery_fix_budget
        )
        return ScenarioOutcome(
            name="ingest-flood",
            passed=passed,
            slo=(
                "overload sheds bystander reports first, every shed report "
                "is counted, and fixes keep serving"
            ),
            details=details,
        )
    finally:
        await harness.shutdown()


async def _run_checkpoint_corruption(
    scenario: TagspinScenario, batch: ReportBatch, config: ChaosConfig
) -> ScenarioOutcome:
    harness = _Harness(scenario, batch, config)
    details: Dict[str, object] = {}
    try:
        chunks = harness.chunks()
        half = max(1, len(chunks) // 2)
        await _wait_for(
            lambda: harness.supervisor.actor(harness.deployment_id)
            is not None,
            5.0,
        )
        for chunk in chunks[:half]:
            harness.offer("r1", chunk)
        await harness.drain()
        await harness.supervisor.checkpoint(harness.deployment_id)
        harness.store.corrupt(harness.deployment_id)
        harness.supervisor.kill(harness.deployment_id)
        await _wait_for(
            lambda: (
                harness.supervisor.actor(harness.deployment_id) is not None
                and harness.supervisor.actor(
                    harness.deployment_id
                ).incarnation
                > 0
                and harness.supervisor.actor(harness.deployment_id).running
            ),
            10.0,
        )
        actor = harness.supervisor.actor(harness.deployment_id)
        corrupt_events = harness.events.count(EVENT_CHECKPOINT_CORRUPT)
        cold = not actor.stats.warm_restored
        cycles, _fix = await _recover_fixes(harness, chunks[half:])
        ledger_ok, acct = harness.reconciles()
        details.update(
            {
                "corrupt_events": corrupt_events,
                "cold_started": cold,
                "recovery_cycles": cycles,
                "ledger": acct,
            }
        )
        passed = (
            corrupt_events >= 1
            and cold
            and cycles <= config.recovery_fix_budget
            and ledger_ok
        )
        return ScenarioOutcome(
            name="checkpoint-corruption",
            passed=passed,
            slo=(
                "a torn checkpoint downgrades recovery to a cold start "
                "(never restores garbage) and fixes still resume"
            ),
            details=details,
        )
    finally:
        await harness.shutdown()


async def _run_clock_skew(
    scenario: TagspinScenario, batch: ReportBatch, config: ChaosConfig
) -> ScenarioOutcome:
    harness = _Harness(scenario, batch, config)
    details: Dict[str, object] = {}
    try:
        await _wait_for(
            lambda: harness.supervisor.actor(harness.deployment_id)
            is not None,
            5.0,
        )
        rng = np.random.default_rng(config.seed)
        registry = scenario.scene.registry
        speed = max(
            registry.get(epc).disk.angular_speed for epc in registry.epcs()
        )
        period_us = 2.0 * np.pi / speed * 1e6
        consistent_us = int(round(config.skew_rotations * period_us))
        fractional_us = int(round((config.skew_rotations + 0.5) * period_us))
        skewed = faults.chain(
            batch,
            lambda b: faults.skew_clock(b, consistent_us),
            lambda b: faults.duplicate_reports(b, 0.10, rng),
            lambda b: faults.shuffle_reports(b, rng),
        )
        for chunk in harness.chunks():
            harness.offer("r1", chunk)
        await harness.drain()
        # The skewed readers deliver their whole (reordered) collection
        # in one batch: the validator re-sorts within the batch.
        harness.offer("r2", list(skewed.reports))
        harness.offer(
            "r3", list(faults.skew_clock(batch, fractional_us).reports)
        )
        await harness.drain()
        fix1, _ = await harness.fix("r1")
        fix2, _ = await harness.fix("r2")
        fix3, _ = await harness.fix("r3")  # biased, but must still serve
        disagreement = fix1.position.distance_to(fix2.position)
        fractional_bias = fix1.position.distance_to(fix3.position)
        ledger_ok, acct = harness.reconciles()
        details.update(
            {
                "consistent_skew_us": consistent_us,
                "fractional_skew_us": fractional_us,
                "disagreement_m": disagreement,
                "fractional_bias_m": fractional_bias,
                "duplicates_quarantined": acct["quarantined"],
                "ledger": acct,
            }
        )
        passed = (
            disagreement <= config.skew_agreement_m
            and np.isfinite(fractional_bias)
            and acct["quarantined"] > 0
            and ledger_ok
        )
        return ScenarioOutcome(
            name="clock-skew",
            passed=passed,
            slo=(
                f"a reader skewed by {config.skew_rotations} whole disk "
                f"rotations (plus duplication and reordering) agrees "
                f"within {config.skew_agreement_m} m; a fractionally "
                f"skewed reader degrades but keeps serving; duplicates "
                f"land in the quarantine ledger"
            ),
            details=details,
        )
    finally:
        await harness.shutdown()


_SCENARIOS = {
    "actor-kill": _run_actor_kill,
    "ingest-flood": _run_ingest_flood,
    "checkpoint-corruption": _run_checkpoint_corruption,
    "clock-skew": _run_clock_skew,
}


async def _run_suite(
    config: ChaosConfig,
    scenario: TagspinScenario,
    batch: ReportBatch,
    names: List[str],
) -> ChaosReport:
    report = ChaosReport()
    for name in names:
        report.outcomes.append(await _SCENARIOS[name](scenario, batch, config))
    return report


def run_chaos_suite(
    config: Optional[ChaosConfig] = None,
    scenario: Optional[TagspinScenario] = None,
    scenarios: Optional[List[str]] = None,
) -> ChaosReport:
    """Run the chaos scenarios and return their SLO outcomes.

    ``scenario`` may be a pre-calibrated :class:`TagspinScenario` (tests
    reuse a session fixture to avoid re-running the calibration
    prelude); by default a paper-default scenario is built from
    ``config.seed``.  ``scenarios`` selects a subset by name.
    """
    config = config if config is not None else ChaosConfig()
    if scenario is None:
        scenario = paper_default_scenario(seed=config.seed)
        scenario.run_orientation_prelude()
    names = scenarios if scenarios is not None else sorted(_SCENARIOS)
    unknown = set(names) - set(_SCENARIOS)
    if unknown:
        raise KeyError(f"unknown chaos scenarios: {sorted(unknown)}")
    batch, _reader = scenario.collect(CHAOS_POSE)
    return asyncio.run(_run_suite(config, scenario, batch, names))
