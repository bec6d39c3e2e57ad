"""Cross-process metrics merge: exact across SIGKILL + restart.

The acceptance invariant of the observability tier: per-worker metric
snapshots, folded across a kill/restart cycle exactly like the report
ledger, must reconcile with the supervisor's delivered ledger —
``tagspin_reports_delivered_total{deployment} == accounting["delivered"]``
— and histograms must merge element-wise across incarnations.
"""

from __future__ import annotations

import asyncio

import pytest

from fleet_helpers import columns

from repro.fleet.sharding import ShardedFleet, shard_for
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.worker import DeploymentSpec
from repro.obs.exposition import (
    histogram_totals,
    sample_value,
    to_prometheus,
)
from repro.obs.metrics import use_registry
from repro.server.registry import TagRegistry
from repro.server.resilience import ResilientLocalizationServer

from test_sharding import (  # noqa: F401  (pytest fixtures by import)
    assert_balanced,
    collected,
    make_spec,
    reference_fix,
)
from test_supervisor import running_actor, wait_until


def _pick_deployments_on_distinct_shards(workers: int = 2):
    candidates = [f"dep-metrics-{i:02d}" for i in range(16)]
    first = candidates[0]
    second = next(
        name
        for name in candidates[1:]
        if shard_for(name, workers) != shard_for(first, workers)
    )
    return first, second


def _delivered(snapshot: dict, deployment_id: str) -> float:
    return sample_value(
        snapshot,
        "tagspin_reports_delivered_total",
        {"deployment": deployment_id},
    )


class TestShardedMetricsMerge:
    def test_merge_is_exact_across_kill_and_restart(
        self, calibrated_scenario_2d, collected, reference_fix
    ):
        reports = collected.reports
        half = len(reports) // 2
        victim, survivor = _pick_deployments_on_distinct_shards()
        with use_registry():
            fleet = ShardedFleet(workers=2, request_timeout_s=120.0)
            fleet.start()
            try:
                for deployment_id in (victim, survivor):
                    fleet.add_deployment(
                        make_spec(calibrated_scenario_2d, deployment_id)
                    )
                    fleet.offer_columnar(
                        deployment_id, "reader-1", columns(reports[:half])
                    )
                fleet.drain(timeout_s=120.0)
                for deployment_id in (victim, survivor):
                    fleet.locate_2d_sync(deployment_id, "reader-1")

                # Live snapshot reconciles before any chaos.
                snapshot = fleet.metrics_snapshot()
                for deployment_id in (victim, survivor):
                    assert _delivered(snapshot, deployment_id) == half
                    assert sample_value(
                        snapshot,
                        "tagspin_fixes_total",
                        {"deployment": deployment_id, "outcome": "ok"},
                    ) == 1.0

                # SIGKILL the victim's worker: its counters must survive
                # in the fold, and repeated snapshots must not
                # double-count the dead incarnation.
                shard = fleet.shard_of(victim)
                assert fleet.checkpoint(victim) > 0
                fleet.kill_worker(shard)
                after_kill = fleet.metrics_snapshot()
                assert _delivered(after_kill, victim) == half
                assert _delivered(after_kill, survivor) == half
                again = fleet.metrics_snapshot()
                assert _delivered(again, victim) == half

                fleet.restart_shard(shard)
                for deployment_id in (victim, survivor):
                    fleet.offer_columnar(
                        deployment_id, "reader-1", columns(reports[half:])
                    )
                fleet.drain(timeout_s=120.0)
                for deployment_id in (victim, survivor):
                    fix, _diag = fleet.locate_2d_sync(
                        deployment_id, "reader-1"
                    )
                    assert fix.position.x == pytest.approx(
                        reference_fix.position.x, abs=1e-9
                    )

                merged = fleet.metrics_snapshot()
                total_received = 0
                for deployment_id in (victim, survivor):
                    ledger = fleet.accounting(deployment_id)
                    assert_balanced(ledger)
                    total_received += ledger["received"]
                    # The acceptance criterion: per-worker counters,
                    # merged across the SIGKILL + restart cycle, equal
                    # the supervisor's lifetime ledger exactly.
                    assert _delivered(merged, deployment_id) == (
                        ledger["delivered"]
                    )
                    assert ledger["delivered"] == len(reports)
                    assert sample_value(
                        merged,
                        "tagspin_reports_accepted_total",
                        {"deployment": deployment_id},
                    ) == ledger["accepted"]
                    assert sample_value(
                        merged,
                        "tagspin_fixes_total",
                        {"deployment": deployment_id, "outcome": "ok"},
                    ) == 2.0

                # Validator screen results partition every received
                # report, summed across both workers and the dead
                # incarnation.
                assert sample_value(
                    merged, "tagspin_validator_reports_total"
                ) == total_received

                # Fix latency histograms merged element-wise across the
                # dead and live incarnations: at least the four actor
                # fixes, internally consistent.
                totals = histogram_totals(
                    merged, "tagspin_fix_seconds", {"mode": "2d"}
                )
                assert totals["count"] >= 4
                assert totals["count"] == sum(totals["counts"])
                assert totals["sum"] > 0.0

                # The merged snapshot must render as Prometheus text.
                text = to_prometheus(merged)
                assert (
                    f'tagspin_reports_delivered_total{{'
                    f'deployment="{victim}"}} {len(reports)}' in text
                )
                assert "tagspin_fix_seconds_bucket" in text
            finally:
                fleet.close()

    def test_supervisor_metrics_snapshot_in_process(
        self, calibrated_scenario_2d, collected
    ):
        """The in-process supervisor exposes the same snapshot surface
        (one registry, no folds) so ``tagspin serve`` reads one shape."""
        registry = TagRegistry()
        for record in calibrated_scenario_2d.scene.registry:
            registry.register(record)

        def factory() -> ResilientLocalizationServer:
            return ResilientLocalizationServer(
                registry,
                calibrated_scenario_2d.config.pipeline,
                engine=DeploymentSpec.engine,
            )

        with use_registry():

            async def scenario():
                supervisor = FleetSupervisor()
                supervisor.add_deployment("dep-inproc", factory)
                try:
                    await wait_until(
                        lambda: running_actor(supervisor, "dep-inproc")
                    )
                    supervisor.offer_columnar(
                        "dep-inproc", "reader-1", columns(collected.reports)
                    )
                    await supervisor.locate_2d(
                        "dep-inproc", "reader-1", 1
                    )
                    return supervisor.metrics_snapshot()
                finally:
                    await supervisor.stop()

            snapshot = asyncio.run(scenario())
        assert snapshot["schema"] == "tagspin-metrics/1"
        assert _delivered(snapshot, "dep-inproc") == len(
            collected.reports
        )
        assert sample_value(
            snapshot,
            "tagspin_fixes_total",
            {"deployment": "dep-inproc", "outcome": "ok"},
        ) == 1.0
