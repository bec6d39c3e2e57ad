"""Tests for repro.fleet.chaos (the fault-injection harness itself).

One full suite run against a module-scoped calibrated scenario, with
the recovery SLOs asserted per scenario from the same report — the
harness is the acceptance test of the fleet tier, so this module mostly
checks that its verdicts and its accounting are trustworthy.

This module deliberately does NOT use the session-scoped
``calibrated_scenario_2d`` fixture: collections draw from the
scenario's RNG, and consuming extra draws from the shared scenario
would shift the noise seen by every later module in the suite.
"""

from __future__ import annotations

import pytest

from repro.fleet.chaos import ChaosConfig, run_chaos_suite
from repro.sim.scenario import paper_default_scenario


@pytest.fixture(scope="module")
def chaos_scenario():
    scenario = paper_default_scenario(seed=11)
    scenario.run_orientation_prelude()
    return scenario


@pytest.fixture(scope="module")
def chaos_report(chaos_scenario):
    return run_chaos_suite(ChaosConfig(), scenario=chaos_scenario)


class TestSuiteVerdicts:
    def test_all_scenarios_pass(self, chaos_report):
        failing = [o.name for o in chaos_report.outcomes if not o.passed]
        assert chaos_report.passed, (
            f"chaos SLOs violated in {failing}: "
            f"{[o.details for o in chaos_report.outcomes if not o.passed]}"
        )
        assert len(chaos_report.outcomes) == 4

    def test_actor_kill_recovers_warm(self, chaos_report):
        details = chaos_report.outcome("actor-kill").details
        assert details["warm_restored"]
        assert details["restored_reports"] > 0
        assert details["recovery_cycles"] <= ChaosConfig().recovery_fix_budget

    def test_flood_sheds_bystanders_first_and_reconciles(self, chaos_report):
        details = chaos_report.outcome("ingest-flood").details
        ledger = details["ledger"]
        assert details["shed_bystander"] > 0
        assert ledger["shed"] > 0
        assert (
            ledger["offered"]
            == ledger["shed"]
            + ledger["pending"]
            + ledger["delivered"]
            + ledger["lost_in_crash"]
        )
        assert ledger["received"] == (
            ledger["accepted"] + ledger["quarantined"]
        )

    def test_corrupt_checkpoint_degrades_to_cold_start(self, chaos_report):
        details = chaos_report.outcome("checkpoint-corruption").details
        assert details["corrupt_events"] >= 1
        assert details["cold_started"]

    def test_clock_skew_verdict(self, chaos_report):
        details = chaos_report.outcome("clock-skew").details
        assert details["disagreement_m"] <= ChaosConfig().skew_agreement_m
        assert details["duplicates_quarantined"] > 0
        # Fractional skew is physically biased — the harness records the
        # bias rather than hiding it.
        assert details["fractional_bias_m"] > details["disagreement_m"]


class TestHarnessInterface:
    def test_unknown_scenario_name_rejected(self, chaos_scenario):
        with pytest.raises(KeyError, match="no-such-fault"):
            run_chaos_suite(
                ChaosConfig(),
                scenario=chaos_scenario,
                scenarios=["no-such-fault"],
            )

    def test_subset_selection_runs_only_named(self, chaos_scenario):
        report = run_chaos_suite(
            ChaosConfig(),
            scenario=chaos_scenario,
            scenarios=["ingest-flood"],
        )
        assert [o.name for o in report.outcomes] == ["ingest-flood"]
        assert report.passed

    def test_report_round_trips_to_json_dict(self, chaos_report):
        doc = chaos_report.as_dict()
        assert doc["passed"] is True
        assert {s["name"] for s in doc["scenarios"]} == {
            "actor-kill",
            "ingest-flood",
            "checkpoint-corruption",
            "clock-skew",
        }
