"""Tests for repro.server.resilience (the supervised server).

Includes the end-to-end fault-recovery acceptance scenario: three disks,
one stalled, resilient server recovers within 2x of the clean fix while
the unguarded server is dragged far off.
"""

from __future__ import annotations

import pytest

from repro.core.geometry import Point3
from repro.errors import (
    InsufficientDataError,
    TransientError,
    UnknownTagError,
)
from repro.robustness.diagnostics import DegradationState
from repro.robustness.gating import GATE_POOR_COVERAGE
from repro.server.resilience import ResilientLocalizationServer, RetryPolicy
from repro.server.service import LocalizationServer
from repro.sim.faults import corrupt_quantization, pi_slips, stall_disk
from repro.sim.scenario import ScenarioConfig, TagspinScenario
from repro.sim.scene import DeploymentSpec

POSE = Point3(0.4, 1.9, 0.0)


@pytest.fixture(scope="module")
def three_disk_scene():
    """Calibrated 3-disk deployment plus one collection from POSE."""
    spec = DeploymentSpec(
        disk_centers=(
            Point3(-0.3, 0.0, 0.0),
            Point3(0.3, 0.0, 0.0),
            Point3(0.0, 0.35, 0.0),
        )
    )
    scenario = TagspinScenario(ScenarioConfig(deployment=spec, seed=2))
    scenario.run_orientation_prelude()
    batch, reader = scenario.collect(POSE)
    return scenario, batch, reader


def make_server(scenario, **kwargs):
    return ResilientLocalizationServer(
        scenario.scene.registry, scenario.config.pipeline, **kwargs
    )


class TestFaultRecoveryAcceptance:
    """ISSUE 1 acceptance: stalled disk, 3 disks registered."""

    @pytest.fixture(scope="class")
    def stalled(self, three_disk_scene):
        scenario, batch, reader = three_disk_scene
        epc = scenario.scene.registry.epcs()[0]
        disk = scenario.scene.registry.get(epc).disk
        return scenario, stall_disk(batch, disk, epc), reader, epc

    @pytest.fixture(scope="class")
    def clean_error(self, three_disk_scene):
        scenario, batch, reader = three_disk_scene
        server = make_server(scenario)
        server.ingest("r", batch.reports)
        fix = server.locate_antenna_2d("r")
        truth = reader.antenna(1).position.horizontal()
        return fix.position.distance_to(truth)

    def test_resilient_server_recovers(self, stalled, clean_error):
        scenario, faulty, reader, stalled_epc = stalled
        server = make_server(scenario)
        server.ingest("r", faulty.reports)
        fix, diagnostics = server.locate_antenna_2d_diagnosed("r")
        truth = reader.antenna(1).position.horizontal()
        error = fix.position.distance_to(truth)

        assert error <= 2.0 * clean_error
        excluded = {e.epc: e.reasons for e in diagnostics.disks_excluded}
        assert stalled_epc in excluded
        assert GATE_POOR_COVERAGE in excluded[stalled_epc]
        assert stalled_epc not in diagnostics.disks_used
        assert diagnostics.degradation is DegradationState.DEGRADED
        assert server.degradation_state("r") is DegradationState.DEGRADED

    def test_starved_disk_excluded_not_fatal(self, three_disk_scene):
        """A disk with too few reads to extract any series becomes an
        exclusion (insufficient-reads), not an InsufficientDataError."""
        from repro.robustness.gating import GATE_NO_DATA

        scenario, batch, reader = three_disk_scene
        starved_epc = scenario.scene.registry.epcs()[0]
        keep = [
            r
            for r in batch.reports
            if r.epc != starved_epc
        ] + [r for r in batch.reports if r.epc == starved_epc][:5]
        server = make_server(scenario)
        server.ingest("r", keep)
        fix, diagnostics = server.locate_antenna_2d_diagnosed("r")
        truth = reader.antenna(1).position.horizontal()
        assert fix.position.distance_to(truth) < 0.15
        excluded = {e.epc: e.reasons for e in diagnostics.disks_excluded}
        assert excluded.get(starved_epc) == (GATE_NO_DATA,)
        assert diagnostics.degradation is DegradationState.DEGRADED

    def test_unguarded_server_degrades_badly(self, stalled, clean_error):
        scenario, faulty, reader, _epc = stalled
        server = LocalizationServer(
            scenario.scene.registry, scenario.config.pipeline
        )
        server.ingest("r", faulty.reports)
        truth = reader.antenna(1).position.horizontal()
        try:
            fix = server.locate_antenna_2d("r")
        except TransientError:
            return  # erroring out also satisfies the criterion
        assert fix.position.distance_to(truth) > 2.0 * clean_error


class TestValidationAtIngest:
    def test_corrupt_reports_quarantined(self, three_disk_scene, rng):
        scenario, batch, reader = three_disk_scene
        corrupted = corrupt_quantization(batch, 0.2, rng)
        server = make_server(scenario)
        server.ingest("r", corrupted.reports)
        stats = server.quarantine_stats("r", 1)
        assert stats.phase_out_of_range > 0.1 * len(batch.reports)
        fix, diagnostics = server.locate_antenna_2d_diagnosed("r")
        truth = reader.antenna(1).position.horizontal()
        assert fix.position.distance_to(truth) < 0.1
        assert diagnostics.quarantine.phase_out_of_range > 0
        assert diagnostics.degradation is DegradationState.DEGRADED

    def test_pi_slip_storm_survived(self, three_disk_scene, rng):
        scenario, batch, reader = three_disk_scene
        slipped = pi_slips(batch, 0.15, rng)
        server = make_server(scenario)
        server.ingest("r", slipped.reports)
        fix, diagnostics = server.locate_antenna_2d_diagnosed("r")
        truth = reader.antenna(1).position.horizontal()
        assert fix.position.distance_to(truth) < 0.1
        assert diagnostics.quarantine.pi_slips_repaired > 0

    def test_quarantine_stats_empty_stream(self, three_disk_scene):
        scenario, _batch, _reader = three_disk_scene
        server = make_server(scenario)
        assert server.quarantine_stats("ghost", 1).received == 0


class TestRetryPolicy:
    def test_backoff_delays(self):
        policy = RetryPolicy(backoff_base_s=0.5, backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.5)
        assert policy.delay(2) == pytest.approx(1.0)
        assert policy.delay(3) == pytest.approx(2.0)

    def test_backoff_saturates_at_cap(self):
        policy = RetryPolicy(
            backoff_base_s=0.5, backoff_factor=2.0, backoff_max_s=1.5
        )
        assert policy.delay(1) == pytest.approx(0.5)
        assert policy.delay(2) == pytest.approx(1.0)
        assert policy.delay(3) == pytest.approx(1.5)
        assert policy.delay(10) == pytest.approx(1.5)

    def test_full_jitter_bounded_by_backoff(self):
        """Jittered delays stay in [0, deterministic backoff)."""
        import random

        policy = RetryPolicy(
            backoff_base_s=0.5,
            backoff_factor=2.0,
            jitter_rng=random.Random(42),
        )
        ceilings = RetryPolicy(backoff_base_s=0.5, backoff_factor=2.0)
        for attempt in (1, 2, 3, 4):
            for _ in range(50):
                delay = policy.delay(attempt)
                assert 0.0 <= delay <= ceilings.delay(attempt)

    def test_full_jitter_decorrelates_a_fleet(self):
        """Two actors with distinct RNGs never thunder-herd in lockstep;
        the same seed reproduces the same schedule (injectable RNG)."""
        import random

        a = RetryPolicy(jitter_rng=random.Random(1))
        b = RetryPolicy(jitter_rng=random.Random(2))
        schedule_a = [a.delay(n) for n in (1, 2, 3)]
        schedule_b = [b.delay(n) for n in (1, 2, 3)]
        assert schedule_a != schedule_b
        replay = RetryPolicy(jitter_rng=random.Random(1))
        assert [replay.delay(n) for n in (1, 2, 3)] == schedule_a

    def test_retry_grows_window_until_fix(self, three_disk_scene):
        """A buffer too small for a fix succeeds after the data source
        delivers the rest of the stream on retry."""
        scenario, batch, reader = three_disk_scene
        sleeps = []
        # 20 reports (~7 per tag) starve every disk below the snapshot
        # minimum, so the first attempt raises InsufficientDataError.
        chunks = [batch.reports[:20], batch.reports[20:]]

        def source(_reader, _port, attempt):
            return chunks[1] if attempt == 1 else []

        server = make_server(
            scenario,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.25),
            data_source=source,
            sleep=sleeps.append,
        )
        server.ingest("r", chunks[0])
        fix, diagnostics = server.locate_antenna_2d_diagnosed("r")
        truth = reader.antenna(1).position.horizontal()
        assert fix.position.distance_to(truth) < 0.1
        assert diagnostics.attempts == 2
        assert sleeps == [0.25]
        assert diagnostics.degradation is DegradationState.DEGRADED

    def test_exhausted_retries_fail(self, three_disk_scene):
        scenario, _batch, _reader = three_disk_scene
        sleeps = []
        server = make_server(
            scenario,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.1),
            sleep=sleeps.append,
        )
        with pytest.raises(InsufficientDataError):
            server.locate_antenna_2d("r")
        assert sleeps == pytest.approx([0.1, 0.2])
        assert server.degradation_state("r") is DegradationState.FAILED

    def test_permanent_error_not_retried(self, three_disk_scene):
        scenario, batch, _reader = three_disk_scene
        sleeps = []
        server = make_server(scenario, sleep=sleeps.append)
        server.ingest("r", batch.reports)
        with pytest.raises(UnknownTagError):
            server.system.registry.get("NOT-A-TAG")
        assert sleeps == []


class TestSupervision:
    def test_healthy_stream_reports_healthy(self, three_disk_scene):
        scenario, batch, _reader = three_disk_scene
        server = make_server(scenario)
        server.ingest("r", batch.reports)
        _fix, diagnostics = server.locate_antenna_2d_diagnosed("r")
        assert diagnostics.degradation is DegradationState.HEALTHY
        assert diagnostics.health_issues == {}
        assert server.degradation_state("r") is DegradationState.HEALTHY

    def test_monitor_shares_the_server_engine(self, three_disk_scene):
        """The monitor scores spectra on the server's own engine instance,
        so it reuses the caches the server's fixes fill."""
        scenario, _batch, _reader = three_disk_scene
        server = make_server(scenario, engine="adaptive-harmonic")
        assert server.monitor.system.engine is server.system.engine

    def test_unqueried_stream_defaults_healthy(self, three_disk_scene):
        scenario, _batch, _reader = three_disk_scene
        server = make_server(scenario)
        assert server.degradation_state("never", 9) is DegradationState.HEALTHY
        assert server.degradation_states() == {}

    def test_monitor_flags_ride_along(self, three_disk_scene):
        scenario, batch, _reader = three_disk_scene
        epc = scenario.scene.registry.epcs()[0]
        disk = scenario.scene.registry.get(epc).disk
        server = make_server(scenario, monitor_every=1)
        server.ingest("r", stall_disk(batch, disk, epc).reports)
        _fix, diagnostics = server.locate_antenna_2d_diagnosed("r")
        assert epc in diagnostics.health_issues
        assert diagnostics.health_issues[epc]

    def test_diagnostics_summary_is_plain_data(self, three_disk_scene):
        import json

        scenario, batch, _reader = three_disk_scene
        server = make_server(scenario)
        server.ingest("r", batch.reports)
        _fix, diagnostics = server.locate_antenna_2d_diagnosed("r")
        summary = diagnostics.summary()
        assert json.dumps(summary)  # must serialize cleanly
        assert summary["degradation"] == "healthy"
        assert len(summary["disks_used"]) == 3

    def test_last_diagnostics_cached(self, three_disk_scene):
        scenario, batch, _reader = three_disk_scene
        server = make_server(scenario)
        server.ingest("r", batch.reports)
        assert server.last_diagnostics("r") is None
        _fix, diagnostics = server.locate_antenna_2d_diagnosed("r")
        assert server.last_diagnostics("r") == diagnostics

    def test_plain_locate_api_still_works(self, three_disk_scene):
        """The resilient server stays drop-in compatible with the plain
        server's query API."""
        scenario, batch, reader = three_disk_scene
        server = make_server(scenario)
        server.ingest("r", batch.reports)
        fix = server.locate_antenna_2d("r")
        truth = reader.antenna(1).position.horizontal()
        assert fix.position.distance_to(truth) < 0.1
        fixes = server.locate_all_2d("r")
        assert set(fixes) == {1}
