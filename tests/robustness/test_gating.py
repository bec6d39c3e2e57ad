"""Tests for repro.robustness.gating (per-disk quality scoring)."""

from __future__ import annotations

import pytest

from repro.core.geometry import Point3
from repro.robustness.gating import (
    GATE_HIGH_RESIDUAL,
    GATE_POOR_COVERAGE,
    GATE_WEAK_PEAK,
    DiskQuality,
    score_disk,
    select_disks,
)
from repro.sim.faults import jam_window, stall_disk

POSE = Point3(0.4, 1.9, 0.0)


@pytest.fixture(scope="module")
def collection(calibrated_scenario_2d, collect_after_prelude_2d):
    # The stalled disk must keep a channel with >= 12 snapshots, which
    # the batch right after the prelude does; one drawn further down the
    # shared RNG stream (after other modules' collects) may not.
    batch, reader = collect_after_prelude_2d(POSE)
    return calibrated_scenario_2d, batch, reader


def quality_for(scenario, batch, epc):
    series = scenario.system.extract_series(batch, epc, 1)
    spectrum = scenario.system.azimuth_spectrum(series)
    record = scenario.scene.registry.get(epc)
    return score_disk(record, series, spectrum)


class TestScoring:
    def test_clean_disk_passes(self, collection):
        scenario, batch, _reader = collection
        for epc in scenario.scene.registry.epcs():
            quality = quality_for(scenario, batch, epc)
            assert quality.passed, quality
            assert quality.rotation_coverage > 0.9
            assert quality.sharpness > 2.0

    def test_stalled_disk_fails_coverage(self, collection):
        scenario, batch, _reader = collection
        epc = scenario.scene.registry.epcs()[0]
        disk = scenario.scene.registry.get(epc).disk
        stalled = stall_disk(batch, disk, epc)
        quality = quality_for(scenario, stalled, epc)
        assert GATE_POOR_COVERAGE in quality.gate_reasons
        assert quality.rotation_coverage < 0.5

    def test_jammed_disk_fails(self, collection, rng):
        """Randomized phases destroy the model fit: the residual
        explodes and/or the peak collapses."""
        scenario, batch, _reader = collection
        epc = scenario.scene.registry.epcs()[0]
        jammed = jam_window(batch, 0.0, 1e9, rng)
        quality = quality_for(scenario, jammed, epc)
        assert not quality.passed
        assert (
            GATE_HIGH_RESIDUAL in quality.gate_reasons
            or GATE_WEAK_PEAK in quality.gate_reasons
        )


def _quality(epc, reasons=(), sharpness=5.0):
    return DiskQuality(
        epc=epc,
        peak_power=0.5,
        sharpness=sharpness,
        residual_rms_rad=0.3,
        rotation_coverage=1.0,
        gate_reasons=tuple(reasons),
    )


class TestSelection:
    def test_all_passing_kept(self):
        qualities = [_quality("a"), _quality("b"), _quality("c")]
        kept, excluded = select_disks(qualities)
        assert kept == ["a", "b", "c"]
        assert excluded == []

    def test_failing_disk_excluded_with_three(self):
        qualities = [
            _quality("a"),
            _quality("b", reasons=(GATE_POOR_COVERAGE,)),
            _quality("c"),
        ]
        kept, excluded = select_disks(qualities)
        assert kept == ["a", "c"]
        assert [q.epc for q in excluded] == ["b"]

    def test_never_below_minimum(self):
        """With two disks a failing one is flagged, not excluded —
        localization needs two bearings no matter what."""
        qualities = [_quality("a"), _quality("b", reasons=(GATE_WEAK_PEAK,))]
        kept, excluded = select_disks(qualities)
        assert kept == ["a", "b"]
        assert excluded == []

    def test_worst_dropped_first(self):
        qualities = [
            _quality("a", reasons=(GATE_WEAK_PEAK,), sharpness=2.0),
            _quality("b"),
            _quality("c", reasons=(GATE_WEAK_PEAK, GATE_POOR_COVERAGE)),
            _quality("d"),
        ]
        kept, excluded = select_disks(qualities)
        assert [q.epc for q in excluded] == ["c", "a"]
        assert kept == ["b", "d"]

    def test_minimum_respected_when_all_fail(self):
        qualities = [
            _quality("a", reasons=(GATE_WEAK_PEAK,)),
            _quality("b", reasons=(GATE_WEAK_PEAK,)),
            _quality("c", reasons=(GATE_WEAK_PEAK,)),
        ]
        kept, excluded = select_disks(qualities)
        assert len(kept) == 2
        assert len(excluded) == 1


class TestGatedPipeline:
    def test_gating_noop_on_clean_two_disk_scene(self, collection):
        """With two clean disks the gated fix equals the ungated one."""
        from dataclasses import replace

        scenario, batch, reader = collection
        gated_system = type(scenario.system)(
            scenario.scene.registry,
            replace(scenario.config.pipeline, disk_gating=True),
        )
        gated = gated_system.locate_2d(batch, 1)
        ungated = scenario.system.locate_2d(batch, 1)
        assert gated.position.distance_to(ungated.position) < 1e-9

    def test_diagnosed_reports_all_disks(self, collection):
        scenario, batch, _reader = collection
        fix, diagnostics = scenario.system.locate_2d_diagnosed(batch, 1)
        assert set(diagnostics.disks_used) == set(
            scenario.scene.registry.epcs()
        )
        assert diagnostics.disks_excluded == ()
        assert diagnostics.profile_used == "R"
        assert not diagnostics.fallback_applied
        assert not diagnostics.degraded
        assert len(diagnostics.qualities) == 2
        assert diagnostics.residual_m == fix.residual
