"""Adaptive-engine correctness: tolerance contract, fallback, plumbing.

The coarse-to-fine engine trades dense power arrays for speed but must
keep its *peak* within the configured angular tolerance of the
dense-grid reference peak — on the recorded golden traces (clean,
pi-slip, multipath), on the fused multi-channel objective, on the joint
(azimuth x polar) search, and on randomized synthetic series (the
hypothesis suite, marked slow).  A flat spectrum must trigger the dense
fallback instead of trusting meaningless basins.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_golden_equivalence import SCENARIOS, _disk_series, _grid, golden  # noqa: F401

from helpers import make_series
from repro.constants import RELATIVE_PHASE_STD_RAD
from repro.core.phase import wrap_phase_signed
from repro.core.spectrum import (
    SnapshotSeries,
    combine_spectra,
    default_azimuth_grid,
    default_polar_grid,
)
from repro.perf import AdaptiveEngine, BatchedEngine, ReferenceEngine, create_engine

TOLERANCE = 1e-3  # rad; the engine default the acceptance gate uses


def _angular_error(a: float, b: float) -> float:
    return abs(float(wrap_phase_signed(a - b)))


def _flat_series(n: int = 24) -> SnapshotSeries:
    """A series whose spectrum is flat: the time window is so short that
    the disk barely moves, so every candidate azimuth explains the
    (noisy) phases equally well."""
    rng = np.random.default_rng(9)
    times = np.sort(rng.uniform(0.0, 1e-4, n))
    phases = np.mod(0.3 + 0.05 * rng.standard_normal(n), 2.0 * np.pi)
    return SnapshotSeries(
        times=times,
        phases=phases,
        wavelength=0.325,
        radius=0.1,
        angular_speed=1.0,
        phase0=0.0,
    )


@pytest.mark.parametrize("kind", SCENARIOS)
class TestGoldenTolerance:
    def test_azimuth_peaks_within_tolerance(self, golden, kind):
        grid = _grid(golden)
        reference = ReferenceEngine()
        with AdaptiveEngine() as engine:
            for channels in _disk_series(golden, kind):
                for series in channels:
                    for sigma in (RELATIVE_PHASE_STD_RAD, None):
                        expected = reference.azimuth_spectrum(series, grid, sigma)
                        actual = engine.azimuth_spectrum(series, grid, sigma)
                        assert (
                            _angular_error(
                                expected.peak_azimuth, actual.peak_azimuth
                            )
                            <= TOLERANCE
                        )

    def test_fused_peak_within_tolerance(self, golden, kind):
        """The pipeline path: refinement runs on the fused objective."""
        grid = _grid(golden)
        reference = ReferenceEngine()
        with AdaptiveEngine() as engine:
            for channels in _disk_series(golden, kind):
                expected = combine_spectra(
                    reference.azimuth_spectra(
                        channels, grid, RELATIVE_PHASE_STD_RAD
                    )
                )
                actual = engine.fused_azimuth_spectrum(
                    channels, grid, RELATIVE_PHASE_STD_RAD
                )
                assert (
                    _angular_error(expected.peak_azimuth, actual.peak_azimuth)
                    <= TOLERANCE
                )

    def test_joint_peak_within_tolerance(self, golden, kind):
        azimuths = default_azimuth_grid(np.deg2rad(0.75))
        polars = default_polar_grid(np.deg2rad(1.5))
        series = _disk_series(golden, kind)[0][0]
        reference = ReferenceEngine()
        with AdaptiveEngine() as engine:
            expected = reference.joint_spectrum(
                series, azimuths, polars, RELATIVE_PHASE_STD_RAD
            )
            actual = engine.joint_spectrum(
                series, azimuths, polars, RELATIVE_PHASE_STD_RAD
            )
        assert (
            _angular_error(expected.peak_azimuth, actual.peak_azimuth)
            <= TOLERANCE
        )
        # A horizontal disk's joint spectrum is mirror-symmetric in the
        # polar sign (the +/-z ambiguity the locator resolves downstream),
        # so near-equal mirror peaks are interchangeable: compare up to
        # that symmetry and require equivalent peak quality.
        polar_error = min(
            abs(expected.peak_polar - actual.peak_polar),
            abs(expected.peak_polar + actual.peak_polar),
        )
        assert polar_error <= TOLERANCE
        assert actual.peak_power == pytest.approx(
            expected.peak_power, rel=1e-3
        )

    def test_fused_joint_peak_within_tolerance(self, golden, kind):
        """One ladder refines the fused multi-channel joint objective.

        The dense comparison point is the fused objective's own argmax
        (mean power over channels on the dense grids), which is what the
        fused ladder descends on.
        """
        azimuths = default_azimuth_grid(np.deg2rad(0.75))
        polars = default_polar_grid(np.deg2rad(1.5))
        channels = _disk_series(golden, kind)[0]
        reference = ReferenceEngine()
        dense = [
            reference.joint_spectrum(
                s, azimuths, polars, RELATIVE_PHASE_STD_RAD
            )
            for s in channels
        ]
        mean_power = np.mean([s.power for s in dense], axis=0)
        row, col = np.unravel_index(
            int(np.argmax(mean_power)), mean_power.shape
        )
        with AdaptiveEngine() as engine:
            before = engine.refinements
            actual = engine.fused_joint_spectrum(
                channels, azimuths, polars, RELATIVE_PHASE_STD_RAD
            )
            ladders = engine.refinements - before
        # One ladder per basin, never one per channel.
        assert 0 < ladders <= engine.top_k
        # The fused ladder interpolates between dense samples, so allow
        # one dense grid step on top of the configured tolerance.
        assert _angular_error(
            float(azimuths[col]), actual.peak_azimuth
        ) <= TOLERANCE + np.deg2rad(0.75)
        polar_error = min(
            abs(float(polars[row]) - actual.peak_polar),
            abs(float(polars[row]) + actual.peak_polar),
        )
        assert polar_error <= TOLERANCE + np.deg2rad(1.5)
        assert actual.peak_power >= float(np.max(mean_power)) * (1 - 1e-6)


class TestFlatSpectrumFallback:
    def test_dense_fallback_triggers(self):
        grid = default_azimuth_grid(np.deg2rad(0.5))
        series = _flat_series()
        with AdaptiveEngine() as engine:
            spectrum = engine.azimuth_spectrum(
                series, grid, RELATIVE_PHASE_STD_RAD
            )
            stats = engine.cache_stats()["adaptive"]
        assert stats["dense_fallbacks"] == 1
        # The fallback answered with the full dense grid, so the result
        # is exactly the batched/reference spectrum.
        assert spectrum.power.shape == grid.shape
        expected = ReferenceEngine().azimuth_spectrum(
            series, grid, RELATIVE_PHASE_STD_RAD
        )
        assert np.array_equal(spectrum.power, expected.power)
        assert spectrum.peak_azimuth == expected.peak_azimuth

    def test_sharp_spectrum_does_not_fall_back(self):
        grid = default_azimuth_grid(np.deg2rad(0.5))
        series = make_series(azimuth=1.0, noise_std=0.05, seed=4)
        with AdaptiveEngine() as engine:
            spectrum = engine.azimuth_spectrum(series, grid, 0.14)
            stats = engine.cache_stats()["adaptive"]
        assert stats["dense_fallbacks"] == 0
        assert stats["refinements"] == 1
        # Coarse-to-fine answered on its subsampled grid.
        assert spectrum.power.size < grid.size

    def test_joint_flat_fallback_keeps_coarse_grid_shape(self):
        """Per-channel joint spectra must stay averageable: the fallback
        carries the dense-refined peak on the coarse power surface."""
        azimuths = default_azimuth_grid(np.deg2rad(0.75))
        polars = default_polar_grid(np.deg2rad(1.5))
        with AdaptiveEngine() as engine:
            flat = engine.joint_spectrum(
                _flat_series(), azimuths, polars, RELATIVE_PHASE_STD_RAD
            )
            sharp = engine.joint_spectrum(
                make_series(azimuth=2.0, noise_std=0.02, seed=6),
                azimuths,
                polars,
                RELATIVE_PHASE_STD_RAD,
            )
            assert engine.cache_stats()["adaptive"]["dense_fallbacks"] >= 1
        assert flat.power.shape == sharp.power.shape
        assert np.array_equal(flat.azimuth_grid, sharp.azimuth_grid)


class TestEnginePlumbing:
    def test_create_engine_adaptive(self):
        engine = create_engine("adaptive")
        assert isinstance(engine, AdaptiveEngine)
        assert engine.name == "adaptive"
        assert engine.tolerance == pytest.approx(1e-3)

    def test_create_engine_adaptive_tolerance(self):
        engine = create_engine("adaptive", tolerance=5e-4)
        assert engine.tolerance == pytest.approx(5e-4)

    def test_tolerance_rejected_for_other_engines(self):
        with pytest.raises(ValueError):
            create_engine("batched", tolerance=1e-3)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveEngine(tolerance=0.0)
        with pytest.raises(ValueError):
            AdaptiveEngine(refine_factor=1)
        with pytest.raises(ValueError):
            AdaptiveEngine(basin_prune=0.0)

    def test_refinement_offsets_shared_read_only(self):
        """Engines share one read-only offsets array per refine_factor,
        equal bit for bit to the linspace it replaces."""
        first, second = AdaptiveEngine(), AdaptiveEngine()
        assert first._offsets is second._offsets
        assert not first._offsets.flags.writeable
        for refine_factor in (2, 4, 7):
            offsets = AdaptiveEngine(refine_factor=refine_factor)._offsets
            assert np.array_equal(
                offsets, np.linspace(-1.0, 1.0, 2 * refine_factor + 1)
            )

    def test_repeated_call_serves_cached_spectrum(self):
        grid = default_azimuth_grid(np.deg2rad(0.5))
        series = make_series(azimuth=0.7, noise_std=0.05, seed=8)
        with AdaptiveEngine() as engine:
            first = engine.azimuth_spectrum(series, grid, 0.14)
            second = engine.azimuth_spectrum(series, grid, 0.14)
            stats = engine.cache_stats()["adaptive"]
        assert second is first
        assert stats["spectra"]["hits"] == 1
        assert stats["refinements"] == 1  # no second ladder run

    def test_small_grid_delegates_to_dense(self):
        """Grids too small to subsample get the dense answer verbatim."""
        grid = default_azimuth_grid(np.deg2rad(10.0))  # 36 points
        series = make_series(azimuth=1.2, noise_std=0.05, seed=5)
        expected = BatchedEngine().azimuth_spectrum(series, grid, 0.14)
        with AdaptiveEngine() as engine:
            actual = engine.azimuth_spectrum(series, grid, 0.14)
        assert np.array_equal(actual.power, expected.power)
        assert actual.peak_azimuth == expected.peak_azimuth

    def test_pipeline_fix_close_to_reference(self):
        """End to end: an adaptive-engine fix lands within the angular
        tolerance's positional equivalent of the reference fix."""
        from repro.core.pipeline import TagspinSystem
        from repro.sim.scenario import paper_default_scenario
        from repro.core.geometry import Point3

        scenario = paper_default_scenario(seed=11)
        scenario.run_orientation_prelude()
        batch, _reader = scenario.collect(Point3(0.5, 2.0, 0.0))

        def fix(engine):
            system = TagspinSystem(
                scenario.scene.registry, scenario.config.pipeline, engine=engine
            )
            return system.locate_2d(batch, 1)

        expected = fix("reference")
        actual = fix("adaptive")
        # 1e-3 rad at the few-meter ranges of the default scene is
        # millimeters of bearing-induced displacement; allow 1 cm.
        assert actual.position.distance_to(expected.position) < 0.01
