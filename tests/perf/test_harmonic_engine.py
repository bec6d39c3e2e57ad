"""Harmonic FFT engine: equivalence, truncation, caching and fallbacks.

The engine's claim is *numerical* equivalence (within 1e-9) to the dense
reference on every grid shape, achieved through a truncated Jacobi-Anger
expansion realized by batched inverse FFTs.  The tests pin:

* FFT-vs-direct equivalence across random geometries, grid densities
  and truncation margins (hypothesis, slow suite);
* the exact alias fold when the harmonic band exceeds the grid length;
* the dense fallback on non-circular (sector) grids;
* cross-series batching: ``evaluate_many`` matches per-series
  evaluation, and inside one fix scope a pass over the same geometry
  with new phases hits the steering memo;
* the accumulate kernel's argument validation;
* the engine registry's names.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import RELATIVE_PHASE_STD_RAD
from repro.core.phase import theoretical_phase
from repro.core.spectrum import (
    SnapshotSeries,
    default_azimuth_grid,
)
from repro.perf import HarmonicEngine, ReferenceEngine, create_engine, fix_scope
from repro.perf.harmonic import (
    MIN_FFT_GRID_POINTS,
    _circular_layout,
    bessel_table,
    harmonic_accumulate,
    harmonic_order,
)

TOLERANCE = 1e-9
SIGMA = RELATIVE_PHASE_STD_RAD


def _series(
    seed: int = 0,
    snapshots: int = 48,
    wavelength: float = 0.33,
    radius: float = 0.10,
    angular_speed: float = 1.3,
    azimuth: float = 1.1,
    distance: float = 2.0,
    phase0: float = 0.2,
) -> SnapshotSeries:
    rng = np.random.default_rng(seed)
    span = 2.0 * (2.0 * np.pi / abs(angular_speed))
    times = np.sort(rng.uniform(0.0, span, snapshots))
    phases = theoretical_phase(
        times,
        wavelength,
        distance,
        radius,
        angular_speed,
        azimuth,
        diversity=rng.uniform(0.0, 2.0 * np.pi),
        phase0=phase0,
    )
    phases = np.mod(phases + 0.05 * rng.standard_normal(snapshots), 2.0 * np.pi)
    return SnapshotSeries(
        times=times,
        phases=phases,
        wavelength=wavelength,
        radius=radius,
        angular_speed=angular_speed,
        phase0=phase0,
    )


def _assert_equivalent(engine, series, grid, sigma):
    expected = ReferenceEngine().azimuth_spectrum(series, grid, sigma)
    actual = engine.azimuth_spectrum(series, grid, sigma)
    assert np.max(np.abs(expected.power - actual.power)) <= TOLERANCE
    assert abs(expected.peak_azimuth - actual.peak_azimuth) <= TOLERANCE
    assert abs(expected.peak_power - actual.peak_power) <= TOLERANCE


class TestEquivalence:
    @pytest.mark.parametrize("sigma", [SIGMA, None])
    @pytest.mark.parametrize("points", [36, 90, 720])
    def test_circular_grids(self, points, sigma):
        grid = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
        with HarmonicEngine() as engine:
            _assert_equivalent(engine, _series(), grid, sigma)
            assert engine.dense_fallbacks == 0

    @pytest.mark.parametrize("sigma", [SIGMA, None])
    def test_sector_grid_takes_dense_path(self, sigma):
        # A 90-degree sector is not a uniform circle: no FFT realization
        # exists, so the engine must fall back to direct evaluation.
        grid = np.linspace(0.5, 0.5 + np.pi / 2.0, 181)
        assert _circular_layout(grid) is None
        with HarmonicEngine() as engine:
            _assert_equivalent(engine, _series(), grid, sigma)
            assert engine.dense_fallbacks > 0

    def test_small_grid_takes_dense_path(self):
        grid = np.linspace(
            0.0, 2.0 * np.pi, MIN_FFT_GRID_POINTS - 8, endpoint=False
        )
        assert _circular_layout(grid) is None
        with HarmonicEngine() as engine:
            _assert_equivalent(engine, _series(), grid, SIGMA)
            assert engine.dense_fallbacks > 0

    def test_alias_fold_when_band_exceeds_grid(self):
        # radius 0.20 m at wavelength 0.2 m gives rho ~ 12.6 and a
        # truncation order ~46, so the 93-coefficient band must fold
        # exactly onto a 36-point grid (2H+1 > M).
        series = _series(radius=0.20, wavelength=0.2)
        rho = 4.0 * np.pi * series.radius / series.wavelength
        grid = np.linspace(0.0, 2.0 * np.pi, 36, endpoint=False)
        assert 2 * harmonic_order(rho) + 1 > grid.size
        with HarmonicEngine() as engine:
            _assert_equivalent(engine, series, grid, SIGMA)
            assert engine.dense_fallbacks == 0

    def test_order_margin_only_tightens(self):
        grid = default_azimuth_grid(np.deg2rad(1.0))
        series = _series()
        expected = ReferenceEngine().azimuth_spectrum(series, grid, SIGMA)
        worst = []
        for margin in (0, 8):
            with HarmonicEngine(order_margin=margin) as eng:
                actual = eng.azimuth_spectrum(series, grid, SIGMA)
            worst.append(float(np.max(np.abs(expected.power - actual.power))))
        assert worst[0] <= TOLERANCE
        assert worst[1] <= max(worst[0], 1e-12)

    def test_joint_spectrum_with_negative_cos_polar(self):
        # Polar rows beyond +/- pi/2 have cos(polar) < 0; the engine
        # reuses the |cos| magnitude group with an odd-harmonic sign
        # flip, which this grid exercises directly.
        azimuths = default_azimuth_grid(np.deg2rad(3.0))
        polars = np.linspace(-2.0, 2.0, 21)  # beyond +/- pi/2
        series = _series()
        expected = ReferenceEngine().joint_spectrum(
            series, azimuths, polars, SIGMA
        )
        with HarmonicEngine() as engine:
            actual = engine.joint_spectrum(series, azimuths, polars, SIGMA)
        assert np.max(np.abs(expected.power - actual.power)) <= TOLERANCE


class TestCrossFixBatching:
    def test_evaluate_many_matches_per_series(self):
        grid = default_azimuth_grid(np.deg2rad(1.0))
        series_list = [_series(seed) for seed in range(5)]
        with HarmonicEngine() as batch_engine:
            batched = batch_engine.evaluate_many(series_list, grid, SIGMA)
        for series, got in zip(series_list, batched):
            with HarmonicEngine() as solo:
                want = solo.azimuth_spectrum(series, grid, SIGMA)
            assert np.array_equal(want.power, got.power)
            assert want.peak_azimuth == got.peak_azimuth

    def test_fused_groups_match_unbatched_fusion(self):
        from repro.core.spectrum import combine_spectra

        grid = default_azimuth_grid(np.deg2rad(1.0))
        groups = [
            [_series(seed=10 * g + c) for c in range(3)] for g in range(3)
        ]
        with HarmonicEngine() as engine:
            fused = engine.fused_azimuth_spectra(groups, grid, SIGMA)
            expected = [
                combine_spectra(
                    ReferenceEngine().azimuth_spectra(group, grid, SIGMA)
                )
                for group in groups
            ]
        assert len(fused) == len(groups)
        for want, got in zip(expected, fused):
            assert np.max(np.abs(want.power - got.power)) <= TOLERANCE
            assert abs(want.peak_azimuth - got.peak_azimuth) <= TOLERANCE

    def test_refix_hits_steering_cache(self):
        # Same geometry, new measured phases — the shape of the
        # pipeline's orientation-corrected pass inside one fix.  Steering
        # phasors are measured-phase independent, so the second pass
        # must hit.
        grid = default_azimuth_grid(np.deg2rad(1.0))
        series = _series()
        corrected = dataclasses.replace(
            series, phases=np.mod(series.phases + 0.03, 2.0 * np.pi)
        )
        with HarmonicEngine() as engine, fix_scope():
            engine.azimuth_spectrum(series, grid, SIGMA)
            misses = engine.cache_stats()["steering"]["misses"]
            engine.azimuth_spectrum(corrected, grid, SIGMA)
            stats = engine.cache_stats()
            assert stats["steering"]["hits"] >= 1
            assert stats["steering"]["misses"] == misses
            _assert_equivalent(engine, corrected, grid, SIGMA)

    def test_cache_stats_shape(self):
        grid = default_azimuth_grid(np.deg2rad(1.0))
        with HarmonicEngine() as engine:
            engine.azimuth_spectrum(_series(), grid, SIGMA)
            stats = engine.cache_stats()
        for cache in ("steering", "geometry"):
            for counter in ("hits", "misses"):
                assert counter in stats[cache]
        orders = stats["harmonic"]["orders"]
        assert orders["count"] >= 1
        assert orders["min"] <= orders["mean"] <= orders["max"]
        assert stats["harmonic"]["fft_batches"] >= 1


class TestAccumulateKernel:
    def test_rejects_nonpositive_sigma(self):
        phasor = np.ones(3, dtype=complex)
        steering = np.ones((3, 4), dtype=complex)
        with pytest.raises(ValueError, match="sigma"):
            harmonic_accumulate(phasor, steering, None, None, None, 0.0)

    def test_r_profile_needs_residual_ingredients(self):
        phasor = np.ones(3, dtype=complex)
        steering = np.ones((3, 4), dtype=complex)
        with pytest.raises(ValueError, match="coefficients"):
            harmonic_accumulate(phasor, steering, None, None, None, 0.1)

    def test_q_profile_is_column_mean_magnitude(self):
        rng = np.random.default_rng(7)
        phasor = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        steering = np.exp(1j * rng.uniform(0, 2 * np.pi, (6, 9)))
        power, colsum = harmonic_accumulate(
            phasor, steering, None, None, None, None
        )
        expected = np.abs((phasor[:, None] * steering).sum(axis=0)) / 6
        np.testing.assert_allclose(power, expected, atol=1e-12)
        np.testing.assert_allclose(
            colsum, (phasor[:, None] * steering).sum(axis=0), atol=1e-12
        )


class TestEngineRegistry:
    def test_create_engine_names(self):
        for spec, name in [
            (None, "reference"),
            ("reference", "reference"),
            ("harmonic", "harmonic"),
        ]:
            with create_engine(spec) as engine:
                assert engine.name == name

    def test_harmonic_names_resolve(self):
        with create_engine("harmonic") as engine:
            assert isinstance(engine, HarmonicEngine)
            assert engine.name == "harmonic"
        with create_engine("adaptive-harmonic") as engine:
            assert engine.name == "adaptive-harmonic"
            assert isinstance(engine._dense, HarmonicEngine)

    def test_adaptive_harmonic_accepts_tolerance(self):
        with create_engine("adaptive-harmonic", tolerance=5e-4) as engine:
            assert engine.tolerance == 5e-4

    def test_dense_engines_reject_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            create_engine("harmonic", tolerance=1e-3)


class TestBesselRecurrence:
    def test_matches_scipy_jv(self):
        from scipy.special import jv

        x = np.linspace(0.05, 30.0, 64)
        order = 40
        table = bessel_table(order, x)
        assert table.shape == (order + 1, x.size)
        for n in (0, 1, 7, 40):
            np.testing.assert_allclose(table[n], jv(n, x), atol=1e-10)


# ----------------------------------------------------------------------
# Property tests (slow suite): FFT realization vs direct evaluation
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestFFTvsDirectProperties:
    @given(
        seed=st.integers(0, 2**16),
        radius=st.floats(0.02, 0.25),
        wavelength=st.floats(0.2, 0.5),
        angular_speed=st.floats(0.4, 3.0),
        azimuth=st.floats(0.0, 2.0 * np.pi),
        points=st.sampled_from([36, 48, 90, 180, 360]),
        margin=st.sampled_from([0, 2, 8]),
        sigma=st.sampled_from([None, 0.14, 0.3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_geometry_grid_and_truncation(
        self, seed, radius, wavelength, angular_speed, azimuth, points,
        margin, sigma,
    ):
        series = _series(
            seed=seed,
            snapshots=24,
            wavelength=wavelength,
            radius=radius,
            angular_speed=angular_speed,
            azimuth=azimuth,
        )
        grid = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
        expected = ReferenceEngine().azimuth_spectrum(series, grid, sigma)
        with HarmonicEngine(order_margin=margin) as engine:
            actual = engine.azimuth_spectrum(series, grid, sigma)
        assert np.max(np.abs(expected.power - actual.power)) <= TOLERANCE

    @given(
        seed=st.integers(0, 2**16),
        polar_span=st.floats(0.3, 1.4),
        sigma=st.sampled_from([None, 0.14]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_joint_surfaces(self, seed, polar_span, sigma):
        series = _series(seed=seed, snapshots=16)
        azimuths = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
        polars = np.linspace(-polar_span, polar_span, 9)
        expected = ReferenceEngine().joint_spectrum(
            series, azimuths, polars, sigma
        )
        with HarmonicEngine() as engine:
            actual = engine.joint_spectrum(series, azimuths, polars, sigma)
        assert np.max(np.abs(expected.power - actual.power)) <= TOLERANCE
