"""Golden-trace equivalence: every engine reproduces the reference.

The recorded scenarios (``tests/fixtures/golden_scenarios.npz``,
regenerated by ``tests/fixtures/generate_golden.py``) cover a clean
far-field collection, a collection with pi slips, and one with a strong
wall reflection.  For each, the harmonic engine's spectra and
triangulated fixes must match the reference within ``1e-9`` — a speedup
must never change an answer.  The reference outputs are additionally
pinned to the values recorded at generation time, so drift in the
reference path itself is also caught.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.constants import RELATIVE_PHASE_STD_RAD
from repro.core.geometry import Point2
from repro.core.phase import wrap_phase_signed
from repro.core.locator import TagspinLocator2D
from repro.core.spectrum import (
    SnapshotSeries,
    combine_spectra,
    default_azimuth_grid,
    default_polar_grid,
)
from repro.perf import HarmonicEngine, ReferenceEngine, create_engine, fix_scope

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "golden_scenarios.npz"
SCENARIOS = ("clean", "pi_slip", "multipath")
TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE) as data:
        yield {key: data[key] for key in data.files}


def _disk_series(golden, kind):
    """Rebuild the recorded series: one list of channels per disk."""
    centers = golden["meta/centers"]
    wavelengths = golden["meta/wavelengths"]
    speeds = golden["meta/angular_speeds"]
    phase0s = golden["meta/phase0s"]
    radius = float(golden["meta/radius"])
    disks = []
    for disk in range(centers.shape[0]):
        channels = []
        for channel in range(wavelengths.size):
            prefix = f"{kind}/d{disk}/c{channel}"
            channels.append(
                SnapshotSeries(
                    times=golden[f"{prefix}/times"],
                    phases=golden[f"{prefix}/phases"],
                    wavelength=float(wavelengths[channel]),
                    radius=radius,
                    angular_speed=float(speeds[disk]),
                    phase0=float(phase0s[disk]),
                )
            )
        disks.append(channels)
    return disks


def _grid(golden):
    return default_azimuth_grid(
        np.deg2rad(float(golden["meta/azimuth_resolution_deg"]))
    )


def _engines():
    return [pytest.param(lambda: HarmonicEngine(), id="harmonic")]


@pytest.mark.parametrize("kind", SCENARIOS)
@pytest.mark.parametrize("make_engine", _engines())
class TestSpectraMatchReference:
    def test_azimuth_spectra_within_tolerance(self, golden, kind, make_engine):
        grid = _grid(golden)
        reference = ReferenceEngine()
        with make_engine() as engine:
            for channels in _disk_series(golden, kind):
                for series in channels:
                    for sigma in (RELATIVE_PHASE_STD_RAD, None):
                        expected = reference.azimuth_spectrum(series, grid, sigma)
                        actual = engine.azimuth_spectrum(series, grid, sigma)
                        assert (
                            np.max(np.abs(expected.power - actual.power))
                            <= TOLERANCE
                        )
                        assert (
                            abs(expected.peak_azimuth - actual.peak_azimuth)
                            <= TOLERANCE
                        )
                        assert (
                            abs(expected.peak_power - actual.peak_power)
                            <= TOLERANCE
                        )

    def test_batch_interface_matches_per_series(self, golden, kind, make_engine):
        grid = _grid(golden)
        series_list = [
            series
            for channels in _disk_series(golden, kind)
            for series in channels
        ]
        reference = ReferenceEngine()
        expected = reference.azimuth_spectra(
            series_list, grid, sigma=RELATIVE_PHASE_STD_RAD
        )
        with make_engine() as engine:
            actual = engine.azimuth_spectra(
                series_list, grid, sigma=RELATIVE_PHASE_STD_RAD
            )
        assert len(actual) == len(expected)
        for want, got in zip(expected, actual):
            assert np.max(np.abs(want.power - got.power)) <= TOLERANCE
            assert abs(want.peak_azimuth - got.peak_azimuth) <= TOLERANCE

    def test_fixes_match_exactly(self, golden, kind, make_engine):
        """The triangulated fix — the user-visible answer — is the same.

        The harmonic engine realizes steering phasors via inverse FFTs,
        whose last-ulp rounding differs from direct cosines; it declares
        that via ``power_budget`` and is held to the same 1e-9 budget on
        the fix.
        """
        grid = _grid(golden)
        centers = [Point2(*c) for c in golden["meta/centers"]]
        locator = TagspinLocator2D()

        def fix_with(engine):
            fused = []
            for channels in _disk_series(golden, kind):
                spectra = engine.azimuth_spectra(
                    channels, grid, sigma=RELATIVE_PHASE_STD_RAD
                )
                fused.append(combine_spectra(spectra))
            return locator.locate(centers, fused)

        expected = fix_with(ReferenceEngine())
        with make_engine() as engine:
            actual = fix_with(engine)
        assert abs(actual.position.x - expected.position.x) <= TOLERANCE
        assert abs(actual.position.y - expected.position.y) <= TOLERANCE
        assert abs(actual.residual - expected.residual) <= TOLERANCE


@pytest.mark.parametrize("kind", SCENARIOS)
class TestGoldenRegressionPin:
    """The reference path still produces the recorded outputs."""

    def test_peaks_match_recorded(self, golden, kind):
        grid = _grid(golden)
        reference = ReferenceEngine()
        peaks = []
        for channels in _disk_series(golden, kind):
            spectra = reference.azimuth_spectra(
                channels, grid, sigma=RELATIVE_PHASE_STD_RAD
            )
            peaks.append(combine_spectra(spectra).peak_azimuth)
        np.testing.assert_allclose(
            peaks, golden[f"{kind}/golden_peaks"], rtol=0, atol=TOLERANCE
        )

    def test_fix_matches_recorded(self, golden, kind):
        grid = _grid(golden)
        centers = [Point2(*c) for c in golden["meta/centers"]]
        reference = ReferenceEngine()
        fused = []
        for channels in _disk_series(golden, kind):
            spectra = reference.azimuth_spectra(
                channels, grid, sigma=RELATIVE_PHASE_STD_RAD
            )
            fused.append(combine_spectra(spectra))
        fix = TagspinLocator2D().locate(centers, fused)
        np.testing.assert_allclose(
            [fix.position.x, fix.position.y, fix.residual],
            golden[f"{kind}/golden_fix"],
            rtol=0,
            atol=TOLERANCE,
        )


@pytest.mark.parametrize("kind", SCENARIOS)
@pytest.mark.parametrize("make_engine", _engines())
def test_joint_spectrum_matches_reference(golden, kind, make_engine):
    """The 3D path is equivalent too (coarse grids keep this fast)."""
    azimuths = default_azimuth_grid(np.deg2rad(3.0))
    polars = default_polar_grid(np.deg2rad(6.0))
    series = _disk_series(golden, kind)[0][0]
    reference = ReferenceEngine()
    with make_engine() as engine:
        for sigma in (RELATIVE_PHASE_STD_RAD, None):
            expected = reference.joint_spectrum(series, azimuths, polars, sigma)
            actual = engine.joint_spectrum(series, azimuths, polars, sigma)
            assert np.max(np.abs(expected.power - actual.power)) <= TOLERANCE
            assert abs(expected.peak_azimuth - actual.peak_azimuth) <= TOLERANCE
            # A horizontal disk's joint surface is mirror-symmetric in
            # the polar sign (the +/-z ambiguity resolved downstream);
            # sub-1e-14 power differences can flip which degenerate twin
            # wins the argmax, so compare up to that symmetry and require
            # equal peak quality.
            assert (
                min(
                    abs(expected.peak_polar - actual.peak_polar),
                    abs(expected.peak_polar + actual.peak_polar),
                )
                <= TOLERANCE
            )
            assert abs(expected.peak_power - actual.peak_power) <= TOLERANCE


def test_repeated_calls_stay_golden(golden):
    """Memo hits inside one fix return the same spectrum, not a stale or
    mutated one: the serving engine's spectra memo, peak within its
    tolerance of the reference."""
    grid = _grid(golden)
    series = _disk_series(golden, "clean")[0][0]
    with create_engine("adaptive-harmonic") as engine, fix_scope():
        first = engine.azimuth_spectrum(series, grid, RELATIVE_PHASE_STD_RAD)
        second = engine.azimuth_spectrum(series, grid, RELATIVE_PHASE_STD_RAD)
        assert second is first  # served from the spectrum memo
        assert engine.cache_stats()["adaptive"]["spectra"]["hits"] == 1
        assert not second.power.flags.writeable
        expected = ReferenceEngine().azimuth_spectrum(
            series, grid, RELATIVE_PHASE_STD_RAD
        )
        error = wrap_phase_signed(second.peak_azimuth - expected.peak_azimuth)
        assert abs(float(error)) <= engine.tolerance
