"""Coarse-to-fine adaptive spectrum engine.

The dense engines evaluate every candidate direction of the requested
grid; for a 0.5-degree azimuth grid that is 720 steering columns per
series per pass, even though the bearing estimate only needs the
*argmax* of R(phi).  :class:`AdaptiveEngine` replaces the dense scan
with a multi-resolution search, the standard escape hatch in phase-based
RFID positioning (variant-maximum-likelihood grid shrinking, particle
region narrowing):

1. **Coarse pass** — evaluate a subsampled grid (``coarse_factor`` times
   sparser than requested, never below ``min_coarse_points``) through
   the shared :class:`~repro.perf.batched.BatchedEngine`, so coarse
   steering matrices and coarse spectra are cached across the
   pipeline's repeated passes exactly like dense ones.
2. **Basin selection** — keep the ``top_k`` local maxima of the coarse
   profile as candidate basins; side lobes that out-power the true peak
   at coarse resolution are refined too, so the winner is decided at
   fine resolution, not coarse.
3. **Ladder refinement** — around each basin, evaluate a local grid of
   ``2 * refine_factor + 1`` points spanning one coarse step, re-center
   on its argmax, shrink the span by ``refine_factor`` and repeat until
   the local spacing drops below ``tolerance``; a final parabolic
   interpolation polishes the peak below the last spacing.
4. **Flatness guard** — when the coarse profile is too flat
   (:func:`~repro.core.spectrum.peak_sharpness` below
   ``min_sharpness``) basin selection cannot be trusted, and the engine
   falls back to the dense :class:`BatchedEngine` on the full requested
   grid.  Multipath-saturated or jammed traces therefore degrade to the
   reference answer, never to a wrong basin.

Per-fix cost drops from ``O(grid)`` steering columns to
``O(grid / coarse_factor + top_k * log_refine(coarse_step / tolerance))``.

Accuracy contract: the refined peak is within ``tolerance`` radians of
the dense-grid reference peak (``tests/perf/test_adaptive_engine.py``
enforces this on the clean / pi-slip / multipath golden traces and on
randomized series), and the returned power samples *are* the coarse
grid's — consumers that need dense power arrays should use the batched
engine.  Spectra returned by this engine carry the coarse grid in
``azimuth_grid`` / ``polar_grid``, so grid-compatibility checks keep
working.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.phase import relative_phase_model, wrap_phase_signed
from repro.core.spectrum import (
    AngleSpectrum,
    JointSpectrum,
    SnapshotSeries,
    _check_series,
    _refine_peak_clamped,
    combine_joint_spectra,
    combine_spectra,
    peak_sharpness,
    power_from_residuals,
)
from repro.obs.metrics import get_registry
from repro.perf.batched import BatchedEngine
from repro.perf.cache import LRUCache, quantize_array, quantize_scalar
from repro.perf.engine import SpectrumEngine
from repro.perf.steering import grid_key, series_geometry_key


def _count_fallback(kind: str) -> None:
    """Flat-profile dense-fallback counter, by search kind."""
    get_registry().counter(
        "tagspin_engine_dense_fallbacks_total",
        "Spectrum evaluations that fell back to the dense "
        "(non-FFT) path.",
        engine="adaptive",
        kind=kind,
    ).inc()

#: Default angular tolerance of the refined peak [rad] (~0.057 deg).
DEFAULT_TOLERANCE_RAD = 1e-3

#: Default coarse-grid subsampling factor.
DEFAULT_COARSE_FACTOR = 8

#: Default number of candidate basins refined per spectrum.
DEFAULT_TOP_K = 3

#: Default span-shrink factor per refinement level.
DEFAULT_REFINE_FACTOR = 4

#: Default peak-sharpness floor below which the coarse profile is
#: considered too flat for basin selection and the dense engine runs.
DEFAULT_MIN_SHARPNESS = 1.5

#: Basins whose coarse power falls below this fraction of the best
#: basin's are pruned before refinement.  Coarse sampling underestimates
#: a basin's true peak by only a few percent (the lobes are several
#: coarse cells wide), so 0.8 keeps every plausible winner.
DEFAULT_BASIN_PRUNE = 0.8

#: Coarse grids are never subsampled below this many azimuth points.
MIN_COARSE_AZIMUTH_POINTS = 24

#: Coarse grids are never subsampled below this many polar points.
MIN_COARSE_POLAR_POINTS = 9

#: Default budget of the finished-spectrum cache [float elements].
DEFAULT_ADAPTIVE_SPECTRUM_BUDGET = 4_000_000


@lru_cache(maxsize=16)
def _refine_offsets(refine_factor: int) -> np.ndarray:
    """Ladder offsets in units of the current span, shared read-only.

    Every engine with the same ``refine_factor`` reuses one array, so
    building an engine (once per deployment incarnation) costs no
    ``linspace``.
    """
    offsets = np.linspace(-1.0, 1.0, 2 * refine_factor + 1)
    offsets.flags.writeable = False
    return offsets


class AdaptiveEngine(SpectrumEngine):
    """Multi-resolution coarse-to-fine spectrum engine.

    Parameters
    ----------
    tolerance : angular tolerance of the refined peak [rad]; the peak is
        within this of the dense-grid reference peak.
    coarse_factor : subsampling factor of the coarse pass.
    top_k : candidate basins refined per spectrum.
    refine_factor : span shrink per refinement level; each level
        evaluates ``2 * refine_factor + 1`` points per basin.
    min_sharpness : :func:`peak_sharpness` floor of the coarse profile;
        flatter profiles fall back to the dense engine.
    basin_prune : basins below this fraction of the best basin's coarse
        power are not refined.
    dense : the dense engine used for coarse passes and the flat-profile
        fallback (default: a fresh :class:`BatchedEngine`; pass a
        :class:`~repro.perf.harmonic.HarmonicEngine` to get
        ``create_engine("adaptive-harmonic")``'s composition, whose
        coarse full-circle grids stay on the FFT path via exact alias
        folding).  Any engine exposing the ``_joint_power`` hook works;
        its caches make repeated fixes over an unchanged buffer nearly
        free.
    spectrum_budget : float-element budget of the finished adaptive
        spectrum cache.
    """

    name = "adaptive"

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE_RAD,
        coarse_factor: int = DEFAULT_COARSE_FACTOR,
        top_k: int = DEFAULT_TOP_K,
        refine_factor: int = DEFAULT_REFINE_FACTOR,
        min_sharpness: float = DEFAULT_MIN_SHARPNESS,
        basin_prune: float = DEFAULT_BASIN_PRUNE,
        dense: Optional[SpectrumEngine] = None,
        spectrum_budget: int = DEFAULT_ADAPTIVE_SPECTRUM_BUDGET,
    ) -> None:
        if not np.isfinite(tolerance) or tolerance <= 0:
            raise ValueError("tolerance must be positive and finite")
        if coarse_factor < 1:
            raise ValueError("coarse_factor must be positive")
        if top_k < 1:
            raise ValueError("top_k must be positive")
        if refine_factor < 2:
            raise ValueError("refine_factor must be at least 2")
        if not 0.0 < basin_prune <= 1.0:
            raise ValueError("basin_prune must be in (0, 1]")
        self.basin_prune = float(basin_prune)
        self.tolerance = float(tolerance)
        self.coarse_factor = int(coarse_factor)
        self.top_k = int(top_k)
        self.refine_factor = int(refine_factor)
        self.min_sharpness = float(min_sharpness)
        self._dense = dense if dense is not None else BatchedEngine()
        self._spectra = LRUCache(spectrum_budget)
        self._offsets = _refine_offsets(self.refine_factor)
        self.dense_fallbacks = 0
        self.refinements = 0

    # ------------------------------------------------------------------
    # Coarse grids
    # ------------------------------------------------------------------
    def _factor(self, grid: np.ndarray, min_points: int) -> int:
        """Subsampling factor; 1 when subsampling gains nothing."""
        if grid.size < 2 * min_points:
            return 1
        return max(1, min(self.coarse_factor, grid.size // min_points))

    def _coarse(self, grid: np.ndarray, min_points: int) -> Optional[np.ndarray]:
        """Subsampled grid, or ``None`` when subsampling gains nothing."""
        factor = self._factor(grid, min_points)
        if factor <= 1:
            return None
        return grid[::factor]

    # ------------------------------------------------------------------
    # Power kernels (local refinement grids are transient: uncached)
    # ------------------------------------------------------------------
    @staticmethod
    def _azimuth_power(
        series: SnapshotSeries, azimuths: np.ndarray, sigma: Optional[float]
    ) -> np.ndarray:
        theoretical = relative_phase_model(
            series.times,
            series.wavelength,
            series.radius,
            series.angular_speed,
            azimuths,
            0.0,
            series.phase0,
        )
        residuals = np.asarray(
            wrap_phase_signed(series.relative_phases() - theoretical),
            dtype=float,
        )
        return power_from_residuals(residuals, sigma)

    def _mean_azimuth_power(
        self,
        series_list: Sequence[SnapshotSeries],
        azimuths: np.ndarray,
        sigma: Optional[float],
    ) -> np.ndarray:
        total: Optional[np.ndarray] = None
        for series in series_list:
            power = self._azimuth_power(series, azimuths, sigma)
            total = power if total is None else total + power
        assert total is not None
        return total / float(len(series_list))

    @staticmethod
    def _joint_power(
        series: SnapshotSeries,
        azimuths: np.ndarray,
        polars: np.ndarray,
        sigma: Optional[float],
    ) -> np.ndarray:
        theoretical = relative_phase_model(
            series.times,
            series.wavelength,
            series.radius,
            series.angular_speed,
            azimuths[np.newaxis, :],
            polars[:, np.newaxis],
            series.phase0,
        )
        residuals = np.asarray(
            wrap_phase_signed(series.relative_phases() - theoretical),
            dtype=float,
        )
        return power_from_residuals(residuals, sigma)

    def _mean_joint_power(
        self,
        series_list: Sequence[SnapshotSeries],
        azimuths: np.ndarray,
        polars: np.ndarray,
        sigma: Optional[float],
    ) -> np.ndarray:
        total: Optional[np.ndarray] = None
        for series in series_list:
            power = self._joint_power(series, azimuths, polars, sigma)
            total = power if total is None else total + power
        assert total is not None
        return total / float(len(series_list))

    # ------------------------------------------------------------------
    # Basin selection
    # ------------------------------------------------------------------
    def _azimuth_basins(self, power: np.ndarray) -> np.ndarray:
        """Indices of the ``top_k`` circular local maxima, best first.

        Basins far below the best basin's coarse power cannot win after
        refinement (coarse sampling only underestimates a wide lobe by a
        few percent) and are pruned.
        """
        left = np.roll(power, 1)
        right = np.roll(power, -1)
        candidates = np.nonzero((power >= left) & (power >= right))[0]
        if candidates.size == 0:
            candidates = np.array([int(np.argmax(power))])
        order = np.argsort(power[candidates])[::-1]
        kept = candidates[order[: self.top_k]]
        floor = self.basin_prune * float(power[kept[0]])
        return kept[power[kept] >= floor]

    def _joint_basins(self, power: np.ndarray) -> List[Tuple[int, int]]:
        """(polar_row, azimuth_col) of the top joint local maxima."""
        below = np.pad(
            power, ((1, 1), (0, 0)), constant_values=-np.inf
        )
        vertical = (power >= below[:-2]) & (power >= below[2:])
        horizontal = (power >= np.roll(power, 1, axis=1)) & (
            power >= np.roll(power, -1, axis=1)
        )
        rows, cols = np.nonzero(vertical & horizontal)
        if rows.size == 0:
            row, col = np.unravel_index(int(np.argmax(power)), power.shape)
            return [(int(row), int(col))]
        order = np.argsort(power[rows, cols])[::-1][: self.top_k]
        floor = self.basin_prune * float(power[rows[order[0]], cols[order[0]]])
        return [
            (int(rows[i]), int(cols[i]))
            for i in order
            if power[rows[i], cols[i]] >= floor
        ]

    # ------------------------------------------------------------------
    # Ladder refinement
    # ------------------------------------------------------------------
    def _refine_azimuths(
        self,
        series_list: Sequence[SnapshotSeries],
        centers: np.ndarray,
        step: float,
        sigma: Optional[float],
    ) -> Tuple[float, float]:
        """Refine all basins at once; returns the winning (azimuth, power).

        Every level evaluates each basin's local grid (one stacked power
        call across basins), re-centers on the local argmax and shrinks
        the span by ``refine_factor`` until the spacing is below
        ``tolerance``; a parabolic fit on the final local grid gives the
        sub-spacing peak.
        """
        self.refinements += 1
        centers = np.asarray(centers, dtype=float)
        rows = np.arange(centers.size)
        while True:
            grids = centers[:, np.newaxis] + step * self._offsets
            power = self._mean_azimuth_power(
                series_list, grids.ravel(), sigma
            ).reshape(grids.shape)
            best = np.argmax(power, axis=1)
            centers = grids[rows, best]
            # Stop once the current spacing is within refine_factor of the
            # tolerance: the closing parabolic fit reduces the error by
            # far more than one extra ladder level would (measured ~1/14
            # of the spacing on the golden traces; the property tests
            # enforce the tolerance contract end to end).
            if step <= self.tolerance * self.refine_factor**2:
                break
            step /= self.refine_factor
        peaks = [
            _refine_peak_clamped(grids[i], power[i]) for i in rows
        ]
        azimuth, peak_power = max(peaks, key=lambda p: p[1])
        return float(np.mod(azimuth, 2.0 * np.pi)), float(peak_power)

    def _refine_joint_basin(
        self,
        series_list: Sequence[SnapshotSeries],
        azimuth: float,
        polar: float,
        azimuth_step: float,
        polar_step: float,
        sigma: Optional[float],
    ) -> Tuple[float, float, float]:
        """Refine one fused joint basin; returns (azimuth, polar, power).

        The ladder descends on the *mean* power of ``series_list`` — one
        refinement per basin regardless of the channel count, so the
        fused 3D path pays one ladder where it used to pay one per
        channel.
        """
        self.refinements += 1
        while True:
            azimuths = azimuth + azimuth_step * self._offsets
            polars = np.clip(
                polar + polar_step * self._offsets, -np.pi / 2.0, np.pi / 2.0
            )
            power = self._mean_joint_power(series_list, azimuths, polars, sigma)
            row, col = np.unravel_index(int(np.argmax(power)), power.shape)
            azimuth = float(azimuths[col])
            polar = float(polars[row])
            # Same early stop as the azimuth ladder: the closing parabola
            # covers the last refine_factor of spacing.
            if (
                max(azimuth_step, polar_step)
                <= self.tolerance * self.refine_factor**2
            ):
                break
            azimuth_step /= self.refine_factor
            polar_step /= self.refine_factor
        azimuth, _ = _refine_peak_clamped(azimuths, power[row])
        polar, peak_power = _refine_peak_clamped(polars, power[:, col])
        return float(np.mod(azimuth, 2.0 * np.pi)), float(polar), float(peak_power)

    # ------------------------------------------------------------------
    # Guards and cache keys
    # ------------------------------------------------------------------
    def _is_flat(self, coarse: AngleSpectrum) -> bool:
        try:
            sharpness = peak_sharpness(coarse)
        except ValueError:
            # The sharpness window covers the whole coarse grid: too few
            # points to judge the profile shape — refuse to trust basins.
            return True
        return sharpness < self.min_sharpness

    def _sigma_key(self, sigma: Optional[float]) -> Hashable:
        return None if sigma is None else quantize_scalar(sigma)

    def _series_key(self, series: SnapshotSeries) -> Hashable:
        return (series_geometry_key(series), quantize_array(series.phases))

    # ------------------------------------------------------------------
    # SpectrumEngine interface
    # ------------------------------------------------------------------
    def azimuth_spectrum(
        self,
        series: SnapshotSeries,
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> AngleSpectrum:
        return self.fused_azimuth_spectrum([series], azimuth_grid, sigma)

    def fused_azimuth_spectrum(
        self,
        series_list: Sequence[SnapshotSeries],
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> AngleSpectrum:
        """Channel-fused adaptive azimuth spectrum.

        Basin selection and refinement run on the *fused* (mean-power)
        objective, so the returned peak tracks the dense fused peak —
        refining channels independently and averaging afterwards would
        not.
        """
        if not series_list:
            raise ValueError("no snapshot series to fuse")
        for series in series_list:
            _check_series(series)
        if sigma is not None and sigma <= 0:
            raise ValueError("sigma must be positive")
        grid = np.asarray(azimuth_grid, dtype=float)
        cache_key = (
            "adaptive-azimuth",
            tuple(self._series_key(s) for s in series_list),
            grid_key(grid, 0.0),
            self._sigma_key(sigma),
            quantize_scalar(self.tolerance),
        )
        cached = self._spectra.get(cache_key)
        if cached is not None:
            return cached
        coarse_grid = self._coarse(grid, MIN_COARSE_AZIMUTH_POINTS)
        if coarse_grid is None:
            spectrum = self._dense_fused(series_list, grid, sigma)
        else:
            coarse_spectra = self._dense.azimuth_spectra(
                series_list, coarse_grid, sigma
            )
            coarse = combine_spectra(coarse_spectra)
            if self._is_flat(coarse):
                self.dense_fallbacks += 1
                _count_fallback("azimuth")
                spectrum = self._dense_fused(series_list, grid, sigma)
            else:
                basins = self._azimuth_basins(coarse.power)
                step = float(coarse_grid[1] - coarse_grid[0])
                peak_azimuth, peak_power = self._refine_azimuths(
                    series_list, coarse_grid[basins], step, sigma
                )
                spectrum = AngleSpectrum(
                    coarse.azimuth_grid, coarse.power, peak_azimuth, peak_power
                )
        self._spectra.put(cache_key, spectrum, cost=spectrum.power.size)
        return spectrum

    def _dense_fused(
        self,
        series_list: Sequence[SnapshotSeries],
        grid: np.ndarray,
        sigma: Optional[float],
    ) -> AngleSpectrum:
        return combine_spectra(
            self._dense.azimuth_spectra(series_list, grid, sigma)
        )

    def joint_spectrum(
        self,
        series: SnapshotSeries,
        azimuth_grid: np.ndarray,
        polar_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> JointSpectrum:
        _check_series(series)
        if sigma is not None and sigma <= 0:
            raise ValueError("sigma must be positive")
        azimuths = np.asarray(azimuth_grid, dtype=float)
        polars = np.asarray(polar_grid, dtype=float)
        cache_key = (
            "adaptive-joint",
            self._series_key(series),
            grid_key(azimuths, polars),
            self._sigma_key(sigma),
            quantize_scalar(self.tolerance),
        )
        cached = self._spectra.get(cache_key)
        if cached is not None:
            return cached
        azimuth_factor = self._factor(azimuths, MIN_COARSE_AZIMUTH_POINTS)
        polar_factor = self._factor(polars, MIN_COARSE_POLAR_POINTS)
        if azimuth_factor == 1 and polar_factor == 1:
            spectrum = self._dense.joint_spectrum(series, azimuths, polars, sigma)
        else:
            coarse_azimuths = azimuths[::azimuth_factor]
            coarse_polars = polars[::polar_factor]
            power = self._dense._joint_power(
                series, coarse_azimuths, coarse_polars, sigma
            )
            peak = float(np.max(power))
            mean = float(np.mean(power))
            if peak / max(mean, 1e-12) < self.min_sharpness:
                # Dense fallback: trust the dense peak, but keep the
                # *coarse* power surface so per-channel spectra of one
                # link always share a grid (the pipeline averages them).
                self.dense_fallbacks += 1
                _count_fallback("joint")
                dense = self._dense.joint_spectrum(
                    series, azimuths, polars, sigma
                )
                spectrum = JointSpectrum(
                    azimuth_grid=coarse_azimuths,
                    polar_grid=coarse_polars,
                    power=power,
                    peak_azimuth=dense.peak_azimuth,
                    peak_polar=dense.peak_polar,
                    peak_power=dense.peak_power,
                )
            else:
                azimuth_step = float(coarse_azimuths[1] - coarse_azimuths[0])
                polar_step = (
                    float(coarse_polars[1] - coarse_polars[0])
                    if coarse_polars.size > 1
                    else azimuth_step
                )
                refined = [
                    self._refine_joint_basin(
                        [series],
                        float(coarse_azimuths[col]),
                        float(coarse_polars[row]),
                        azimuth_step,
                        polar_step,
                        sigma,
                    )
                    for row, col in self._joint_basins(power)
                ]
                peak_azimuth, peak_polar, peak_power = max(
                    refined, key=lambda p: p[2]
                )
                spectrum = JointSpectrum(
                    azimuth_grid=coarse_azimuths,
                    polar_grid=coarse_polars,
                    power=power,
                    peak_azimuth=peak_azimuth,
                    peak_polar=peak_polar,
                    peak_power=peak_power,
                )
        self._spectra.put(cache_key, spectrum, cost=spectrum.power.size)
        return spectrum

    def fused_joint_spectrum(
        self,
        series_list: Sequence[SnapshotSeries],
        azimuth_grid: np.ndarray,
        polar_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> JointSpectrum:
        """Channel-fused adaptive (azimuth x polar) spectrum.

        Basin selection runs on the *mean* coarse power surface of all
        channels and each basin descends one ladder on the fused joint
        objective — one refinement per basin regardless of how many
        channels the link carries, where the per-channel path paid one
        ladder per channel and averaged the results afterwards (which
        also does not track the dense fused peak).
        """
        if not series_list:
            raise ValueError("no snapshot series to fuse")
        for series in series_list:
            _check_series(series)
        if sigma is not None and sigma <= 0:
            raise ValueError("sigma must be positive")
        azimuths = np.asarray(azimuth_grid, dtype=float)
        polars = np.asarray(polar_grid, dtype=float)
        cache_key = (
            "adaptive-joint-fused",
            tuple(self._series_key(s) for s in series_list),
            grid_key(azimuths, polars),
            self._sigma_key(sigma),
            quantize_scalar(self.tolerance),
        )
        cached = self._spectra.get(cache_key)
        if cached is not None:
            return cached
        azimuth_factor = self._factor(azimuths, MIN_COARSE_AZIMUTH_POINTS)
        polar_factor = self._factor(polars, MIN_COARSE_POLAR_POINTS)
        if azimuth_factor == 1 and polar_factor == 1:
            spectrum = combine_joint_spectra(
                self._dense.joint_spectra(series_list, azimuths, polars, sigma)
            )
        else:
            coarse_azimuths = azimuths[::azimuth_factor]
            coarse_polars = polars[::polar_factor]
            total: Optional[np.ndarray] = None
            for series in series_list:
                power = self._dense._joint_power(
                    series, coarse_azimuths, coarse_polars, sigma
                )
                total = power if total is None else total + power
            assert total is not None
            power = total / float(len(series_list))
            peak = float(np.max(power))
            mean = float(np.mean(power))
            if peak / max(mean, 1e-12) < self.min_sharpness:
                # Dense fallback: trust the dense fused peak, but keep
                # the *coarse* mean surface so the spectrum's grids match
                # what this engine actually evaluated.
                self.dense_fallbacks += 1
                _count_fallback("joint_fused")
                dense = combine_joint_spectra(
                    self._dense.joint_spectra(
                        series_list, azimuths, polars, sigma
                    )
                )
                spectrum = JointSpectrum(
                    azimuth_grid=coarse_azimuths,
                    polar_grid=coarse_polars,
                    power=power,
                    peak_azimuth=dense.peak_azimuth,
                    peak_polar=dense.peak_polar,
                    peak_power=dense.peak_power,
                )
            else:
                azimuth_step = float(coarse_azimuths[1] - coarse_azimuths[0])
                polar_step = (
                    float(coarse_polars[1] - coarse_polars[0])
                    if coarse_polars.size > 1
                    else azimuth_step
                )
                refined = [
                    self._refine_joint_basin(
                        series_list,
                        float(coarse_azimuths[col]),
                        float(coarse_polars[row]),
                        azimuth_step,
                        polar_step,
                        sigma,
                    )
                    for row, col in self._joint_basins(power)
                ]
                peak_azimuth, peak_polar, peak_power = max(
                    refined, key=lambda p: p[2]
                )
                spectrum = JointSpectrum(
                    azimuth_grid=coarse_azimuths,
                    polar_grid=coarse_polars,
                    power=power,
                    peak_azimuth=peak_azimuth,
                    peak_polar=peak_polar,
                    peak_power=peak_power,
                )
        self._spectra.put(cache_key, spectrum, cost=spectrum.power.size)
        return spectrum

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        stats = dict(self._dense.cache_stats())
        stats["adaptive"] = {
            "spectra": self._spectra.stats.as_dict(),
            "refinements": self.refinements,
            "dense_fallbacks": self.dense_fallbacks,
        }
        return stats

    def clear_caches(self) -> None:
        self._spectra.clear()
        self._dense.clear_caches()

    def close(self) -> None:
        self._dense.close()
