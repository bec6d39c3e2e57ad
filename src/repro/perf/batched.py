"""Batched spectrum engine: memoized steering, whole-grid vectorized power.

The reference path rebuilds the steering geometry on every call and walks
the joint (polar x azimuth) grid in small fixed chunks
(``_POLAR_CHUNK``).  :class:`BatchedEngine` instead:

* evaluates whole candidate grids in single vectorized passes, falling
  back to budget-sized polar blocks only when the full block would exceed
  ``max_block_elements`` (the configurable replacement for the fixed
  chunk loop);
* memoizes steering matrices keyed on quantized series geometry + grid
  for the fix (:mod:`repro.perf.cache`), so the pipeline's repeated
  passes over the same series (quality scoring, triangulation, the
  orientation-corrected refinement, the R-to-Q fallback) skip the
  trigonometric rebuild;
* memoizes wrapped residual matrices keyed on (steering, measured
  phases), so switching profiles (R to Q) over the same measurements
  reuses them;
* memoizes finished spectra, so evaluating the same series/grid/profile
  twice — which the diagnosed pipeline does on every fix — is free.

Equivalence guarantee: every arithmetic step is the reference
implementation's own kernel (``power_from_residuals``,
``wrap_phase_signed``, ``relative_phase_model``, the ``_joint_profile``
peak refinement), applied over identical operands in the same order.
Whole-grid evaluation only changes *where* chunk boundaries fall, and all
kernels are row-independent, so the batched spectra are bit-for-bit equal
to the reference — the ``tests/perf`` golden and property suites assert
this within 1e-9 and that fixes match exactly.
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.core.phase import relative_phase_model, wrap_phase_signed
from repro.core.spectrum import (
    AngleSpectrum,
    JointSpectrum,
    SnapshotSeries,
    _check_series,
    _joint_profile,
    _refine_peak_circular,
    power_from_residuals,
)
from repro.perf.cache import ScopedCache, quantize_array, quantize_scalar
from repro.perf.engine import SpectrumEngine
from repro.perf.steering import SteeringCache

#: Default cap on any single vectorized block [float64 elements];
#: 8M elements keep complex temporaries around 128 MB.
DEFAULT_BLOCK_ELEMENTS = 8_000_000

#: Default cap on one power-kernel evaluation [float64 elements].  The
#: kernel allocates several same-shaped complex temporaries, so blocks
#: are kept near CPU-cache size; larger blocks go memory-bound and are
#: measurably *slower* despite identical arithmetic.
DEFAULT_POWER_BLOCK_ELEMENTS = 262_144


class BatchedEngine(SpectrumEngine):
    """Vectorized spectrum engine with steering/residual/spectrum memos.

    Parameters
    ----------
    max_block_elements : memory budget of one vectorized evaluation
        block; grids whose full (polar x azimuth x snapshot) block
        exceeds it are streamed in budget-sized polar row blocks
        (uncached) instead.
    power_block_elements : locality budget of one power-kernel call;
        the kernel walks steering/residual matrices in row blocks of at
        most this many elements so its complex temporaries stay
        cache-resident.
    """

    name = "batched"

    def __init__(
        self,
        max_block_elements: int = DEFAULT_BLOCK_ELEMENTS,
        power_block_elements: int = DEFAULT_POWER_BLOCK_ELEMENTS,
    ) -> None:
        if max_block_elements < 1:
            raise ValueError("max_block_elements must be positive")
        if power_block_elements < 1:
            raise ValueError("power_block_elements must be positive")
        self.max_block_elements = max_block_elements
        self.power_block_elements = power_block_elements
        self._steering = SteeringCache(max_block_elements)
        self._residuals_cache = ScopedCache()
        self._spectra = ScopedCache()

    # ------------------------------------------------------------------
    # Cached building blocks
    # ------------------------------------------------------------------
    def _measured_key(self, series: SnapshotSeries) -> Hashable:
        return quantize_array(series.phases)

    def _residuals(
        self,
        steering_key: Hashable,
        series: SnapshotSeries,
        theoretical: np.ndarray,
    ) -> np.ndarray:
        """Wrapped (measured - theoretical) residuals, cached.

        The same residual matrix serves both profiles (Q reads it
        directly, R re-centers and weights a copy), so the R-to-Q
        fallback pays the wrap only once.
        """
        key = (steering_key, self._measured_key(series))
        cached = self._residuals_cache.get(key)
        if cached is not None:
            return cached
        residuals = np.asarray(
            wrap_phase_signed(series.relative_phases() - theoretical),
            dtype=float,
        )
        residuals.setflags(write=False)
        self._residuals_cache.put(key, residuals)
        return residuals

    def _blocked_power(
        self, residuals: np.ndarray, sigma: Optional[float]
    ) -> np.ndarray:
        """Power over row blocks bounded by ``power_block_elements``.

        Row-wise evaluation order has no arithmetic effect (every kernel
        reduces along the snapshot axis independently per row); blocking
        only keeps the kernel's complex temporaries cache-resident.
        """
        if residuals.ndim < 2 or residuals.size <= self.power_block_elements:
            return power_from_residuals(residuals, sigma)
        row_elements = max(residuals[0].size, 1)
        rows_per_block = max(1, self.power_block_elements // row_elements)
        power = np.empty(residuals.shape[:-1])
        for start in range(0, residuals.shape[0], rows_per_block):
            stop = start + rows_per_block
            power[start:stop] = power_from_residuals(residuals[start:stop], sigma)
        return power

    def _joint_power(
        self,
        series: SnapshotSeries,
        azimuths: np.ndarray,
        polars: np.ndarray,
        sigma: Optional[float],
    ) -> np.ndarray:
        """Whole-grid power evaluation (the batched ``_joint_power``)."""
        total = polars.size * azimuths.size * len(series)
        if total <= self.max_block_elements:
            steering_key, theoretical = self._steering.joint(
                series, azimuths, polars
            )
            residuals = self._residuals(steering_key, series, theoretical)
            return self._blocked_power(residuals, sigma)
        # Over budget: stream uncached, locality-sized polar row blocks.
        measured = series.relative_phases()
        power = np.empty((polars.size, azimuths.size))
        row_elements = max(azimuths.size * len(series), 1)
        rows_per_block = max(1, self.power_block_elements // row_elements)
        for start in range(0, polars.size, rows_per_block):
            block = polars[start : start + rows_per_block]
            theoretical = relative_phase_model(
                series.times,
                series.wavelength,
                series.radius,
                series.angular_speed,
                azimuths[np.newaxis, :],
                block[:, np.newaxis],
                series.phase0,
            )
            residuals = np.asarray(
                wrap_phase_signed(measured - theoretical), dtype=float
            )
            power[start : start + block.size] = power_from_residuals(
                residuals, sigma
            )
        return power

    # ------------------------------------------------------------------
    # SpectrumEngine interface
    # ------------------------------------------------------------------
    def azimuth_spectrum(
        self,
        series: SnapshotSeries,
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> AngleSpectrum:
        _check_series(series)
        if sigma is not None and sigma <= 0:
            raise ValueError("sigma must be positive")
        grid = np.asarray(azimuth_grid, dtype=float)
        steering_key, theoretical = self._steering.azimuth(series, grid)
        spectrum_key = (
            "azimuth",
            steering_key,
            self._measured_key(series),
            None if sigma is None else quantize_scalar(sigma),
        )
        cached = self._spectra.get(spectrum_key)
        if cached is not None:
            return cached
        residuals = self._residuals(steering_key, series, theoretical)
        power = self._blocked_power(residuals, sigma)
        peak_azimuth, peak_power = _refine_peak_circular(grid, power)
        power.setflags(write=False)
        spectrum = AngleSpectrum(grid, power, peak_azimuth, peak_power)
        self._spectra.put(spectrum_key, spectrum)
        return spectrum

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
        spectrum_key = (
            "joint",
            self._steering.key(series, azimuths, polars),
            self._measured_key(series),
            None if sigma is None else quantize_scalar(sigma),
        )
        cached = self._spectra.get(spectrum_key)
        if cached is not None:
            return cached
        spectrum = _joint_profile(
            series, azimuths, polars, sigma, power_fn=self._joint_power
        )
        spectrum.power.setflags(write=False)
        self._spectra.put(spectrum_key, spectrum)
        return spectrum

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        return {
            "steering": self._steering.stats.as_dict(),
            "residuals": self._residuals_cache.stats.as_dict(),
            "spectra": self._spectra.stats.as_dict(),
        }
