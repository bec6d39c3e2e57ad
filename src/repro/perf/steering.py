"""Cached steering-matrix construction for the batched spectrum engine.

The *steering matrix* of a snapshot series is the theoretical relative
phase of every snapshot for every candidate direction — the output of
:func:`repro.core.phase.relative_phase_model`.  It depends only on the
series *geometry* (sample times, wavelength, disk radius, angular speed,
starting angle) and the candidate grid, never on the measured phases.
The localization pipeline re-evaluates spectra of the same series several
times per fix (disk-quality scoring, triangulation, the orientation-
corrected second pass, the R-to-Q fallback), so memoizing steering
matrices for the fix (see :mod:`repro.perf.cache`) removes the dominant
trigonometric cost from every evaluation after the first.  The sample
times change with every appended report, so no later fix could reuse
them.

Grids are built per call by :func:`~repro.core.spectrum.default_azimuth_grid`
and friends, so keys quantize the grid *values* rather than relying on
object identity.
"""

from __future__ import annotations

from typing import Hashable, Tuple

import numpy as np

from repro.core.phase import relative_phase_model
from repro.core.spectrum import SnapshotSeries
from repro.perf.cache import ScopedCache, quantize_array, quantize_scalar


def series_geometry_key(series: SnapshotSeries) -> Hashable:
    """Hashable key of everything the steering matrix depends on,
    except the candidate grid."""
    return (
        quantize_array(series.times),
        quantize_scalar(series.wavelength),
        quantize_scalar(series.radius),
        quantize_scalar(series.angular_speed),
        quantize_scalar(series.phase0),
    )


def grid_key(
    azimuths: np.ndarray, polar: "np.ndarray | float"
) -> Hashable:
    """Hashable key of an (azimuth, polar) candidate grid."""
    polar_part: Hashable
    if np.ndim(polar) == 0:
        polar_part = quantize_scalar(float(polar))
    else:
        polar_part = quantize_array(np.asarray(polar))
    return (quantize_array(azimuths), polar_part)


class SteeringCache:
    """Fix-scoped memo of steering matrices keyed on quantized geometry.

    ``azimuth`` returns the ``(n_azimuth, n_snapshots)`` matrix of a 1D
    profile; ``joint`` the ``(n_polar, n_azimuth, n_snapshots)`` block of
    a joint profile, built in row blocks under ``max_block_elements`` so
    a very fine grid never materializes an over-budget temporary beyond
    the final (memoized) result.
    """

    def __init__(self, max_block_elements: int = 8_000_000) -> None:
        if max_block_elements < 1:
            raise ValueError("max_block_elements must be positive")
        self._cache = ScopedCache()
        self.max_block_elements = max_block_elements

    def key(
        self,
        series: SnapshotSeries,
        azimuths: np.ndarray,
        polar: "np.ndarray | float",
    ) -> Hashable:
        return (series_geometry_key(series), grid_key(azimuths, polar))

    def azimuth(
        self,
        series: SnapshotSeries,
        azimuths: np.ndarray,
        polar: float = 0.0,
    ) -> Tuple[Hashable, np.ndarray]:
        """Steering matrix for a 1D azimuth profile at fixed ``polar``."""
        key = self.key(series, azimuths, polar)
        cached = self._cache.get(key)
        if cached is not None:
            return key, cached
        theoretical = relative_phase_model(
            series.times,
            series.wavelength,
            series.radius,
            series.angular_speed,
            azimuths,
            polar,
            series.phase0,
        )
        theoretical = np.asarray(theoretical, dtype=float)
        theoretical.setflags(write=False)
        self._cache.put(key, theoretical)
        return key, theoretical

    def joint(
        self,
        series: SnapshotSeries,
        azimuths: np.ndarray,
        polars: np.ndarray,
    ) -> Tuple[Hashable, np.ndarray]:
        """Steering block for a joint (polar x azimuth) profile."""
        key = self.key(series, azimuths, polars)
        cached = self._cache.get(key)
        if cached is not None:
            return key, cached
        n_snap = series.times.size
        row_elements = max(azimuths.size * n_snap, 1)
        rows_per_block = max(1, self.max_block_elements // row_elements)
        if rows_per_block >= polars.size:
            theoretical = np.asarray(
                relative_phase_model(
                    series.times,
                    series.wavelength,
                    series.radius,
                    series.angular_speed,
                    azimuths[np.newaxis, :],
                    polars[:, np.newaxis],
                    series.phase0,
                ),
                dtype=float,
            )
        else:
            theoretical = np.empty((polars.size, azimuths.size, n_snap))
            for start in range(0, polars.size, rows_per_block):
                block = polars[start : start + rows_per_block]
                theoretical[start : start + block.size] = relative_phase_model(
                    series.times,
                    series.wavelength,
                    series.radius,
                    series.angular_speed,
                    azimuths[np.newaxis, :],
                    block[:, np.newaxis],
                    series.phase0,
                )
        theoretical.setflags(write=False)
        self._cache.put(key, theoretical)
        return key, theoretical

    @property
    def stats(self):
        return self._cache.stats
