"""Angle-spectrum generation (Section IV and V-B of the paper).

Given the phase snapshots of one spinning tag, the direction of the reader is
estimated SAR-style by correlating the *relative* measured phases against the
theoretical relative phase for every candidate direction:

* The **traditional profile** ``Q`` (Eqn 7 / Eqn 11) is the coherent mean of
  the phase residuals — a circular-antenna-array beamformer.
* The **enhanced profile** ``R`` (Definition 4.1 / 5.1) additionally weights
  every snapshot by the Gaussian likelihood of its observed relative phase
  under the candidate direction, ``w_i = f(theta_i - theta_0; c_i, sqrt(2)*sigma)``.
  Directions that cannot explain the measurements get near-zero weight, so
  side lobes collapse and the true peak protrudes (Fig 6 / Fig 8).

Referencing every phase to the first snapshot cancels both the unknown
center-to-reader distance ``D`` and the hardware diversity ``theta_div``.
Within one frequency channel this cancellation is exact; series mixing
channels must be split per channel first (see ``repro.core.pipeline``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.constants import (
    DEFAULT_AZIMUTH_RESOLUTION_RAD,
    DEFAULT_POLAR_RESOLUTION_RAD,
    RELATIVE_PHASE_STD_RAD,
)
from repro.core.phase import relative_phase_model, wrap_phase_signed
from repro.errors import DTypeError, InsufficientDataError

#: Rows of the (polar x azimuth) grid evaluated per chunk, bounding memory.
_POLAR_CHUNK = 8


@dataclass(frozen=True)
class SnapshotSeries:
    """Phase snapshots of one spinning tag on one (antenna, channel) link.

    Attributes
    ----------
    times : sample times [s] (reader timestamps; strictly increasing)
    phases : wrapped phase reports [rad]
    wavelength : carrier wavelength [m] (single channel per series)
    radius : disk radius [m]
    angular_speed : disk angular speed [rad/s]
    phase0 : disk angle at ``t = 0`` [rad] (from the registry)
    """

    times: np.ndarray
    phases: np.ndarray
    wavelength: float
    radius: float
    angular_speed: float
    phase0: float = 0.0

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        if times.ndim != 1 or times.shape != phases.shape:
            raise ValueError("times and phases must be matching 1D arrays")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite (no NaN/Inf)")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite (no NaN/Inf)")
        if times.size >= 2 and np.any(np.diff(times) < 0):
            raise ValueError("times must be non-decreasing")
        if not np.isfinite(self.wavelength) or self.wavelength <= 0:
            raise ValueError("wavelength must be positive and finite")
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValueError("radius must be positive and finite")
        if not np.isfinite(self.angular_speed) or self.angular_speed == 0:
            raise ValueError("angular_speed must be non-zero and finite")
        if not np.isfinite(self.phase0):
            raise ValueError("phase0 must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "phases", phases)

    def __len__(self) -> int:
        return int(self.times.size)

    def relative_phases(self) -> np.ndarray:
        """Measured phases relative to the first snapshot, wrapped."""
        return np.asarray(
            wrap_phase_signed(self.phases - self.phases[0]), dtype=float
        )


@dataclass(frozen=True)
class AngleSpectrum:
    """1D (azimuth) power profile with its refined peak."""

    azimuth_grid: np.ndarray
    power: np.ndarray
    peak_azimuth: float
    peak_power: float

    def power_at(self, azimuth: float) -> float:
        """Power at the grid point nearest to ``azimuth``."""
        index = int(np.argmin(np.abs(
            wrap_phase_signed(self.azimuth_grid - azimuth))))
        return float(self.power[index])


@dataclass(frozen=True)
class JointSpectrum:
    """2D (azimuth x polar) power profile with its refined peak."""

    azimuth_grid: np.ndarray
    polar_grid: np.ndarray
    power: np.ndarray  # shape (len(polar_grid), len(azimuth_grid))
    peak_azimuth: float
    peak_polar: float
    peak_power: float


def _check_series(series: SnapshotSeries, minimum: int = 3) -> None:
    if len(series) < minimum:
        raise InsufficientDataError(
            f"need at least {minimum} snapshots to form a spectrum, "
            f"got {len(series)}"
        )


def _residual_matrix(
    series: SnapshotSeries,
    azimuths: np.ndarray,
    polar: np.ndarray | float,
) -> np.ndarray:
    """Wrapped residual (measured - theoretical relative phase) per candidate.

    Returns shape ``(len(azimuths), n_snapshots)``.
    """
    theoretical = relative_phase_model(
        series.times,
        series.wavelength,
        series.radius,
        series.angular_speed,
        azimuths,
        polar,
        series.phase0,
    )
    measured = series.relative_phases()
    return np.asarray(wrap_phase_signed(measured - theoretical), dtype=float)


def harmonic_coefficients(
    series: SnapshotSeries, polar: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Cos/sin decomposition of the theoretical relative phase (Def 4.1).

    The phase model is a pure sampled cosine in the candidate azimuth:

        c_i(phi) = A_i * cos(phi) + B_i * sin(phi)

    with ``A_i = s*cos(gamma)*(cos(alpha_0) - cos(alpha_i))``,
    ``B_i = s*cos(gamma)*(sin(alpha_0) - sin(alpha_i))``,
    ``alpha_i = omega*t_i + phase0`` and ``s = 4*pi*r/lambda``.  This is
    the per-snapshot harmonic form :mod:`repro.perf.harmonic` feeds into
    the Jacobi-Anger/FFT evaluation; it is algebraically identical to
    :func:`repro.core.phase.relative_phase_model` (cosine difference
    expanded in ``phi``).  Returns ``(A, B)``, each of shape
    ``(len(series),)``; ``A[0] == B[0] == 0`` by construction.
    """
    alpha = series.angular_speed * series.times + series.phase0
    scale = (
        4.0 * np.pi * series.radius / series.wavelength * np.cos(polar)
    )
    cos_alpha = np.cos(alpha)
    sin_alpha = np.sin(alpha)
    return (
        scale * (cos_alpha[0] - cos_alpha),
        scale * (sin_alpha[0] - sin_alpha),
    )


def _gaussian_weights(residuals: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian PDF of the wrapped residuals, normalized to peak 1.

    Normalizing by the PDF's maximum keeps the profile's peak near 1 for a
    perfectly explained series; the paper plots unnormalized PDF values, which
    only differ by this constant factor.
    """
    return np.exp(-0.5 * np.square(residuals / sigma))


def _coerce_residuals(residuals: np.ndarray) -> np.ndarray:
    """Validate/coerce a residual array to float64 with a typed error.

    Complex input means the caller passed phasors (``exp(1j*res)``)
    instead of phases — taking its "mean magnitude" silently produces a
    wrong profile, so it is rejected outright.  Real inputs of lower
    precision (float32, integers, bool) are upcast to float64 so every
    engine computes in the same precision.
    """
    array = np.asarray(residuals)
    if np.iscomplexobj(array):
        raise DTypeError(
            f"residuals must be real-valued wrapped phases [rad], got "
            f"complex dtype {array.dtype}; pass phase residuals, not "
            f"phasors"
        )
    if array.dtype != np.float64:
        if not (
            np.issubdtype(array.dtype, np.floating)
            or np.issubdtype(array.dtype, np.integer)
            or array.dtype == np.bool_
        ):
            raise DTypeError(
                f"residuals must be a numeric array of wrapped phases "
                f"[rad], got dtype {array.dtype}"
            )
        array = array.astype(np.float64)
    return array


def power_from_residuals(
    residuals: np.ndarray, sigma: Optional[float]
) -> np.ndarray:
    """Power along the snapshot axis of a wrapped-residual array.

    ``sigma=None`` computes the traditional coherent mean ``Q`` (Eqn 7);
    a positive ``sigma`` computes the enhanced likelihood-weighted profile
    ``R`` (Definition 4.1).  This is the single arithmetic kernel shared by
    the reference profiles and :mod:`repro.perf`'s dense fallbacks and
    refinement ladders.  Input dtype is
    validated: complex arrays raise :class:`repro.errors.DTypeError` and
    lower-precision real arrays are upcast to float64.
    """
    residuals = _coerce_residuals(residuals)
    if sigma is None:
        return np.abs(np.mean(np.exp(1j * residuals), axis=-1))
    residuals = _centered(residuals)
    weights = _gaussian_weights(residuals, sigma)
    return np.abs(np.mean(weights * np.exp(1j * residuals), axis=-1))


def _centered(residuals: np.ndarray) -> np.ndarray:
    """Remove the common (circular-mean) offset from each residual row.

    Referencing phases to the first snapshot leaves that snapshot's own
    noise as a *common* offset in every residual.  The coherent sum of ``Q``
    is invariant to it (a constant phase factors out of the magnitude), but
    the Gaussian weights of ``R`` are not: an offset of ``n_0`` drags the
    weighted peak by roughly ``n_0`` divided by the phase-vs-angle slope —
    about 2 degrees for sigma = 0.1 rad and a 10 cm disk.  Re-centering each
    candidate's residuals by their circular mean restores the invariance
    while keeping Definition 4.1's weighting intact.
    """
    mean = np.angle(np.mean(np.exp(1j * residuals), axis=-1, keepdims=True))
    return np.asarray(wrap_phase_signed(residuals - mean), dtype=float)


def _refine_peak_circular(grid: np.ndarray, power: np.ndarray) -> tuple[float, float]:
    """Sub-grid peak via parabolic interpolation on a circular grid."""
    index = int(np.argmax(power))
    left = power[(index - 1) % power.size]
    center = power[index]
    right = power[(index + 1) % power.size]
    denominator = left - 2.0 * center + right
    if abs(denominator) < 1e-15:
        return float(np.mod(grid[index], 2.0 * np.pi)), float(center)
    shift = 0.5 * (left - right) / denominator
    shift = float(np.clip(shift, -0.5, 0.5))
    step = grid[1] - grid[0] if grid.size > 1 else 0.0
    refined = grid[index] + shift * step
    refined_power = center - 0.25 * (left - right) * shift
    return float(np.mod(refined, 2.0 * np.pi)), float(refined_power)


def _refine_peak_clamped(grid: np.ndarray, power: np.ndarray) -> tuple[float, float]:
    """Sub-grid peak via parabolic interpolation on a bounded grid."""
    index = int(np.argmax(power))
    if index == 0 or index == power.size - 1 or grid.size < 3:
        return float(grid[index]), float(power[index])
    left, center, right = power[index - 1], power[index], power[index + 1]
    denominator = left - 2.0 * center + right
    if abs(denominator) < 1e-15:
        return float(grid[index]), float(center)
    shift = float(np.clip(0.5 * (left - right) / denominator, -0.5, 0.5))
    step = grid[1] - grid[0]
    return (
        float(grid[index] + shift * step),
        float(center - 0.25 * (left - right) * shift),
    )


def default_azimuth_grid(
    resolution: float = DEFAULT_AZIMUTH_RESOLUTION_RAD,
) -> np.ndarray:
    """Azimuth candidates covering ``[0, 2*pi)``."""
    count = max(int(round(2.0 * np.pi / resolution)), 8)
    return np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)


def default_polar_grid(
    resolution: float = DEFAULT_POLAR_RESOLUTION_RAD,
    max_polar: float = np.pi / 2.0,
) -> np.ndarray:
    """Polar candidates covering ``[-max_polar, max_polar]``."""
    count = max(int(round(2.0 * max_polar / resolution)) + 1, 3)
    return np.linspace(-max_polar, max_polar, count)


def compute_q_profile(
    series: SnapshotSeries,
    azimuth_grid: Optional[np.ndarray] = None,
    polar: float = 0.0,
) -> AngleSpectrum:
    """Traditional AoA power profile ``Q(phi)`` (Eqn 7)."""
    _check_series(series)
    grid = default_azimuth_grid() if azimuth_grid is None else np.asarray(
        azimuth_grid, dtype=float
    )
    residuals = _residual_matrix(series, grid, polar)
    power = power_from_residuals(residuals, None)
    peak_azimuth, peak_power = _refine_peak_circular(grid, power)
    return AngleSpectrum(grid, power, peak_azimuth, peak_power)


def compute_r_profile(
    series: SnapshotSeries,
    azimuth_grid: Optional[np.ndarray] = None,
    polar: float = 0.0,
    sigma: float = RELATIVE_PHASE_STD_RAD,
) -> AngleSpectrum:
    """Enhanced power profile ``R(phi)`` (Definition 4.1)."""
    _check_series(series)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    grid = default_azimuth_grid() if azimuth_grid is None else np.asarray(
        azimuth_grid, dtype=float
    )
    residuals = _residual_matrix(series, grid, polar)
    power = power_from_residuals(residuals, sigma)
    peak_azimuth, peak_power = _refine_peak_circular(grid, power)
    return AngleSpectrum(grid, power, peak_azimuth, peak_power)


def _joint_power(
    series: SnapshotSeries,
    azimuth_grid: np.ndarray,
    polar_grid: np.ndarray,
    sigma: Optional[float],
) -> np.ndarray:
    """Evaluate the (polar x azimuth) power grid, chunked over polar rows."""
    power = np.empty((polar_grid.size, azimuth_grid.size))
    for start in range(0, polar_grid.size, _POLAR_CHUNK):
        chunk = polar_grid[start : start + _POLAR_CHUNK]
        # Broadcast: candidates are the cross product of chunk x azimuths.
        theoretical = relative_phase_model(
            series.times,
            series.wavelength,
            series.radius,
            series.angular_speed,
            azimuth_grid[np.newaxis, :],
            chunk[:, np.newaxis],
            series.phase0,
        )
        residuals = np.asarray(
            wrap_phase_signed(series.relative_phases() - theoretical), dtype=float
        )
        power[start : start + chunk.size] = power_from_residuals(residuals, sigma)
    return power


def refine_joint_peak(
    series: SnapshotSeries,
    coarse_azimuth: float,
    coarse_polar: float,
    azimuth_step: float,
    polar_step: float,
    sigma: Optional[float],
    window: int = 3,
    oversample: int = 10,
    power_fn=None,
) -> tuple[float, float, float]:
    """Locally re-search around a coarse peak on a much finer grid.

    Returns ``(azimuth, polar, power)``.  The fine grid spans ``window``
    coarse steps on each side at ``oversample`` times the coarse density,
    followed by parabolic interpolation — giving sub-grid peaks without
    paying for a globally fine grid.  ``power_fn(series, azimuths, polars,
    sigma)`` overrides the grid evaluator (the harmonic engine injects its
    FFT kernel); it must agree with :func:`_joint_power` within the
    engines' 1e-9 budget.
    """
    fine_azimuths = coarse_azimuth + np.linspace(
        -window * azimuth_step, window * azimuth_step,
        2 * window * oversample + 1,
    )
    fine_polars = np.clip(
        coarse_polar
        + np.linspace(
            -window * polar_step, window * polar_step,
            2 * window * oversample + 1,
        ),
        -np.pi / 2.0,
        np.pi / 2.0,
    )
    evaluate = _joint_power if power_fn is None else power_fn
    power = evaluate(series, fine_azimuths, fine_polars, sigma)
    row, col = np.unravel_index(int(np.argmax(power)), power.shape)
    azimuth, _ = _refine_peak_clamped(fine_azimuths, power[row])
    polar, peak_power = _refine_peak_clamped(fine_polars, power[:, col])
    return float(np.mod(azimuth, 2.0 * np.pi)), float(polar), float(peak_power)


def _joint_profile(
    series: SnapshotSeries,
    azimuth_grid: np.ndarray,
    polar_grid: np.ndarray,
    sigma: Optional[float],
    refine: bool = True,
    power_fn=None,
) -> JointSpectrum:
    evaluate = _joint_power if power_fn is None else power_fn
    power = evaluate(series, azimuth_grid, polar_grid, sigma)
    flat_index = int(np.argmax(power))
    row, col = np.unravel_index(flat_index, power.shape)
    if refine and azimuth_grid.size > 1 and polar_grid.size > 1:
        peak_azimuth, peak_polar, peak_power = refine_joint_peak(
            series,
            float(azimuth_grid[col]),
            float(polar_grid[row]),
            float(azimuth_grid[1] - azimuth_grid[0]),
            float(polar_grid[1] - polar_grid[0]),
            sigma,
            power_fn=power_fn,
        )
    else:
        peak_azimuth, _ = _refine_peak_circular(azimuth_grid, power[row])
        peak_polar, peak_power = _refine_peak_clamped(polar_grid, power[:, col])
    return JointSpectrum(
        azimuth_grid, polar_grid, power, peak_azimuth, peak_polar, peak_power
    )


def compute_q_profile_3d(
    series: SnapshotSeries,
    azimuth_grid: Optional[np.ndarray] = None,
    polar_grid: Optional[np.ndarray] = None,
) -> JointSpectrum:
    """Traditional 3D profile ``Q(phi, gamma)`` (Eqn 11)."""
    _check_series(series)
    azimuths = (
        default_azimuth_grid() if azimuth_grid is None
        else np.asarray(azimuth_grid, dtype=float)
    )
    polars = (
        default_polar_grid() if polar_grid is None
        else np.asarray(polar_grid, dtype=float)
    )
    return _joint_profile(series, azimuths, polars, sigma=None)


def compute_r_profile_3d(
    series: SnapshotSeries,
    azimuth_grid: Optional[np.ndarray] = None,
    polar_grid: Optional[np.ndarray] = None,
    sigma: float = RELATIVE_PHASE_STD_RAD,
) -> JointSpectrum:
    """Enhanced 3D profile ``R(phi, gamma)`` (Definition 5.1)."""
    _check_series(series)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    azimuths = (
        default_azimuth_grid() if azimuth_grid is None
        else np.asarray(azimuth_grid, dtype=float)
    )
    polars = (
        default_polar_grid() if polar_grid is None
        else np.asarray(polar_grid, dtype=float)
    )
    return _joint_profile(series, azimuths, polars, sigma=sigma)


def combine_spectra(spectra: Sequence[AngleSpectrum]) -> AngleSpectrum:
    """Combine per-channel spectra of the same link by averaging power.

    Frequency hopping forces the pipeline to split a tag's reads per channel
    (the first-snapshot reference only cancels ``D`` within a channel); the
    per-channel spectra all peak at the same physical direction and are fused
    by averaging on a common grid.
    """
    if not spectra:
        raise ValueError("no spectra to combine")
    grid = spectra[0].azimuth_grid
    for index, spectrum in enumerate(spectra[1:], start=1):
        if spectrum.azimuth_grid.shape != grid.shape:
            raise ValueError(
                f"spectra must share the same azimuth grid: spectrum 0 has "
                f"{grid.size} points but spectrum {index} has "
                f"{spectrum.azimuth_grid.size} (mixing engines or "
                f"resolutions? combine only spectra evaluated on one grid)"
            )
        if not np.allclose(spectrum.azimuth_grid, grid):
            deviation = float(
                np.max(np.abs(spectrum.azimuth_grid - grid))
            )
            raise ValueError(
                f"spectra must share the same azimuth grid: spectrum "
                f"{index}'s grid deviates from spectrum 0's by up to "
                f"{deviation:.3e} rad"
            )
    power = np.mean([s.power for s in spectra], axis=0)
    peak_azimuth, peak_power = _refine_peak_circular(grid, power)
    return AngleSpectrum(grid, power, peak_azimuth, peak_power)


def combine_joint_spectra(spectra: Sequence[JointSpectrum]) -> JointSpectrum:
    """Combine per-channel joint spectra of the same link.

    The fused surface is the mean power grid; the fused peak is the
    power-weighted mean of the per-channel peaks — circular for azimuth,
    plain for polar — exactly the fusion the pipeline applies to the
    3D/joint paths.  All spectra must share the grids of the first
    (consumers pass one engine's outputs, which guarantees this); the
    fused grids are the first spectrum's, so the adaptive engine's coarse
    grids survive fusion undistorted.
    """
    if not spectra:
        raise ValueError("no joint spectra to combine")
    mean_power = np.mean([s.power for s in spectra], axis=0)
    weights = np.array([max(s.peak_power, 1e-12) for s in spectra])
    weights = weights / np.sum(weights)
    peak_azimuth = float(
        np.mod(
            np.angle(
                np.sum(
                    weights
                    * np.exp(1j * np.array([s.peak_azimuth for s in spectra]))
                )
            ),
            2.0 * np.pi,
        )
    )
    peak_polar = float(
        np.sum(weights * np.array([s.peak_polar for s in spectra]))
    )
    return JointSpectrum(
        azimuth_grid=spectra[0].azimuth_grid,
        polar_grid=spectra[0].polar_grid,
        power=mean_power,
        peak_azimuth=peak_azimuth,
        peak_polar=peak_polar,
        peak_power=float(np.max(mean_power)),
    )


def peak_sharpness(spectrum: AngleSpectrum, window: float = np.deg2rad(20)) -> float:
    """Ratio of peak power to mean power outside ``window`` around the peak.

    The Fig 6 benchmark uses this to quantify how much sharper ``R`` is than
    ``Q``; larger is sharper.
    """
    offsets = np.abs(np.asarray(
        wrap_phase_signed(spectrum.azimuth_grid - spectrum.peak_azimuth),
        dtype=float,
    ))
    outside = spectrum.power[offsets > window]
    if outside.size == 0:
        raise ValueError("window covers the whole grid")
    floor = float(np.mean(outside))
    return spectrum.peak_power / max(floor, 1e-12)
