"""Harmonic spectrum engine: Jacobi-Anger expansion + batched inverse FFT.

The theoretical relative phase of Definition 4.1 is a pure sampled
cosine in the candidate azimuth (see
:func:`repro.core.spectrum.harmonic_coefficients`):

    c_i(phi) = A_i cos(phi) + B_i sin(phi) = rho_i cos(phi - beta_i)

so each snapshot's steering phasor admits a Jacobi-Anger expansion

    exp(-1j c_i(phi)) = sum_n (-1j)^n J_n(rho_i) exp(1j n (phi - beta_i))

truncated at an order ``H`` chosen adaptively from the largest harmonic
amplitude (``rho_i <= 2 * 4*pi*r/lambda``).  Over a *uniform full-circle*
grid of ``M`` azimuths the whole steering-phasor matrix ``S[i, k] =
exp(-1j c_i(phi_k))`` is then one batch of length-``M`` inverse FFTs of
the folded coefficient table — O(snapshots * H + grid log grid) instead
of the dense engines' O(grid * snapshots) trigonometric steering
product.  ``S`` is measured-phase-independent, so it is memoized per
(series geometry, grid) for the fix (:mod:`repro.perf.cache`), and the
fix's orientation-corrected pass (same geometry, new phases) costs no
FFT:

* **Q profile** — ``|phasor @ S| / N`` with ``phasor = exp(1j m)``: a
  single BLAS vector-matrix product on a memo hit, a single-row FFT of
  the phasor-weighted coefficient sums on a miss.
* **R profile** — the Gaussian weights need per-snapshot residuals;
  the *centered* residuals are built directly in fractional turns by a
  single rank-4 matmul (harmonic coefficients, measured phases, circular
  means and the wrap scale all folded into one product — no dense
  trigonometric steering, no separate centering pass) and the weighted
  coherent sum runs as one contiguous complex einsum against ``S`` —
  the residual-phasor matrix ``E = phasor[:, None] * S`` is never
  materialized (see :func:`harmonic_accumulate`).
  The circular-mean centering rotation has unit modulus and factors out
  of the final magnitude, so only the weights ever see centered values.
  The centered residuals wrap as ``x - 2*pi*rint(x / 2*pi)`` rather than
  the reference's ``wrap_phase_signed``; the two differ only at the
  half-period boundary, where the Gaussian weight is ~exp(-250) at the
  default sigma, so the profiles agree to ~1e-12.

Non-circular grids (the local refinement windows of the joint search,
callers with bounded sector grids) fall back to an exact rank-2 dense
evaluation through the reference power kernel.

Accuracy: truncation at ``H = rho_max + 10 rho_max^{1/3} + 10`` leaves
relative tails below ~1e-13; end to end the profiles agree with the
reference within ~1e-11, inside the 1e-9 dense budgets
(``tolerance`` / ``power_budget`` below, enforced by ``tests/perf``).

Cross-series batching: :meth:`HarmonicEngine.evaluate_many` stacks every
series whose steering phasors the fix has not built yet into shared
inverse-FFT chunks (bounded by ``fft_block_elements``; one giant pass
thrashes caches), and :meth:`fused_azimuth_spectra` exposes that to the
pipeline's multi-disk scoring loop.  The adaptive engine
(``create_engine("adaptive-harmonic")``) uses this engine as its dense
stage: its coarse grids are strided views of full-circle grids, which
stay uniform-circular, and the coefficient fold keeps aliased small
grids exact.
"""

from __future__ import annotations

import threading
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import special as _special

from repro.core.spectrum import (
    AngleSpectrum,
    JointSpectrum,
    SnapshotSeries,
    _check_series,
    _joint_profile,
    _refine_peak_circular,
    combine_spectra,
    harmonic_coefficients,
    power_from_residuals,
)
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, get_registry
from repro.obs.trace import get_tracer
from repro.perf.cache import ScopedCache, grid_key, series_geometry_key
from repro.perf.engine import SpectrumEngine

TWO_PI = 2.0 * np.pi

#: Grid points must match their implied uniform circular layout within
#: this [rad] for the FFT path; linspace grids land around 1e-13.
CIRCULAR_GRID_ATOL = 1e-12

#: Truncation orders beyond this fall back to the dense path (a disk
#: would need a radius of hundreds of wavelengths to get here).
DEFAULT_MAX_ORDER = 4096

#: Complex elements per batched FFT chunk.  One giant FFT over every
#: stacked row is measurably slower than moderate chunks (cache thrash:
#: ~2.3x per-row cost at 7680x720), so stacked evaluations flush near
#: this budget.
DEFAULT_FFT_BLOCK_ELEMENTS = 1_000_000

#: Azimuth grids smaller than this use the dense path outright: the FFT
#: machinery only pays for itself on dense grids.
MIN_FFT_GRID_POINTS = 32

#: Per-thread work arrays of :func:`harmonic_accumulate`.  They carry no
#: values from one call to the next, only touched pages: a freshly
#: allocated pair costs more in first-touch page faults than the
#: accumulate itself (~1 ms against ~0.3 ms on a 400 x 90 block), so each
#: thread keeps one pair, grown by doubling to the largest block it met
#: up to one FFT chunk (``DEFAULT_FFT_BLOCK_ELEMENTS``, 32 MB a pair).
_workspace = threading.local()


def _work_arrays(shape: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """``(work, cwork)`` scratch views for one ``(snapshots, grid)`` block."""
    size = shape[0] * shape[1]
    if size > DEFAULT_FFT_BLOCK_ELEMENTS:
        return np.empty((2,) + tuple(shape)), np.empty(shape, np.complex128)
    cwork = getattr(_workspace, "cwork", None)
    if cwork is None or cwork.size < size:
        grown = max(size, 0 if cwork is None else 2 * cwork.size)
        grown = min(grown, DEFAULT_FFT_BLOCK_ELEMENTS)
        cwork = _workspace.cwork = np.empty(grown, dtype=np.complex128)
        _workspace.work = np.empty(2 * grown)
    return (
        _workspace.work[: 2 * size].reshape((2,) + tuple(shape)),
        cwork[:size].reshape(shape),
    )


def harmonic_order(rho_max: float, margin: int = 0) -> int:
    """Adaptive Jacobi-Anger truncation order for amplitude ``rho_max``.

    ``|J_n(rho)|`` decays super-exponentially once ``n`` exceeds ``rho``;
    ``rho + 10 rho^{1/3} + 10`` pushes the summed tail below ~1e-13 of
    the profile scale for every amplitude the phase model can produce.
    ``margin`` adds extra orders on top (the engine's accuracy knob).
    """
    rho = float(max(rho_max, 0.0))
    tail = 10.0 * max(rho, 1.0) ** (1.0 / 3.0) + 10.0
    return int(np.ceil(rho + tail)) + int(margin)


def bessel_table(order: int, x: np.ndarray) -> np.ndarray:
    """``J_n(x)`` for ``n = 0..order`` as shape ``(order + 1, len(x))``.

    Seeds the top two orders with SciPy and fills downward with the
    (stable in this direction) three-term recurrence
    ``J_{n-1} = (2n/x) J_n - J_{n+1}``.  Columns whose seeds underflow
    (tiny ``x`` against a large order) are recomputed with direct SciPy
    evaluation, detected by checking the recurrence's ``J_0`` against
    ``scipy.special.j0``.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x, dtype=float)
    table = np.zeros((order + 1, x.size))
    positive = x > 0.0
    table[0, ~positive] = 1.0
    xs = x[positive]
    if xs.size == 0:
        return table
    if order == 0:
        table[0, positive] = _special.j0(xs)
        return table
    columns = np.empty((order + 1, xs.size))
    above = _special.jv(order + 1, xs)
    current = _special.jv(order, xs)
    columns[order] = current
    for n in range(order, 0, -1):
        below = (2.0 * n / xs) * current - above
        columns[n - 1] = below
        above = current
        current = below
    direct = _special.j0(xs)
    bad = ~np.isfinite(columns[0]) | (np.abs(columns[0] - direct) > 1e-12)
    if np.any(bad):
        orders = np.arange(order + 1, dtype=float)[:, np.newaxis]
        columns[:, bad] = _special.jv(orders, xs[bad][np.newaxis, :])
    table[:, positive] = columns
    return table


def _circular_layout(grid: np.ndarray) -> Optional[Tuple[float, int]]:
    """``(start, M)`` when ``grid`` is uniform with step ``2*pi/M``."""
    points = grid.size
    if points < MIN_FFT_GRID_POINTS:
        return None
    step = TWO_PI / points
    implied = grid[0] + step * np.arange(points)
    if np.max(np.abs(grid - implied)) <= CIRCULAR_GRID_ATOL:
        return float(grid[0]), points
    return None


class _HarmonicTables:
    """Per-geometry Jacobi-Anger coefficient tables of one series.

    ``pos[i, n] = J_n(rho_i) * exp(-1j n (pi/2 + beta_i))`` — the
    coefficient of ``exp(1j n phi)`` in the steering phasor
    ``exp(-1j c_i(phi))`` — and ``neg`` its negative-frequency mirror
    ``J_n(rho_i) * exp(-1j n (pi/2 - beta_i)) = conj(pos) * (-1)^n``.
    """

    __slots__ = ("A", "B", "coefficients", "order", "pos", "neg")

    def __init__(self, A: np.ndarray, B: np.ndarray, order: int) -> None:
        rho = np.hypot(A, B)
        beta = np.arctan2(B, A)
        bessel = bessel_table(order, rho).T  # (N, order + 1)
        steps = np.arange(order + 1, dtype=float)
        angles = (0.5 * np.pi + beta)[:, np.newaxis] * steps
        phase = np.empty(angles.shape, dtype=np.complex128)
        np.cos(angles, out=phase.real)
        np.sin(angles, out=phase.imag)
        np.conjugate(phase, out=phase)
        self.A = A
        self.B = B
        self.coefficients = np.stack((A, B), axis=1)  # (N, 2) matmul form
        self.order = order
        self.pos = bessel * phase
        alternating = np.where(steps.astype(np.int64) % 2 == 0, 1.0, -1.0)
        self.neg = np.conj(self.pos) * alternating


def _scatter_band(
    pos: np.ndarray,
    neg: np.ndarray,
    points: int,
    start: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fold coefficient rows into FFT input ``b``; ``S = M * ifft(b)``.

    ``pos``/``neg`` hold the coefficients of ``exp(+1j n phi)`` /
    ``exp(-1j n phi)`` for ``n = 0..order`` (row-major over snapshots).
    Harmonics beyond the grid (``2H + 1 > M``) alias onto ``n mod M``
    exactly — a uniform circular grid cannot distinguish them — so
    small coarse grids stay exact rather than truncated.  ``out`` may
    supply a pre-zeroed destination block (the batched FFT buffer).
    """
    rows, width = pos.shape
    order = width - 1
    if start != 0.0:
        ramp = np.exp(1j * start * np.arange(width))
        pos = pos * ramp
        neg = neg * np.conj(ramp)
    if out is None:
        out = np.zeros((rows, points), dtype=np.complex128)
    if 2 * order + 1 <= points:
        out[:, :width] = pos
        if order >= 1:
            out[:, points - order :] = neg[:, :0:-1]
        return out
    indices = np.arange(width)
    accumulator = np.zeros((points, rows), dtype=np.complex128)
    np.add.at(accumulator, indices % points, pos.T)
    if order >= 1:
        np.add.at(accumulator, (points - indices[1:]) % points, neg[:, 1:].T)
    out[:, :] = accumulator.T
    return out


def harmonic_accumulate(
    phasor: np.ndarray,
    steering: np.ndarray,
    coefficients: Optional[np.ndarray],
    trig: Optional[np.ndarray],
    measured: Optional[np.ndarray],
    sigma: Optional[float],
    work: Optional[np.ndarray] = None,
    cwork: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Accumulate measured phasors against steering phasors into power.

    ``phasor`` is the measured-phase phasor vector ``exp(1j * m_i)``
    (length ``snapshots``); ``steering`` the complex steering-phasor
    matrix ``S[i, k] = exp(-1j * c_i(phi_k))`` produced by the harmonic
    engine's batched inverse FFT.  The Q profile (``sigma=None``) is one
    BLAS vector-matrix product; pass ``None`` for the remaining array
    arguments.  The R profile additionally needs the raw residual
    ingredients — ``coefficients`` the ``(snapshots, 2)`` harmonic
    ``(A, B)`` stack, ``trig`` the ``(2, grid)`` cos/sin rows of the
    azimuth grid and ``measured`` the relative phases ``m_i`` — from
    which the Gaussian weights are built in place (the centering
    rotation has unit modulus and factors out of the final magnitude,
    so only the weights ever see centered values).  ``work`` (float,
    ``(2, snapshots, grid)``) and ``cwork`` (complex, ``(snapshots,
    grid)``) may supply scratch to eliminate the large temporaries.
    Returns ``(power, colsum)`` where ``colsum`` holds the complex
    per-column totals of ``phasor[:, None] * S`` (the coherent Q sum,
    whose phase centers the R weights).
    """
    if sigma is not None and sigma <= 0:
        raise ValueError("sigma must be positive")
    if sigma is not None and (
        coefficients is None or trig is None or measured is None
    ):
        raise ValueError(
            "the R profile needs coefficients, trig and measured phases"
        )
    count = phasor.size
    colsum = phasor @ steering  # one BLAS zgemv
    if sigma is None:
        return np.abs(colsum) / count, colsum
    if work is None:
        work = np.empty((2,) + steering.shape)
    if cwork is None:
        cwork = np.empty(steering.shape, dtype=np.complex128)
    # Build the *centered* residuals directly in fractional turns with a
    # single rank-4 matmul: x_ik / 2pi = (m_i - A_i cos(phi_k)
    # - B_i sin(phi_k) - mu_k) / 2pi.  Folding the measured phases, the
    # circular means and the 1/2pi wrap scale into the matmul saves
    # three full passes over the (snapshots x grid) block.
    mu = np.arctan2(colsum.imag, colsum.real)
    inv = 1.0 / TWO_PI
    lhs = np.empty((count, 4))
    lhs[:, 0] = coefficients[:, 0]
    lhs[:, 1] = coefficients[:, 1]
    lhs[:, 2] = measured
    lhs[:, 3] = 1.0
    lhs *= -inv
    lhs[:, 2:] *= -1.0
    rhs = np.empty((4, trig.shape[1]))
    rhs[0] = trig[0]
    rhs[1] = trig[1]
    rhs[2] = 1.0
    rhs[3] = -mu
    x = np.matmul(lhs, rhs, out=work[1])
    # Wrap onto the rint branch and weight in place:
    # x -> exp(-0.5 ((2pi x mod' 2pi) / sigma)^2) (see module docstring).
    nearest = np.rint(x, out=work[0])
    x -= nearest
    np.square(x, out=x)
    x *= -0.5 * (TWO_PI / sigma) ** 2
    weights = np.exp(x, out=x)
    # acc_k = sum_i w_ik * phasor_i * S[i, k]: scale the weights by the
    # phasor once, then one contiguous complex einsum against S — the
    # residual-phasor matrix E = phasor[:, None] * S is never formed.
    scaled = np.multiply(weights, phasor[:, np.newaxis], out=cwork)
    acc = np.einsum("ij,ij->j", scaled, steering)
    return np.abs(acc) / count, colsum


class HarmonicEngine(SpectrumEngine):
    """FFT-evaluated spectrum engine over harmonic phase coefficients.

    Parameters
    ----------
    order_margin : extra harmonic orders on top of the adaptive
        truncation — the accuracy knob; the default already targets
        ~1e-13 tails.
    max_order : truncation orders beyond this take the dense path.
    fft_block_elements : complex elements per stacked FFT chunk.

    Steering phasors and coefficient tables are memoized for the open
    fix scope (:mod:`repro.perf.cache`).
    """

    name = "harmonic"

    #: Angular-error budget vs the dense reference peak [rad]; the bench
    #: harness reads this attribute to pick the verification budget.
    tolerance = 1e-9

    #: Dense power-sample budget vs the reference profile.
    power_budget = 1e-9

    def __init__(
        self,
        order_margin: int = 0,
        max_order: int = DEFAULT_MAX_ORDER,
        fft_block_elements: int = DEFAULT_FFT_BLOCK_ELEMENTS,
    ) -> None:
        if order_margin < 0:
            raise ValueError("order_margin must be non-negative")
        if max_order < 1:
            raise ValueError("max_order must be positive")
        if fft_block_elements < 1:
            raise ValueError("fft_block_elements must be positive")
        self.order_margin = int(order_margin)
        self.max_order = int(max_order)
        self.fft_block_elements = int(fft_block_elements)
        self._steering = ScopedCache()
        self._geometry = ScopedCache()
        self.fft_batches = 0
        self.dense_fallbacks = 0
        self._order_count = 0
        self._order_total = 0
        self._order_min: Optional[int] = None
        self._order_max: Optional[int] = None

    # ------------------------------------------------------------------
    # Cached building blocks
    # ------------------------------------------------------------------
    def _record_order(self, order: int) -> None:
        self._order_count += 1
        self._order_total += order
        self._order_min = (
            order if self._order_min is None else min(self._order_min, order)
        )
        self._order_max = (
            order if self._order_max is None else max(self._order_max, order)
        )
        get_registry().histogram(
            "tagspin_harmonic_order",
            "Adaptive Jacobi-Anger truncation orders of built "
            "coefficient tables.",
            buckets=DEFAULT_COUNT_BUCKETS,
        ).observe(order)

    def _tables(
        self, series: SnapshotSeries
    ) -> Tuple[Hashable, Optional[_HarmonicTables]]:
        """Coefficient tables of ``series`` at polar 0, cached.

        Returns ``(geometry_key, tables)``; ``tables`` is ``None`` when
        the adaptive order exceeds ``max_order`` (dense fallback).
        """
        key = series_geometry_key(series)
        cached = self._geometry.get(key)
        if cached is not None:
            return key, cached[0]
        A, B = harmonic_coefficients(series)
        order = harmonic_order(float(np.max(np.hypot(A, B))), self.order_margin)
        if order > self.max_order:
            self._geometry.put(key, (None,))
            return key, None
        tables = _HarmonicTables(A, B, order)
        self._record_order(order)
        self._geometry.put(key, (tables,))
        return key, tables

    @staticmethod
    def _grid_trig(grid: np.ndarray) -> np.ndarray:
        """The (2, M) cos/sin stack of an azimuth grid."""
        trig = np.empty((2, grid.size))
        np.cos(grid, out=trig[0])
        np.sin(grid, out=trig[1])
        return trig

    # ------------------------------------------------------------------
    # Dense (non-circular-grid) fallback: rank-2 steering, exact kernel
    # ------------------------------------------------------------------
    def _dense_azimuth_power(
        self,
        series: SnapshotSeries,
        grid: np.ndarray,
        sigma: Optional[float],
        polar_scale: float = 1.0,
    ) -> np.ndarray:
        """Reference-kernel power over an arbitrary azimuth grid.

        The steering matrix is rebuilt from the rank-2 harmonic form
        (``O(M + N)`` trigonometric evaluations instead of ``O(M * N)``),
        then fed through the reference power kernel — arithmetically the
        cosine-difference identity, so it agrees to machine precision.
        """
        self.dense_fallbacks += 1
        get_registry().counter(
            "tagspin_engine_dense_fallbacks_total",
            "Spectrum evaluations that fell back to the dense "
            "(non-FFT) path.",
            engine="harmonic",
        ).inc()
        A, B = harmonic_coefficients(series)
        if polar_scale != 1.0:
            A = A * polar_scale
            B = B * polar_scale
        measured = series.relative_phases()
        residuals = measured[np.newaxis, :] - (
            np.outer(np.cos(grid), A) + np.outer(np.sin(grid), B)
        )
        return power_from_residuals(residuals, sigma)

    # ------------------------------------------------------------------
    # FFT evaluation building blocks
    # ------------------------------------------------------------------
    def _accumulate(
        self,
        phasor: np.ndarray,
        steering: np.ndarray,
        coefficients: Optional[np.ndarray],
        trig: Optional[np.ndarray],
        measured: Optional[np.ndarray],
        sigma: Optional[float],
    ) -> Tuple[np.ndarray, np.ndarray]:
        work = cwork = None
        if sigma is not None:
            work, cwork = _work_arrays(steering.shape)
        return harmonic_accumulate(
            phasor,
            steering,
            coefficients,
            trig,
            measured,
            sigma,
            work=work,
            cwork=cwork,
        )

    # ------------------------------------------------------------------
    # SpectrumEngine interface: azimuth
    # ------------------------------------------------------------------
    def azimuth_spectrum(
        self,
        series: SnapshotSeries,
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> AngleSpectrum:
        return self.evaluate_many([series], azimuth_grid, sigma)[0]

    def azimuth_spectra(
        self,
        series_list: Sequence[SnapshotSeries],
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> List[AngleSpectrum]:
        return self.evaluate_many(series_list, azimuth_grid, sigma)

    def fused_azimuth_spectra(
        self,
        groups: Sequence[Sequence[SnapshotSeries]],
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> List[AngleSpectrum]:
        """One fused spectrum per link group, all grids in batched FFTs.

        This is the batched entry point of the pipeline's multi-disk
        scoring loop: every disk's every channel lands in the same
        stacked evaluation instead of per-series sweeps.
        """
        flat: List[SnapshotSeries] = [s for group in groups for s in group]
        spectra = self.evaluate_many(flat, azimuth_grid, sigma)
        fused: List[AngleSpectrum] = []
        cursor = 0
        for group in groups:
            chunk = spectra[cursor : cursor + len(group)]
            cursor += len(group)
            fused.append(combine_spectra(chunk))
        return fused

    def evaluate_many(
        self,
        series_list: Sequence[SnapshotSeries],
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> List[AngleSpectrum]:
        """Azimuth spectra of many series over one grid, FFTs batched.

        The batched entry point: every series whose steering phasors the
        fix has not built yet contributes its coefficient rows to
        stacked inverse-FFT chunks (bounded by ``fft_block_elements``),
        then per-series accumulation produces the profiles.  Results are
        identical to per-series evaluation; only the FFT batching
        differs.
        """
        if sigma is not None and sigma <= 0:
            raise ValueError("sigma must be positive")
        grid = np.asarray(azimuth_grid, dtype=float)
        with get_tracer().span(
            "harmonic-evaluate",
            series=len(series_list),
            grid=int(grid.size),
        ) as span:
            for series in series_list:
                _check_series(series)
            layout = _circular_layout(grid)
            if layout is None:
                span.annotate(path="dense")
                powers = [
                    self._dense_azimuth_power(series, grid, sigma)
                    for series in series_list
                ]
            else:
                start, points = layout
                if sigma is None:
                    powers = self._q_powers(series_list, grid, start, points)
                else:
                    powers = self._r_powers(
                        series_list, grid, start, points, sigma
                    )
                if self._order_count:
                    span.annotate(order_max=self._order_max)
            return [self._finish_azimuth(grid, power) for power in powers]

    @staticmethod
    def _finish_azimuth(grid: np.ndarray, power: np.ndarray) -> AngleSpectrum:
        peak_azimuth, peak_power = _refine_peak_circular(grid, power)
        power.setflags(write=False)
        return AngleSpectrum(grid, power, peak_azimuth, peak_power)

    def _q_powers(
        self,
        series_list: Sequence[SnapshotSeries],
        grid: np.ndarray,
        start: float,
        points: int,
    ) -> List[np.ndarray]:
        """Q profiles: coherent column sums, cheapest available route.

        Per series: the fix's memoized steering-phasor matrix (one BLAS
        vector-matrix product), else one summed coefficient row in a
        single stacked FFT.
        """
        gkey = grid_key(grid, 0.0)
        powers: List[Optional[np.ndarray]] = [None] * len(series_list)
        rows: List[np.ndarray] = []
        row_owners: List[int] = []
        for index, series in enumerate(series_list):
            geom_key, tables = self._tables(series)
            if tables is None:
                powers[index] = self._dense_azimuth_power(series, grid, None)
                continue
            phasor = np.exp(1j * series.relative_phases())
            steering = self._steering.get((geom_key, gkey))
            if steering is not None:
                powers[index], _ = self._accumulate(
                    phasor, steering, None, None, None, None
                )
                continue
            pos_sum = (phasor @ tables.pos)[np.newaxis, :]
            neg_sum = (phasor @ tables.neg)[np.newaxis, :]
            rows.append(_scatter_band(pos_sum, neg_sum, points, start)[0])
            row_owners.append(index)
        if rows:
            self.fft_batches += 1
            stacked = np.fft.ifft(np.asarray(rows), axis=1) * points
            for row, index in enumerate(row_owners):
                powers[index] = np.abs(stacked[row]) / len(series_list[index])
        return powers  # type: ignore[return-value]

    def _r_powers(
        self,
        series_list: Sequence[SnapshotSeries],
        grid: np.ndarray,
        start: float,
        points: int,
        sigma: float,
    ) -> List[np.ndarray]:
        """R profiles: steering phasors from the memo or chunked FFTs."""
        gkey = grid_key(grid, 0.0)
        trig = self._grid_trig(grid)
        max_rows = max(1, self.fft_block_elements // max(points, 1))
        powers: List[Optional[np.ndarray]] = [None] * len(series_list)
        chunk_meta: List[Tuple[int, _HarmonicTables, Hashable, int]] = []
        chunk_size = 0

        def finish(
            index: int, tables: _HarmonicTables, steering: np.ndarray
        ) -> None:
            measured = series_list[index].relative_phases()
            powers[index], _ = self._accumulate(
                np.exp(1j * measured),
                steering,
                tables.coefficients,
                trig,
                measured,
                sigma,
            )

        def flush() -> None:
            nonlocal chunk_meta, chunk_size
            if not chunk_meta:
                return
            buffer = np.zeros((chunk_size, points), dtype=np.complex128)
            offset = 0
            for _, tables, _, count in chunk_meta:
                _scatter_band(
                    tables.pos,
                    tables.neg,
                    points,
                    start,
                    out=buffer[offset : offset + count],
                )
                offset += count
            self.fft_batches += 1
            stacked = np.fft.ifft(buffer, axis=1)
            stacked *= points
            offset = 0
            for index, tables, steering_key, count in chunk_meta:
                steering = stacked[offset : offset + count]
                offset += count
                steering.setflags(write=False)
                self._steering.put(steering_key, steering)
                finish(index, tables, steering)
            chunk_meta = []
            chunk_size = 0

        for index, series in enumerate(series_list):
            geom_key, tables = self._tables(series)
            if tables is None:
                powers[index] = self._dense_azimuth_power(series, grid, sigma)
                continue
            steering_key = (geom_key, gkey)
            steering = self._steering.get(steering_key)
            if steering is not None:
                finish(index, tables, steering)
                continue
            chunk_meta.append((index, tables, steering_key, len(series)))
            chunk_size += len(series)
            if chunk_size >= max_rows:
                flush()
        flush()
        return powers  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # SpectrumEngine interface: joint
    # ------------------------------------------------------------------
    def _joint_power(
        self,
        series: SnapshotSeries,
        azimuths: np.ndarray,
        polars: np.ndarray,
        sigma: Optional[float],
    ) -> np.ndarray:
        """(polar x azimuth) power grid, FFT-evaluated per polar row.

        Rows share the azimuth FFT machinery with a ``cos(polar)``-scaled
        geometry; mirrored rows (``cos`` sign flips, i.e. ``A, B -> -A,
        -B``) reuse the same Bessel tables because the mirror only flips
        the sign of every odd harmonic, and unique ``|cos|`` values are
        grouped so the coefficient tables are built once each.
        Non-circular azimuth grids (refinement windows) take the rank-2
        dense path.
        """
        azimuths = np.asarray(azimuths, dtype=float)
        polars = np.asarray(polars, dtype=float)
        layout = _circular_layout(azimuths)
        scales = np.cos(polars)
        _, base = self._tables(series)
        if layout is None or base is None:
            power = np.empty((polars.size, azimuths.size))
            for row, scale in enumerate(scales):
                power[row] = self._dense_azimuth_power(
                    series, azimuths, sigma, polar_scale=float(scale)
                )
            return power
        start, points = layout
        measured = series.relative_phases()
        phasor = np.exp(1j * measured)
        trig = self._grid_trig(azimuths)
        rho_max = float(np.max(np.hypot(base.A, base.B)))
        power = np.empty((polars.size, azimuths.size))
        # Group rows by |cos(polar)| so each magnitude builds one table;
        # the sign enters via the odd-harmonic flip.
        magnitudes = np.abs(scales)
        rounded = np.round(magnitudes, 12)
        for magnitude in np.unique(rounded):
            row_indices = np.nonzero(rounded == magnitude)[0]
            scale = float(magnitudes[row_indices[0]])
            tables = _HarmonicTables(
                base.A * scale,
                base.B * scale,
                harmonic_order(rho_max * scale, self.order_margin),
            )
            alternating = np.where(
                np.arange(tables.order + 1) % 2 == 0, 1.0, -1.0
            )
            variants = {}
            for row in row_indices:
                sign = 1.0 if scales[row] >= 0.0 else -1.0
                steering = variants.get(sign)
                if steering is None:
                    if sign > 0:
                        pos, neg = tables.pos, tables.neg
                    else:
                        pos = tables.pos * alternating
                        neg = tables.neg * alternating
                    self.fft_batches += 1
                    steering = (
                        np.fft.ifft(
                            _scatter_band(pos, neg, points, start), axis=1
                        )
                        * points
                    )
                    variants[sign] = steering
                coefficients = (
                    tables.coefficients
                    if sign > 0
                    else -tables.coefficients
                )
                power[row], _ = self._accumulate(
                    phasor, steering, coefficients, trig, measured, sigma
                )
        return power

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
        spectrum = _joint_profile(
            series,
            np.asarray(azimuth_grid, dtype=float),
            np.asarray(polar_grid, dtype=float),
            sigma,
            power_fn=self._joint_power,
        )
        spectrum.power.setflags(write=False)
        return spectrum

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        orders = {
            "count": self._order_count,
            "min": self._order_min,
            "max": self._order_max,
            "mean": (
                self._order_total / self._order_count
                if self._order_count
                else None
            ),
        }
        return {
            "steering": self._steering.stats.as_dict(),
            "geometry": self._geometry.stats.as_dict(),
            "harmonic": {
                "orders": orders,
                "fft_batches": self.fft_batches,
                "dense_fallbacks": self.dense_fallbacks,
            },
        }
