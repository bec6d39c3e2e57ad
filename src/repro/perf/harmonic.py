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
product.  ``S`` is measured-phase-independent, so it is LRU-cached per
(series geometry, grid) — the harmonic analogue of the batched engine's
steering cache — and a re-fix against new phases over the same geometry
(the pipeline's orientation-corrected second pass) costs no FFT at all:

* **Q profile** — ``|phasor @ S| / N`` with ``phasor = exp(1j m)``: a
  single BLAS vector-matrix product on a cache hit, a single-row FFT of
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

Cross-fix batching: :meth:`HarmonicEngine.evaluate_many` stacks every
series whose steering phasors are not yet cached into shared inverse-FFT
chunks (bounded by ``fft_block_elements``; one giant pass thrashes
caches), and :meth:`fused_azimuth_spectra` exposes that to the
pipeline's multi-disk scoring loop.  The adaptive engine composes too:
its coarse grids are strided views of full-circle grids, which stay
uniform-circular, and the coefficient fold keeps aliased small grids
exact — pass ``dense=HarmonicEngine()`` (or use
``create_engine("adaptive-harmonic")``).
"""

from __future__ import annotations

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
from repro.perf.cache import LRUCache, quantize_array, quantize_scalar
from repro.perf.engine import SpectrumEngine
from repro.perf.steering import grid_key, series_geometry_key

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

#: Default budget of cached steering-phasor matrices, in *real* elements
#: (a complex entry counts twice).  The bench's medium scenario needs
#: ~11M to keep all 64 links resident.
DEFAULT_STEERING_BUDGET = 16_000_000

#: Default budget of cached per-geometry coefficient tables [elements].
DEFAULT_GEOMETRY_BUDGET = 8_000_000

#: Default budget of cached finished spectra [elements].
DEFAULT_SPECTRUM_BUDGET = 8_000_000

#: Default budget of cached complex column sums (free Q-after-R) [elements].
DEFAULT_ROWSUM_BUDGET = 2_000_000

#: Default budget of cached per-grid cos/sin tables [elements].
DEFAULT_GRID_BUDGET = 1_000_000

#: Azimuth grids smaller than this use the dense path outright: the FFT
#: machinery only pays for itself on dense grids.
MIN_FFT_GRID_POINTS = 32


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

    __slots__ = ("A", "B", "coefficients", "order", "pos", "neg", "cost")

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
        self.cost = 4 * self.pos.size + 4 * A.size


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
    per-column totals of ``phasor[:, None] * S`` (reused by the engine
    as a free Q profile over the same series and grid).
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
    steering_budget, geometry_budget, spectrum_budget, rowsum_budget,
        grid_budget : element budgets of the steering-phasor /
        coefficient / finished-spectrum / column-sum / grid-trig caches.
    fft_block_elements : complex elements per stacked FFT chunk.
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
        steering_budget: int = DEFAULT_STEERING_BUDGET,
        geometry_budget: int = DEFAULT_GEOMETRY_BUDGET,
        spectrum_budget: int = DEFAULT_SPECTRUM_BUDGET,
        rowsum_budget: int = DEFAULT_ROWSUM_BUDGET,
        grid_budget: int = DEFAULT_GRID_BUDGET,
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
        self._key_memo: dict = {}
        self._scratch: dict = {}
        self._steering = LRUCache(steering_budget)
        self._geometry = LRUCache(geometry_budget)
        self._spectra = LRUCache(spectrum_budget)
        self._rowsums = LRUCache(rowsum_budget)
        self._grids = LRUCache(grid_budget)
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

    def _series_keys(
        self, series: SnapshotSeries
    ) -> Tuple[Hashable, Hashable]:
        """(geometry_key, measured_key) memoized by object identity.

        Key quantization walks every float of the series; the pipeline
        and bench reuse the same series objects across passes, so an
        identity memo (holding a strong reference, which pins the id)
        amortizes it to once per object.
        """
        entry = self._key_memo.get(id(series))
        if entry is not None and entry[0] is series:
            return entry[1], entry[2]
        geometry = series_geometry_key(series)
        measured = quantize_array(series.phases)
        if len(self._key_memo) >= 8192:
            self._key_memo.clear()
        self._key_memo[id(series)] = (series, geometry, measured)
        return geometry, measured

    def _scratch_buffer(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Reusable work array (allocation churn shows up at this scale)."""
        key = (name, shape, np.dtype(dtype).str)
        buffer = self._scratch.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            if len(self._scratch) >= 16:
                self._scratch.clear()
            self._scratch[key] = buffer
        return buffer

    def _tables(
        self, series: SnapshotSeries
    ) -> Tuple[Hashable, Optional[_HarmonicTables]]:
        """Coefficient tables of ``series`` at polar 0, cached.

        Returns ``(geometry_key, tables)``; ``tables`` is ``None`` when
        the adaptive order exceeds ``max_order`` (dense fallback).
        """
        key = self._series_keys(series)[0]
        cached = self._geometry.get(key)
        if cached is not None:
            return key, cached[0]
        A, B = harmonic_coefficients(series)
        order = harmonic_order(float(np.max(np.hypot(A, B))), self.order_margin)
        if order > self.max_order:
            self._geometry.put(key, (None,), cost=1)
            return key, None
        tables = _HarmonicTables(A, B, order)
        self._record_order(order)
        self._geometry.put(key, (tables,), cost=tables.cost)
        return key, tables

    def _grid_trig(self, grid: np.ndarray) -> Tuple[Hashable, np.ndarray]:
        """``(grid_key, trig)`` with ``trig`` the (2, M) cos/sin stack."""
        key = grid_key(grid, 0.0)
        cached = self._grids.get(key)
        if cached is not None:
            return key, cached
        trig = np.empty((2, grid.size))
        np.cos(grid, out=trig[0])
        np.sin(grid, out=trig[1])
        trig.setflags(write=False)
        self._grids.put(key, trig, cost=trig.size)
        return key, trig

    @staticmethod
    def _sigma_key(sigma: Optional[float]) -> Hashable:
        return None if sigma is None else quantize_scalar(sigma)

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
            work = self._scratch_buffer(
                "work", (2,) + steering.shape, np.float64
            )
            cwork = self._scratch_buffer(
                "cwork", steering.shape, np.complex128
            )
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

        This is the cross-fix entry point of the pipeline's multi-disk
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

        The cross-fix batched entry point: every series whose steering
        phasors are not yet cached contributes its coefficient rows to
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
            sigma_key = self._sigma_key(sigma)
            results: List[Optional[AngleSpectrum]] = [None] * len(
                series_list
            )
            pending: List[int] = []
            keys: List[Optional[Tuple[Hashable, ...]]] = [None] * len(
                series_list
            )
            gkey = grid_key(grid, 0.0)
            for index, series in enumerate(series_list):
                _check_series(series)
                geom_key, measured_key = self._series_keys(series)
                spectrum_key = (
                    "azimuth",
                    geom_key,
                    gkey,
                    measured_key,
                    sigma_key,
                )
                keys[index] = spectrum_key
                cached = self._spectra.get(spectrum_key)
                if cached is not None:
                    results[index] = cached
                else:
                    pending.append(index)
            span.annotate(
                spectrum_hits=len(series_list) - len(pending),
                spectrum_misses=len(pending),
            )
            if not pending:
                return results  # type: ignore[return-value]

            layout = _circular_layout(grid)
            if layout is None:
                span.annotate(path="dense")
                for index in pending:
                    series = series_list[index]
                    power = self._dense_azimuth_power(series, grid, sigma)
                    results[index] = self._finish_azimuth(
                        keys[index], grid, power
                    )
                return results  # type: ignore[return-value]

            start, points = layout
            if sigma is None:
                self._evaluate_q_batch(
                    series_list, pending, results, keys, grid, start, points
                )
            else:
                self._evaluate_r_batch(
                    series_list,
                    pending,
                    results,
                    keys,
                    grid,
                    start,
                    points,
                    sigma,
                )
            if self._order_count:
                span.annotate(order_max=self._order_max)
            return results  # type: ignore[return-value]

    def _finish_azimuth(
        self,
        spectrum_key: Hashable,
        grid: np.ndarray,
        power: np.ndarray,
    ) -> AngleSpectrum:
        peak_azimuth, peak_power = _refine_peak_circular(grid, power)
        power.setflags(write=False)
        spectrum = AngleSpectrum(grid, power, peak_azimuth, peak_power)
        self._spectra.put(spectrum_key, spectrum, cost=power.size)
        return spectrum

    def _rowsum_key(self, series: SnapshotSeries, gkey: Hashable) -> Hashable:
        geom_key, measured_key = self._series_keys(series)
        return (geom_key, gkey, measured_key)

    def _evaluate_q_batch(
        self,
        series_list: Sequence[SnapshotSeries],
        pending: List[int],
        results: List[Optional[AngleSpectrum]],
        keys: List[Optional[Tuple[Hashable, ...]]],
        grid: np.ndarray,
        start: float,
        points: int,
    ) -> None:
        """Q profiles: coherent column sums, cheapest available route.

        Preference order per series: a cached column sum from a prior R
        evaluation of the same phases (free), a cached steering-phasor
        matrix (one BLAS vector-matrix product), else one summed
        coefficient row in a single stacked FFT.
        """
        gkey = grid_key(grid, 0.0)
        rows: List[np.ndarray] = []
        row_owners: List[int] = []
        for index in pending:
            series = series_list[index]
            rowsum = self._rowsums.get(self._rowsum_key(series, gkey))
            if rowsum is not None:
                power = np.abs(rowsum) / len(series)
                results[index] = self._finish_azimuth(
                    keys[index], grid, power
                )
                continue
            geom_key, tables = self._tables(series)
            if tables is None:
                power = self._dense_azimuth_power(series, grid, None)
                results[index] = self._finish_azimuth(
                    keys[index], grid, power
                )
                continue
            phasor = np.exp(1j * series.relative_phases())
            steering = self._steering.get((geom_key, gkey))
            if steering is not None:
                power, _ = self._accumulate(
                    phasor, steering, None, None, None, None
                )
                results[index] = self._finish_azimuth(
                    keys[index], grid, power
                )
                continue
            pos_sum = (phasor @ tables.pos)[np.newaxis, :]
            neg_sum = (phasor @ tables.neg)[np.newaxis, :]
            rows.append(_scatter_band(pos_sum, neg_sum, points, start)[0])
            row_owners.append(index)
        if not rows:
            return
        self.fft_batches += 1
        stacked = np.fft.ifft(np.asarray(rows), axis=1) * points
        for row, index in enumerate(row_owners):
            series = series_list[index]
            power = np.abs(stacked[row]) / len(series)
            results[index] = self._finish_azimuth(keys[index], grid, power)

    def _evaluate_r_batch(
        self,
        series_list: Sequence[SnapshotSeries],
        pending: List[int],
        results: List[Optional[AngleSpectrum]],
        keys: List[Optional[Tuple[Hashable, ...]]],
        grid: np.ndarray,
        start: float,
        points: int,
        sigma: float,
    ) -> None:
        """R profiles: steering phasors from cache or chunked FFTs."""
        gkey, trig = self._grid_trig(grid)
        max_rows = max(1, self.fft_block_elements // max(points, 1))
        chunk_meta: List[Tuple[int, _HarmonicTables, Hashable, int]] = []
        chunk_size = 0

        def finish(
            index: int, tables: _HarmonicTables, steering: np.ndarray
        ) -> None:
            series = series_list[index]
            measured = series.relative_phases()
            power, colsum = self._accumulate(
                np.exp(1j * measured),
                steering,
                tables.coefficients,
                trig,
                measured,
                sigma,
            )
            self._rowsums.put(
                self._rowsum_key(series, gkey), colsum, cost=2 * colsum.size
            )
            results[index] = self._finish_azimuth(keys[index], grid, power)

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
                self._steering.put(
                    steering_key, steering, cost=2 * steering.size
                )
                finish(index, tables, steering)
            chunk_meta = []
            chunk_size = 0

        for index in pending:
            series = series_list[index]
            geom_key, tables = self._tables(series)
            if tables is None:
                power = self._dense_azimuth_power(series, grid, sigma)
                results[index] = self._finish_azimuth(
                    keys[index], grid, power
                )
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
        _, trig = self._grid_trig(azimuths)
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
        azimuths = np.asarray(azimuth_grid, dtype=float)
        polars = np.asarray(polar_grid, dtype=float)
        geom_key, measured_key = self._series_keys(series)
        spectrum_key = (
            "joint",
            geom_key,
            grid_key(azimuths, polars),
            measured_key,
            self._sigma_key(sigma),
        )
        cached = self._spectra.get(spectrum_key)
        if cached is not None:
            return cached
        spectrum = _joint_profile(
            series, azimuths, polars, sigma, power_fn=self._joint_power
        )
        spectrum.power.setflags(write=False)
        self._spectra.put(spectrum_key, spectrum, cost=spectrum.power.size)
        return spectrum

    # ------------------------------------------------------------------
    # Introspection / lifecycle
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
            "spectra": self._spectra.stats.as_dict(),
            "rowsums": self._rowsums.stats.as_dict(),
            "grids": self._grids.stats.as_dict(),
            "harmonic": {
                "orders": orders,
                "fft_batches": self.fft_batches,
                "dense_fallbacks": self.dense_fallbacks,
            },
        }

    def clear_caches(self) -> None:
        self._key_memo.clear()
        self._scratch.clear()
        self._steering.clear()
        self._geometry.clear()
        self._spectra.clear()
        self._rowsums.clear()
        self._grids.clear()
