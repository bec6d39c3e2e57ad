"""Spectrum-engine strategy objects.

A :class:`SpectrumEngine` turns snapshot series into angle spectra.  The
localization pipeline (:class:`repro.core.pipeline.TagspinSystem`) calls
through this interface, so the evaluation strategy — straight per-call
computation, FFT evaluation or a coarse-to-fine search — is swappable
without touching the pipeline:

* :class:`ReferenceEngine` delegates to the original
  :mod:`repro.core.spectrum` functions and is the correctness baseline.
* :class:`~repro.perf.harmonic.HarmonicEngine` evaluates full-circle
  grids by batched inverse FFTs of a Jacobi-Anger expansion and memoizes
  the steering phasors per geometry.
* :class:`~repro.perf.adaptive.AdaptiveEngine` (``"adaptive-harmonic"``,
  the serving engine) replaces dense scans with a coarse-to-fine basin
  search over a harmonic dense stage down to a configurable angular
  tolerance, falling back to that dense stage on flat spectra.

Engines memoize only for the open fix scope
(:func:`~repro.perf.cache.fix_scope`): every memo entry is keyed on one
fix's sample times, so the memo is dropped when the fix ends.

``sigma=None`` selects the traditional profile ``Q``; a positive
``sigma`` selects the enhanced profile ``R`` with that weight width.
The harmonic engine must be equivalent to the reference within ``1e-9``
(``tests/perf`` enforces this).
The adaptive engine relaxes only the *peak*: it is within its
configured angular ``tolerance`` of the dense peak, and its power
samples live on the coarse grid it actually evaluated.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.spectrum import (
    AngleSpectrum,
    JointSpectrum,
    SnapshotSeries,
    combine_joint_spectra,
    combine_spectra,
    compute_q_profile,
    compute_q_profile_3d,
    compute_r_profile,
    compute_r_profile_3d,
)


class SpectrumEngine:
    """Base strategy: per-series spectrum evaluation.

    Subclasses must implement the two single-series methods; the batch
    methods default to a serial loop and exist so batching engines can
    schedule the whole workload at once.
    """

    name = "abstract"

    def azimuth_spectrum(
        self,
        series: SnapshotSeries,
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> AngleSpectrum:
        raise NotImplementedError

    def joint_spectrum(
        self,
        series: SnapshotSeries,
        azimuth_grid: np.ndarray,
        polar_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> JointSpectrum:
        raise NotImplementedError

    def azimuth_spectra(
        self,
        series_list: Sequence[SnapshotSeries],
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> List[AngleSpectrum]:
        return [
            self.azimuth_spectrum(series, azimuth_grid, sigma)
            for series in series_list
        ]

    def joint_spectra(
        self,
        series_list: Sequence[SnapshotSeries],
        azimuth_grid: np.ndarray,
        polar_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> List[JointSpectrum]:
        return [
            self.joint_spectrum(series, azimuth_grid, polar_grid, sigma)
            for series in series_list
        ]

    def fused_azimuth_spectrum(
        self,
        series_list: Sequence[SnapshotSeries],
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> AngleSpectrum:
        """Channel-fused azimuth spectrum of one physical link.

        The default combines per-series spectra by power averaging
        (:func:`~repro.core.spectrum.combine_spectra`), exactly what the
        pipeline used to do inline.  Engines that search rather than
        scan (the adaptive engine) override this so the *fused*
        objective is refined directly — averaging independently refined
        peaks would not track the dense fused peak.
        """
        return combine_spectra(
            self.azimuth_spectra(series_list, azimuth_grid, sigma)
        )

    def fused_azimuth_spectra(
        self,
        groups: Sequence[Sequence[SnapshotSeries]],
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> List[AngleSpectrum]:
        """One channel-fused azimuth spectrum per link group.

        This is the pipeline's multi-disk scoring shape: every disk
        contributes one group of per-channel series and wants one fused
        spectrum back.  The default fuses each group independently;
        engines that batch across series (the harmonic engine) override
        this so all groups' grids land in one stacked evaluation.
        """
        return [
            self.fused_azimuth_spectrum(group, azimuth_grid, sigma)
            for group in groups
        ]

    def fused_joint_spectrum(
        self,
        series_list: Sequence[SnapshotSeries],
        azimuth_grid: np.ndarray,
        polar_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> JointSpectrum:
        """Channel-fused (azimuth x polar) spectrum of one physical link.

        The default evaluates per-series joint spectra and fuses them
        with :func:`~repro.core.spectrum.combine_joint_spectra` (mean
        power surface, power-weighted peak mean) — exactly what the
        pipeline used to do inline.  The adaptive engine overrides this
        to refine the *fused* joint objective with a single coarse-to-
        fine ladder instead of one ladder per channel.
        """
        return combine_joint_spectra(
            self.joint_spectra(series_list, azimuth_grid, polar_grid, sigma)
        )

    def cache_stats(self) -> dict:
        """Cumulative per-memo counters; empty for memo-less engines."""
        return {}

    def close(self) -> None:
        """Release pooled resources, if any."""

    def __enter__(self) -> "SpectrumEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ReferenceEngine(SpectrumEngine):
    """The unmodified per-call evaluation path of ``repro.core.spectrum``.

    Every call rebuilds the steering geometry from scratch and walks the
    joint grid in small fixed chunks — exactly the seed behavior.  This is
    the baseline the other engines are benchmarked and verified against.
    """

    name = "reference"

    def azimuth_spectrum(
        self,
        series: SnapshotSeries,
        azimuth_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> AngleSpectrum:
        if sigma is None:
            return compute_q_profile(series, azimuth_grid)
        return compute_r_profile(series, azimuth_grid, sigma=sigma)

    def joint_spectrum(
        self,
        series: SnapshotSeries,
        azimuth_grid: np.ndarray,
        polar_grid: np.ndarray,
        sigma: Optional[float] = None,
    ) -> JointSpectrum:
        if sigma is None:
            return compute_q_profile_3d(series, azimuth_grid, polar_grid)
        return compute_r_profile_3d(
            series, azimuth_grid, polar_grid, sigma=sigma
        )


#: Engines accepted anywhere an ``engine=`` parameter appears: an
#: instance, a registered name, or ``None`` for the default.
EngineSpec = Union[SpectrumEngine, str, None]


def create_engine(
    spec: EngineSpec = None, *, tolerance: Optional[float] = None
) -> SpectrumEngine:
    """Resolve an ``engine=`` argument into a :class:`SpectrumEngine`.

    ``None`` and ``"reference"`` give the reference engine,
    ``"harmonic"`` the Jacobi-Anger/FFT engine and
    ``"adaptive-harmonic"`` the coarse-to-fine solver over a harmonic
    dense stage.  Instances pass through unchanged.

    ``tolerance`` sets the adaptive engine's angular tolerance [rad]; it
    is only meaningful with ``spec="adaptive-harmonic"`` and rejected
    elsewhere so a silently ignored accuracy knob can't masquerade as
    honored.
    """
    if isinstance(spec, str):
        normalized: Optional[str] = spec.strip().lower()
    else:
        normalized = None
    if tolerance is not None and normalized != "adaptive-harmonic":
        raise ValueError(
            "tolerance is only supported by the 'adaptive-harmonic' engine"
        )
    if spec is None:
        return ReferenceEngine()
    if isinstance(spec, SpectrumEngine):
        return spec
    from repro.perf.adaptive import AdaptiveEngine
    from repro.perf.harmonic import HarmonicEngine

    if normalized == "reference":
        return ReferenceEngine()
    if normalized == "harmonic":
        return HarmonicEngine()
    if normalized == "adaptive-harmonic":
        return AdaptiveEngine() if tolerance is None else AdaptiveEngine(tolerance)
    raise ValueError(
        f"unknown spectrum engine {spec!r}; expected 'reference', "
        f"'harmonic' or 'adaptive-harmonic'"
    )


def merge_cache_stats(stats_dicts: Sequence[dict]) -> dict:
    """Fold per-process ``cache_stats()`` dicts into fleet-wide totals.

    The sharded fleet's worker processes each hold their own memo
    counters; benchmarks that read only the parent's engine report
    zeros.  This merges any number of snapshots:

    * numeric counters sum;
    * ``min``/``max`` keys take the elementwise min/max;
    * ``mean`` keys recompute as a weighted mean over a sibling
      ``count`` key (falling back to an unweighted mean without one);
    * nested dicts merge recursively; ``None`` leaves are skipped.
    """
    stats_dicts = [d for d in stats_dicts if d]
    if not stats_dicts:
        return {}
    merged: dict = {}
    keys: List[str] = []
    for d in stats_dicts:
        for key in d:
            if key not in keys:
                keys.append(key)
    for key in keys:
        values = [d[key] for d in stats_dicts if key in d]
        live = [v for v in values if v is not None]
        if not live:
            merged[key] = None
        elif all(isinstance(v, dict) for v in live):
            merged[key] = merge_cache_stats(live)
        elif key == "min":
            merged[key] = min(live)
        elif key == "max":
            merged[key] = max(live)
        elif key == "mean":
            pairs = [
                (d["mean"], d.get("count", 1))
                for d in stats_dicts
                if d.get("mean") is not None
            ]
            weight = sum(count for _m, count in pairs)
            merged[key] = (
                sum(m * count for m, count in pairs) / weight
                if weight
                else None
            )
        elif all(isinstance(v, bool) for v in live):
            merged[key] = any(live)
        elif all(isinstance(v, (int, float)) for v in live):
            merged[key] = sum(live)
        else:
            merged[key] = live[0]
    return merged
