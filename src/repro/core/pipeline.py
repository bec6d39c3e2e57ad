"""End-to-end Tagspin pipeline (Section II's four steps).

Consumes a stream of LLRP tag reports and the spinning-tag registry and
produces the reader-antenna position:

1. group reports into per-(tag, antenna, channel) snapshot series;
2. calibrate phase shifts — device diversity cancels via the first-snapshot
   reference; the orientation offset is removed with the fitted profile;
3. generate an angle spectrum per spinning tag (enhanced profile by default);
4. intersect the spectra to pinpoint the reader (2D or 3D).

Orientation calibration needs each sample's orientation *relative to the
reader*, which depends on the answer.  The pipeline therefore runs two
passes: a first localization without orientation correction yields a coarse
reader position; orientations are computed against it, the correction is
applied and the spectra are recomputed.  One refinement pass suffices
because the orientation only needs the reader *bearing*, which the coarse
pass already gets within a degree or two.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import (
    DEFAULT_AZIMUTH_RESOLUTION_RAD,
    DEFAULT_POLAR_RESOLUTION_RAD,
    RELATIVE_PHASE_STD_RAD,
    channel_frequencies,
    wavelength_for_frequency,
)
from repro.core.geometry import Point3
from repro.core.locator import Fix2D, Fix3D, TagspinLocator2D, TagspinLocator3D
from repro.core.spectrum import (
    AngleSpectrum,
    JointSpectrum,
    SnapshotSeries,
    combine_joint_spectra,
    default_azimuth_grid,
    default_polar_grid,
)
from repro.errors import InsufficientDataError
from repro.hardware.llrp import ReportBatch
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.perf.cache import fix_scope
from repro.perf.engine import EngineSpec, create_engine
from repro.robustness.diagnostics import DiskExclusion, PipelineDiagnostics
from repro.robustness.gating import (
    DiskQuality,
    GatingPolicy,
    score_disk,
    select_disks,
    starved_quality,
)
from repro.server.registry import SpinningTagRecord, TagRegistry


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs of the localization pipeline."""

    #: Use the paper's enhanced profile R (True) or the traditional Q (False).
    use_enhanced_profile: bool = True
    #: Apply the phase-orientation calibration (Section III-B).
    orientation_calibration: bool = True
    #: Gaussian sigma of the relative-phase weights [rad].
    sigma: float = RELATIVE_PHASE_STD_RAD
    azimuth_resolution: float = DEFAULT_AZIMUTH_RESOLUTION_RAD
    #: Coarse grid steps of the 3D (azimuth x polar) search; a local
    #: fine-refinement pass around the coarse peak recovers sub-grid
    #: accuracy, so these can stay coarse for speed.
    joint_azimuth_resolution: float = np.deg2rad(2.0)
    polar_resolution: float = DEFAULT_POLAR_RESOLUTION_RAD
    #: Minimum snapshots per (tag, antenna, channel) series.
    min_snapshots: int = 12
    #: Use host timestamps instead of reader timestamps (for the latency
    #: ablation only; degrades accuracy, as the paper warns).
    use_host_time: bool = False
    #: Height prior for the 3D ambiguity resolution [m].
    z_min: float = -np.inf
    z_max: float = np.inf
    prefer_sign: int = 1
    #: Score each disk's spectrum and exclude untrustworthy disks before
    #: triangulating (see :mod:`repro.robustness.gating`).  Off by default
    #: so the ungated paper pipeline stays bit-identical; the resilient
    #: server turns it on.
    disk_gating: bool = False
    #: Thresholds of the quality gate (used only when ``disk_gating``).
    gating: GatingPolicy = field(default_factory=GatingPolicy)


@dataclass(frozen=True)
class DiskSpectra:
    """Spectra obtained from one spinning tag (possibly several channels)."""

    record: SpinningTagRecord
    azimuth: AngleSpectrum
    joint: Optional[JointSpectrum] = None


class TagspinSystem:
    """The localization server's processing engine.

    ``engine`` selects the spectrum-evaluation strategy (see
    :mod:`repro.perf`): ``None``/``"reference"`` keeps the seed per-call
    path, ``"harmonic"`` evaluates by inverse FFTs and
    ``"adaptive-harmonic"`` searches coarse-to-fine for the peak; an
    engine instance is used as-is.  The harmonic engine is equivalent
    within 1e-9 and the adaptive one within its angular tolerance, so
    the choice only affects speed.

    Every ``locate_*`` call runs in one fix scope
    (:func:`~repro.perf.cache.fix_scope`), joining the caller's when one
    is open: the engine memoizes what the fix's passes share and drops
    it when the scope closes.
    """

    def __init__(
        self,
        registry: TagRegistry,
        config: Optional[PipelineConfig] = None,
        engine: EngineSpec = None,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else PipelineConfig()
        self.engine = create_engine(engine)
        self._frequencies = channel_frequencies()

    # ------------------------------------------------------------------
    # Series extraction
    # ------------------------------------------------------------------
    def extract_series(
        self, batch: ReportBatch, epc: str, antenna_port: int
    ) -> List[SnapshotSeries]:
        """Per-channel snapshot series of one spinning tag on one antenna.

        Splitting per channel is required for correctness: the
        first-snapshot reference only cancels the unknown distance and
        diversity terms when all snapshots share a wavelength.
        """
        record = self.registry.get(epc)
        reports = [
            r
            for r in batch.reports
            if r.epc == epc and r.antenna_port == antenna_port
        ]
        by_channel: Dict[int, List] = {}
        for report in reports:
            by_channel.setdefault(report.channel_index, []).append(report)

        series: List[SnapshotSeries] = []
        for channel_index, channel_reports in sorted(by_channel.items()):
            if len(channel_reports) < self.config.min_snapshots:
                continue
            # Sort by whichever clock the series will use — host-time mode
            # must tolerate latency jitter reordering arrivals.
            if self.config.use_host_time:
                channel_reports.sort(key=lambda r: r.host_timestamp_us)
            else:
                channel_reports.sort(key=lambda r: r.reader_timestamp_us)
            times = np.array(
                [
                    r.host_time_s if self.config.use_host_time else r.reader_time_s
                    for r in channel_reports
                ]
            )
            phases = np.array([r.phase_rad for r in channel_reports])
            series.append(
                SnapshotSeries(
                    times=times,
                    phases=phases,
                    wavelength=wavelength_for_frequency(
                        self._frequencies[channel_index]
                    ),
                    radius=record.disk.radius,
                    angular_speed=record.disk.angular_speed,
                    phase0=record.disk.phase0,
                )
            )
        if not series:
            raise InsufficientDataError(
                f"no channel of tag {epc} on antenna {antenna_port} reached "
                f"{self.config.min_snapshots} snapshots"
            )
        return series

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def _orientation_corrected(
        self,
        record: SpinningTagRecord,
        series: SnapshotSeries,
        reader_position: Point3,
    ) -> SnapshotSeries:
        """Return ``series`` with the orientation offset removed."""
        profile = record.orientation_profile
        if profile is None:
            return series
        orientations = record.disk.tag_orientations(series.times, reader_position)
        corrected = profile.apply(series.phases, orientations)
        return replace(series, phases=np.mod(corrected, 2.0 * np.pi))

    # ------------------------------------------------------------------
    # Spectrum generation
    # ------------------------------------------------------------------
    def azimuth_spectrum(
        self,
        series_list: Sequence[SnapshotSeries],
        enhanced: Optional[bool] = None,
    ) -> AngleSpectrum:
        """Fused azimuth spectrum across the per-channel series.

        ``enhanced`` overrides the configured profile choice; the gated
        pipeline uses it to fall back from R to Q without rebuilding the
        system.
        """
        use_enhanced = (
            self.config.use_enhanced_profile if enhanced is None else enhanced
        )
        grid = default_azimuth_grid(self.config.azimuth_resolution)
        sigma = self.config.sigma if use_enhanced else None
        # The engine owns channel fusion: dense engines combine per-series
        # spectra exactly as before (combine_spectra); the adaptive engine
        # refines the fused objective directly on its coarse grid.
        return self.engine.fused_azimuth_spectrum(series_list, grid, sigma=sigma)

    def _azimuth_spectra_batch(
        self,
        groups: Sequence[Sequence[SnapshotSeries]],
        enhanced: Optional[bool] = None,
    ) -> List[AngleSpectrum]:
        """One fused azimuth spectrum per disk, scheduled as one batch.

        Engines that batch across series (the harmonic engine) stack
        every disk's grid into a single evaluation so shared FFT work
        amortizes across the whole triangulating set; engines without it
        loop per disk, which is exactly what the scoring loops used to
        do inline.
        """
        use_enhanced = (
            self.config.use_enhanced_profile if enhanced is None else enhanced
        )
        grid = default_azimuth_grid(self.config.azimuth_resolution)
        sigma = self.config.sigma if use_enhanced else None
        return self.engine.fused_azimuth_spectra(groups, grid, sigma=sigma)

    def joint_spectrum(
        self,
        series_list: Sequence[SnapshotSeries],
        record: Optional[SpinningTagRecord] = None,
        enhanced: Optional[bool] = None,
    ) -> JointSpectrum:
        """Fused (azimuth x polar) spectrum across the per-channel series.

        The engine owns channel fusion: dense engines combine per-series
        spectra by mean power with a power-weighted peak mean
        (:func:`~repro.core.spectrum.combine_joint_spectra`, exactly the
        fusion this method used to do inline); the adaptive engine
        refines the fused joint objective with a single coarse-to-fine
        ladder.  Non-horizontal disks (the vertical-disk extension)
        dispatch to the generalized oriented-profile model.
        """
        use_enhanced = (
            self.config.use_enhanced_profile if enhanced is None else enhanced
        )
        azimuths = default_azimuth_grid(self.config.joint_azimuth_resolution)
        polars = default_polar_grid(self.config.polar_resolution)
        sigma = self.config.sigma if use_enhanced else None
        oriented_basis = None
        if record is not None and not record.disk.is_horizontal:
            oriented_basis = (record.disk.basis_u, record.disk.basis_v)
        if oriented_basis is not None:
            from repro.core.oriented import compute_oriented_profile

            return combine_joint_spectra(
                [
                    compute_oriented_profile(
                        series,
                        oriented_basis[0],
                        oriented_basis[1],
                        azimuths,
                        polars,
                        sigma=sigma,
                    )
                    for series in series_list
                ]
            )
        return self.engine.fused_joint_spectrum(
            series_list, azimuths, polars, sigma=sigma
        )

    # ------------------------------------------------------------------
    # Localization
    # ------------------------------------------------------------------
    def _spinning_epcs_in(self, batch: ReportBatch, antenna_port: int) -> List[str]:
        epcs = []
        for epc in batch.epcs():
            if epc in self.registry and any(
                r.epc == epc and r.antenna_port == antenna_port
                for r in batch.reports
            ):
                epcs.append(epc)
        if len(epcs) < 2:
            raise InsufficientDataError(
                f"need reports from at least two registered spinning tags on "
                f"antenna {antenna_port}, got {len(epcs)}"
            )
        return epcs

    @fix_scope()
    def locate_2d(self, batch: ReportBatch, antenna_port: int = 1) -> Fix2D:
        """Locate the reader antenna in the disk plane."""
        if self.config.disk_gating:
            fix, _diagnostics = self.locate_2d_diagnosed(batch, antenna_port)
            return fix
        epcs = self._spinning_epcs_in(batch, antenna_port)
        all_series = {
            epc: self.extract_series(batch, epc, antenna_port) for epc in epcs
        }
        return self._locate_2d_from(epcs, all_series, enhanced=None)

    # ------------------------------------------------------------------
    # Gated localization (repro.robustness)
    # ------------------------------------------------------------------
    def _score_disks(
        self,
        epcs: Sequence[str],
        all_series: Dict[str, List[SnapshotSeries]],
        spectra: Dict[str, AngleSpectrum | JointSpectrum],
    ) -> List[DiskQuality]:
        return [
            score_disk(
                self.registry.get(epc),
                all_series[epc],
                spectra[epc],
                self.config.gating,
            )
            for epc in epcs
        ]

    def _extract_series_gated(
        self,
        batch: ReportBatch,
        epcs: Sequence[str],
        antenna_port: int,
    ) -> Tuple[Dict[str, List[SnapshotSeries]], List[DiskQuality]]:
        """Extract series per disk; a disk too starved to yield any series
        becomes an exclusion record instead of aborting the whole fix."""
        all_series: Dict[str, List[SnapshotSeries]] = {}
        starved: List[DiskQuality] = []
        for epc in epcs:
            try:
                all_series[epc] = self.extract_series(batch, epc, antenna_port)
            except InsufficientDataError:
                starved.append(starved_quality(epc))
        return all_series, starved

    @fix_scope()
    def locate_2d_diagnosed(
        self, batch: ReportBatch, antenna_port: int = 1
    ) -> Tuple[Fix2D, PipelineDiagnostics]:
        """Gated 2D localization with full provenance.

        Each disk's spectrum is scored; with three or more disks the
        failing ones are excluded and the survivors re-triangulated.
        When the triangulation residual of the enhanced profile R
        explodes, the traditional profile Q is tried and the better
        (lower-residual) fix wins — under heavy multipath or a stale
        orientation profile the likelihood weights of R amplify the very
        phases that mislead it, and the unweighted Q degrades more
        gracefully (the paper's own Q-vs-R ablation shows this regime).
        """
        tracer = get_tracer()
        epcs = self._spinning_epcs_in(batch, antenna_port)
        with tracer.span("extract", port=antenna_port) as extract_span:
            all_series, starved = self._extract_series_gated(
                batch, epcs, antenna_port
            )
            extract_span.annotate(
                disks=len(all_series), starved=len(starved)
            )
        usable = [epc for epc in epcs if epc in all_series]
        if len(usable) < 2:
            raise InsufficientDataError(
                "fewer than two disks produced usable phase series"
            )
        with tracer.span("spectrum", kind="azimuth", disks=len(usable)):
            spectra = dict(
                zip(
                    usable,
                    self._azimuth_spectra_batch(
                        [all_series[epc] for epc in usable]
                    ),
                )
            )
        scored = self._score_disks(usable, all_series, spectra)
        kept, gate_excluded = select_disks(scored, self.config.gating)
        qualities = scored + starved
        excluded = gate_excluded + starved
        if excluded:
            get_registry().counter(
                "tagspin_disk_exclusions_total",
                "Disks dropped by the quality gate (or starved of "
                "series) before triangulation.",
                mode="2d",
            ).inc(len(excluded))
        if len(kept) < 2:
            raise InsufficientDataError(
                "disk quality gating left fewer than two usable disks"
            )

        fix = self._locate_2d_from(kept, all_series, enhanced=None)
        profile = "R" if self.config.use_enhanced_profile else "Q"
        fallback_applied = False
        if (
            self.config.use_enhanced_profile
            and fix.residual > self.config.gating.fallback_residual_m
        ):
            with tracer.span(
                "fallback", mode="2d", residual_m=fix.residual
            ) as fb_span:
                q_fix = self._locate_2d_from(
                    kept, all_series, enhanced=False
                )
                if q_fix.residual < fix.residual:
                    fix = q_fix
                    profile = "Q"
                    fallback_applied = True
                fb_span.annotate(applied=fallback_applied)
            if fallback_applied:
                get_registry().counter(
                    "tagspin_profile_fallbacks_total",
                    "Fixes where the R-to-Q profile fallback won "
                    "(lower residual).",
                    mode="2d",
                ).inc()

        diagnostics = PipelineDiagnostics(
            disks_used=tuple(kept),
            disks_excluded=tuple(
                DiskExclusion(q.epc, q.gate_reasons) for q in excluded
            ),
            qualities=tuple(qualities),
            profile_used=profile,
            fallback_applied=fallback_applied,
            residual_m=fix.residual,
        )
        return fix, diagnostics

    def _locate_2d_from(
        self,
        epcs: Sequence[str],
        all_series: Dict[str, List[SnapshotSeries]],
        enhanced: Optional[bool],
    ) -> Fix2D:
        """Triangulate a fixed disk subset: the one 2D schedule, shared by
        the ungated and the gated paths."""
        tracer = get_tracer()
        centers = [
            self.registry.get(epc).disk.center.horizontal() for epc in epcs
        ]
        locator = TagspinLocator2D()
        with tracer.span("spectrum", kind="azimuth", disks=len(epcs)):
            spectra = self._azimuth_spectra_batch(
                [all_series[epc] for epc in epcs], enhanced
            )
        fix = locator.locate(centers, spectra)

        if self.config.orientation_calibration and any(
            self.registry.get(epc).orientation_profile is not None
            for epc in epcs
        ):
            with tracer.span("refine", kind="orientation"):
                coarse = Point3(fix.position.x, fix.position.y, 0.0)
                corrected_groups = []
                for epc in epcs:
                    record = self.registry.get(epc)
                    corrected_groups.append(
                        [
                            self._orientation_corrected(record, s, coarse)
                            for s in all_series[epc]
                        ]
                    )
                refined = self._azimuth_spectra_batch(
                    corrected_groups, enhanced
                )
                fix = locator.locate(centers, refined)
        return fix

    @fix_scope()
    def locate_3d_diagnosed(
        self, batch: ReportBatch, antenna_port: int = 1
    ) -> Tuple[Fix3D, PipelineDiagnostics]:
        """Gated 3D localization with full provenance.

        Gating operates on the horizontal disks (the triangulating set);
        a vertical disk, when present, only re-ranks the mirror
        candidates and is never gated.
        """
        tracer = get_tracer()
        epcs = self._spinning_epcs_in(batch, antenna_port)
        horizontal = [
            epc for epc in epcs if self.registry.get(epc).disk.is_horizontal
        ]
        vertical = [epc for epc in epcs if epc not in horizontal]
        if len(horizontal) < 2:
            raise InsufficientDataError(
                "3D localization needs at least two horizontal disks"
            )
        with tracer.span("extract", port=antenna_port) as extract_span:
            all_series, starved = self._extract_series_gated(
                batch, epcs, antenna_port
            )
            extract_span.annotate(
                disks=len(all_series), starved=len(starved)
            )
        usable = [epc for epc in horizontal if epc in all_series]
        vertical = [epc for epc in vertical if epc in all_series]
        if len(usable) < 2:
            raise InsufficientDataError(
                "fewer than two horizontal disks produced usable phase series"
            )
        with tracer.span("spectrum", kind="joint", disks=len(usable)):
            spectra = {
                epc: self.joint_spectrum(
                    all_series[epc], self.registry.get(epc)
                )
                for epc in usable
            }
        scored = self._score_disks(usable, all_series, spectra)
        kept, gate_excluded = select_disks(scored, self.config.gating)
        qualities = scored + starved
        excluded = gate_excluded + starved
        if excluded:
            get_registry().counter(
                "tagspin_disk_exclusions_total",
                "Disks dropped by the quality gate (or starved of "
                "series) before triangulation.",
                mode="3d",
            ).inc(len(excluded))
        if len(kept) < 2:
            raise InsufficientDataError(
                "disk quality gating left fewer than two usable disks"
            )

        fix = self._locate_3d_from(kept, all_series, enhanced=None)
        profile = "R" if self.config.use_enhanced_profile else "Q"
        fallback_applied = False
        if (
            self.config.use_enhanced_profile
            and fix.residual > self.config.gating.fallback_residual_m
        ):
            with tracer.span(
                "fallback", mode="3d", residual_m=fix.residual
            ) as fb_span:
                q_fix = self._locate_3d_from(
                    kept, all_series, enhanced=False
                )
                if q_fix.residual < fix.residual:
                    fix = q_fix
                    profile = "Q"
                    fallback_applied = True
                fb_span.annotate(applied=fallback_applied)
            if fallback_applied:
                get_registry().counter(
                    "tagspin_profile_fallbacks_total",
                    "Fixes where the R-to-Q profile fallback won "
                    "(lower residual).",
                    mode="3d",
                ).inc()

        if vertical:
            fix = self._resolve_with_vertical(fix, vertical[0], all_series)

        diagnostics = PipelineDiagnostics(
            disks_used=tuple(kept),
            disks_excluded=tuple(
                DiskExclusion(q.epc, q.gate_reasons) for q in excluded
            ),
            qualities=tuple(qualities),
            profile_used=profile,
            fallback_applied=fallback_applied,
            residual_m=fix.residual,
        )
        return fix, diagnostics

    def _locate_3d_from(
        self,
        epcs: Sequence[str],
        all_series: Dict[str, List[SnapshotSeries]],
        enhanced: Optional[bool],
    ) -> Fix3D:
        """Fuse a fixed horizontal-disk subset: the one 3D schedule, shared
        by the ungated and the gated paths."""
        tracer = get_tracer()
        centers = [self.registry.get(epc).disk.center for epc in epcs]
        locator = TagspinLocator3D(
            z_min=self.config.z_min,
            z_max=self.config.z_max,
            prefer_sign=self.config.prefer_sign,
        )
        with tracer.span("spectrum", kind="joint", disks=len(epcs)):
            spectra = [
                self.joint_spectrum(
                    all_series[epc], self.registry.get(epc), enhanced
                )
                for epc in epcs
            ]
        fix = locator.locate(centers, spectra)

        if self.config.orientation_calibration and any(
            self.registry.get(epc).orientation_profile is not None
            for epc in epcs
        ):
            with tracer.span("refine", kind="orientation"):
                refined = []
                for epc in epcs:
                    record = self.registry.get(epc)
                    corrected = [
                        self._orientation_corrected(
                            record, s, fix.position
                        )
                        for s in all_series[epc]
                    ]
                    refined.append(
                        self.joint_spectrum(corrected, record, enhanced)
                    )
                fix = locator.locate(centers, refined)
        return fix

    @fix_scope()
    def locate_3d(self, batch: ReportBatch, antenna_port: int = 1) -> Fix3D:
        """Locate the reader antenna in 3D space.

        Horizontal disks provide the (x, y, |z|) solution with its mirror
        ambiguity; if the deployment includes a vertically spinning tag (the
        paper's future-work extension), its asymmetric aperture resolves the
        mirror candidates without a height prior.
        """
        if self.config.disk_gating:
            fix, _diagnostics = self.locate_3d_diagnosed(batch, antenna_port)
            return fix
        epcs = self._spinning_epcs_in(batch, antenna_port)
        horizontal = [
            epc for epc in epcs if self.registry.get(epc).disk.is_horizontal
        ]
        vertical = [epc for epc in epcs if epc not in horizontal]
        if len(horizontal) < 2:
            raise InsufficientDataError(
                "3D localization needs at least two horizontal disks"
            )
        all_series = {
            epc: self.extract_series(batch, epc, antenna_port) for epc in epcs
        }
        fix = self._locate_3d_from(horizontal, all_series, enhanced=None)
        if vertical:
            fix = self._resolve_with_vertical(fix, vertical[0], all_series)
        return fix

    def _resolve_with_vertical(
        self,
        fix: Fix3D,
        epc: str,
        all_series: Dict[str, List[SnapshotSeries]],
    ) -> Fix3D:
        """Re-rank the mirror candidates using a vertical disk's profile."""
        from repro.core.oriented import resolve_z_with_vertical_disk

        record = self.registry.get(epc)
        series = all_series[epc][0]
        chosen = resolve_z_with_vertical_disk(
            (fix.candidates[0], fix.candidates[1]),
            record.disk.center,
            series,
            record.disk.basis_u,
            record.disk.basis_v,
            sigma=self.config.sigma if self.config.use_enhanced_profile else None,
        )
        mirror = (
            fix.candidates[1] if chosen is fix.candidates[0] else fix.candidates[0]
        )
        return Fix3D(
            position=chosen,
            mirror=mirror,
            residual=fix.residual,
            confidence=fix.confidence,
            candidates=fix.candidates,
        )

    def disk_spectra_2d(
        self, batch: ReportBatch, antenna_port: int = 1
    ) -> List[DiskSpectra]:
        """Diagnostic view: the azimuth spectrum of every spinning tag."""
        epcs = self._spinning_epcs_in(batch, antenna_port)
        result = []
        for epc in epcs:
            record = self.registry.get(epc)
            spectrum = self.azimuth_spectrum(
                self.extract_series(batch, epc, antenna_port)
            )
            result.append(DiskSpectra(record=record, azimuth=spectrum))
        return result


#: Public alias: the class is the end-to-end localization pipeline; the
#: historical name ``TagspinSystem`` is kept for existing callers.
LocalizationPipeline = TagspinSystem
