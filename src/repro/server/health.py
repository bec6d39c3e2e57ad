"""Deployment health monitoring.

A spinning-tag installation degrades in recognizable ways: a disk motor
stalls (reads cluster at one rim angle), a registry entry goes stale after
someone nudges a disk or swaps its motor (the angle spectrum's peak
collapses, because the model no longer matches the phases), a tag detunes
or an antenna cable loosens (read rate drops).  :class:`DeploymentMonitor`
inspects a report stream against the registry and flags these conditions
per spinning tag, so the operator learns about them before localization
quietly degrades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.pipeline import PipelineConfig, TagspinSystem
from repro.errors import InsufficientDataError
from repro.hardware.llrp import ReportBatch
from repro.perf.engine import EngineSpec
from repro.server.registry import TagRegistry

#: Issue codes raised by the monitor.
ISSUE_NOT_SEEN = "not-seen"
ISSUE_LOW_READ_RATE = "low-read-rate"
ISSUE_POOR_COVERAGE = "poor-rotation-coverage"
ISSUE_WEAK_PEAK = "weak-spectrum-peak"
ISSUE_NO_SPECTRUM = "no-spectrum"
ISSUE_DEGENERATE_TIMESPAN = "degenerate-timespan"


@dataclass(frozen=True)
class HealthReport:
    """Health of one spinning tag as seen on one antenna."""

    epc: str
    read_rate_hz: float
    rotation_coverage: float
    peak_power: Optional[float]
    issues: tuple

    @property
    def healthy(self) -> bool:
        return not self.issues


class DeploymentMonitor:
    """Checks a report stream against the spinning-tag registry.

    Thresholds
    ----------
    min_read_rate_hz : reads/s below which the link is flagged
    min_coverage : fraction of rim-angle bins that must contain reads (a
        stalled disk concentrates reads in few bins)
    min_peak_power : spectrum peak power below which the registry model is
        suspected stale (peaks near 1.0 when the model matches; a wrong
        angular speed or phase reference collapses it)

    ``engine`` scores the spectrum peaks (default: the reference
    engine).  A server passes its own engine instance, so the monitor
    reuses the caches its fixes already filled instead of recomputing
    every stream's spectrum on a dense engine of its own.
    """

    def __init__(
        self,
        registry: TagRegistry,
        config: Optional[PipelineConfig] = None,
        min_read_rate_hz: float = 5.0,
        min_coverage: float = 0.6,
        min_peak_power: float = 0.35,
        coverage_bins: int = 16,
        engine: EngineSpec = None,
    ) -> None:
        self.registry = registry
        self.system = TagspinSystem(
            registry,
            config if config is not None else PipelineConfig(),
            engine=engine,
        )
        self.min_read_rate_hz = min_read_rate_hz
        self.min_coverage = min_coverage
        self.min_peak_power = min_peak_power
        self.coverage_bins = coverage_bins

    def check_tag(
        self, batch: ReportBatch, epc: str, antenna_port: int = 1
    ) -> HealthReport:
        """Health of one registered spinning tag."""
        record = self.registry.get(epc)
        reports = [
            r
            for r in batch.reports
            if r.epc == epc and r.antenna_port == antenna_port
        ]
        if not reports:
            return HealthReport(
                epc=epc,
                read_rate_hz=0.0,
                rotation_coverage=0.0,
                peak_power=None,
                issues=(ISSUE_NOT_SEEN,),
            )

        times = np.array(sorted(r.reader_time_s for r in reports))
        span = float(times[-1] - times[0])
        # A zero span (single read, or a clock stuck on one timestamp)
        # supports no rate estimate: clamp to 0 and flag, rather than
        # reporting a bare count as if it were a rate in Hz.
        degenerate_span = span <= 0
        read_rate = 0.0 if degenerate_span else len(reports) / span

        angles = np.mod(
            record.disk.phase0 + record.disk.angular_speed * times,
            2.0 * math.pi,
        )
        bins = np.floor(angles / (2.0 * math.pi) * self.coverage_bins)
        coverage = float(np.unique(bins).size) / self.coverage_bins

        peak_power: Optional[float] = None
        try:
            series = self.system.extract_series(batch, epc, antenna_port)
            peak_power = self.system.azimuth_spectrum(series).peak_power
        except InsufficientDataError:
            pass

        issues: List[str] = []
        if degenerate_span:
            issues.append(ISSUE_DEGENERATE_TIMESPAN)
        if read_rate < self.min_read_rate_hz:
            issues.append(ISSUE_LOW_READ_RATE)
        if coverage < self.min_coverage:
            issues.append(ISSUE_POOR_COVERAGE)
        if peak_power is None:
            # Reads exist but no channel could form a spectrum: the link
            # is NOT healthy — it just can't be scored.  Reporting this
            # as issue-free would hide exactly the failures (sparse,
            # fragmented series) that precede a localization outage.
            issues.append(ISSUE_NO_SPECTRUM)
        elif peak_power < self.min_peak_power:
            issues.append(ISSUE_WEAK_PEAK)
        return HealthReport(
            epc=epc,
            read_rate_hz=float(read_rate),
            rotation_coverage=coverage,
            peak_power=peak_power,
            issues=tuple(issues),
        )

    def check_all(
        self, batch: ReportBatch, antenna_port: int = 1
    ) -> Dict[str, HealthReport]:
        """Health of every registered spinning tag."""
        return {
            epc: self.check_tag(batch, epc, antenna_port)
            for epc in self.registry.epcs()
        }

    def unhealthy(
        self, batch: ReportBatch, antenna_port: int = 1
    ) -> List[HealthReport]:
        """Only the tags with issues, for alerting."""
        return [
            report
            for report in self.check_all(batch, antenna_port).values()
            if not report.healthy
        ]


def format_health_table(reports: Sequence[HealthReport]) -> str:
    """Render health reports as an operator-facing table."""
    lines = [
        f"{'epc':>26} | {'rate_hz':>7} | {'coverage':>8} | "
        f"{'peak':>5} | issues"
    ]
    lines.append("-" * len(lines[0]))
    for report in reports:
        peak = f"{report.peak_power:.2f}" if report.peak_power is not None else "-"
        issues = ", ".join(report.issues) if report.issues else "ok"
        lines.append(
            f"{report.epc:>26} | {report.read_rate_hz:>7.1f} | "
            f"{report.rotation_coverage:>8.2f} | {peak:>5} | {issues}"
        )
    return "\n".join(lines)
