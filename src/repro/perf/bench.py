"""Engine-scaling benchmark harness (shared by CLI and ``benchmarks/``).

Builds a synthetic multi-disk deployment — ``disks x antennas x
channels`` independent snapshot series — and times each spectrum engine
over the *fix workload* the real pipeline executes per localization:

1. disk-quality scoring pass (enhanced profile R per series),
2. triangulation pass (identical spectra — the diagnosed pipeline
   recomputes them),
3. orientation-corrected refinement pass (same geometry, new phases),
4. R-to-Q fallback pass over the corrected series.

Each of the ``rounds`` fixes runs in its own fix scope
(:func:`~repro.perf.cache.fix_scope`), as a served fix does: an engine's
memo serves the passes inside one fix and is dropped after it, so every
round starts cold.  Every run first verifies the candidate engine
against the reference on sample series, so
a speedup can never come from wrong spectra: dense engines must match
within ``1e-9`` in both power and peak, while the adaptive engine is
held to its configured angular ``tolerance`` on the peak (its power
samples live on the coarse grid it actually evaluated, so dense power
arrays are only compared when shapes match).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.constants import channel_frequencies, wavelength_for_frequency
from repro.core.phase import theoretical_phase, wrap_phase_signed
from repro.core.spectrum import SnapshotSeries, default_azimuth_grid
from repro.perf.cache import fix_scope
from repro.perf.engine import ReferenceEngine, SpectrumEngine, create_engine

#: Gaussian weight width used by the benchmark's enhanced profile.
BENCH_SIGMA = 0.14

#: Equivalence budget of dense engines [rad and power units].
DENSE_ERROR_BUDGET = 1e-9


@dataclass(frozen=True)
class ScenarioSpec:
    """Size of one synthetic deployment."""

    name: str
    disks: int
    antennas: int
    channels: int
    snapshots: int = 120
    azimuth_resolution_deg: float = 0.5

    @property
    def series_count(self) -> int:
        return self.disks * self.antennas * self.channels


#: Named scales; ``medium`` is the acceptance scenario
#: (4 disks x 2 antennas x 8 channels = 64 series).
SCALES: Dict[str, ScenarioSpec] = {
    "small": ScenarioSpec("small", disks=2, antennas=1, channels=2),
    "medium": ScenarioSpec("medium", disks=4, antennas=2, channels=8),
    "large": ScenarioSpec("large", disks=6, antennas=2, channels=16),
}


@dataclass
class EngineTiming:
    """Measured wall time of one engine over the scenario workload.

    ``max_error`` is the largest |power difference| vs the reference on
    comparable (same-grid) spectra — NaN when the engine only produced
    coarse grids; ``max_angular_error`` the largest wrapped peak-azimuth
    deviation [rad]; ``error_budget`` the angular budget the engine was
    verified against (1e-9 for dense engines, the configured tolerance
    for the adaptive engine).
    """

    engine: str
    total_s: float
    per_fix_s: float
    speedup: float
    max_error: float
    max_angular_error: float = 0.0
    error_budget: float = DENSE_ERROR_BUDGET
    cache_stats: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        record = dataclasses.asdict(self)
        if np.isnan(self.max_error):
            # JSON has no NaN; "no comparable dense power" is null.
            record["max_error"] = None
        return record


@dataclass
class ScenarioResult:
    """All engine timings of one scenario."""

    spec: ScenarioSpec
    rounds: int
    timings: List[EngineTiming]

    def timing(self, engine: str) -> Optional[EngineTiming]:
        for timing in self.timings:
            if timing.engine == engine:
                return timing
        return None

    def as_dict(self) -> dict:
        return {
            "scenario": dataclasses.asdict(self.spec),
            "rounds": self.rounds,
            "timings": [t.as_dict() for t in self.timings],
        }


def build_series(spec: ScenarioSpec, seed: int = 2016) -> List[SnapshotSeries]:
    """Synthetic snapshot series of every (disk, antenna, channel) link.

    Sample times are non-uniform (frequency hopping interleaves channel
    dwell windows), phases follow the far-field model with Gaussian
    measurement noise, and each disk spins at a slightly different speed
    with its own registry starting angle — so no two series share
    geometry and every steering matrix is genuinely distinct.
    """
    rng = np.random.default_rng(seed)
    frequencies = channel_frequencies()
    series: List[SnapshotSeries] = []
    for disk in range(spec.disks):
        radius = 0.10
        angular_speed = 1.0 + 0.07 * disk
        phase0 = 0.4 * disk
        for antenna in range(spec.antennas):
            azimuth = rng.uniform(0.0, 2.0 * np.pi)
            center_distance = rng.uniform(1.5, 3.0)
            for channel in range(spec.channels):
                wavelength = wavelength_for_frequency(
                    frequencies[channel % frequencies.size]
                )
                span = 2.0 * (2.0 * np.pi / angular_speed)
                times = np.sort(rng.uniform(0.0, span, spec.snapshots))
                phases = theoretical_phase(
                    times,
                    wavelength,
                    center_distance,
                    radius,
                    angular_speed,
                    azimuth,
                    diversity=rng.uniform(0.0, 2.0 * np.pi),
                    phase0=phase0,
                )
                phases = np.mod(
                    phases + 0.1 * rng.standard_normal(spec.snapshots),
                    2.0 * np.pi,
                )
                series.append(
                    SnapshotSeries(
                        times=times,
                        phases=phases,
                        wavelength=wavelength,
                        radius=radius,
                        angular_speed=angular_speed,
                        phase0=phase0,
                    )
                )
    return series


def _orientation_corrected(series: SnapshotSeries) -> SnapshotSeries:
    """The refinement pass's input: same geometry, adjusted phases."""
    correction = 0.05 * np.cos(
        series.angular_speed * series.times + 0.7
    )
    return dataclasses.replace(
        series, phases=np.mod(series.phases + correction, 2.0 * np.pi)
    )


def run_fix(
    engine: SpectrumEngine,
    series_list: Sequence[SnapshotSeries],
    corrected_list: Sequence[SnapshotSeries],
    grid: np.ndarray,
    sigma: float = BENCH_SIGMA,
) -> None:
    """One localization fix's worth of spectrum evaluations, in one scope."""
    with fix_scope():
        engine.azimuth_spectra(series_list, grid, sigma=sigma)  # scoring
        engine.azimuth_spectra(series_list, grid, sigma=sigma)  # triangulation
        engine.azimuth_spectra(corrected_list, grid, sigma=sigma)  # refinement
        engine.azimuth_spectra(corrected_list, grid, sigma=None)  # R->Q fallback


def _angular_difference(a: float, b: float) -> float:
    """Wrapped |a - b| on the circle [rad]."""
    return abs(float(wrap_phase_signed(a - b)))


def _equivalence_errors(
    engine: SpectrumEngine,
    reference: SpectrumEngine,
    series_list: Sequence[SnapshotSeries],
    grid: np.ndarray,
    sigma: float,
) -> "tuple[float, float]":
    """(max |power error|, max angular peak error) vs the reference.

    Power arrays are only comparable when the engine evaluated the same
    grid; engines returning coarse grids (adaptive) report NaN there and
    are judged on the angular error alone.
    """
    worst_power = 0.0
    comparable = False
    worst_angle = 0.0
    for series in (series_list[0], series_list[-1]):
        for s in (sigma, None):
            expected = reference.azimuth_spectrum(series, grid, s)
            actual = engine.azimuth_spectrum(series, grid, s)
            if expected.power.shape == actual.power.shape:
                comparable = True
                worst_power = max(
                    worst_power,
                    float(np.max(np.abs(expected.power - actual.power))),
                )
            worst_angle = max(
                worst_angle,
                _angular_difference(expected.peak_azimuth, actual.peak_azimuth),
            )
    return (worst_power if comparable else float("nan")), worst_angle


def _engine_for(name: str, tolerance: Optional[float]) -> SpectrumEngine:
    if name == "adaptive-harmonic":
        return create_engine(name, tolerance=tolerance)
    return create_engine(name)


def run_scenario(
    spec: ScenarioSpec,
    engines: Sequence[str] = ("reference", "harmonic", "adaptive-harmonic"),
    rounds: int = 3,
    seed: int = 2016,
    sigma: float = BENCH_SIGMA,
    tolerance: Optional[float] = None,
) -> ScenarioResult:
    """Time every engine over ``rounds`` fixes of one scenario.

    ``tolerance`` configures the adaptive engine's angular tolerance,
    which is also its verification budget; dense engines are held to
    ``DENSE_ERROR_BUDGET`` — or to their own declared ``power_budget``
    when they carry one (the harmonic engine declares 1e-9 but is not
    bit-identical: its FFT-realized steering phasors round differently
    than the reference's direct cosines).
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    series_list = build_series(spec, seed)
    corrected_list = [_orientation_corrected(s) for s in series_list]
    grid = default_azimuth_grid(np.deg2rad(spec.azimuth_resolution_deg))
    verifier = ReferenceEngine()

    timings: List[EngineTiming] = []
    reference_total: Optional[float] = None
    for name in engines:
        # Verify on a throwaway instance so the timed engine starts with
        # fresh counters — a speedup must never come from wrong spectra.
        check_engine = _engine_for(name, tolerance)
        angular_budget = float(
            getattr(check_engine, "tolerance", DENSE_ERROR_BUDGET)
        )
        power_budget = float(
            getattr(check_engine, "power_budget", DENSE_ERROR_BUDGET)
        )
        try:
            if isinstance(check_engine, ReferenceEngine):
                max_error, max_angular = 0.0, 0.0
            else:
                max_error, max_angular = _equivalence_errors(
                    check_engine, verifier, series_list, grid, sigma
                )
        finally:
            check_engine.close()
        if not np.isnan(max_error) and max_error > power_budget:
            raise AssertionError(
                f"engine {name!r} power deviates from the reference by "
                f"{max_error:.3e} (> {power_budget:.0e}); refusing "
                f"to benchmark wrong spectra"
            )
        if max_angular > angular_budget:
            raise AssertionError(
                f"engine {name!r} peak deviates from the reference by "
                f"{max_angular:.3e} rad (> {angular_budget:.0e}); "
                f"refusing to benchmark wrong spectra"
            )
        engine = _engine_for(name, tolerance)
        try:
            start = time.perf_counter()
            for _ in range(rounds):
                run_fix(engine, series_list, corrected_list, grid, sigma)
            total = time.perf_counter() - start
            timings.append(
                EngineTiming(
                    engine=name,
                    total_s=total,
                    per_fix_s=total / rounds,
                    speedup=(
                        1.0
                        if reference_total is None
                        else reference_total / total
                    ),
                    max_error=max_error,
                    max_angular_error=max_angular,
                    error_budget=angular_budget,
                    cache_stats=engine.cache_stats(),
                )
            )
            if name == "reference":
                reference_total = total
        finally:
            engine.close()
    return ScenarioResult(spec=spec, rounds=rounds, timings=timings)


def run_engine_scaling(
    scales: Sequence[str] = ("small", "medium", "large"),
    engines: Sequence[str] = ("reference", "harmonic", "adaptive-harmonic"),
    rounds: int = 3,
    seed: int = 2016,
    snapshots: Optional[int] = None,
    azimuth_resolution_deg: Optional[float] = None,
    tolerance: Optional[float] = None,
) -> List[ScenarioResult]:
    """Run the scaling sweep; ``snapshots``/resolution override all scales."""
    results = []
    for scale in scales:
        spec = SCALES[scale]
        overrides = {}
        if snapshots is not None:
            overrides["snapshots"] = snapshots
        if azimuth_resolution_deg is not None:
            overrides["azimuth_resolution_deg"] = azimuth_resolution_deg
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
        results.append(
            run_scenario(spec, engines, rounds, seed, tolerance=tolerance)
        )
    return results


# ----------------------------------------------------------------------
# Telemetry-overhead microbenchmark
# ----------------------------------------------------------------------
@dataclass
class TelemetryOverhead:
    """Instrumented-vs-disabled timing of the fix workload.

    Both arms run the identical workload on fresh engines; the only
    difference is the :func:`repro.obs.metrics.set_telemetry_enabled`
    switch.  Arms are interleaved within one process and each reports
    its best-of-``repeats`` total, so thermal/allocator drift cancels
    instead of landing on one side.  ``overhead_fraction`` can be
    slightly negative on a noisy host — the CI gate is one-sided.
    """

    scenario: str
    engine: str
    rounds: int
    repeats: int
    enabled_s: float
    disabled_s: float

    @property
    def overhead_fraction(self) -> float:
        if self.disabled_s <= 0.0:
            return 0.0
        return (self.enabled_s - self.disabled_s) / self.disabled_s

    def as_dict(self) -> dict:
        record = dataclasses.asdict(self)
        record["overhead_fraction"] = self.overhead_fraction
        return record


def run_telemetry_overhead(
    scale: str = "medium",
    engine: str = "harmonic",
    rounds: int = 2,
    repeats: int = 3,
    seed: int = 2016,
    snapshots: Optional[int] = None,
    sigma: float = BENCH_SIGMA,
    tolerance: Optional[float] = None,
) -> TelemetryOverhead:
    """Measure what the obs hooks cost on the spectrum hot path.

    The instrumented arm exercises the real per-fix telemetry (engine
    spans, harmonic-order histograms, cache counters); the disabled arm
    short-circuits every update at the module-global check — the same
    state ``TAGSPIN_DISABLE_TELEMETRY=1`` produces, toggled in-process
    so both arms share one interpreter and one warmed allocator.
    """
    if rounds < 1 or repeats < 1:
        raise ValueError("rounds and repeats must be positive")
    from repro.obs.metrics import set_telemetry_enabled

    spec = SCALES[scale]
    if snapshots is not None:
        spec = dataclasses.replace(spec, snapshots=snapshots)
    series_list = build_series(spec, seed)
    corrected_list = [_orientation_corrected(s) for s in series_list]
    grid = default_azimuth_grid(np.deg2rad(spec.azimuth_resolution_deg))

    def timed_pass() -> float:
        bench_engine = _engine_for(engine, tolerance)
        try:
            start = time.perf_counter()
            for _ in range(rounds):
                run_fix(
                    bench_engine, series_list, corrected_list, grid, sigma
                )
            return time.perf_counter() - start
        finally:
            bench_engine.close()

    enabled_s = float("inf")
    disabled_s = float("inf")
    previous = set_telemetry_enabled(True)
    try:
        timed_pass()  # warm-up: imports, numpy pools, FFT plans
        for repeat in range(repeats):
            # Alternate arm order so drift cannot bias one arm.
            arms = (True, False) if repeat % 2 == 0 else (False, True)
            for arm_enabled in arms:
                set_telemetry_enabled(arm_enabled)
                elapsed = timed_pass()
                if arm_enabled:
                    enabled_s = min(enabled_s, elapsed)
                else:
                    disabled_s = min(disabled_s, elapsed)
    finally:
        set_telemetry_enabled(previous)
    return TelemetryOverhead(
        scenario=spec.name,
        engine=engine,
        rounds=rounds,
        repeats=repeats,
        enabled_s=enabled_s,
        disabled_s=disabled_s,
    )


def format_telemetry_overhead(overhead: TelemetryOverhead) -> str:
    """Human-readable telemetry-overhead summary."""
    return (
        f"telemetry overhead ({overhead.scenario}/{overhead.engine}, "
        f"{overhead.rounds} fixes, best of {overhead.repeats}): "
        f"instrumented {overhead.enabled_s * 1e3:.3f} ms vs disabled "
        f"{overhead.disabled_s * 1e3:.3f} ms = "
        f"{overhead.overhead_fraction * 100:+.2f}%"
    )


def format_results(results: Sequence[ScenarioResult]) -> str:
    """Human-readable scaling table."""
    lines = []
    for result in results:
        spec = result.spec
        lines.append(
            f"scenario {spec.name}: {spec.disks} disks x {spec.antennas} "
            f"antennas x {spec.channels} channels = {spec.series_count} "
            f"series, {spec.snapshots} snapshots, {result.rounds} fixes"
        )
        lines.append(
            f"  {'engine':<18} {'total [s]':>10} {'per-fix [s]':>12} "
            f"{'speedup':>8} {'max |err|':>10} {'max ang err':>12}"
        )
        for t in result.timings:
            power = (
                "     n/a" if np.isnan(t.max_error) else f"{t.max_error:.2e}"
            )
            lines.append(
                f"  {t.engine:<18} {t.total_s:>10.3f} {t.per_fix_s:>12.3f} "
                f"{t.speedup:>7.2f}x {power:>10} "
                f"{t.max_angular_error:>12.2e}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def results_to_json(
    results: Sequence[ScenarioResult],
    telemetry: Optional[TelemetryOverhead] = None,
    metrics: Optional[dict] = None,
) -> str:
    """Machine-readable benchmark document (``BENCH_*.json`` schema).

    ``metrics`` embeds a ``tagspin-metrics/1`` registry snapshot of the
    benchmarked process (the snapshot carries its own schema tag), so a
    perf trajectory records *what the engines did* — harmonic orders,
    cache hits, dense fallbacks — next to how long they took.
    """
    payload = {
        "schema": "tagspin-bench/1",
        "scenarios": [r.as_dict() for r in results],
    }
    if telemetry is not None:
        payload["telemetry"] = telemetry.as_dict()
    if metrics is not None:
        payload["metrics"] = metrics
    return json.dumps(payload, indent=2, allow_nan=False)
