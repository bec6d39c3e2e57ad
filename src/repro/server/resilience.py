"""A supervised, fault-tolerant localization server.

:class:`ResilientLocalizationServer` wraps the plain
:class:`~repro.server.service.LocalizationServer` with the full
robustness stack:

* every ingested report passes a per-stream
  :class:`~repro.robustness.validation.ReportValidator` (duplicates,
  corrupt fields and pi slips never reach a buffer);
* every fix runs through the *gated* pipeline
  (:meth:`~repro.core.pipeline.TagspinSystem.locate_2d_diagnosed`),
  which excludes untrustworthy disks and falls back from R to Q;
* transient failures (:class:`~repro.errors.TransientError`) are
  retried with exponential backoff while the buffer window grows —
  either passively (a live reader keeps streaming) or actively via a
  ``data_source`` callback that pulls more reports;
* the :class:`~repro.server.health.DeploymentMonitor` runs on a cadence
  and its findings ride along on each fix;
* every fix carries a :class:`~repro.robustness.diagnostics.FixDiagnostics`
  record, and each (reader, antenna) stream exposes a machine-readable
  :class:`~repro.robustness.diagnostics.DegradationState`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.locator import Fix2D, Fix3D
from repro.core.pipeline import PipelineConfig
from repro.errors import PermanentError, TransientError
from repro.hardware.llrp import TagReportData
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.perf.engine import EngineSpec
from repro.robustness.diagnostics import (
    DegradationState,
    FixDiagnostics,
    PipelineDiagnostics,
)
from repro.robustness.validation import (
    QuarantineStats,
    ReportValidator,
    ValidationConfig,
)
from repro.server.health import DeploymentMonitor
from repro.server.registry import TagRegistry
from repro.server.service import (
    LocalizationServer,
    StreamKey,
    validate_stream_key,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff policy for transient localization failures.

    With ``jitter_rng`` set, :meth:`delay` applies *full jitter*: the
    wait is uniform in ``[0, backoff)`` instead of the deterministic
    backoff itself.  A fleet of actors retrying in lockstep (e.g. after
    a reader drops off and every deployment's fix starts failing at the
    same instant) would otherwise thunder-herd the solver on a
    synchronized cadence; full jitter decorrelates them while keeping
    the same mean pressure decay.  Leaving ``jitter_rng`` unset keeps
    the deterministic schedule tests rely on.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    #: Ceiling on the (pre-jitter) backoff; exponential growth saturates
    #: here instead of running away on high attempt counts.
    backoff_max_s: float = float("inf")
    #: When set, delays are drawn uniform from [0, backoff) (full jitter).
    jitter_rng: Optional[random.Random] = None

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        backoff = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter_rng is not None:
            return self.jitter_rng.uniform(0.0, backoff)
        return backoff


#: Pulls additional reports for (reader_name, antenna_port, attempt);
#: whatever it returns is ingested before the retry, growing the window.
DataSource = Callable[[str, int, int], Iterable[TagReportData]]


class ResilientLocalizationServer(LocalizationServer):
    """Localization server with validation, gating, retry and supervision.

    Parameters
    ----------
    validation : screen thresholds for the per-stream report validators.
    retry : backoff policy for :class:`~repro.errors.TransientError`.
    data_source : optional callback delivering more reports between
        retries (e.g. re-polling a live reader).  Without it, retries
        rely on reports ingested concurrently by other threads.
    monitor : deployment monitor run on the supervision cadence; the
        default one shares this server's engine instance and caches.
    monitor_every : run the deployment monitor every N locate calls per
        stream (1 = every call).
    sleep : injection point for the backoff wait (tests pass a stub).
    degraded_quarantine_ratio : fraction of rejected ingested reports
        above which a stream is considered degraded even if a fix works.
    engine : spectrum-evaluation strategy passed through to the pipeline
        (see :mod:`repro.perf`; default: the reference engine).  Serve
        on ``"adaptive-harmonic"``, the fleet's default
        (:class:`~repro.fleet.worker.DeploymentSpec`): the gated
        pipeline's repeated passes (scoring, triangulation, R-to-Q
        fallback) and the monitor only need spectrum peaks, which its
        coarse-to-fine search finds over per-geometry harmonic tables
        cached across fixes.  ``"batched"`` and ``"harmonic"`` keep
        dense power surfaces.
    """

    def __init__(
        self,
        registry: TagRegistry,
        config: Optional[PipelineConfig] = None,
        max_buffer: int = 100_000,
        validation: Optional[ValidationConfig] = None,
        retry: Optional[RetryPolicy] = None,
        data_source: Optional[DataSource] = None,
        monitor: Optional[DeploymentMonitor] = None,
        monitor_every: int = 5,
        sleep: Callable[[float], None] = time.sleep,
        degraded_quarantine_ratio: float = 0.05,
        engine: EngineSpec = None,
    ) -> None:
        base = config if config is not None else PipelineConfig()
        super().__init__(
            registry, replace(base, disk_gating=True), max_buffer, engine=engine
        )
        if monitor_every < 1:
            raise ValueError("monitor_every must be positive")
        self.validation = (
            validation if validation is not None else ValidationConfig()
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.data_source = data_source
        self.monitor = (
            monitor
            if monitor is not None
            else DeploymentMonitor(
                registry, self.system.config, engine=self.system.engine
            )
        )
        self.monitor_every = monitor_every
        self.degraded_quarantine_ratio = degraded_quarantine_ratio
        self._sleep = sleep
        self._validators: Dict[StreamKey, ReportValidator] = {}
        self._states: Dict[StreamKey, DegradationState] = {}
        self._last_diagnostics: Dict[StreamKey, FixDiagnostics] = {}
        self._health: Dict[StreamKey, Dict[str, Tuple[str, ...]]] = {}
        self._locate_counts: Dict[StreamKey, int] = {}

    # ------------------------------------------------------------------
    # Ingestion with validation
    # ------------------------------------------------------------------
    def ingest(
        self, reader_name: str, reports: Iterable[TagReportData]
    ) -> int:
        """Validate and buffer reports; returns the number accepted."""
        validate_stream_key(reader_name, 0)
        by_port: Dict[int, list] = {}
        for report in reports:
            validate_stream_key(reader_name, report.antenna_port)
            by_port.setdefault(report.antenna_port, []).append(report)
        accepted = 0
        tracer = get_tracer()
        with tracer.span("ingest", reader=reader_name, path="object") as span:
            for port, port_reports in by_port.items():
                validator = self._validators.setdefault(
                    (reader_name, port), ReportValidator(self.validation)
                )
                with tracer.span("validate", port=port):
                    survivors = validator.process(port_reports)
                accepted += super().ingest(reader_name, survivors)
            span.annotate(accepted=accepted)
        return accepted

    def ingest_columnar(self, reader_name: str, cols) -> int:
        """Validate and buffer a columnar batch; returns the number accepted.

        The wire-ingest counterpart of :meth:`ingest`: the batch arrives
        as a :class:`~repro.hardware.llrp_columnar.ColumnarReportBatch`,
        the stateless screens run vectorized over its columns
        (:meth:`~repro.robustness.validation.ReportValidator
        .process_columnar`), and only validator-approved survivors are
        materialized as objects for the stream buffers.  Identical
        accounting and buffer contents to ``ingest(cols.to_reports())``.
        """
        validate_stream_key(reader_name, 0)
        ports = cols.antenna_ports()
        for port in ports:
            validate_stream_key(reader_name, port)
        accepted = 0
        tracer = get_tracer()
        with tracer.span(
            "ingest", reader=reader_name, path="columnar"
        ) as span:
            for port in ports:
                sub = cols.select(np.asarray(cols.antenna_port == port))
                validator = self._validators.setdefault(
                    (reader_name, port), ReportValidator(self.validation)
                )
                with tracer.span("validate", port=port):
                    survivors = validator.process_columnar(sub)
                accepted += LocalizationServer.ingest(
                    self, reader_name, survivors
                )
            span.annotate(accepted=accepted)
        return accepted

    def quarantine_stats(
        self, reader_name: str, antenna_port: int
    ) -> QuarantineStats:
        """Validator counters of one stream (zeros if nothing ingested)."""
        validator = self._validators.get((reader_name, antenna_port))
        return validator.stats if validator else QuarantineStats()

    def all_quarantine_stats(self) -> Dict[StreamKey, QuarantineStats]:
        """Validator counters of every stream that ever ingested.

        Includes streams whose buffers were since cleared or trimmed —
        the counters are a lifetime ledger, which is what fleet-level
        accounting reconciliation needs.
        """
        return {
            key: validator.stats
            for key, validator in self._validators.items()
        }

    # ------------------------------------------------------------------
    # Worker-side lifecycle hooks (sharded fleet)
    # ------------------------------------------------------------------
    def engine_cache_stats(self) -> dict:
        """The spectrum engine's cache counters for this deployment.

        Worker processes report these back to the sharded fleet's parent
        so ``bench-engine``/fleet bench JSON can aggregate cache and
        harmonic-order stats across the whole fleet instead of reading
        the parent's (idle) engine.
        """
        return self.system.engine.cache_stats()

    def close(self) -> None:
        """Release engine-held resources (caches).

        Called by sharded-fleet workers during graceful shutdown; safe to
        call more than once.
        """
        self.system.engine.close()

    # ------------------------------------------------------------------
    # Supervised queries
    # ------------------------------------------------------------------
    def locate_antenna_2d(
        self, reader_name: str, antenna_port: int = 1
    ) -> Fix2D:
        fix, _diagnostics = self.locate_antenna_2d_diagnosed(
            reader_name, antenna_port
        )
        return fix

    def locate_antenna_3d(
        self, reader_name: str, antenna_port: int = 1
    ) -> Fix3D:
        fix, _diagnostics = self.locate_antenna_3d_diagnosed(
            reader_name, antenna_port
        )
        return fix

    def locate_antenna_2d_diagnosed(
        self, reader_name: str, antenna_port: int = 1
    ) -> Tuple[Fix2D, FixDiagnostics]:
        """2D fix plus its provenance record."""
        return self._supervised_locate(
            reader_name,
            antenna_port,
            lambda batch: self.system.locate_2d_diagnosed(batch, antenna_port),
            mode="2d",
        )

    def locate_antenna_3d_diagnosed(
        self, reader_name: str, antenna_port: int = 1
    ) -> Tuple[Fix3D, FixDiagnostics]:
        """3D fix plus its provenance record."""
        return self._supervised_locate(
            reader_name,
            antenna_port,
            lambda batch: self.system.locate_3d_diagnosed(batch, antenna_port),
            mode="3d",
        )

    def _supervised_locate(self, reader_name, antenna_port, locate,
                           mode="2d"):
        key: StreamKey = (reader_name, antenna_port)
        registry = get_registry()
        fix_seconds = registry.histogram(
            "tagspin_fix_seconds",
            "End-to-end supervised fix latency (includes retries).",
            mode=mode,
        )
        attempts = 0
        with get_tracer().span(
            "fix", reader=reader_name, port=antenna_port, mode=mode
        ) as span, fix_seconds.time():
            try:
                while True:
                    attempts += 1
                    try:
                        batch = self._batch_for(reader_name, antenna_port)
                        fix, pipeline_diag = locate(batch)
                        break
                    except PermanentError:
                        self._states[key] = DegradationState.FAILED
                        raise
                    except TransientError:
                        if attempts >= self.retry.max_attempts:
                            self._states[key] = DegradationState.FAILED
                            raise
                        registry.counter(
                            "tagspin_fix_retries_total",
                            "Transient fix failures that were retried.",
                        ).inc()
                        self._sleep(self.retry.delay(attempts))
                        self._refill(reader_name, antenna_port, attempts)
            except (PermanentError, TransientError) as exc:
                span.annotate(attempts=attempts, outcome="failed")
                registry.counter(
                    "tagspin_server_fixes_total",
                    "Supervised fixes by outcome.",
                    mode=mode,
                    outcome=(
                        "permanent_error"
                        if isinstance(exc, PermanentError)
                        else "transient_exhausted"
                    ),
                ).inc()
                raise

            self._maybe_monitor(key)
            diagnostics = self._build_diagnostics(
                key, fix, pipeline_diag, attempts
            )
            self._states[key] = diagnostics.degradation
            self._last_diagnostics[key] = diagnostics
            span.annotate(
                attempts=attempts,
                outcome="ok",
                degradation=diagnostics.degradation.value,
            )
            registry.counter(
                "tagspin_server_fixes_total",
                "Supervised fixes by outcome.",
                mode=mode,
                outcome="ok",
            ).inc()
        return fix, diagnostics

    def _refill(self, reader_name: str, antenna_port: int, attempt: int) -> None:
        """Grow the buffer window before a retry, if a source is wired."""
        if self.data_source is None:
            return
        more = self.data_source(reader_name, antenna_port, attempt)
        if more is not None:
            self.ingest(reader_name, more)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _maybe_monitor(self, key: StreamKey) -> None:
        count = self._locate_counts.get(key, 0)
        self._locate_counts[key] = count + 1
        if count % self.monitor_every != 0:
            return
        try:
            batch = self._batch_for(*key)
        except TransientError:
            return
        reports = self.monitor.check_all(batch, key[1])
        self._health[key] = {
            epc: report.issues
            for epc, report in reports.items()
            if report.issues
        }

    def _build_diagnostics(
        self,
        key: StreamKey,
        fix,
        pipeline_diag: PipelineDiagnostics,
        attempts: int,
    ) -> FixDiagnostics:
        quarantine = self.quarantine_stats(*key).snapshot()
        health_issues = dict(self._health.get(key, {}))
        degraded = (
            pipeline_diag.degraded
            or attempts > 1
            or quarantine.quarantine_ratio > self.degraded_quarantine_ratio
            or bool(health_issues)
        )
        return FixDiagnostics(
            reader_name=key[0],
            antenna_port=key[1],
            pipeline=pipeline_diag,
            quarantine=quarantine,
            degradation=(
                DegradationState.DEGRADED
                if degraded
                else DegradationState.HEALTHY
            ),
            attempts=attempts,
            confidence=fix.confidence,
            health_issues=health_issues,
        )

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------
    def restore_degradation(
        self, states: Dict[StreamKey, DegradationState]
    ) -> None:
        """Carry degradation states over from a checkpoint restore."""
        self._states.update(states)

    def degradation_state(
        self, reader_name: str, antenna_port: int = 1
    ) -> DegradationState:
        """Last known service state of one stream (HEALTHY before use)."""
        return self._states.get(
            (reader_name, antenna_port), DegradationState.HEALTHY
        )

    def degradation_states(self) -> Dict[StreamKey, DegradationState]:
        """Service state of every stream that has been queried."""
        return dict(self._states)

    def last_diagnostics(
        self, reader_name: str, antenna_port: int = 1
    ) -> Optional[FixDiagnostics]:
        """Diagnostics of the most recent fix on one stream, if any."""
        return self._last_diagnostics.get((reader_name, antenna_port))
