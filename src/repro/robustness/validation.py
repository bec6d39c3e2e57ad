"""Report validation and quarantine at the server's ingest boundary.

COTS readers and their transport stack corrupt streams in recognizable
ways; each gets a dedicated screen here, applied *before* the reports
reach a stream buffer:

* **duplicates** — LLRP-over-TCP retransmits and naive client retries
  deliver the same read twice; an exact re-read (same EPC, antenna,
  channel and reader timestamp) carries no new information and biases
  any estimator that assumes independent samples.
* **out-of-range fields** — a corrupted 12-bit phase word, a garbage RSSI
  or a channel index beyond the regulatory hop table indicate framing
  errors; such reports are rejected wholesale since no field can be
  trusted once one is provably wrong.
* **out-of-order arrival** — multi-threaded collectors reorder reports.
  Order itself is repairable (the pipeline sorts by reader timestamp),
  so reordered reports are accepted but counted: a rising count signals
  transport congestion before it becomes data loss.
* **pi slips** — Impinj demodulators occasionally lock half a cycle off,
  offsetting the reported phase by exactly pi.  Between consecutive
  same-channel reads of a slowly spinning tag the legitimate phase change
  is small, so an abrupt ~pi jump marks a slip boundary; the validator
  tracks the slip state per (tag, channel) link and folds affected
  phases back by pi.

Everything rejected or repaired is tallied in :class:`QuarantineStats`
so the serving layer can expose degradation instead of hiding it.

:meth:`ReportValidator.process` is the one screen, report by report.
Columnar batches are screened by turning them into report objects
first (:meth:`ReportValidator.process_columnar`): on served wire frames
(~49 reports) that is no slower than vectorized range masks were.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Set, Tuple

from repro.constants import NUM_CHANNELS
from repro.core.phase import wrap_phase, wrap_phase_signed
from repro.hardware.llrp import TagReportData
from repro.obs.metrics import get_registry, telemetry_enabled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (hardware->robustness)
    from repro.hardware.llrp_columnar import ColumnarReportBatch

TWO_PI = 2.0 * math.pi

#: Screen outcomes that partition ``received`` (stats field -> label).
_SCREEN_RESULTS = (
    ("accepted", "accepted"),
    ("duplicates", "duplicate"),
    ("phase_out_of_range", "phase_out_of_range"),
    ("rssi_out_of_range", "rssi_out_of_range"),
    ("bad_channel", "bad_channel"),
    ("bad_timestamp", "bad_timestamp"),
)

#: Repairs applied to reports that are *kept* (not part of the partition).
_REPAIR_KINDS = (("reordered", "reordered"), ("pi_slips_repaired", "pi_slip"))


@dataclass(frozen=True)
class ValidationConfig:
    """Thresholds of the ingest screens."""

    #: Allowed phase range upper bound [rad]; reader phase words encode
    #: [0, 2*pi), so anything at or beyond 2*pi (plus slack for float
    #: round-trip) is a framing error.
    max_phase_rad: float = TWO_PI + 1e-9
    #: Plausible RSSI window for passive backscatter [dBm].
    rssi_min_dbm: float = -105.0
    rssi_max_dbm: float = 5.0
    #: Number of valid frequency channels.
    num_channels: int = NUM_CHANNELS
    #: Half-width of the pi-slip detection band [rad]: a phase jump within
    #: ``pi +- tolerance`` flips the slip state.  Must exceed the phase
    #: noise but stay below pi minus the largest legitimate inter-read
    #: change, which for the paper's slow disks is well under 1 rad.
    pi_slip_tolerance_rad: float = 0.7
    #: Maximum gap [s] between consecutive same-channel reads for the slip
    #: detector to act; across longer gaps a ~pi change can be legitimate
    #: rotation, so the detector resets instead of classifying.
    pi_slip_max_gap_s: float = 0.25
    #: Enable the pi-slip detector (disable for fast disks where the
    #: inter-read phase change approaches pi).
    repair_pi_slips: bool = True
    #: Per-tag memory of recently seen reader timestamps for deduplication.
    dedup_memory: int = 8192


@dataclass
class QuarantineStats:
    """Per-stream accounting of what the validator did."""

    received: int = 0
    accepted: int = 0
    duplicates: int = 0
    phase_out_of_range: int = 0
    rssi_out_of_range: int = 0
    bad_channel: int = 0
    bad_timestamp: int = 0
    reordered: int = 0
    pi_slips_repaired: int = 0

    @property
    def quarantined(self) -> int:
        """Reports rejected outright (repaired/reordered ones are kept)."""
        return (
            self.duplicates
            + self.phase_out_of_range
            + self.rssi_out_of_range
            + self.bad_channel
            + self.bad_timestamp
        )

    @property
    def quarantine_ratio(self) -> float:
        return self.quarantined / self.received if self.received else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "received": self.received,
            "accepted": self.accepted,
            "duplicates": self.duplicates,
            "phase_out_of_range": self.phase_out_of_range,
            "rssi_out_of_range": self.rssi_out_of_range,
            "bad_channel": self.bad_channel,
            "bad_timestamp": self.bad_timestamp,
            "reordered": self.reordered,
            "pi_slips_repaired": self.pi_slips_repaired,
        }

    def snapshot(self) -> "QuarantineStats":
        return QuarantineStats(**self.as_dict())


@dataclass
class _SlipState:
    """Pi-slip tracking state of one (tag, channel) link."""

    last_time_s: float
    last_phase: float
    slipped: bool = False


@dataclass
class _DedupState:
    """Bounded memory of recently seen reader timestamps of one tag."""

    seen: Set[Tuple[int, int, int]] = field(default_factory=set)
    order: Deque[Tuple[int, int, int]] = field(default_factory=deque)


class ReportValidator:
    """Screens one report stream; stateful across :meth:`process` calls.

    One validator instance guards one (reader, antenna) stream — the
    dedup memory, ordering watermark and slip states are per-link by
    construction, so a validator must not be shared between streams.
    """

    def __init__(self, config: ValidationConfig | None = None) -> None:
        self.config = config if config is not None else ValidationConfig()
        self.stats = QuarantineStats()
        self._dedup: Dict[str, _DedupState] = {}
        self._watermark_us: Dict[str, int] = {}
        self._slip: Dict[Tuple[str, int], _SlipState] = {}

    # ------------------------------------------------------------------
    def process(self, reports: Iterable[TagReportData]) -> List[TagReportData]:
        """Validate a chunk of reports; returns the accepted (repaired) ones.

        The chunk is screened report-by-report (range checks, dedup,
        ordering watermark), then the survivors are run through the
        pi-slip detector per (tag, channel) series in timestamp order.
        The returned list preserves timestamp order.
        """
        before = self.stats.as_dict()
        screened: List[TagReportData] = []
        for report in reports:
            self.stats.received += 1
            if self._screen(report):
                screened.append(report)
        screened.sort(key=lambda r: r.reader_timestamp_us)
        if self.config.repair_pi_slips:
            screened = self._repair_pi_slips(screened)
        self.stats.accepted += len(screened)
        self._publish_metrics(before)
        return screened

    def process_columnar(
        self, cols: "ColumnarReportBatch"
    ) -> List[TagReportData]:
        """Screen a columnar batch: :meth:`process` over its reports."""
        return self.process(cols.to_reports())

    def _publish_metrics(self, before: Dict[str, int]) -> None:
        """Push this call's stat deltas into the metrics registry.

        Batch-level (one pass over ~8 counters per ingest call), so the
        per-report cost stays zero.  The registry totals
        partition exactly like :class:`QuarantineStats`:
        ``received == sum(tagspin_validator_reports_total{result=*})``.
        """
        if not telemetry_enabled():
            return
        after = self.stats.as_dict()
        registry = get_registry()
        for stat_key, label in _SCREEN_RESULTS:
            delta = after[stat_key] - before[stat_key]
            if delta:
                registry.counter(
                    "tagspin_validator_reports_total",
                    "Ingest screen outcomes; results partition every "
                    "received report.",
                    result=label,
                ).inc(delta)
        for stat_key, label in _REPAIR_KINDS:
            delta = after[stat_key] - before[stat_key]
            if delta:
                registry.counter(
                    "tagspin_validator_repairs_total",
                    "Repairs applied to accepted reports (kept, not "
                    "quarantined).",
                    kind=label,
                ).inc(delta)

    # ------------------------------------------------------------------
    # Per-report screens
    # ------------------------------------------------------------------
    def _screen(self, report: TagReportData) -> bool:
        cfg = self.config
        if report.reader_timestamp_us < 0 or report.host_timestamp_us < 0:
            self.stats.bad_timestamp += 1
            return False
        if not 0 <= report.channel_index < cfg.num_channels:
            self.stats.bad_channel += 1
            return False
        if (
            not math.isfinite(report.phase_rad)
            or report.phase_rad < 0.0
            or report.phase_rad >= cfg.max_phase_rad
        ):
            self.stats.phase_out_of_range += 1
            return False
        if (
            not math.isfinite(report.rssi_dbm)
            or not cfg.rssi_min_dbm <= report.rssi_dbm <= cfg.rssi_max_dbm
        ):
            self.stats.rssi_out_of_range += 1
            return False
        if self._is_duplicate(report):
            self.stats.duplicates += 1
            return False
        watermark = self._watermark_us.get(report.epc)
        if watermark is not None and report.reader_timestamp_us < watermark:
            # Repairable: the pipeline re-sorts by reader timestamp, so the
            # report is kept — but a rising count flags transport trouble.
            self.stats.reordered += 1
        else:
            self._watermark_us[report.epc] = report.reader_timestamp_us
        return True

    def _is_duplicate(self, report: TagReportData) -> bool:
        state = self._dedup.setdefault(report.epc, _DedupState())
        key = (
            report.reader_timestamp_us,
            report.antenna_port,
            report.channel_index,
        )
        if key in state.seen:
            return True
        state.seen.add(key)
        state.order.append(key)
        if len(state.order) > self.config.dedup_memory:
            state.seen.discard(state.order.popleft())
        return False

    # ------------------------------------------------------------------
    # Pi-slip repair
    # ------------------------------------------------------------------
    def _repair_pi_slips(
        self, reports: List[TagReportData]
    ) -> List[TagReportData]:
        cfg = self.config
        band_lo = math.pi - cfg.pi_slip_tolerance_rad
        repaired: List[TagReportData] = []
        for report in reports:
            key = (report.epc, report.channel_index)
            state = self._slip.get(key)
            time_s = report.reader_time_s
            if (
                state is None
                or time_s - state.last_time_s > cfg.pi_slip_max_gap_s
                or time_s < state.last_time_s
            ):
                # First read of the link, or the gap is too long for the
                # small-change assumption: (re)anchor without classifying.
                self._slip[key] = _SlipState(time_s, report.phase_rad)
                repaired.append(report)
                continue
            adjusted = report.phase_rad - (math.pi if state.slipped else 0.0)
            delta = abs(wrap_phase_signed(adjusted - state.last_phase))
            if delta >= band_lo:
                # An abrupt ~pi jump: the demodulator's half-cycle lock
                # flipped between the previous read and this one.
                state.slipped = not state.slipped
                adjusted = report.phase_rad - (
                    math.pi if state.slipped else 0.0
                )
            if state.slipped:
                report = TagReportData(
                    epc=report.epc,
                    antenna_port=report.antenna_port,
                    channel_index=report.channel_index,
                    reader_timestamp_us=report.reader_timestamp_us,
                    host_timestamp_us=report.host_timestamp_us,
                    phase_rad=float(wrap_phase(adjusted)),
                    rssi_dbm=report.rssi_dbm,
                )
                self.stats.pi_slips_repaired += 1
            state.last_time_s = time_s
            state.last_phase = float(wrap_phase(adjusted))
            repaired.append(report)
        return repaired
