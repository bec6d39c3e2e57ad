"""Bounded ingest mailboxes with load shedding and exact accounting.

Each deployment actor owns one :class:`BoundedMailbox`.  Report batches
(columnar, :class:`~repro.hardware.llrp_columnar.ColumnarReportBatch`:
the one ingest format inside the fleet) and control commands share a
single FIFO (so a fix request observes every batch offered before it),
but only *report rows* count against the high-water mark and only rows
are ever shed — commands are infrastructure and always survive.

The shedding policy: when an ingest flood pushes the pending-report
count over the high-water mark, the oldest *non-infrastructure* reports
(tags absent from the spinning-tag registry — ordinary inventory
traffic the pipeline would filter anyway) are dropped first; only if
the backlog is still over the mark after all bystander traffic is gone
do the oldest calibration reports go too.
Every shed report increments a counter — the accounting invariant
``offered == enqueued_delivered + pending + shed`` is checked by the
chaos harness and must hold exactly; silent loss is the one failure
mode this tier refuses to have.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.hardware.llrp_columnar import ColumnarReportBatch

#: Default pending-report high-water mark per deployment.
DEFAULT_HIGH_WATER = 10_000


@dataclass
class ShedStats:
    """Lifetime accounting of one mailbox."""

    #: Reports ever offered to the mailbox.
    offered: int = 0
    #: Reports delivered to the consumer via :meth:`BoundedMailbox.get`.
    delivered: int = 0
    #: Reports shed (all causes).
    shed: int = 0
    #: Shed reports whose EPC was outside the spinning-tag registry.
    shed_bystander: int = 0
    #: Shed reports of registered spinning tags (only under extreme flood).
    shed_infrastructure: int = 0
    #: Number of offers that triggered shedding.
    shed_episodes: int = 0

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "delivered": self.delivered,
            "shed": self.shed,
            "shed_bystander": self.shed_bystander,
            "shed_infrastructure": self.shed_infrastructure,
            "shed_episodes": self.shed_episodes,
        }


@dataclass
class ColumnarIngestMessage:
    """A columnar batch offered by one reader.

    Counts against the high-water mark row for row; shedding slices
    rows off with masks (:meth:`ColumnarReportBatch.select`).
    """

    reader_name: str
    cols: ColumnarReportBatch


@dataclass
class CommandMessage:
    """A control-plane message; never counted against the high-water mark."""

    kind: str
    payload: object = None
    future: Optional["asyncio.Future"] = field(default=None, repr=False)


class BoundedMailbox:
    """Single-consumer FIFO of ingest batches and commands.

    ``high_water`` bounds the number of *pending reports* (not batches);
    :meth:`offer_columnar` never blocks and never raises on overload —
    it sheds per the policy above and reports what it did, because a
    flooding reader must degrade one deployment's data, not stall the
    event loop or crash the actor.

    ``is_infrastructure_epc`` names the registered spinning tags; without
    it every row counts as infrastructure (the conservative default).
    """

    def __init__(
        self,
        high_water: int = DEFAULT_HIGH_WATER,
        is_infrastructure_epc: Optional[Callable[[str], bool]] = None,
    ) -> None:
        if high_water < 1:
            raise ValueError("high_water must be positive")
        self.high_water = high_water
        self._is_infrastructure_epc = is_infrastructure_epc
        self._items: Deque[object] = deque()
        self._pending_reports = 0
        self._available = asyncio.Event()
        self.stats = ShedStats()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def offer_columnar(
        self, reader_name: str, cols: ColumnarReportBatch
    ) -> Tuple[int, int]:
        """Enqueue a batch, shedding on overflow; returns (kept, shed)."""
        self.stats.offered += len(cols)
        message = ColumnarIngestMessage(reader_name, cols)
        self._items.append(message)
        self._pending_reports += len(cols)
        shed = 0
        if self._pending_reports > self.high_water:
            shed = self._shed_to_high_water()
        self._available.set()
        # Shedding may have hit older batches rather than this one; what
        # "kept" means to the caller is how much of *its* batch survived.
        return len(message.cols), shed

    def put_command(self, message: CommandMessage) -> None:
        self._items.append(message)
        self._available.set()

    def _shed_to_high_water(self) -> int:
        """Drop pending reports down to the mark; oldest bystanders first."""
        self.stats.shed_episodes += 1
        shed_total = 0
        # Pass 1: oldest non-infrastructure reports across all batches.
        for item in self._items:
            if self._pending_reports <= self.high_water:
                break
            if isinstance(item, ColumnarIngestMessage):
                shed_total += self._shed_bystanders(item)
        # Pass 2: still flooded by calibration traffic itself — shed the
        # oldest infrastructure reports too (counted separately; this is
        # the "extreme flood" signature operators alert on).
        for item in self._items:
            if self._pending_reports <= self.high_water:
                break
            if not isinstance(item, ColumnarIngestMessage):
                continue
            excess = min(
                len(item.cols),
                self._pending_reports - self.high_water,
            )
            if excess:
                item.cols = item.cols.select(
                    np.arange(excess, len(item.cols))
                )
                self._pending_reports -= excess
                shed_total += excess
                self.stats.shed_infrastructure += excess
        self.stats.shed += shed_total
        return shed_total

    def _shed_bystanders(self, item: ColumnarIngestMessage) -> int:
        """Drop this batch's oldest non-infrastructure rows."""
        if self._is_infrastructure_epc is None or not len(item.cols):
            return 0
        infrastructure_slots = np.fromiter(
            (self._is_infrastructure_epc(epc) for epc in item.cols.epcs),
            dtype=bool,
            count=len(item.cols.epcs),
        )
        bystander_rows = np.flatnonzero(
            ~infrastructure_slots[item.cols.epc_index]
        )
        need = self._pending_reports - self.high_water
        drop = bystander_rows[:need]
        if not drop.size:
            return 0
        keep_mask = np.ones(len(item.cols), dtype=bool)
        keep_mask[drop] = False
        item.cols = item.cols.select(keep_mask)
        dropped = int(drop.size)
        self._pending_reports -= dropped
        self.stats.shed_bystander += dropped
        return dropped

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    async def get(self) -> object:
        """Next message (FIFO); empty ingest husks left by shedding are
        skipped transparently."""
        while True:
            while not self._items:
                self._available.clear()
                await self._available.wait()
            item = self._items.popleft()
            if isinstance(item, ColumnarIngestMessage):
                if not len(item.cols):
                    continue  # fully shed; nothing to deliver
                self._pending_reports -= len(item.cols)
                self.stats.delivered += len(item.cols)
            return item

    # ------------------------------------------------------------------
    # Introspection / teardown
    # ------------------------------------------------------------------
    @property
    def pending_reports(self) -> int:
        return self._pending_reports

    def drain(self) -> Tuple[int, List[CommandMessage]]:
        """Empty the mailbox; returns (undelivered reports, commands).

        Called by the supervisor when an actor dies so nothing is lost
        *silently*: undelivered reports are counted as crash losses and
        pending commands get their futures failed.
        """
        lost = self._pending_reports
        commands = [
            item for item in self._items if isinstance(item, CommandMessage)
        ]
        self._items.clear()
        self._pending_reports = 0
        return lost, commands

    def __len__(self) -> int:
        return len(self._items)
