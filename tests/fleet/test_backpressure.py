"""Tests for repro.fleet.backpressure (bounded mailbox + shedding)."""

from __future__ import annotations

import asyncio

import pytest

from fleet_helpers import columns, make_report

from repro.fleet.backpressure import (
    BoundedMailbox,
    ColumnarIngestMessage,
    CommandMessage,
)

SPIN = "EPC-SPIN-1"
BYSTANDER = "EPC-OTHER-9"


def spin_reports(n, start=0):
    return columns(make_report(start + i, epc=SPIN) for i in range(n))


def bystander_reports(n, start=0):
    return columns(make_report(start + i, epc=BYSTANDER) for i in range(n))


def infra_mailbox(high_water):
    return BoundedMailbox(
        high_water=high_water, is_infrastructure_epc=lambda epc: epc == SPIN
    )


class TestOfferAndGet:
    def test_under_high_water_nothing_shed(self):
        box = infra_mailbox(100)
        kept, shed = box.offer_columnar("r1", spin_reports(40))
        assert (kept, shed) == (40, 0)
        assert box.pending_reports == 40
        assert box.stats.offered == 40
        assert box.stats.shed == 0

    def test_fifo_delivery_interleaves_commands(self):
        box = infra_mailbox(100)

        async def scenario():
            box.offer_columnar("r1", spin_reports(2))
            box.put_command(CommandMessage(kind="locate"))
            box.offer_columnar("r1", spin_reports(3, start=2))
            first = await box.get()
            second = await box.get()
            third = await box.get()
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert isinstance(first, ColumnarIngestMessage)
        assert len(first.cols) == 2
        assert isinstance(second, CommandMessage) and second.kind == "locate"
        assert isinstance(third, ColumnarIngestMessage)
        assert len(third.cols) == 3
        assert box.stats.delivered == 5
        assert box.pending_reports == 0

    def test_get_blocks_until_offer(self):
        box = infra_mailbox(10)

        async def scenario():
            async def producer():
                await asyncio.sleep(0.01)
                box.offer_columnar("r1", spin_reports(1))

            producer_task = asyncio.ensure_future(producer())
            message = await asyncio.wait_for(box.get(), timeout=2.0)
            await producer_task
            return message

        message = asyncio.run(scenario())
        assert isinstance(message, ColumnarIngestMessage)


class TestShedding:
    def test_bystanders_shed_before_infrastructure(self):
        box = infra_mailbox(10)
        box.offer_columnar("r1", bystander_reports(8))
        kept, shed = box.offer_columnar("r1", spin_reports(8))
        assert shed == 6  # 16 pending -> 10, all six from the bystanders
        assert kept == 8  # the new (infrastructure) batch was untouched
        assert box.stats.shed_bystander == 6
        assert box.stats.shed_infrastructure == 0
        assert box.pending_reports == 10

    def test_oldest_bystanders_go_first(self):
        box = infra_mailbox(5)
        box.offer_columnar("r1", bystander_reports(3, start=0))
        box.offer_columnar("r1", bystander_reports(3, start=100))
        box.offer_columnar("r1", spin_reports(1, start=200))
        # 7 pending -> shed 2, both from the *first* bystander batch.
        assert box.stats.shed == 2

        async def collect():
            out = []
            while box.pending_reports:
                out.append(await box.get())
            return out

        messages = asyncio.run(collect())
        survivors = [r for m in messages for r in m.cols.to_reports()]
        timestamps = [r.reader_timestamp_us for r in survivors]
        assert 0 not in timestamps and 1_000 not in timestamps
        assert 2_000 in timestamps  # third report of the first batch kept

    def test_infrastructure_shed_only_when_flooded_by_it(self):
        box = infra_mailbox(5)
        box.offer_columnar("r1", spin_reports(4))
        _kept, shed = box.offer_columnar("r1", spin_reports(4, start=4))
        assert shed == 3
        assert box.stats.shed_bystander == 0
        assert box.stats.shed_infrastructure == 3
        # Oldest infrastructure went first: the first batch lost 3 of 4.
        assert box.pending_reports == 5

    def test_commands_survive_any_flood(self):
        box = infra_mailbox(3)
        box.put_command(CommandMessage(kind="checkpoint"))
        box.offer_columnar("r1", bystander_reports(50))
        assert box.pending_reports == 3

        async def first():
            return await box.get()

        message = asyncio.run(first())
        assert isinstance(message, CommandMessage)

    def test_fully_shed_batches_are_skipped_not_delivered(self):
        box = infra_mailbox(2)
        box.offer_columnar("r1", bystander_reports(2))
        box.offer_columnar("r1", spin_reports(2, start=10))  # sheds both bystanders

        async def first():
            return await box.get()

        message = asyncio.run(first())
        assert [r.epc for r in message.cols.to_reports()] == [SPIN, SPIN]


class TestAccounting:
    def test_offered_equals_delivered_plus_pending_plus_shed(self):
        box = infra_mailbox(7)
        box.offer_columnar("r1", bystander_reports(5))
        box.offer_columnar("r2", spin_reports(6))
        box.offer_columnar("r1", spin_reports(4, start=50))

        async def drain_two():
            await box.get()
            await box.get()

        asyncio.run(drain_two())
        stats = box.stats
        assert stats.offered == 15
        assert (
            stats.offered
            == stats.delivered + box.pending_reports + stats.shed
        )
        assert stats.shed == stats.shed_bystander + stats.shed_infrastructure

    def test_drain_counts_undelivered_and_returns_commands(self):
        box = infra_mailbox(100)
        box.offer_columnar("r1", spin_reports(9))
        command = CommandMessage(kind="locate")
        box.put_command(command)
        lost, commands = box.drain()
        assert lost == 9
        assert commands == [command]
        assert box.pending_reports == 0
        assert len(box) == 0

    def test_high_water_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedMailbox(high_water=0)
