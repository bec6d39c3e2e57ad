"""Tests for repro.fleet.sharding (multi-process fleet, shm transport).

The process tests spawn real workers (spawn start method), so they keep
fleets small (2 workers) and reuse one collected scenario batch.  Every
ledger assertion is *exact* — the cross-incarnation invariant
``offered == shed + pending + delivered + lost_in_crash`` is the one
guarantee a ``kill -9`` is not allowed to break.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.geometry import Point3
from repro.errors import ConfigurationError, WorkerUnavailableError
from repro.fleet.backpressure import BoundedMailbox
from repro.fleet.sharding import ShardedFleet, ShmRing, shard_for
from repro.fleet.worker import DeploymentSpec, thread_pin_env
from repro.hardware.llrp_columnar import ColumnarReportBatch
from repro.server.registry import TagRegistry
from repro.server.resilience import ResilientLocalizationServer

TRUTH = Point3(0.4, 1.9, 0.0)


@pytest.fixture(scope="module")
def collected(calibrated_scenario_2d):
    # The scenario RNG is session-shared; later modules (e.g. the gating
    # suite) depend on their position in its stream.  Snapshot/restore so
    # this module's extra collect() is invisible to them.
    state = calibrated_scenario_2d.rng.bit_generator.state
    batch, _reader = calibrated_scenario_2d.collect(TRUTH)
    calibrated_scenario_2d.rng.bit_generator.state = state
    return batch


def in_process_fix(scenario, batch, engine):
    """The fix an in-process server on ``engine`` computes from ``batch``."""
    registry = TagRegistry()
    for record in scenario.scene.registry:
        registry.register(record)
    server = ResilientLocalizationServer(
        registry, scenario.config.pipeline, engine=engine
    )
    server.ingest("reader-1", batch.reports)
    fix, _diag = server.locate_antenna_2d_diagnosed("reader-1")
    return fix


@pytest.fixture(scope="module")
def reference_fix(calibrated_scenario_2d, collected):
    return in_process_fix(
        calibrated_scenario_2d, collected, DeploymentSpec.engine
    )


def make_spec(calibrated_scenario_2d, deployment_id: str) -> DeploymentSpec:
    return DeploymentSpec(
        deployment_id=deployment_id,
        registry_records=tuple(calibrated_scenario_2d.scene.registry),
        pipeline=calibrated_scenario_2d.config.pipeline,
    )


def assert_balanced(ledger: dict) -> None:
    assert ledger["offered"] == (
        ledger["shed"]
        + ledger["pending"]
        + ledger["delivered"]
        + ledger["lost_in_crash"]
    ), ledger
    assert ledger["delivered"] == (
        ledger["received"] + ledger["rejected_invalid"]
    ), ledger
    assert ledger["received"] == (
        ledger["accepted"] + ledger["quarantined"]
    ), ledger


class TestShardRouting:
    def test_stable_and_in_range(self):
        for workers in (1, 2, 7):
            for name in ("dep-a", "dep-b", "warehouse-42"):
                first = shard_for(name, workers)
                assert 0 <= first < workers
                assert shard_for(name, workers) == first

    def test_known_values_are_process_independent(self):
        # blake2b, not the per-process-salted hash(): these exact
        # assignments must hold in every interpreter, forever —
        # re-routing a deployment would strand its accumulator state.
        assert shard_for("deployment-00", 4) == 1
        assert shard_for("deployment-01", 4) == 1
        assert shard_for("deployment-02", 4) == 0
        assert shard_for("deployment-03", 4) == 0

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            shard_for("dep", 0)


class TestShmRing:
    def test_alloc_release_fifo(self):
        ring = ShmRing(1 << 12)
        try:
            first = ring.alloc(100)
            second = ring.alloc(200)
            assert first == 0
            assert second == 104  # 8-byte aligned
            ring.release(first)
            ring.release(second)
            assert ring.used == 0
        finally:
            ring.close()

    def test_wrap_and_exhaustion(self):
        ring = ShmRing(1 << 10)
        try:
            slots = []
            while True:
                offset = ring.alloc(200)
                if offset is None:
                    break
                slots.append(offset)
            assert len(slots) == 5  # 5 x 200 (aligned) in 1024
            ring.release(slots[0])
            wrapped = ring.alloc(200)
            assert wrapped == 0  # reused the freed head
        finally:
            ring.close()

    def test_out_of_order_release_is_refused(self):
        ring = ShmRing(1 << 10)
        try:
            ring.alloc(64)
            ring.alloc(64)
            with pytest.raises(ValueError):
                ring.release(64)  # second slot before the first
        finally:
            ring.close()

    def test_concurrent_alloc_release_stays_consistent(self):
        """alloc (offer thread) and release (reader thread) race.

        A lost update on ``_used`` either hands out overlapping bytes
        (corruption) or strands the ring full (permanent fallback); with
        the lock the accounting must come back to exactly zero.
        """
        ring = ShmRing(1 << 12)
        inflight: "queue.Queue" = queue.Queue()
        errors = []

        def consumer():
            try:
                while True:
                    offset = inflight.get()
                    if offset is None:
                        return
                    ring.release(offset)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        thread = threading.Thread(target=consumer)
        thread.start()
        try:
            produced = 0
            while produced < 2000:
                offset = ring.alloc(64)
                if offset is None:
                    continue
                inflight.put(offset)
                produced += 1
        finally:
            inflight.put(None)
            thread.join(30.0)
        try:
            assert not errors
            assert ring.used == 0
            assert ring.inflight == 0
        finally:
            ring.close()

    def test_cancel_reclaims_newest_unshipped_slot(self):
        ring = ShmRing(1 << 10)
        try:
            first = ring.alloc(64)
            second = ring.alloc(64)
            # Only the newest slot is cancellable (older may be in
            # flight at the worker already).
            assert ring.cancel(first) is False
            assert ring.cancel(second) is True
            assert ring.used == 64
            assert ring.alloc(64) == second  # head rewound
        finally:
            ring.close()

    def test_cancel_of_wrapped_slot_restores_tail(self):
        ring = ShmRing(1 << 10)
        try:
            slots = [ring.alloc(200) for _ in range(5)]
            for offset in slots:
                ring.release(offset)
            wrapped = ring.alloc(200)  # pads the 24-byte tail, wraps
            assert wrapped == 0
            assert ring.cancel(wrapped) is True
            assert ring.used == 0
            assert ring.alloc(16) == 1000  # tail bytes usable again
        finally:
            ring.close()

    def test_columnar_roundtrip_through_segment(self, collected):
        cols = ColumnarReportBatch.from_reports(collected.reports)
        ring = ShmRing(1 << 22)
        try:
            offset = ring.alloc(cols.packed_nbytes())
            meta = cols.pack_into(ring.buf, offset)
            clone = ColumnarReportBatch.unpack_from(
                ring.buf, meta, offset=offset, copy=True
            )
            assert clone.epcs == cols.epcs
            np.testing.assert_array_equal(clone.epc_index, cols.epc_index)
            np.testing.assert_array_equal(clone.phase_rad, cols.phase_rad)
            np.testing.assert_array_equal(
                clone.reader_timestamp_us, cols.reader_timestamp_us
            )
            assert clone.phase_rad.dtype == cols.phase_rad.dtype
            # copy=True detaches from the segment: release + reuse must
            # not corrupt the clone.
            ring.release(offset)
            before = clone.phase_rad.copy()
            ring.buf[: 1 << 12] = b"\xff" * (1 << 12)
            np.testing.assert_array_equal(clone.phase_rad, before)
        finally:
            ring.close()


class TestColumnarMailbox:
    def test_offer_columnar_counts_like_object_path(self, collected):
        cols = ColumnarReportBatch.from_reports(collected.reports)
        mailbox = BoundedMailbox(high_water=1_000_000)
        kept, shed = mailbox.offer_columnar("reader-1", cols)
        assert kept == len(cols)
        assert shed == 0
        assert mailbox.pending_reports == len(cols)

    def test_columnar_shedding_drops_bystanders_first(self, collected):
        cols = ColumnarReportBatch.from_reports(collected.reports)
        registered = set(cols.epcs[: len(cols.epcs) // 2])
        mailbox = BoundedMailbox(
            high_water=len(cols) // 2,
            is_infrastructure_epc=lambda epc: epc in registered,
        )
        mailbox.offer_columnar("reader-1", cols)
        stats = mailbox.stats
        assert stats.shed > 0
        assert stats.shed_bystander > 0
        assert stats.offered == len(cols)
        assert stats.offered == (
            mailbox.pending_reports + stats.shed + stats.delivered
        )


class TestThreadPinning:
    def test_pin_env_covers_blas_and_numba(self):
        env = thread_pin_env(3)
        assert env["OMP_NUM_THREADS"] == "3"
        assert env["OPENBLAS_NUM_THREADS"] == "3"
        assert env["NUMBA_NUM_THREADS"] == "3"
        with pytest.raises(ValueError):
            thread_pin_env(0)


class TestShardedFleetServing:
    def test_end_to_end_identity_and_clean_shutdown(
        self, calibrated_scenario_2d, collected, reference_fix
    ):
        cols = ColumnarReportBatch.from_reports(collected.reports)
        fleet = ShardedFleet(workers=2, request_timeout_s=120.0)
        fleet.start()
        ids = ["dep-shm", "dep-obj"]
        try:
            for deployment_id in ids:
                fleet.add_deployment(
                    make_spec(calibrated_scenario_2d, deployment_id)
                )
            with pytest.raises(ConfigurationError):
                fleet.add_deployment(
                    make_spec(calibrated_scenario_2d, ids[0])
                )
            # Same rows over both transports: shm columnar and pickle.
            step = 200
            for start in range(0, len(cols), step):
                rows = np.arange(start, min(start + step, len(cols)))
                fleet.offer_columnar(
                    "dep-shm", "reader-1", cols.select(rows)
                )
            for start in range(0, len(collected.reports), step):
                fleet.offer(
                    "dep-obj",
                    "reader-1",
                    collected.reports[start : start + step],
                )
            fleet.drain(timeout_s=120.0)
            for deployment_id in ids:
                fix, _diag = fleet.locate_2d_sync(
                    deployment_id, "reader-1"
                )
                assert fix.position.x == pytest.approx(
                    reference_fix.position.x, abs=1e-9
                )
                assert fix.position.y == pytest.approx(
                    reference_fix.position.y, abs=1e-9
                )
                ledger = fleet.accounting(deployment_id)
                assert ledger["offered"] == len(cols)
                assert ledger["delivered"] == len(cols)
                assert_balanced(ledger)
            stats = fleet.engine_stats()
            assert set(stats) == set(ids)
            assert stats["dep-shm"]["steering"]["misses"] > 0
            pids = [
                info["pid"] for info in fleet.worker_info() if info["pid"]
            ]
        finally:
            summary = fleet.close()
        assert sorted(summary["clean"]) == [0, 1]
        assert summary["killed"] == []
        # No orphans: every worker pid must be fully reaped.
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert fleet.close()["already_closed"]

    def test_default_engine_matches_in_process_server(
        self, calibrated_scenario_2d, collected
    ):
        """A spec that names no engine serves on ``DeploymentSpec.engine``
        in the worker: same fix as an in-process server on that engine."""
        expected = in_process_fix(
            calibrated_scenario_2d, collected, DeploymentSpec.engine
        )
        fleet = ShardedFleet(workers=1, request_timeout_s=120.0)
        fleet.start()
        try:
            fleet.add_deployment(DeploymentSpec(
                deployment_id="dep-default",
                registry_records=tuple(calibrated_scenario_2d.scene.registry),
                pipeline=calibrated_scenario_2d.config.pipeline,
            ))
            fleet.offer_columnar(
                "dep-default",
                "reader-1",
                ColumnarReportBatch.from_reports(collected.reports),
            )
            fleet.drain(timeout_s=120.0)
            fix, _diag = fleet.locate_2d_sync("dep-default", "reader-1")
        finally:
            fleet.close()
        assert fix.position.x == pytest.approx(expected.position.x, abs=1e-9)
        assert fix.position.y == pytest.approx(expected.position.y, abs=1e-9)

    def test_worker_kill_restart_warm_restores_exactly(
        self, calibrated_scenario_2d, collected, reference_fix
    ):
        """Satellite SLO: checkpoint/restore across the process boundary.

        Stream half the series, checkpoint, SIGKILL the worker, restart
        the shard, stream the rest.  The restored buffers must extend
        exactly — the final fix equals the uninterrupted single-process
        fix to 1e-9 — and the ledger must balance across both worker
        incarnations.
        """
        reports = collected.reports
        half = len(reports) // 2
        fleet = ShardedFleet(workers=2, request_timeout_s=120.0)
        fleet.start()
        victim = "dep-victim"
        try:
            fleet.add_deployment(
                make_spec(calibrated_scenario_2d, victim)
            )
            shard = fleet.shard_of(victim)
            fleet.offer(victim, "reader-1", reports[:half])
            assert fleet.checkpoint(victim) > 0
            old_pid = fleet.worker_info()[shard]["pid"]
            fleet.kill_worker(shard)
            assert fleet.worker_info()[shard]["alive"] is False
            with pytest.raises(ProcessLookupError):
                os.kill(old_pid, 0)
            # Offers while the shard is down are rejected and counted.
            assert fleet.offer(victim, "reader-1", reports[:10]) == 0
            ledger = fleet.accounting(victim)
            assert ledger["rejected_open"] == 10
            assert_balanced(ledger)
            with pytest.raises(WorkerUnavailableError):
                fleet.locate_2d_sync(victim, "reader-1")

            receipts = fleet.restart_shard(shard)
            assert [r["deployment_id"] for r in receipts] == [victim]
            assert receipts[0]["warm_restored"] is True
            stats = fleet.actor_stats(victim)
            assert stats["warm_restored"] is True

            fleet.offer(victim, "reader-1", reports[half:])
            fleet.drain(timeout_s=120.0)
            fix, _diag = fleet.locate_2d_sync(victim, "reader-1")
            assert fix.position.x == pytest.approx(
                reference_fix.position.x, abs=1e-9
            )
            assert fix.position.y == pytest.approx(
                reference_fix.position.y, abs=1e-9
            )
            ledger = fleet.accounting(victim)
            # Checkpointed prefix + post-restart suffix: nothing lost,
            # every report in exactly one bucket, across two processes.
            assert ledger["offered"] == len(reports)
            assert ledger["delivered"] == len(reports)
            assert ledger["lost_in_crash"] == 0
            assert ledger["rejected_open"] == 10
            assert_balanced(ledger)
        finally:
            fleet.close()

    def test_restart_after_uncommanded_death_settles(
        self, calibrated_scenario_2d, collected
    ):
        """A worker dying on its own (not via ``kill_worker``) leaves an
        unfolded incarnation behind; ``restart_shard`` must fold it and
        unlink its shm segment, or ``dispatched`` keeps the dead count
        and ``drain`` can never settle."""
        reports = collected.reports
        fleet = ShardedFleet(workers=1, request_timeout_s=120.0)
        fleet.start()
        try:
            fleet.add_deployment(
                make_spec(calibrated_scenario_2d, "dep-ucd")
            )
            fleet.offer("dep-ucd", "reader-1", reports[:100])
            fleet.drain(timeout_s=120.0)
            handle = fleet._workers[0]
            old_ring_name = handle.ring.name
            os.kill(handle.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while handle.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not handle.alive

            fleet.restart_shard(0)
            # The dead incarnation's segment must be gone, not leaked.
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=old_ring_name)
            fleet.offer("dep-ucd", "reader-1", reports[100:200])
            fleet.drain(timeout_s=120.0)  # hung forever pre-fix
            ledger = fleet.accounting("dep-ucd")
            assert ledger["offered"] == 200
            assert ledger["delivered"] == 200
            assert_balanced(ledger)
        finally:
            fleet.close()

    def test_worker_survives_bad_ingest(
        self, calibrated_scenario_2d, collected
    ):
        """Fire-and-forget ingest failures must not kill the shard.

        An unknown deployment id reaching the worker (restart race) and
        a corrupt shm slot meta both have to be contained: the worker
        records an ingest-rejected event (releasing the slot in the
        columnar case) and keeps serving every other deployment."""
        fleet = ShardedFleet(workers=1, request_timeout_s=120.0)
        fleet.start()
        try:
            fleet.add_deployment(
                make_spec(calibrated_scenario_2d, "dep-robust")
            )
            handle = fleet._workers[0]
            # Bypass parent routing: unknown deployment on the worker.
            fleet._send(
                handle, ("offer", "no-such-dep", "reader-1", [])
            )
            # Corrupt columnar meta in an otherwise valid slot.
            offset = handle.ring.alloc(64)
            fleet._send(
                handle,
                ("offer_cols", "dep-robust", "reader-1", offset, object()),
            )
            fleet.offer("dep-robust", "reader-1", collected.reports[:50])
            fleet.drain(timeout_s=120.0)
            assert handle.alive
            # The corrupt slot's release ack still came back.
            deadline = time.monotonic() + 30.0
            while handle.ring.inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.ring.inflight == 0
            assert fleet.worker_events().get("ingest-rejected", 0) >= 2
            ledger = fleet.accounting("dep-robust")
            assert ledger["offered"] == 50
            assert_balanced(ledger)
        finally:
            fleet.close()

    def test_unacked_dispatch_folds_into_lost_in_crash(
        self, calibrated_scenario_2d, collected
    ):
        """Reports in the pipe when the worker dies are counted lost."""
        fleet = ShardedFleet(workers=1, request_timeout_s=120.0)
        fleet.start()
        try:
            fleet.add_deployment(
                make_spec(calibrated_scenario_2d, "dep-loss")
            )
            # Dispatch a burst and SIGKILL immediately: some (usually
            # all) of it never gets acknowledged.
            fleet.offer("dep-loss", "reader-1", collected.reports)
            fleet.kill_worker(0)
            ledger = fleet.accounting("dep-loss")
            assert ledger["offered"] == len(collected.reports)
            assert_balanced(ledger)
        finally:
            fleet.close()
