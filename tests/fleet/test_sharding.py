"""Tests for repro.fleet.sharding (multi-process fleet, pipe transport).

The process tests spawn real workers (spawn start method), so they keep
fleets small (2 workers) and reuse one collected scenario batch.  Every
ledger assertion is *exact* — the cross-incarnation invariant
``offered == shed + pending + delivered + lost_in_crash`` is the one
guarantee a ``kill -9`` is not allowed to break.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import time

import numpy as np
import pytest

from fleet_helpers import columns

from repro.core.geometry import Point3
from repro.errors import ConfigurationError, WorkerUnavailableError
from repro.fleet.backpressure import BoundedMailbox
from repro.fleet.sharding import ShardedFleet, shard_for
from repro.fleet.worker import THREAD_PIN_ENV, DeploymentSpec
from repro.hardware.llrp_columnar import (
    ColumnarReportBatch,
    decode_ro_access_report_columnar,
)
from repro.hardware.llrp_wire import encode_ro_access_report
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


#: Every ndarray column of a batch (all fields but the EPC table).
_COLUMNS = [
    field.name
    for field in dataclasses.fields(ColumnarReportBatch)
    if field.name != "epcs"
]


class TestColumnarPickle:
    def test_columnar_roundtrip_through_pickle(self, collected):
        """Pickle is the transport: every batch crosses it unchanged."""
        _mid, wire = decode_ro_access_report_columnar(
            encode_ro_access_report(collected)
        )
        # Timestamps are unsigned (big-endian views) off the wire and
        # signed from report objects.
        batches = [
            (wire, "u"),
            (ColumnarReportBatch.from_reports(collected.reports), "i"),
            (ColumnarReportBatch.empty(), "u"),
        ]
        for cols, timestamp_kind in batches:
            assert cols.host_timestamp_us.dtype.kind == timestamp_kind
            clone = pickle.loads(pickle.dumps(cols))
            assert len(clone) == len(cols)
            assert clone.epcs == cols.epcs
            for name in _COLUMNS:
                original, copied = getattr(cols, name), getattr(clone, name)
                # NumPy may pickle a big-endian wire view in native
                # byte order; type, width and values must not change.
                assert copied.dtype.newbyteorder("=") == (
                    original.dtype.newbyteorder("=")
                ), name
                np.testing.assert_array_equal(copied, original, err_msg=name)
        assert len(wire) == len(collected.reports) > 0


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
    def test_pin_env_pins_blas_to_one_thread(self):
        assert THREAD_PIN_ENV["OMP_NUM_THREADS"] == "1"
        assert THREAD_PIN_ENV["OPENBLAS_NUM_THREADS"] == "1"
        assert THREAD_PIN_ENV["MKL_NUM_THREADS"] == "1"
        assert set(THREAD_PIN_ENV.values()) == {"1"}


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
            # Same rows as slices of one batch and as batches built
            # from report lists, both pickled on the worker's pipe.
            step = 200
            for start in range(0, len(cols), step):
                rows = np.arange(start, min(start + step, len(cols)))
                fleet.offer_columnar(
                    "dep-shm", "reader-1", cols.select(rows)
                )
            for start in range(0, len(collected.reports), step):
                fleet.offer_columnar(
                    "dep-obj",
                    "reader-1",
                    columns(collected.reports[start : start + step]),
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
            fleet.offer_columnar(
                victim, "reader-1", columns(reports[:half])
            )
            assert fleet.checkpoint(victim) > 0
            old_pid = fleet.worker_info()[shard]["pid"]
            fleet.kill_worker(shard)
            assert fleet.worker_info()[shard]["alive"] is False
            with pytest.raises(ProcessLookupError):
                os.kill(old_pid, 0)
            # Offers while the shard is down are rejected and counted.
            assert fleet.offer_columnar(
                victim, "reader-1", columns(reports[:10])
            ) == 0
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

            fleet.offer_columnar(
                victim, "reader-1", columns(reports[half:])
            )
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
        unfolded incarnation behind.  Until the restart, ``accounting``
        must still count it (as the crash fold will); ``restart_shard``
        must fold it, or ``dispatched`` keeps the dead count and
        ``drain`` can never settle."""
        reports = collected.reports
        fleet = ShardedFleet(workers=1, request_timeout_s=120.0)
        fleet.start()
        try:
            fleet.add_deployment(
                make_spec(calibrated_scenario_2d, "dep-ucd")
            )
            fleet.offer_columnar(
                "dep-ucd", "reader-1", columns(reports[:100])
            )
            fleet.drain(timeout_s=120.0)
            handle = fleet._workers[0]
            os.kill(handle.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while handle.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not handle.alive
            # Dead but not folded: the last acked ledger still counts.
            ledger = fleet.accounting("dep-ucd")
            assert ledger["offered"] == 100
            assert ledger["delivered"] == 100
            assert_balanced(ledger)

            fleet.restart_shard(0)
            fleet.offer_columnar(
                "dep-ucd", "reader-1", columns(reports[100:200])
            )
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
        a malformed offer payload both have to be contained: the
        worker records an ingest-rejected event and keeps serving every
        other deployment."""
        fleet = ShardedFleet(workers=1, request_timeout_s=120.0)
        fleet.start()
        try:
            fleet.add_deployment(
                make_spec(calibrated_scenario_2d, "dep-robust")
            )
            handle = fleet._workers[0]
            # Bypass parent routing: unknown deployment on the worker.
            fleet._send(
                handle,
                ("offer", "no-such-dep", "reader-1", columns([])),
            )
            # An offer whose payload is not a batch.
            fleet._send(
                handle, ("offer", "dep-robust", "reader-1", object())
            )
            fleet.offer_columnar(
                "dep-robust", "reader-1", columns(collected.reports[:50])
            )
            fleet.drain(timeout_s=120.0)
            assert handle.alive
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
            fleet.offer_columnar(
                "dep-loss", "reader-1", columns(collected.reports)
            )
            fleet.kill_worker(0)
            ledger = fleet.accounting("dep-loss")
            assert ledger["offered"] == len(collected.reports)
            assert_balanced(ledger)
        finally:
            fleet.close()
