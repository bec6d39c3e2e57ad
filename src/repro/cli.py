"""Command-line interface: ``tagspin <command>`` (or ``python -m repro``).

Commands
--------
``locate2d`` / ``locate3d``
    Run one simulated localization at a given reader pose and print the
    fix, the error and the per-disk bearings.
``trials``
    Run a batch of random poses and print the error statistics.
``compare``
    Run the Tagspin-vs-baselines comparison table.
``tags``
    Print the Table I tag-model registry.
``plan``
    Print the predicted-accuracy map for a two-disk layout.
``health``
    Simulate a collection and print the deployment health table.
``diagnose``
    Simulate a collection with an optional injected fault, run it through
    the resilient server and print the fix with its full diagnostics.
``bench-engine``
    Time the spectrum engines (reference vs harmonic vs
    adaptive-harmonic) over a synthetic multi-disk deployment and print
    the scaling table; ``--tolerance`` sets the adaptive engine's angular
    tolerance.  ``--json`` writes the full
    ``tagspin-bench/1`` document, including every engine's memo
    hit/miss counters and the harmonic engine's
    truncation-order statistics.
``serve``
    Run a supervised fleet serving session over a simulated report
    stream: several deployment actors ingest chunked traffic, serve
    fixes and checkpoint; ``--kill`` crashes one actor mid-stream to
    demonstrate the warm restart, ``--chaos`` runs the fault-injection
    suite instead and exits nonzero on any SLO violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.core.geometry import Point2, Point3
from repro.hardware.tags import TABLE_I
from repro.sim.comparison import BaselineComparison, format_comparison_table
from repro.sim.runner import run_trials_2d, run_trials_3d
from repro.sim.scenario import paper_default_scenario


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")


def _cmd_locate2d(args: argparse.Namespace) -> int:
    scenario = paper_default_scenario(seed=args.seed)
    scenario.run_orientation_prelude()
    fix, error = scenario.locate_2d(Point2(args.x, args.y))
    print(f"true pose : ({args.x:.3f}, {args.y:.3f}) m")
    print(f"estimate  : ({fix.position.x:.3f}, {fix.position.y:.3f}) m")
    print(f"error     : {error.combined * 100:.2f} cm "
          f"(x {error.x * 100:.2f}, y {error.y * 100:.2f})")
    print(f"residual  : {fix.residual * 100:.3f} cm, "
          f"confidence {fix.confidence:.3f}")
    return 0


def _cmd_locate3d(args: argparse.Namespace) -> int:
    scenario = paper_default_scenario(seed=args.seed, three_d=True)
    scenario.run_orientation_prelude()
    fix, error = scenario.locate_3d(Point3(args.x, args.y, args.z))
    print(f"true pose : ({args.x:.3f}, {args.y:.3f}, {args.z:.3f}) m")
    print(
        f"estimate  : ({fix.position.x:.3f}, {fix.position.y:.3f}, "
        f"{fix.position.z:.3f}) m"
    )
    print(
        f"mirror    : ({fix.mirror.x:.3f}, {fix.mirror.y:.3f}, "
        f"{fix.mirror.z:.3f}) m"
    )
    assert error.z is not None
    print(
        f"error     : {error.combined * 100:.2f} cm "
        f"(x {error.x * 100:.2f}, y {error.y * 100:.2f}, z {error.z * 100:.2f})"
    )
    return 0


def _cmd_trials(args: argparse.Namespace) -> int:
    scenario = paper_default_scenario(seed=args.seed, three_d=args.three_d)
    runner = run_trials_3d if args.three_d else run_trials_2d
    batch = runner(scenario, trials=args.trials, seed=args.seed + 100)
    stats = batch.summary().as_centimeters()
    label = "3D" if args.three_d else "2D"
    print(f"{label} localization over {batch.trials} poses "
          f"({batch.failures} failures):")
    for key, value in stats.items():
        print(f"  {key:>10}: {value:.2f}" if key != "count" else
              f"  {key:>10}: {int(value)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    comparison = BaselineComparison(
        paper_default_scenario(seed=args.seed), seed=args.seed + 1
    )
    comparison.calibrate()
    results = comparison.run(trials=args.trials)
    print(format_comparison_table(results))
    return 0


def _cmd_tags(_args: argparse.Namespace) -> int:
    header = (
        f"{'key':>10} | {'model':>9} | {'name':>10} | {'chip':>8} | "
        f"{'size (mm)':>13} | pp [rad]"
    )
    print(header)
    print("-" * len(header))
    for key, model in TABLE_I.items():
        size = f"{model.size_mm[0]:.1f}x{model.size_mm[1]:.1f}"
        print(
            f"{key:>10} | {model.model_number:>9} | {model.name:>10} | "
            f"{model.chip:>8} | {size:>13} | {model.orientation_pp_rad:.2f}"
        )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.geometry import Point2 as P2
    from repro.sim.planning import PlannedDisk, accuracy_map

    half = args.distance / 2.0
    disks = [PlannedDisk(P2(-half, 0.0)), PlannedDisk(P2(half, 0.0))]
    grid = accuracy_map(
        disks, (-2.0, 2.0), (0.5, 3.0), resolution=args.resolution
    )
    print(f"predicted RMSE map [cm], disks {args.distance * 100:.0f} cm apart:")
    print("      " + " ".join(f"{x:+5.1f}" for x in grid.xs))
    for i, y in enumerate(grid.ys):
        cells = " ".join(
            f"{v * 100:5.1f}" if np.isfinite(v) else "    -"
            for v in grid.rmse[i]
        )
        print(f"y={y:+4.1f} {cells}")
    print(
        f"coverage with RMSE <= 5 cm: "
        f"{grid.coverage_fraction(0.05) * 100:.0f}%"
    )
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.core.geometry import Point3
    from repro.server.health import DeploymentMonitor, format_health_table

    scenario = paper_default_scenario(seed=args.seed)
    scenario.run_orientation_prelude()
    batch, _reader = scenario.collect(Point3(args.x, args.y, 0.0))
    monitor = DeploymentMonitor(scenario.scene.registry)
    print(format_health_table(list(monitor.check_all(batch).values())))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.core.geometry import Point3
    from repro.server.health import format_health_table
    from repro.server.resilience import ResilientLocalizationServer
    from repro.sim import faults
    from repro.sim.scenario import ScenarioConfig, TagspinScenario
    from repro.sim.scene import DeploymentSpec

    if args.disks < 2:
        print("diagnose: --disks must be >= 2 (triangulation needs two "
              "bearings)", file=sys.stderr)
        return 2
    if args.disks == 2:
        spec = DeploymentSpec()
    else:
        # Spread extra disks on a small arc so every pair keeps a usable
        # triangulation baseline.
        centers = [
            Point3(
                0.7 * np.cos(np.pi * (0.25 + 0.5 * i / (args.disks - 1))),
                0.7 * np.sin(np.pi * (0.25 + 0.5 * i / (args.disks - 1))) - 0.7,
                0.0,
            )
            for i in range(args.disks)
        ]
        spec = DeploymentSpec(disk_centers=tuple(centers))
    scenario = TagspinScenario(ScenarioConfig(deployment=spec, seed=args.seed))
    scenario.run_orientation_prelude()
    pose = Point3(args.x, args.y, 0.0)
    batch, reader = scenario.collect(pose)
    rng = np.random.default_rng(args.seed + 1)

    target_epc = scenario.scene.registry.epcs()[0]
    if args.fault == "stall":
        disk = scenario.scene.registry.get(target_epc).disk
        batch = faults.stall_disk(batch, disk, target_epc)
    elif args.fault == "jam":
        batch = faults.jam_window(batch, 1.0, 4.0, rng)
    elif args.fault == "pi-slips":
        batch = faults.pi_slips(batch, 0.15, rng)
    elif args.fault == "duplicates":
        batch = faults.duplicate_reports(batch, 0.3, rng)
    elif args.fault == "corrupt":
        batch = faults.corrupt_quantization(batch, 0.2, rng)

    server = ResilientLocalizationServer(
        scenario.scene.registry, scenario.config.pipeline
    )
    server.ingest("reader-1", batch.reports)
    fix, diagnostics = server.locate_antenna_2d_diagnosed("reader-1")
    truth = reader.antenna(1).position.horizontal()

    print(f"fault       : {args.fault}")
    print(f"true pose   : ({args.x:.3f}, {args.y:.3f}) m")
    print(f"estimate    : ({fix.position.x:.3f}, {fix.position.y:.3f}) m")
    print(f"error       : {fix.position.distance_to(truth) * 100:.2f} cm")
    print(f"degradation : {diagnostics.degradation.value}")
    print(f"profile     : {diagnostics.pipeline.profile_used}"
          + (" (fallback)" if diagnostics.pipeline.fallback_applied else ""))
    print(f"disks used  : {', '.join(diagnostics.disks_used)}")
    for exclusion in diagnostics.disks_excluded:
        print(f"excluded    : {exclusion.epc} ({', '.join(exclusion.reasons)})")
    quarantine = diagnostics.quarantine
    print(
        f"quarantine  : {quarantine.quarantined}/{quarantine.received} rejected,"
        f" {quarantine.pi_slips_repaired} pi-slips repaired,"
        f" {quarantine.reordered} reordered"
    )
    print()
    monitor_batch = server.batch_for("reader-1", 1)
    print(format_health_table(
        list(server.monitor.check_all(monitor_batch).values())
    ))
    return 0


def _cmd_bench_engine(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.perf.bench import (
        format_results,
        results_to_json,
        run_engine_scaling,
    )

    overrides = {}
    if args.snapshots is not None:
        overrides["snapshots"] = args.snapshots
    results = run_engine_scaling(
        scales=args.scales,
        engines=args.engines,
        rounds=args.rounds,
        seed=args.seed,
        tolerance=args.tolerance,
        **overrides,
    )
    print(format_results(results))
    if args.json is not None:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(results_to_json(results))
        print(f"wrote {path}")
    return 0


def _format_metrics_table(snapshot: dict, deployment_ids: List[str]) -> str:
    """Compact per-deployment telemetry table from a metrics snapshot.

    Reads only the public ``tagspin-metrics/1`` surface — the same
    numbers a Prometheus scrape would see — so the status output stays
    exact across worker restarts (dead incarnations are already folded
    into the snapshot).
    """
    from repro.obs.exposition import (
        histogram_quantile,
        histogram_totals,
        sample_value,
    )

    header = (
        f"{'deployment':>14} | {'delivered':>9} | {'accepted':>8} | "
        f"{'shed':>5} | {'pending':>7} | {'fixes ok/err':>12}"
    )
    lines = [header, "-" * len(header)]
    for deployment_id in deployment_ids:
        labels = {"deployment": deployment_id}
        delivered = sample_value(
            snapshot, "tagspin_reports_delivered_total", labels
        )
        accepted = sample_value(
            snapshot, "tagspin_reports_accepted_total", labels
        )
        shed = sample_value(snapshot, "tagspin_reports_shed_total", labels)
        pending = sample_value(snapshot, "tagspin_mailbox_pending", labels)
        ok = sample_value(
            snapshot, "tagspin_fixes_total",
            {"deployment": deployment_id, "outcome": "ok"},
        )
        errors = sample_value(
            snapshot, "tagspin_fixes_total",
            {"deployment": deployment_id, "outcome": "error"},
        ) + sample_value(
            snapshot, "tagspin_fixes_total",
            {"deployment": deployment_id, "outcome": "deadline"},
        )
        lines.append(
            f"{deployment_id:>14} | {int(delivered):>9} | "
            f"{int(accepted):>8} | {int(shed):>5} | {int(pending):>7} | "
            f"{int(ok):>9}/{int(errors)}"
        )
    totals = histogram_totals(snapshot, "tagspin_fix_seconds")
    if totals["count"]:
        p50 = histogram_quantile(totals, 0.5) * 1e3
        p99 = histogram_quantile(totals, 0.99) * 1e3
        lines.append(
            f"fix latency: {totals['count']} fixes, "
            f"p50 <= {p50:.1f} ms, p99 <= {p99:.1f} ms"
        )
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import time
    from pathlib import Path

    from repro.core.geometry import Point3
    from repro.fleet.actor import ActorConfig
    from repro.fleet.chaos import ChaosConfig, run_chaos_suite
    from repro.fleet.checkpoint import (
        JsonCheckpointStore,
        MemoryCheckpointStore,
    )
    from repro.fleet.events import EventLog
    from repro.fleet.supervisor import FleetSupervisor, SupervisorPolicy
    from repro.fleet.worker import DeploymentSpec
    from repro.server.resilience import ResilientLocalizationServer

    scenario = paper_default_scenario(seed=args.seed)
    scenario.run_orientation_prelude()

    if args.chaos:
        report = run_chaos_suite(ChaosConfig(seed=args.seed), scenario=scenario)
        for outcome in report.outcomes:
            marker = "PASS" if outcome.passed else "FAIL"
            print(f"{marker} {outcome.name}: {outcome.slo}")
        print(
            "chaos suite: "
            + ("all SLOs met" if report.passed else "SLO VIOLATED")
        )
        return 0 if report.passed else 1

    pose = Point3(args.x, args.y, 0.0)
    batch, reader = scenario.collect(pose)
    truth = reader.antenna(1).position.horizontal()
    registry = scenario.scene.registry
    pipeline = scenario.config.pipeline

    if args.workers:
        return _serve_sharded(args, scenario, batch, truth)

    store = (
        JsonCheckpointStore(Path(args.checkpoint_dir))
        if args.checkpoint_dir
        else MemoryCheckpointStore()
    )
    events = EventLog()
    supervisor = FleetSupervisor(
        policy=SupervisorPolicy(), events=events, store=store
    )

    def factory() -> ResilientLocalizationServer:
        return ResilientLocalizationServer(
            registry, pipeline, engine=DeploymentSpec.engine
        )

    ids = [f"deployment-{i:02d}" for i in range(args.deployments)]

    async def wait_serving(deployment_id: str, incarnation: int = 0) -> None:
        while True:
            actor = supervisor.actor(deployment_id)
            if (
                actor is not None
                and actor.running
                and actor.incarnation >= incarnation
            ):
                return
            await asyncio.sleep(0.005)

    async def session() -> None:
        for deployment_id in ids:
            supervisor.add_deployment(
                deployment_id,
                factory,
                ActorConfig(checkpoint_every=args.checkpoint_every),
            )
        for deployment_id in ids:
            await wait_serving(deployment_id)

        reports = batch.reports
        chunks = [
            list(reports[i : i + args.chunk_size])
            for i in range(0, len(reports), args.chunk_size)
        ]
        kill_at = len(chunks) // 2 if args.kill else -1
        for index, chunk in enumerate(chunks):
            if index == kill_at:
                print(f"-- crashing {ids[0]} mid-stream --")
                await supervisor.checkpoint(ids[0])
                supervisor.kill(ids[0])
                await wait_serving(ids[0], incarnation=1)
            for deployment_id in ids:
                supervisor.offer(deployment_id, "reader-1", chunk)
        while any(
            supervisor.actor(i) is None
            or supervisor.actor(i).mailbox.pending_reports
            for i in ids
        ):
            await asyncio.sleep(0.005)

        for deployment_id in ids:
            start = time.perf_counter()
            fix, _diag = await supervisor.locate_2d(deployment_id, "reader-1")
            elapsed_ms = (time.perf_counter() - start) * 1e3
            actor = supervisor.actor(deployment_id)
            warm = " (warm-restored)" if actor.stats.warm_restored else ""
            print(
                f"{deployment_id}: fix ({fix.position.x:.3f}, "
                f"{fix.position.y:.3f}) m, error "
                f"{fix.position.distance_to(truth) * 100:.2f} cm, "
                f"{elapsed_ms:.0f} ms, incarnation "
                f"{actor.incarnation}{warm}"
            )
            acct = supervisor.accounting(deployment_id)
            print(
                f"  ledger: offered {acct['offered']}, delivered "
                f"{acct['delivered']}, accepted {acct['accepted']}, "
                f"quarantined {acct['quarantined']}, shed {acct['shed']}, "
                f"lost in crash {acct['lost_in_crash']}"
            )
        await supervisor.stop()

    asyncio.run(session())
    print()
    print(_format_metrics_table(supervisor.metrics_snapshot(), ids))
    print(
        "events: "
        + ", ".join(
            f"{kind} x{count}"
            for kind, count in sorted(events.counts().items())
        )
    )
    return 0


def _serve_sharded(args: argparse.Namespace, scenario, batch, truth) -> int:
    """``tagspin serve --workers N``: the multi-process sharded fleet.

    Same session shape as the in-process path — add deployments, stream
    the collected batch in chunks, fix each deployment — but ingest
    crosses process boundaries as columnar batches on each worker's
    pipe, and ``--kill`` SIGKILLs a whole *worker process*
    mid-stream to demonstrate the cross-process warm restart.
    """
    import time

    import numpy as np

    from repro.fleet.actor import ActorConfig
    from repro.fleet.sharding import ShardedFleet
    from repro.fleet.worker import DeploymentSpec
    from repro.hardware.llrp_columnar import ColumnarReportBatch

    records = tuple(scenario.scene.registry)
    pipeline = scenario.config.pipeline
    ids = [f"deployment-{i:02d}" for i in range(args.deployments)]
    fleet = ShardedFleet(
        workers=args.workers, checkpoint_dir=args.checkpoint_dir
    )
    fleet.start()
    try:
        for deployment_id in ids:
            fleet.add_deployment(DeploymentSpec(
                deployment_id=deployment_id,
                registry_records=records,
                pipeline=pipeline,
                actor_config=ActorConfig(
                    checkpoint_every=args.checkpoint_every
                ),
            ))
        cols = ColumnarReportBatch.from_reports(batch.reports)
        chunks = [
            cols.select(np.arange(i, min(i + args.chunk_size, len(cols))))
            for i in range(0, len(cols), args.chunk_size)
        ]
        kill_at = len(chunks) // 2 if args.kill else -1
        for index, chunk in enumerate(chunks):
            if index == kill_at:
                victim_shard = fleet.shard_of(ids[0])
                print(
                    f"-- SIGKILLing worker {victim_shard} "
                    f"(owns {ids[0]}) mid-stream --"
                )
                fleet.checkpoint(ids[0])
                fleet.kill_worker(victim_shard)
                receipts = fleet.restart_shard(victim_shard)
                restored = ", ".join(
                    f"{r['deployment_id']}"
                    f"{' (warm)' if r['warm_restored'] else ''}"
                    for r in receipts
                )
                print(f"-- shard {victim_shard} restarted: {restored} --")
            for deployment_id in ids:
                fleet.offer_columnar(deployment_id, "reader-1", chunk)
        fleet.drain(timeout_s=120.0)

        for deployment_id in ids:
            start = time.perf_counter()
            fix, _diag = fleet.locate_2d_sync(deployment_id, "reader-1")
            elapsed_ms = (time.perf_counter() - start) * 1e3
            shard = fleet.shard_of(deployment_id)
            print(
                f"{deployment_id} [worker {shard}]: fix "
                f"({fix.position.x:.3f}, {fix.position.y:.3f}) m, error "
                f"{fix.position.distance_to(truth) * 100:.2f} cm, "
                f"{elapsed_ms:.0f} ms"
            )
            acct = fleet.accounting(deployment_id)
            print(
                f"  ledger: offered {acct['offered']}, delivered "
                f"{acct['delivered']}, accepted {acct['accepted']}, "
                f"quarantined {acct['quarantined']}, shed {acct['shed']}, "
                f"lost in crash {acct['lost_in_crash']}"
            )
        for info in fleet.worker_info():
            print(
                f"worker {info['index']}: pid {info['pid']}, "
                f"{len(info.get('deployments', []))} deployment(s)"
            )
        snapshot = fleet.metrics_snapshot()
    finally:
        fleet.close()
    print()
    print(_format_metrics_table(snapshot, ids))
    print(
        "events: "
        + ", ".join(
            f"{kind} x{count}"
            for kind, count in sorted(fleet.worker_events().items())
        )
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``tagspin metrics``: run a short sharded session and dump telemetry.

    Streams one simulated collection through a multi-process fleet
    (optionally SIGKILLing and restarting a worker mid-stream), takes a
    fleet-wide ``tagspin-metrics/1`` snapshot — exact across the kill —
    and emits it as Prometheus text and/or versioned JSON.  The ledger
    reconciliation is printed to stderr so the exposition on stdout
    stays machine-readable.
    """
    import json as json_module

    import numpy as np

    from repro.core.geometry import Point3
    from repro.fleet.sharding import ShardedFleet
    from repro.fleet.worker import DeploymentSpec
    from repro.hardware.llrp_columnar import ColumnarReportBatch
    from repro.obs.exposition import sample_value, to_prometheus

    scenario = paper_default_scenario(seed=args.seed)
    scenario.run_orientation_prelude()
    batch, _reader = scenario.collect(Point3(args.x, args.y, 0.0))
    records = tuple(scenario.scene.registry)
    ids = [f"deployment-{i:02d}" for i in range(args.deployments)]

    fleet = ShardedFleet(workers=args.workers, request_timeout_s=120.0)
    fleet.start()
    try:
        for deployment_id in ids:
            fleet.add_deployment(DeploymentSpec(
                deployment_id=deployment_id,
                registry_records=records,
                pipeline=scenario.config.pipeline,
            ))
        cols = ColumnarReportBatch.from_reports(batch.reports)
        chunks = [
            cols.select(np.arange(i, min(i + args.chunk_size, len(cols))))
            for i in range(0, len(cols), args.chunk_size)
        ]
        kill_at = len(chunks) // 2 if args.kill else -1
        for index, chunk in enumerate(chunks):
            if index == kill_at:
                victim_shard = fleet.shard_of(ids[0])
                print(
                    f"-- SIGKILL worker {victim_shard} mid-stream --",
                    file=sys.stderr,
                )
                fleet.drain(timeout_s=120.0)
                fleet.checkpoint(ids[0])
                fleet.kill_worker(victim_shard)
                fleet.restart_shard(victim_shard)
            for deployment_id in ids:
                fleet.offer_columnar(deployment_id, "reader-1", chunk)
        fleet.drain(timeout_s=120.0)
        for deployment_id in ids:
            fleet.locate_2d_sync(deployment_id, "reader-1")
        snapshot = fleet.metrics_snapshot()
        mismatched = 0
        for deployment_id in ids:
            ledger = fleet.accounting(deployment_id)
            counted = sample_value(
                snapshot,
                "tagspin_reports_delivered_total",
                {"deployment": deployment_id},
            )
            if counted != ledger["delivered"]:
                mismatched += 1
                print(
                    f"MISMATCH {deployment_id}: counter {counted:g} != "
                    f"ledger {ledger['delivered']}",
                    file=sys.stderr,
                )
        print(
            f"reconciled {len(ids)} deployments across "
            f"{args.workers} workers"
            + (" (1 SIGKILL + restart)" if args.kill else "")
            + f": {len(ids) - mismatched} exact, {mismatched} mismatched",
            file=sys.stderr,
        )
    finally:
        fleet.close()

    if args.format in ("prom", "both"):
        sys.stdout.write(to_prometheus(snapshot))
    if args.format in ("json", "both"):
        sys.stdout.write(json_module.dumps(snapshot, indent=2) + "\n")
    if args.out is not None:
        from pathlib import Path

        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json_module.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0 if mismatched == 0 else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.geometry import Point3
    from repro.fleet.wire_ingest import replay_into_supervisor
    from repro.sim.wire_recording import WireRecording

    if args.record:
        scenario = paper_default_scenario(seed=args.seed)
        scenario.run_orientation_prelude()
        truth = Point3(args.x, args.y, 0.0)
        batch, _reader = scenario.collect(truth)
        recording = WireRecording.capture(
            batch,
            list(scenario.scene.registry),
            truth=truth,
            label=f"paper-default seed={args.seed}",
        )
        recording.save(args.path)
        print(f"recorded  : {args.path}")
        print(f"frames    : {len(recording)}")
        print(f"reports   : {len(batch.reports)}")
        print(f"wire bytes: {recording.total_bytes}")
        print(f"duration  : {recording.duration_s:.2f} s captured")
        return 0

    recording = WireRecording.load(args.path)
    label = recording.label or "(unlabelled)"
    print(f"replaying : {args.path} [{label}]")
    print(
        f"frames    : {len(recording)} "
        f"({recording.total_bytes} wire bytes, "
        f"{recording.duration_s:.2f} s captured, {args.speed:g}x)"
    )
    outcome = asyncio.run(
        replay_into_supervisor(
            recording,
            speed=args.speed,
            fragment_bytes=args.fragment,
            deployments=args.deployments,
        )
    )
    if args.deployments > 1:
        # Fan-out replay: one capture cloned across M deployments, each
        # with its own loopback stream; every clone must agree.
        for index, result in enumerate(outcome):
            fix = result.fix
            line = (
                f"clone-{index:03d}: ({fix.position.x:.3f}, "
                f"{fix.position.y:.3f}) m from "
                f"{result.reports_offered} reports"
            )
            if recording.truth is not None:
                line += f", error {result.error_m * 100:.2f} cm"
            print(line)
        positions = {
            (round(r.fix.position.x, 12), round(r.fix.position.y, 12))
            for r in outcome
        }
        print(
            f"fan-out   : {len(outcome)} deployments, "
            + ("all fixes identical" if len(positions) == 1
               else f"{len(positions)} DISTINCT fixes")
        )
        return 0 if len(positions) == 1 else 1
    result = outcome
    stats = result.stream_stats
    print(
        f"ingested  : {result.reports_offered} reports in "
        f"{stats['batches']} batches; "
        f"{stats['resyncs']} resyncs, {stats['bytes_skipped']} "
        f"bytes skipped"
    )
    fix = result.fix
    print(f"estimate  : ({fix.position.x:.3f}, {fix.position.y:.3f}) m")
    if recording.truth is not None:
        truth2 = recording.truth.horizontal()
        print(f"recorded  : ({truth2.x:.3f}, {truth2.y:.3f}) m truth")
        print(f"error     : {result.error_m * 100:.2f} cm")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagspin",
        description="Tagspin RFID reader localization (ICDCS 2016 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p2 = subparsers.add_parser("locate2d", help="one 2D localization")
    p2.add_argument("x", type=float, help="reader x [m]")
    p2.add_argument("y", type=float, help="reader y [m]")
    _add_common(p2)
    p2.set_defaults(func=_cmd_locate2d)

    p3 = subparsers.add_parser("locate3d", help="one 3D localization")
    p3.add_argument("x", type=float)
    p3.add_argument("y", type=float)
    p3.add_argument("z", type=float)
    _add_common(p3)
    p3.set_defaults(func=_cmd_locate3d)

    pt = subparsers.add_parser("trials", help="random-pose error statistics")
    pt.add_argument("--trials", type=int, default=20)
    pt.add_argument("--three-d", action="store_true")
    _add_common(pt)
    pt.set_defaults(func=_cmd_trials)

    pc = subparsers.add_parser("compare", help="Tagspin vs baselines")
    pc.add_argument("--trials", type=int, default=8)
    _add_common(pc)
    pc.set_defaults(func=_cmd_compare)

    pg = subparsers.add_parser("tags", help="print the Table I tag models")
    pg.set_defaults(func=_cmd_tags)

    pp = subparsers.add_parser("plan", help="predicted-accuracy map")
    pp.add_argument("--distance", type=float, default=0.5,
                    help="disk-center distance [m]")
    pp.add_argument("--resolution", type=float, default=0.5,
                    help="map grid resolution [m]")
    pp.set_defaults(func=_cmd_plan)

    ph = subparsers.add_parser("health", help="deployment health table")
    ph.add_argument("--x", type=float, default=0.4, help="reader x [m]")
    ph.add_argument("--y", type=float, default=1.9, help="reader y [m]")
    _add_common(ph)
    ph.set_defaults(func=_cmd_health)

    pd = subparsers.add_parser(
        "diagnose", help="resilient-server fix with fault injection"
    )
    pd.add_argument(
        "--fault",
        choices=["none", "stall", "jam", "pi-slips", "duplicates", "corrupt"],
        default="none",
        help="fault to inject into the simulated stream",
    )
    pd.add_argument("--disks", type=int, default=3,
                    help="number of spinning disks (>= 2)")
    pd.add_argument("--x", type=float, default=0.4, help="reader x [m]")
    pd.add_argument("--y", type=float, default=1.9, help="reader y [m]")
    _add_common(pd)
    pd.set_defaults(func=_cmd_diagnose)

    pb = subparsers.add_parser(
        "bench-engine",
        help="time the spectrum engines over a synthetic deployment",
    )
    pb.add_argument(
        "--scales",
        nargs="+",
        choices=["small", "medium", "large"],
        default=["medium"],
        help="scenario scales to run (default: medium)",
    )
    pb.add_argument(
        "--engines",
        nargs="+",
        default=["reference", "harmonic", "adaptive-harmonic"],
        help="engines to time (reference, harmonic, adaptive-harmonic)",
    )
    pb.add_argument("--rounds", type=int, default=3,
                    help="localization fixes per scenario")
    pb.add_argument("--snapshots", type=int, default=None,
                    help="override snapshots per series")
    pb.add_argument("--tolerance", type=float, default=None,
                    help="adaptive engine angular tolerance [rad] "
                    "(default 1e-3)")
    pb.add_argument("--json", default=None,
                    help="write machine-readable timings to this path")
    _add_common(pb)
    pb.set_defaults(func=_cmd_bench_engine)

    ps = subparsers.add_parser(
        "serve",
        help="supervised fleet serving session over a simulated stream",
    )
    ps.add_argument("--deployments", type=int, default=2,
                    help="number of supervised deployments")
    ps.add_argument("--workers", type=int, default=0,
                    help="shard the fleet across this many worker "
                    "processes (0 = in-process supervisor); ingest "
                    "crosses as columnar batches on each worker's pipe")
    ps.add_argument("--chunk-size", type=int, default=100,
                    help="reports per offered ingest batch")
    ps.add_argument("--checkpoint-every", type=int, default=2,
                    help="auto-checkpoint every N ingest batches "
                    "(0 disables)")
    ps.add_argument("--checkpoint-dir", default=None,
                    help="persist checkpoints as JSON under this directory "
                    "(default: in-memory)")
    ps.add_argument("--kill", action="store_true",
                    help="crash one actor mid-stream to demonstrate the "
                    "supervised warm restart")
    ps.add_argument("--chaos", action="store_true",
                    help="run the chaos suite instead; exit nonzero on any "
                    "SLO violation")
    ps.add_argument("--x", type=float, default=0.4, help="reader x [m]")
    ps.add_argument("--y", type=float, default=1.9, help="reader y [m]")
    _add_common(ps)
    ps.set_defaults(func=_cmd_serve)

    pm = subparsers.add_parser(
        "metrics",
        help="run a short sharded session and dump the telemetry "
        "snapshot (Prometheus text / tagspin-metrics/1 JSON)",
    )
    pm.add_argument("--workers", type=int, default=2,
                    help="worker processes to shard across (>= 1)")
    pm.add_argument("--deployments", type=int, default=4,
                    help="number of deployments to stream")
    pm.add_argument("--chunk-size", type=int, default=200,
                    help="reports per offered ingest batch")
    pm.add_argument("--kill", action="store_true",
                    help="SIGKILL + restart one worker mid-stream; the "
                    "snapshot must stay exact across the fold")
    pm.add_argument("--format", choices=("prom", "json", "both"),
                    default="prom", help="exposition format on stdout")
    pm.add_argument("--out", default=None,
                    help="also write the JSON snapshot to this path")
    pm.add_argument("--x", type=float, default=0.4, help="reader x [m]")
    pm.add_argument("--y", type=float, default=1.9, help="reader y [m]")
    _add_common(pm)
    pm.set_defaults(func=_cmd_metrics)

    pr = subparsers.add_parser(
        "replay",
        help="capture or replay a binary wire recording through the fleet",
    )
    pr.add_argument("path", help="wire recording file (.tswire)")
    pr.add_argument("--record", action="store_true",
                    help="simulate a session and capture it to PATH "
                    "instead of replaying")
    pr.add_argument("--speed", type=float, default=100.0,
                    help="replay pacing multiple of the captured timing "
                    "(1-1000x typical)")
    pr.add_argument("--deployments", type=int, default=1,
                    help="clone the recording across M synthetic "
                    "deployments (fan-out load shape; fixes must agree)")
    pr.add_argument("--fragment", type=int, default=1400,
                    help="split frames into writes of this many bytes "
                    "to exercise reassembly (MTU-ish default)")
    pr.add_argument("--x", type=float, default=0.4,
                    help="reader x [m] when recording")
    pr.add_argument("--y", type=float, default=1.9,
                    help="reader y [m] when recording")
    _add_common(pr)
    pr.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
