"""Fleet-resilience benchmark: serving throughput, fix latency, recovery.

Standalone like ``bench_engine_scaling.py`` so CI's chaos-smoke job and
developers can run it directly:

    PYTHONPATH=src python benchmarks/bench_fleet_resilience.py          # full
    PYTHONPATH=src python benchmarks/bench_fleet_resilience.py --quick  # CI gate

Three measured phases against a supervised multi-deployment fleet
(the serving engine ``DeploymentSpec.engine``, bounded mailboxes,
checkpointing on):

* **ingest** — offered reports per second through the mailbox + actor
  path until every deployment's buffer holds the collection;
* **fixes** — p50/p99 latency of offer-then-fix serving cycles (poll
  after append, the steady-state workload);
* **recovery** — wall-clock time from an injected actor crash to the
  next successful fix served by the warm-restarted incarnation.

``--quick`` additionally runs the full chaos suite
(:mod:`repro.fleet.chaos`) and **fails** (exit 1) unless every chaos
SLO passes, the crashed deployment warm-restores from its checkpoint,
and recovery stays within the fix-cycle budget.

``--sharded`` benches the multi-core tier instead: the same
multi-deployment columnar replay through a single-process supervisor
(baseline) and through a :class:`~repro.fleet.sharding.ShardedFleet`
(N worker processes, shared-memory columnar transport).  It gates on

* per-deployment fixes differentially identical to the baseline
  (≤ 1e-9 — sharding must change *where* work runs, never the answer);
* the cross-incarnation ledger balancing exactly through a worker
  SIGKILL + restart chaos round (``offered == shed + pending +
  delivered + lost_in_crash``);
* aggregate ingest-to-fix throughput ≥ 2.5× baseline at 4 workers
  (scaled pro-rata below 4; only enforced when the host actually has
  that many cores — a 1-core CI box cannot demonstrate a speedup).

Every run writes ``benchmarks/results/BENCH_fleet_<mode>.json``
(schema ``tagspin-bench/1``) so the resilience trajectory accumulates
across PRs next to the engine-scaling one.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.geometry import Point3
from repro.fleet.actor import ActorConfig
from repro.fleet.chaos import ChaosConfig, run_chaos_suite
from repro.fleet.checkpoint import MemoryCheckpointStore
from repro.fleet.events import EventLog
from repro.fleet.sharding import ShardedFleet
from repro.fleet.supervisor import FleetSupervisor, SupervisorPolicy
from repro.fleet.worker import DeploymentSpec
from repro.obs.metrics import get_registry
from repro.server.resilience import ResilientLocalizationServer, RetryPolicy
from repro.sim.scenario import paper_default_scenario
from repro.sim.wire_recording import WireRecording

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_POSE = Point3(0.4, 1.9, 0.0)


async def _wait_until(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("fleet benchmark: condition not reached")
        await asyncio.sleep(0.002)


async def _bench_fleet(scenario, batch, deployments, rounds, chunk_size):
    events = EventLog(capacity=65_536)
    store = MemoryCheckpointStore()
    supervisor = FleetSupervisor(
        policy=SupervisorPolicy(
            max_restarts=10,
            restart_window_s=600.0,
            backoff=RetryPolicy(
                max_attempts=1_000_000,
                backoff_base_s=0.005,
                backoff_max_s=0.02,
            ),
            open_cooldown_s=0.05,
            stability_probe_s=0.05,
        ),
        events=events,
        store=store,
    )
    registry = scenario.scene.registry
    pipeline = scenario.config.pipeline

    def factory():
        return ResilientLocalizationServer(
            registry, pipeline, engine=DeploymentSpec.engine
        )

    ids = [f"deployment-{i:02d}" for i in range(deployments)]
    for deployment_id in ids:
        supervisor.add_deployment(
            deployment_id, factory, ActorConfig(high_water_mark=1_000_000)
        )
    await _wait_until(
        lambda: all(
            supervisor.actor(i) is not None and supervisor.actor(i).running
            for i in ids
        )
    )

    reports = batch.reports
    chunks = [
        reports[i : i + chunk_size]
        for i in range(0, len(reports), chunk_size)
    ]
    held_out = chunks[-rounds:] if rounds < len(chunks) else chunks[-1:]
    preload = chunks[: len(chunks) - len(held_out)] or chunks[:1]

    async def drain_all():
        await _wait_until(
            lambda: all(
                supervisor.actor(i) is not None
                and supervisor.actor(i).mailbox.pending_reports == 0
                for i in ids
            )
        )

    # Phase 1: ingest throughput.
    t0 = time.perf_counter()
    for deployment_id in ids:
        for chunk in preload:
            supervisor.offer(deployment_id, "reader-1", chunk)
    await drain_all()
    ingest_s = time.perf_counter() - t0
    ingested = sum(len(c) for c in preload) * deployments

    # Phase 2: steady-state serving (offer one chunk, then fix).
    latencies = []
    for round_chunk in held_out:
        for deployment_id in ids:
            supervisor.offer(deployment_id, "reader-1", round_chunk)
        await drain_all()
        for deployment_id in ids:
            start = time.perf_counter()
            await supervisor.locate_2d(deployment_id, "reader-1")
            latencies.append(time.perf_counter() - start)

    # Phase 3: crash recovery of the first deployment.
    victim = ids[0]
    await supervisor.checkpoint(victim)
    crash_start = time.perf_counter()
    supervisor.kill(victim)
    await _wait_until(
        lambda: (
            supervisor.actor(victim) is not None
            and supervisor.actor(victim).incarnation > 0
            and supervisor.actor(victim).running
        )
    )
    recovery_cycles = 0
    while True:
        recovery_cycles += 1
        try:
            await supervisor.locate_2d(victim, "reader-1")
            break
        except Exception:
            if recovery_cycles > 10:
                raise
            await asyncio.sleep(0.01)
    recovery_s = time.perf_counter() - crash_start
    warm = supervisor.actor(victim).stats.warm_restored
    ledger = supervisor.accounting(victim)
    await supervisor.stop()

    lat = np.asarray(latencies)
    return {
        "deployments": deployments,
        "ingest_reports_per_s": ingested / ingest_s if ingest_s else 0.0,
        "ingested_reports": ingested,
        "fix_rounds": len(latencies),
        "fix_p50_ms": float(np.percentile(lat, 50) * 1e3),
        "fix_p99_ms": float(np.percentile(lat, 99) * 1e3),
        "fix_mean_ms": float(lat.mean() * 1e3),
        "recovery_s": recovery_s,
        "recovery_cycles": recovery_cycles,
        "warm_restored": bool(warm),
        "ledger": ledger,
    }


def _ledger_balanced(ledger: dict) -> bool:
    """The chaos harness's exact accounting invariant."""
    return (
        ledger["offered"]
        == ledger["shed"]
        + ledger["pending"]
        + ledger["delivered"]
        + ledger["lost_in_crash"]
        and ledger["delivered"]
        == ledger["received"] + ledger["rejected_invalid"]
        and ledger["received"]
        == ledger["accepted"] + ledger["quarantined"]
    )


def _stats_have_signal(stats: dict) -> bool:
    """True when a merged cache-stats tree has any non-zero counter."""
    for value in stats.values():
        if isinstance(value, dict):
            if _stats_have_signal(value):
                return True
        elif isinstance(value, (int, float)) and value:
            return True
    return False


async def _baseline_columnar(scenario, batches, ids):
    """Single-process supervisor serving the same columnar fan-out."""
    supervisor = FleetSupervisor(
        events=EventLog(capacity=65_536), store=MemoryCheckpointStore()
    )
    registry = scenario.scene.registry
    pipeline = scenario.config.pipeline

    def factory():
        return ResilientLocalizationServer(
            registry, pipeline, engine=DeploymentSpec.engine
        )

    for deployment_id in ids:
        supervisor.add_deployment(
            deployment_id, factory, ActorConfig(high_water_mark=1_000_000)
        )
    await _wait_until(
        lambda: all(
            supervisor.actor(i) is not None and supervisor.actor(i).running
            for i in ids
        )
    )
    t0 = time.perf_counter()
    for deployment_id in ids:
        for cols in batches:
            supervisor.offer_columnar(deployment_id, "reader-1", cols)
    await _wait_until(
        lambda: all(
            supervisor.actor(i) is not None
            and supervisor.actor(i).mailbox.pending_reports == 0
            for i in ids
        ),
        timeout_s=300.0,
    )
    fixes = {}
    for deployment_id in ids:
        fix, _diag = await supervisor.locate_2d(deployment_id, "reader-1")
        fixes[deployment_id] = fix
    elapsed = time.perf_counter() - t0
    await supervisor.stop()
    rows = sum(len(c) for c in batches) * len(ids)
    return fixes, rows / elapsed if elapsed else 0.0, elapsed


def _bench_sharded(scenario, batches, ids, workers):
    """ShardedFleet serving + worker-kill chaos round; returns metrics."""
    records = tuple(scenario.scene.registry)
    pipeline = scenario.config.pipeline
    fleet = ShardedFleet(workers=workers, request_timeout_s=300.0)
    fleet.start()
    specs = {
        deployment_id: DeploymentSpec(
            deployment_id=deployment_id,
            registry_records=records,
            pipeline=pipeline,
            actor_config=ActorConfig(high_water_mark=1_000_000),
        )
        for deployment_id in ids
    }
    for spec in specs.values():
        fleet.add_deployment(spec)

    # Phase 1: ingest-to-fix throughput on the identical columnar feed.
    t0 = time.perf_counter()
    for deployment_id in ids:
        for cols in batches:
            fleet.offer_columnar(deployment_id, "reader-1", cols)
    fleet.drain(timeout_s=300.0)
    fixes = {}
    for deployment_id in ids:
        fix, _diag = fleet.locate_2d_sync(deployment_id, "reader-1")
        fixes[deployment_id] = fix
    elapsed = time.perf_counter() - t0
    rows = sum(len(c) for c in batches) * len(ids)

    engine_stats = fleet.engine_stats()
    ledgers = {
        deployment_id: fleet.accounting(deployment_id)
        for deployment_id in ids
    }
    worker_info = fleet.worker_info()

    # Phase 2: chaos — checkpoint the victim, SIGKILL its worker
    # mid-stream, restart the shard, keep serving.
    victim = ids[0]
    shard = fleet.shard_of(victim)
    fleet.checkpoint(victim)
    for cols in batches:
        fleet.offer_columnar(victim, "reader-1", cols)
    fleet.kill_worker(shard)
    ledger_after_kill = fleet.accounting(victim)
    receipts = fleet.restart_shard(shard)
    warm = any(
        r["deployment_id"] == victim and r["warm_restored"]
        for r in receipts
    )
    for cols in batches[: max(1, len(batches) // 4)]:
        fleet.offer_columnar(victim, "reader-1", cols)
    fleet.drain(timeout_s=300.0)
    ledger_after_restart = fleet.accounting(victim)
    fleet.locate_2d_sync(victim, "reader-1")

    pids = [info["pid"] for info in fleet.worker_info() if info["pid"]]
    # Point-in-time merge across both workers plus the SIGKILLed
    # incarnation's fold — captured before close() tears the pipes down.
    telemetry_snapshot = fleet.metrics_snapshot()
    summary = fleet.close()
    orphans = []
    for pid in pids:
        try:
            os.kill(pid, 0)
            orphans.append(pid)
        except ProcessLookupError:
            pass

    return {
        "workers": workers,
        "deployments": len(ids),
        "ingest_to_fix_s": elapsed,
        "ingest_reports_per_s": rows / elapsed if elapsed else 0.0,
        "ingested_reports": rows,
        "fixes": {
            deployment_id: [fix.position.x, fix.position.y]
            for deployment_id, fix in fixes.items()
        },
        "ring_fallbacks": sum(
            info["ring_fallbacks"] for info in worker_info
        ),
        "engine_stats": engine_stats,
        "ledgers": ledgers,
        "chaos": {
            "victim": victim,
            "shard": shard,
            "ledger_after_kill": ledger_after_kill,
            "ledger_after_restart": ledger_after_restart,
            "warm_restored": bool(warm),
        },
        "close_summary": summary,
        "orphan_pids": orphans,
        "metrics_snapshot": telemetry_snapshot,
    }, fixes


def _run_sharded(args) -> tuple:
    """Drive the sharded benchmark; returns (metrics, failures)."""
    workers = args.workers or (2 if args.quick else 4)
    deployments = args.deployments or 2 * workers
    repeat = args.repeat or (2 if args.quick else 5)

    scenario = paper_default_scenario(seed=args.seed)
    scenario.run_orientation_prelude()
    batch, _reader = scenario.collect(BENCH_POSE)
    recording = WireRecording.capture(
        batch,
        list(scenario.scene.registry),
        truth=BENCH_POSE,
        label="sharded-fleet bench",
    )
    # Decode the wire capture ONCE; every deployment replays the same
    # columnar batches, so baseline and sharded runs see identical bits.
    batches = recording.decode_columnar_batches() * repeat
    ids = [f"deployment-{i:02d}" for i in range(deployments)]

    baseline_fixes, baseline_tps, baseline_s = asyncio.run(
        _baseline_columnar(scenario, batches, ids)
    )
    metrics, sharded_fixes = _bench_sharded(
        scenario, batches, ids, workers
    )
    metrics["baseline_reports_per_s"] = baseline_tps
    metrics["baseline_ingest_to_fix_s"] = baseline_s
    speedup = (
        metrics["ingest_reports_per_s"] / baseline_tps
        if baseline_tps
        else 0.0
    )
    metrics["speedup_vs_baseline"] = speedup

    failures = []
    max_delta = 0.0
    for deployment_id, fix in sharded_fixes.items():
        reference = baseline_fixes[deployment_id]
        delta = max(
            abs(fix.position.x - reference.position.x),
            abs(fix.position.y - reference.position.y),
        )
        max_delta = max(max_delta, delta)
        if delta > 1e-9:
            failures.append(
                f"sharded fix for {deployment_id} deviates from the "
                f"single-process baseline by {delta:.3e} m (> 1e-9)"
            )
    metrics["max_fix_delta_m"] = max_delta

    for deployment_id, ledger in metrics["ledgers"].items():
        if not _ledger_balanced(ledger):
            failures.append(
                f"ledger of {deployment_id} does not balance: {ledger}"
            )
    for label in ("ledger_after_kill", "ledger_after_restart"):
        if not _ledger_balanced(metrics["chaos"][label]):
            failures.append(
                f"chaos {label} does not balance: "
                f"{metrics['chaos'][label]}"
            )
    if not metrics["chaos"]["warm_restored"]:
        failures.append(
            "victim deployment did not warm-restore across the process "
            "boundary"
        )
    if not _stats_have_signal(metrics["engine_stats"]):
        failures.append(
            "aggregated engine cache stats are all zero — worker stats "
            "are not reaching the parent"
        )
    if metrics["orphan_pids"]:
        failures.append(
            f"orphan worker processes left behind: "
            f"{metrics['orphan_pids']}"
        )

    cores = os.cpu_count() or 1
    floor = 2.5 * min(workers, 4) / 4
    metrics["speedup_floor"] = floor
    metrics["speedup_gate_enforced"] = cores >= workers
    if cores >= workers:
        if speedup < floor:
            failures.append(
                f"sharded throughput only {speedup:.2f}x baseline "
                f"(gate {floor:.2f}x with {workers} workers)"
            )
    else:
        print(
            f"SKIP: speedup gate needs >= {workers} cores, host has "
            f"{cores}; identity and ledger gates still enforced"
        )

    print(
        f"sharded fleet ({workers} workers, {deployments} deployments)\n"
        f"  baseline   : {baseline_tps:,.0f} reports/s ingest-to-fix\n"
        f"  sharded    : {metrics['ingest_reports_per_s']:,.0f} reports/s "
        f"({speedup:.2f}x, gate {floor:.2f}x"
        f"{'' if metrics['speedup_gate_enforced'] else ', not enforced'})\n"
        f"  identity   : max fix delta {max_delta:.2e} m\n"
        f"  chaos      : worker SIGKILL -> "
        f"{'warm' if metrics['chaos']['warm_restored'] else 'cold'} "
        f"restart, ledger "
        f"{'balanced' if _ledger_balanced(metrics['chaos']['ledger_after_restart']) else 'UNBALANCED'}\n"
        f"  transport  : {metrics['ring_fallbacks']} ring fallback(s)"
    )
    config = {
        "seed": args.seed,
        "workers": workers,
        "deployments": deployments,
        "repeat": repeat,
        "quick": bool(args.quick),
    }
    return metrics, config, failures


def _format_metrics(metrics: dict) -> str:
    lines = [
        "fleet resilience "
        f"({metrics['deployments']} deployments, "
        f"{DeploymentSpec.engine} engine)",
        f"  ingest     : {metrics['ingest_reports_per_s']:,.0f} reports/s "
        f"({metrics['ingested_reports']} reports)",
        f"  fix latency: p50 {metrics['fix_p50_ms']:.1f} ms, "
        f"p99 {metrics['fix_p99_ms']:.1f} ms "
        f"({metrics['fix_rounds']} serving cycles)",
        f"  recovery   : {metrics['recovery_s'] * 1e3:.0f} ms to first fix "
        f"after crash ({metrics['recovery_cycles']} cycle(s), "
        f"{'warm' if metrics['warm_restored'] else 'cold'} restore)",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the fleet serving tier's resilience"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small fleet plus the chaos-SLO gate (exit 1 on violation)",
    )
    parser.add_argument(
        "--sharded",
        action="store_true",
        help="bench the multi-process ShardedFleet against the "
        "single-process baseline (identity, ledger and speedup gates)",
    )
    parser.add_argument("--workers", type=int, default=None,
                        help="sharded worker processes "
                        "(default 4; --quick 2)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="columnar feed repetitions in sharded mode "
                        "(default 5; --quick 2)")
    parser.add_argument("--deployments", type=int, default=None,
                        help="fleet size (default 4; --quick 2; "
                        "sharded default 2x workers)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="serving cycles per deployment "
                        "(default 6; --quick 3)")
    parser.add_argument("--chunk-size", type=int, default=100,
                        help="reports per offered batch")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write machine-readable metrics to this path too",
    )
    args = parser.parse_args(argv)

    if args.sharded:
        metrics, config, failures = _run_sharded(args)
        payload = json.dumps(
            {
                "schema": "tagspin-bench/1",
                "benchmark": "fleet-sharded",
                "mode": "sharded",
                "config": config,
                # "metrics" holds the bench measurements; the registry
                # snapshot (tagspin-metrics/1) rides under its own key.
                "metrics_snapshot": metrics.pop("metrics_snapshot", None),
                "metrics": metrics,
            },
            indent=2,
            sort_keys=True,
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        trajectory = RESULTS_DIR / "BENCH_fleet_sharded.json"
        trajectory.write_text(payload + "\n")
        print(f"\nwrote {trajectory}")
        if args.json is not None:
            args.json.parent.mkdir(parents=True, exist_ok=True)
            args.json.write_text(payload + "\n")
            print(f"wrote {args.json}")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        return 0

    deployments = args.deployments or (2 if args.quick else 4)
    rounds = args.rounds or (3 if args.quick else 6)

    scenario = paper_default_scenario(seed=args.seed)
    scenario.run_orientation_prelude()
    batch, _reader = scenario.collect(BENCH_POSE)

    metrics = asyncio.run(
        _bench_fleet(scenario, batch, deployments, rounds, args.chunk_size)
    )
    print(_format_metrics(metrics))

    chaos_doc = None
    failures = []
    if args.quick:
        chaos = run_chaos_suite(ChaosConfig(seed=args.seed), scenario=scenario)
        chaos_doc = chaos.as_dict()
        for outcome in chaos.outcomes:
            status = "OK" if outcome.passed else "FAIL"
            print(f"{status}: chaos {outcome.name} — {outcome.slo}")
            if not outcome.passed:
                failures.append(
                    f"chaos scenario {outcome.name} violated its SLO: "
                    f"{outcome.details}"
                )
        if not metrics["warm_restored"]:
            failures.append("crashed deployment did not warm-restore")
        budget = ChaosConfig().recovery_fix_budget
        if metrics["recovery_cycles"] > budget:
            failures.append(
                f"recovery took {metrics['recovery_cycles']} fix cycles "
                f"(budget {budget})"
            )

    payload = json.dumps(
        {
            "schema": "tagspin-bench/1",
            "benchmark": "fleet-resilience",
            "mode": "quick" if args.quick else "full",
            "config": {
                "seed": args.seed,
                "deployments": deployments,
                "rounds": rounds,
                "chunk_size": args.chunk_size,
            },
            "metrics": metrics,
            "metrics_snapshot": get_registry().snapshot(),
            "chaos": chaos_doc,
        },
        indent=2,
        sort_keys=True,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    mode = "quick" if args.quick else "full"
    trajectory = RESULTS_DIR / f"BENCH_fleet_{mode}.json"
    trajectory.write_text(payload + "\n")
    print(f"\nwrote {trajectory}")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(payload + "\n")
        print(f"wrote {args.json}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
