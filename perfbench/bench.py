"""One benchmark invocation: inputs, timed windows, checks and metrics.

An untraced invocation sets its target up several times (``setup_s`` is
the median), times one window with no wrapper installed and reports the
end-to-end metrics.  A traced invocation times three windows of a third
of the time each, each on a fresh target: the default one, one with
``TAGSPIN_DISABLE_TELEMETRY=1`` (for ``obs.overhead_frac``) and one with
:mod:`perfbench.spans` installed (for the per-layer metrics).  Both run
:mod:`perfbench.checks`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import math
import os
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.fleet.sharding import shard_for
from repro.fleet.worker import DeploymentSpec
from repro.obs.exposition import histogram_totals, sample_value
from repro.obs.metrics import (
    DISABLE_ENV,
    get_registry,
    refresh_from_env,
    telemetry_enabled,
)
from repro.perf.engine import merge_cache_stats

from perfbench import checks, recordings, serving, spans

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: Recordings poll and sharded cycle through, one per pose cell.
POLL_POOL = 8
#: Bulk recordings last this many times the paper's collection length.
BULK_LENGTH = 4.0
#: Set-ups per untraced invocation; ``setup_s`` is their median.  An
#: in-process set-up takes under a millisecond, a sharded one spawns
#: workers.
SETUP_REPS = {"poll": 31, "bulk": 31, "sharded": 5}
#: Idle time before each set-up.  Back to back, an in-process set-up runs
#: on caches the one before warmed and reads 2-3x faster, by a factor
#: that differs from run to run; in service a target is set up once.
SETUP_PAUSE_S = 0.1
#: A traced invocation times this many windows of an equal share of
#: ``--seconds``, so it lasts about as long as an untraced one.
TRACED_WINDOWS = 3
#: Completed sharded sessions whose final fix is recomputed in process.
IDENTITY_SESSIONS = 4
#: Bulk sessions still up after the window that get a verification fix.
VERIFY_FIXES = 4
#: A request with a larger unattributed share of its latency is a finding.
FINDING_SHARE = 0.10
#: Per-layer metrics only spans inside the workers could give; spawned
#: workers do not inherit the wrappers, so these read 0 on sharded.
WORKER_SIDE = (
    "robustness.validate_s", "server.ingest_s", "server.buffer_s",
    "server.monitor_s", "server.monitor_calls", "server.monitor_tail_frac",
    "core.extract_s", "core.locate_s", "perf.spectrum_s",
    "perf.spectrum_calls", "fleet.queue_s", "fleet.mailbox_s",
    "fleet.checkpoint_s", "fleet.pending_max",
)
#: End-to-end metrics printed and recorded but kept out of
#: BENCHMARK.json.  A final fix's error is fixed by the seed's recordings,
#: so across seeds its median spreads by far more than any allowed bound.
#: Finished poll and sharded sessions stay deployed, so peak memory grows
#: with the sessions a window served, that is with throughput;
#: BENCHMARK.json bounds the growth per 1000 reports instead.
PRINTED_ONLY = {"fix_error_cm": "cm", "rss_mb": "MiB"}
FIX_SECONDS = "tagspin_fix_seconds"
FALLBACKS = "tagspin_profile_fallbacks_total"
SCREENED = "tagspin_validator_reports_total"
#: ``cache_stats()`` counters of warm and of cold lookups.
HIT_KEYS = ("hits", "exact_hits", "extensions", "trim_rereferences")
MISS_KEYS = ("misses", "cold_builds")


@dataclass
class Window:
    """One timed window and what was read from its target afterwards."""

    workload: str
    setup_s: List[float]
    result: serving.RunResult
    ledgers: Dict[str, dict] = field(default_factory=dict)
    cache_stats: dict = field(default_factory=dict)
    #: Resident memory of the serving processes: when the window started,
    #: and the peak by its end.
    start_rss_mib: float = 0.0
    rss_mib: float = 0.0
    #: The program's own counts over the window, from its registry.
    fix_seconds: float = 0.0
    fallbacks: float = 0.0
    duplicates: float = 0.0
    ring_fallbacks: int = 0
    errors_cm: List[float] = field(default_factory=list)
    found: List[checks.Check] = field(default_factory=list)

    @property
    def reports_per_s(self) -> float:
        return self.result.reports / self.result.wall

    def ledger_total(self, key: str) -> int:
        return sum(ledger[key] for ledger in self.ledgers.values())

    def attempts(self) -> Tuple[int, int]:
        """(attempted, failed): fix requests plus reports offered; fix
        requests that raised plus reports shed, lost or rejected."""
        failed = len(self.result.fix_errors) + sum(
            self.ledger_total(key)
            for key in ("shed", "lost_in_crash", "rejected_open", "rejected_invalid")
        )
        return self.result.fixes_requested + self.result.reports, failed

    def summary(self) -> dict:
        result = self.result
        return {
            "setup_s": self.setup_s,
            "wall_s": result.wall,
            "reports": result.reports,
            "frames": result.frames,
            "fixes_requested": result.fixes_requested,
            "fix_errors": result.fix_errors[:5],
            "latency_samples": len(result.latencies),
            "sessions": len(result.sessions),
            "completed_sessions": sum(o.completed for o in result.sessions),
            "errors_cm": self.errors_cm,
            "end_to_end": end_to_end(self),
        }


def _histogram_sum(snapshot: dict, name: str) -> float:
    return histogram_totals(snapshot, name)["sum"]


async def run_window(workload, pool, seconds, trace, setup_reps, workdir,
                     verify) -> Window:
    """Set a target up ``setup_reps`` times, serve one window, read it out.

    The target is closed on every way out, a failed window included.
    """
    segments = checks.shm_segments()
    pids: List[int] = []
    first = serving.first_sessions(workload, pool)
    samples: List[float] = []
    target = None
    try:
        for rep in range(setup_reps):
            if target is not None:
                previous, target = target, None
                pids += previous.pids()
                await previous.close()
            await asyncio.sleep(SETUP_PAUSE_S)
            start = time.perf_counter()
            target = serving.make_target(workload, workdir / f"target-{rep}")
            for session in first:
                await target.add(session)
            samples.append(time.perf_counter() - start)
        window = await _serve(workload, target, pool, seconds, trace, samples,
                              verify)
    finally:
        if target is not None:
            pids += target.pids()
            await target.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if workload == "sharded":
        window.found.append(
            checks.fleet_released(pids, checks.shm_segments() - segments)
        )
    return window


async def _serve(workload, target, pool, seconds, trace, samples,
                 verify) -> Window:
    """Serve one window on a set-up target and read the target out."""
    before = get_registry().snapshot()
    gc.collect()
    start_rss_mib = checks.resident_mib(target.pids(), "VmRSS")
    result = await serving.run(workload, target, pool, seconds, trace)
    trace.finish()
    await target.settle()
    window = Window(workload, samples, result, start_rss_mib=start_rss_mib)
    window.rss_mib = checks.resident_mib(target.pids())
    window.ledgers = {d: target.accounting(d) for d in target.deployments}
    window.cache_stats = merge_cache_stats(target.engine_stats())
    window.ring_fallbacks = target.ring_fallbacks()
    # In process the registry also holds earlier windows: count the
    # difference.  Sharded workers are fresh: count the merged snapshot
    # minus this process's share.
    snapshot = target.metrics_snapshot()
    local = get_registry().snapshot() if workload == "sharded" else before
    window.fix_seconds = (
        _histogram_sum(snapshot, FIX_SECONDS) - _histogram_sum(local, FIX_SECONDS)
    )
    window.fallbacks = sample_value(snapshot, FALLBACKS) - sample_value(
        local, FALLBACKS
    )
    duplicate = {"result": "duplicate"}
    window.duplicates = sample_value(snapshot, SCREENED, duplicate) - sample_value(
        local, SCREENED, duplicate
    )
    if verify:
        window.found = await _verify(target, window)
    return window


async def _verify(target, window: Window) -> List[checks.Check]:
    result = window.result
    found = [checks.ledgers_balance(window.ledgers, result.fed)]
    if window.workload == "bulk":
        injected = {
            o.session.deployment_id: o.session.recording.duplicates
            for o in result.sessions
        }
        found.append(checks.duplicates_quarantined(
            window.ledgers,
            injected,
            window.duplicates if telemetry_enabled() else None,
        ))
        live = [o for o in result.sessions if not o.retired]
        for outcome in live[:VERIFY_FIXES]:
            session = outcome.session
            fix, _diagnostics = await target.locate_2d(
                session.deployment_id, session.reader_name
            )
            window.errors_cm.append(
                checks.horizontal_error_cm(fix, session.recording.truth)
            )
    else:
        finals = [o for o in result.sessions if o.completed]
        window.errors_cm = [
            checks.horizontal_error_cm(o.final_fix, o.session.recording.truth)
            for o in finals
        ]
        if window.workload == "sharded":
            found.append(await _identity(finals[:IDENTITY_SESSIONS]))
    found.append(checks.fixes_near_truth(window.errors_cm))
    return found


async def _identity(outcomes) -> checks.Check:
    """Recompute sharded final fixes on the in-process stack poll uses."""
    reference = serving.InProcessTarget()
    pairs = []
    for outcome in outcomes:
        served = outcome.session
        replica = serving.Session(
            f"reference-{served.deployment_id}",
            served.reader_name,
            served.recording,
        )
        fix = await serving.replay(reference, replica, outcome.final_fix_frames)
        pairs.append((served.deployment_id, outcome.final_fix, fix))
    await reference.close()
    return checks.fixes_identical(pairs)


@contextmanager
def _telemetry_off():
    """TAGSPIN_DISABLE_TELEMETRY=1 here and in workers spawned meanwhile."""
    previous = os.environ.get(DISABLE_ENV)
    os.environ[DISABLE_ENV] = "1"
    refresh_from_env()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(DISABLE_ENV, None)
        else:
            os.environ[DISABLE_ENV] = previous
        refresh_from_env()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(window: Window) -> Dict[str, float]:
    latencies = np.asarray(window.result.latencies) * 1e3
    return {
        "setup_s": statistics.median(window.setup_s),
        "reports_per_s": window.reports_per_s,
        "fix_p50_ms": (
            float(np.percentile(latencies, 50)) if latencies.size else math.nan
        ),
        "fix_p95_ms": (
            float(np.percentile(latencies, 95)) if latencies.size else math.nan
        ),
        "fix_error_cm": (
            float(np.median(window.errors_cm)) if window.errors_cm else math.nan
        ),
        "rss_mb": window.rss_mib,
        "mem_mb_per_kreport": (
            (window.rss_mib - window.start_rss_mib)
            / (window.result.reports / 1000.0)
        ),
    }


def cache_hit_ratio(stats: dict) -> float:
    """Warm share of the lookups an engine's ``cache_stats()`` counts."""
    hits = misses = 0.0
    pending = [stats]
    while pending:
        for key, value in pending.pop().items():
            if isinstance(value, dict):
                pending.append(value)
            elif key in HIT_KEYS:
                hits += value
            elif key in MISS_KEYS:
                misses += value
    return hits / (hits + misses) if hits + misses else 0.0


def _shard_skew(fed) -> float:
    """Reports on the busiest shard over the mean per shard."""
    per_shard = [0] * serving.CLIENTS
    for deployment_id, reports in fed.items():
        per_shard[shard_for(deployment_id, serving.CLIENTS)] += reports
    return max(per_shard) / statistics.mean(per_shard)


def per_layer(default: Window, quiet: Window, traced: Window, recorder):
    """Per-layer metrics of a traced invocation, and notes on them.

    Times and call counts are per 1000 wire reports fed in the traced
    window, so windows that served different amounts of traffic compare.
    """
    result = traced.result
    kilo = result.reports / 1000.0
    inclusive, own, calls = spans.layer_times(recorder.spans)
    sharded = traced.workload == "sharded"
    findings = []
    if traced.workload == "bulk":
        coverage = spans.wall_coverage(recorder, result.started, result.ended)
        buffered = statistics.mean(
            traced.ledgers[o.session.deployment_id]["accepted"]
            for o in result.sessions
            if not o.retired
        )
    else:
        coverage, findings = spans.request_coverage(recorder, FINDING_SHARE)
        buffered = statistics.mean(result.buffered_at_fix)
    tail, tail_requests = spans.tail_share(recorder, "server.monitor")
    received = traced.ledger_total("received")
    fix_seconds = traced.fix_seconds if sharded else own["server.fix"]
    metrics = {
        "hardware.decode_s": inclusive["hardware.decode"] / kilo,
        "hardware.frames": result.frames,
        "hardware.bytes": result.bytes,
        "robustness.validate_s": inclusive["robustness.validate"] / kilo,
        "robustness.quarantine_ratio": (
            traced.ledger_total("quarantined") / received if received else 0.0
        ),
        "server.ingest_s": inclusive["server.ingest"] / kilo,
        "server.buffer_s": inclusive["server.buffer"] / kilo,
        "server.fix_s": fix_seconds / kilo,
        "server.monitor_s": inclusive["server.monitor"] / kilo,
        "server.monitor_calls": calls["server.monitor"] / kilo,
        "server.monitor_tail_frac": tail,
        "server.buffer_reports": buffered,
        "core.extract_s": inclusive["core.extract"] / kilo,
        "core.locate_s": own["core.locate"] / kilo,
        "core.fallbacks": traced.fallbacks,
        "perf.spectrum_s": inclusive["perf.spectrum"] / kilo,
        "perf.spectrum_calls": calls["perf.spectrum"] / kilo,
        "perf.cache_hit_ratio": cache_hit_ratio(traced.cache_stats),
        "fleet.offer_s": inclusive["fleet.offer"] / kilo,
        "fleet.queue_s": inclusive["fleet.queue"] / kilo,
        "fleet.mailbox_s": inclusive["fleet.mailbox"] / kilo,
        "fleet.checkpoint_s": inclusive["fleet.checkpoint"] / kilo,
        "fleet.pending_max": recorder.pending_max,
        "fleet.shed": traced.ledger_total("shed"),
        "fleet.transport_s": (
            (inclusive["fleet.rpc"] - traced.fix_seconds) / kilo
            if sharded else 0.0
        ),
        "fleet.ring_fallbacks": traced.ring_fallbacks,
        "fleet.shard_skew": _shard_skew(result.fed) if sharded else 0.0,
        "obs.overhead_frac": quiet.reports_per_s / default.reports_per_s - 1.0,
        "trace.coverage": coverage,
        "trace.overhead_frac": default.reports_per_s / traced.reports_per_s - 1.0,
    }
    notes = {
        "unmeasured": list(WORKER_SIDE) if sharded else [],
        "coverage_of": "wall time" if traced.workload == "bulk" else "fix latency",
        "findings": [
            {"request": f"{r[0]}#{r[1]}", "latency_s": seconds,
             "unattributed": missing}
            for missing, r, seconds in findings
        ],
        "requests": len(recorder.requests),
        "monitor_tail": {"share": tail, "requests": tail_requests},
        "spans": len(recorder.spans),
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# One invocation
# ---------------------------------------------------------------------------

def _e2e_notes(window: Window) -> Dict[str, str]:
    result = window.result
    bulk = window.workload == "bulk"
    latencies = np.asarray(result.latencies)
    beyond = int(np.sum(latencies > np.percentile(latencies, 95))) if latencies.size else 0
    return {
        "setup_s": f"median of {len(window.setup_s)} set-ups",
        "reports_per_s": f"{result.reports} wire reports in {result.wall:.2f} s",
        "fix_p50_ms": (
            f"{latencies.size} frames, first chunk to buffered" if bulk
            else f"{latencies.size} fixes, first chunk to fix"
        ),
        "fix_p95_ms": f"{beyond} samples beyond p95",
        "fix_error_cm": (
            f"median of {len(window.errors_cm)} "
            f"{'verification' if bulk else 'final'} fixes"
        ),
        "rss_mb": "peak, this process"
        + (f" + {serving.CLIENTS} workers" if window.workload == "sharded" else ""),
        "mem_mb_per_kreport": (
            f"{window.rss_mib - window.start_rss_mib:.0f} MiB peak growth over "
            f"{result.reports} reports"
        ),
    }


async def measure(workload: str, seed: int, seconds: float, traced: bool) -> int:
    """Run one invocation, print its metrics; returns the exit code."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    engine = DeploymentSpec.engine
    print(
        f"perfbench: workload={workload} seed={seed} engine={engine} "
        f"cpus={os.cpu_count()} seconds={seconds:g} trace={int(traced)}",
        flush=True,
    )
    if workload == "bulk":
        pool = recordings.pool(
            seed, serving.BULK_DEPLOYMENTS, stream=1, length=BULK_LENGTH,
            faults=True,
        )
    else:
        pool = recordings.pool(seed, POLL_POOL)
    gc.collect()
    gc.freeze()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    workdir = OUT_DIR / f"{stem}-fleet"
    notes: dict = {}
    if traced:
        share = seconds / TRACED_WINDOWS
        main = await run_window(workload, pool, share, spans.NO_TRACE, 1,
                                workdir, verify=True)
        with _telemetry_off():
            quiet = await run_window(workload, pool, share, spans.NO_TRACE,
                                     1, workdir, verify=False)
        recorder = spans.SpanRecorder()
        spans.install(recorder)
        traced_window = await run_window(workload, pool, share, recorder, 1,
                                         workdir, verify=False)
        metrics, notes = per_layer(main, quiet, traced_window, recorder)
        spans.dump(recorder, OUT_DIR / f"{stem}-spans.json")
        wanted = spec["per_layer"]
        windows = {"default": main, "telemetry_off": quiet,
                   "traced": traced_window}
        line_notes = {"trace.coverage": f"of {notes['coverage_of']}"}
    else:
        main = await run_window(workload, pool, seconds, spans.NO_TRACE,
                                SETUP_REPS[workload], workdir, verify=True)
        metrics = end_to_end(main)
        wanted = spec["end_to_end"]
        windows = {"default": main}
        line_notes = _e2e_notes(main)

    found = list(main.found)
    missing = [
        m["name"] for m in wanted
        if not math.isfinite(metrics.get(m["name"], math.nan))
    ]
    if missing:
        found.append(checks.Check(
            "metrics-measured", False, f"no value for {', '.join(missing)}"
        ))
    correct = all(check.ok for check in found)
    attempted, failed = main.attempts()

    for m in wanted:
        value = metrics.get(m["name"], math.nan)
        note = line_notes.get(m["name"], "")
        print(f"  {m['name']:<27} {value:>14.6g} {m['unit']:<10} {note}".rstrip())
    if not traced:
        for name, unit in PRINTED_ONLY.items():
            print(f"  {name:<27} {metrics[name]:>14.6g} {unit:<10} "
                  f"{line_notes[name]}")
    print(
        f"  {'failed_frac':<27} {failed / attempted:>14.6g} {'1':<10} "
        f"{failed} failed of {attempted} attempted "
        "(fix requests + reports offered)"
    )
    for check in found:
        print(f"  check {check.name}: {'ok' if check.ok else 'FAILED'} - "
              f"{check.detail}")
    if notes.get("unmeasured"):
        print("  not visible inside sharded workers (read 0): "
              + ", ".join(notes["unmeasured"]))
    findings = notes.get("findings", [])
    if findings:
        worst = findings[0]
        print(
            f"  finding: {len(findings)} of {notes['requests']} fixes have "
            f"over {FINDING_SHARE:.0%} of their latency unattributed; worst "
            f"{worst['request']}: {worst['unattributed']:.0%} of "
            f"{worst['latency_s'] * 1e3:.1f} ms"
        )

    record = {
        "workload": workload,
        "seed": seed,
        "engine": engine,
        "cpu_count": os.cpu_count(),
        "seconds": seconds,
        "trace": int(traced),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "notes": notes,
        "checks": [dataclasses.asdict(check) for check in found],
        "windows": {name: w.summary() for name, w in windows.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
            for m in wanted
        },
    }), flush=True)
    return 0 if correct else 1
