"""Wire-ingest benchmark: decode throughput and streaming reassembly.

Standalone like the other benchmarks so CI's wire-smoke job and
developers can run it directly:

    PYTHONPATH=src python benchmarks/bench_wire_ingest.py          # full
    PYTHONPATH=src python benchmarks/bench_wire_ingest.py --quick  # CI gate

Three measured phases over encoded RO_ACCESS_REPORT frames from the
paper-default scenario:

* **decode** — reports/second and microseconds/report of the object
  decoder (``decode_ro_access_report``) versus the columnar decoder
  (``decode_ro_access_report_columnar``) on identical frames;
* **stream** — end-to-end reassembly + columnar decode throughput of
  :class:`~repro.hardware.llrp_stream.StreamingLLRPParser` fed
  MTU-sized chunks (the wire-speed ingest figure);
* **replay** — wall-clock to push a :class:`~repro.sim.wire_recording
  .WireRecording` through a loopback :class:`~repro.fleet.wire_ingest
  .WireIngestEndpoint` into a supervised deployment at max pacing.

``--quick`` additionally **fails** (exit 1) unless the columnar decoder
is at least ``--min-speedup`` (default 3x) faster than the object path
and both decoders agree report-for-report on every benchmarked frame.

``--json`` writes the machine-readable metrics (schema
``tagspin-bench/1``); the script writes no other file, so the committed
``benchmarks/results/BENCH_wire_ingest.json`` stays the record of the
run it came from.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

from repro.core.geometry import Point3
from repro.fleet.wire_ingest import replay_into_supervisor
from repro.hardware.llrp import ReportBatch
from repro.hardware.llrp_columnar import decode_ro_access_report_columnar
from repro.hardware.llrp_stream import StreamingLLRPParser
from repro.hardware.llrp_wire import (
    decode_ro_access_report,
    encode_ro_access_report,
)
from repro.obs.metrics import get_registry
from repro.sim.scenario import paper_default_scenario
from repro.sim.wire_recording import WireRecording

BENCH_POSE = Point3(0.4, 1.9, 0.0)
MTU_BYTES = 1400


def _frames(batch: ReportBatch, reports_per_frame: int) -> list:
    reports = batch.sorted_by_reader_time().reports
    return [
        encode_ro_access_report(
            ReportBatch(reports[i : i + reports_per_frame]),
            message_id=i // reports_per_frame + 1,
        )
        for i in range(0, len(reports), reports_per_frame)
    ]


def _bench_decode(frames: list, repeats: int) -> dict:
    """Time object vs columnar decode over identical frames."""
    total_reports = 0
    for frame in frames:
        _mid, batch = decode_ro_access_report(frame)
        total_reports += len(batch)

    t0 = time.perf_counter()
    for _ in range(repeats):
        for frame in frames:
            decode_ro_access_report(frame)
    object_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(repeats):
        for frame in frames:
            decode_ro_access_report_columnar(frame)
    columnar_s = time.perf_counter() - t0

    decoded = total_reports * repeats
    # Differential gate: both paths must agree report-for-report.
    mismatches = 0
    for frame in frames:
        _mid, expect = decode_ro_access_report(frame)
        _mid, cols = decode_ro_access_report_columnar(frame)
        if cols.to_reports() != list(expect.reports):
            mismatches += 1
    return {
        "frames": len(frames),
        "reports_per_frame": total_reports // len(frames),
        "decoded_reports": decoded,
        "object_reports_per_s": decoded / object_s,
        "object_us_per_report": object_s / decoded * 1e6,
        "columnar_reports_per_s": decoded / columnar_s,
        "columnar_us_per_report": columnar_s / decoded * 1e6,
        "columnar_speedup": object_s / columnar_s,
        "differential_mismatch_frames": mismatches,
    }


def _bench_stream(frames: list, repeats: int) -> dict:
    """Reassembly + columnar decode from MTU-sized chunks."""
    wire = b"".join(frames)
    chunks = [
        wire[i : i + MTU_BYTES] for i in range(0, len(wire), MTU_BYTES)
    ]
    reports = 0
    t0 = time.perf_counter()
    for _ in range(repeats):
        parser = StreamingLLRPParser()
        for chunk in chunks:
            for _mid, cols in parser.feed_columnar(chunk):
                reports += len(cols)
        parser.close()
    elapsed = time.perf_counter() - t0
    return {
        "wire_bytes": len(wire),
        "chunk_bytes": MTU_BYTES,
        "reports": reports,
        "reports_per_s": reports / elapsed,
        "mib_per_s": len(wire) * repeats / elapsed / (1 << 20),
    }


def _bench_replay(recording: WireRecording) -> dict:
    t0 = time.perf_counter()
    result = asyncio.run(
        replay_into_supervisor(
            recording, speed=1e6, fragment_bytes=MTU_BYTES
        )
    )
    elapsed = time.perf_counter() - t0
    return {
        "frames": len(recording),
        "reports": result.reports_offered,
        "wall_s": elapsed,
        "reports_per_s": result.reports_offered / elapsed,
        "fix_error_m": result.error_m,
        "resyncs": result.stream_stats["resyncs"],
    }


def _format(metrics: dict) -> str:
    d, s, r = metrics["decode"], metrics["stream"], metrics["replay"]
    return "\n".join(
        [
            f"wire ingest ({d['frames']} frames, "
            f"{d['decoded_reports']} decoded reports)",
            f"  object decode  : {d['object_reports_per_s']:,.0f} "
            f"reports/s ({d['object_us_per_report']:.2f} us/report)",
            f"  columnar decode: {d['columnar_reports_per_s']:,.0f} "
            f"reports/s ({d['columnar_us_per_report']:.2f} us/report) "
            f"— {d['columnar_speedup']:.1f}x",
            f"  streaming      : {s['reports_per_s']:,.0f} reports/s, "
            f"{s['mib_per_s']:.1f} MiB/s reassembled from "
            f"{s['chunk_bytes']}-byte chunks",
            f"  fleet replay   : {r['reports_per_s']:,.0f} reports/s "
            f"end-to-end, fix error "
            f"{(r['fix_error_m'] or 0.0) * 100:.2f} cm",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the wire ingest path"
    )
    parser.add_argument("--quick", action="store_true",
                        help="small run plus the speedup/differential "
                        "gate (exit 1 on violation)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="decode/stream timing repeats "
                        "(default 20; --quick 5)")
    parser.add_argument("--reports-per-frame", type=int, default=50,
                        help="reports per encoded RO_ACCESS_REPORT")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="columnar-vs-object decode gate (--quick)")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--json", type=Path, default=None,
                        help="write machine-readable metrics here")
    args = parser.parse_args(argv)

    repeats = args.repeats or (5 if args.quick else 20)

    scenario = paper_default_scenario(seed=args.seed)
    scenario.run_orientation_prelude()
    batch, _reader = scenario.collect(BENCH_POSE)
    frames = _frames(batch, args.reports_per_frame)
    recording = WireRecording.capture(
        batch,
        list(scenario.scene.registry),
        truth=BENCH_POSE,
        label=f"bench seed={args.seed}",
        reports_per_frame=args.reports_per_frame,
    )

    metrics = {
        "decode": _bench_decode(frames, repeats),
        "stream": _bench_stream(frames, repeats),
        "replay": _bench_replay(recording),
    }
    print(_format(metrics))

    failures = []
    if args.quick:
        speedup = metrics["decode"]["columnar_speedup"]
        if speedup < args.min_speedup:
            failures.append(
                f"columnar decode speedup {speedup:.2f}x is below the "
                f"{args.min_speedup:.1f}x gate"
            )
        if metrics["decode"]["differential_mismatch_frames"]:
            failures.append(
                "columnar decoder disagreed with the object decoder on "
                f"{metrics['decode']['differential_mismatch_frames']} "
                "frame(s)"
            )
        error_m = metrics["replay"]["fix_error_m"]
        if error_m is None or error_m > 0.10:
            failures.append(
                f"replayed fleet fix error {error_m} exceeds 10 cm"
            )

    payload = json.dumps(
        {
            "schema": "tagspin-bench/1",
            "benchmark": "wire-ingest",
            "mode": "quick" if args.quick else "full",
            "config": {
                "seed": args.seed,
                "repeats": repeats,
                "reports_per_frame": args.reports_per_frame,
                "min_speedup": args.min_speedup,
            },
            "metrics": metrics,
            # tagspin-metrics/1 registry snapshot of this run (stream
            # resyncs, ingest counters) next to the timings.
            "metrics_snapshot": get_registry().snapshot(),
        },
        indent=2,
        sort_keys=True,
    )
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
