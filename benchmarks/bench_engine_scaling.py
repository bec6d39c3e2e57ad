"""Engine-scaling benchmark: reference vs harmonic vs adaptive-harmonic.

Unlike the paper-figure benchmarks (which run under pytest), this is a
standalone script so CI's perf-smoke job and developers can run it
directly:

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_engine_scaling.py --quick  # CI gate

``--quick`` runs a trimmed medium scenario (the acceptance shape:
4 disks x 2 antennas x 8 channels, fewer snapshots/rounds but the full
0.5-degree grid) and **fails** (exit 1) unless

* the harmonic engine is at least ``--min-harmonic-speedup`` (default
  3x) faster than the reference engine with its errors within the dense
  budgets,
* the adaptive-harmonic engine, the one the fleet serves on, is at
  least ``--min-adaptive-speedup`` (default 2x) faster than the
  reference engine with its max angular error within the configured
  tolerance (default 1e-3 rad).

``--json`` writes the machine-readable timings (``tagspin-bench/1``) and
``--metrics-out`` the run's registry snapshot; the script writes no other
file, so the committed ``benchmarks/results/`` files stay the record of
the runs they came from.

Every run verifies engine equivalence before timing (the harmonic
engine within 1e-9, the adaptive engine's peaks within its angular
tolerance); see ``repro/perf/bench.py`` for the workload definition.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.perf.bench import (
    SCALES,
    format_results,
    format_telemetry_overhead,
    results_to_json,
    run_engine_scaling,
    run_telemetry_overhead,
)

#: Telemetry overhead the --quick gate tolerates on the medium scenario.
MAX_TELEMETRY_OVERHEAD = 0.03

#: Default adaptive-harmonic-vs-reference speedup the --quick gate
#: requires.
MIN_ADAPTIVE_SPEEDUP = 2.0

#: Default harmonic-vs-reference speedup the --quick gate requires.
MIN_HARMONIC_SPEEDUP = 3.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the spectrum engines over synthetic deployments"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="trimmed medium-scenario run with the CI perf gates "
        "(harmonic >= 3x reference within the dense budgets, "
        "adaptive-harmonic >= 2x reference within tolerance)",
    )
    parser.add_argument(
        "--scales",
        nargs="+",
        choices=sorted(SCALES),
        default=None,
        help="scenario scales to run (default: all; --quick: medium)",
    )
    parser.add_argument(
        "--engines",
        nargs="+",
        default=["reference", "harmonic", "adaptive-harmonic"],
        help="engines to time (default: reference harmonic "
        "adaptive-harmonic)",
    )
    parser.add_argument("--rounds", type=int, default=None,
                        help="fixes per scenario (default 3; --quick 2)")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="adaptive engine angular tolerance [rad] (default 1e-3)",
    )
    parser.add_argument(
        "--min-adaptive-speedup",
        type=float,
        default=MIN_ADAPTIVE_SPEEDUP,
        help="adaptive-harmonic-vs-reference speedup the --quick gate "
        "requires",
    )
    parser.add_argument(
        "--min-harmonic-speedup",
        type=float,
        default=MIN_HARMONIC_SPEEDUP,
        help="harmonic-vs-reference speedup the --quick gate requires",
    )
    parser.add_argument(
        "--telemetry-overhead",
        action="store_true",
        help="also measure instrumented-vs-disabled telemetry cost on "
        "the medium scenario; with --quick this gates the overhead",
    )
    parser.add_argument(
        "--max-telemetry-overhead",
        type=float,
        default=MAX_TELEMETRY_OVERHEAD,
        help="telemetry overhead fraction the --quick gate tolerates "
        "(default 0.03)",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write the run's tagspin-metrics/1 snapshot to this path "
        "(CI artifact)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write machine-readable timings to this path",
    )
    args = parser.parse_args(argv)

    if args.quick:
        scales = args.scales or ["medium"]
        rounds = args.rounds or 2
        # Keep the full 0.5-degree grid: the gate judges how the engines
        # scale with grid density, which is exactly what adaptive shrinks.
        overrides = {"snapshots": 60}
    else:
        scales = args.scales or ["small", "medium", "large"]
        rounds = args.rounds or 3
        overrides = {}

    results = run_engine_scaling(
        scales=scales,
        engines=args.engines,
        rounds=rounds,
        seed=args.seed,
        tolerance=args.tolerance,
        **overrides,
    )
    print(format_results(results))

    telemetry = None
    if args.telemetry_overhead:
        telemetry = run_telemetry_overhead(
            scale="medium",
            rounds=rounds,
            seed=args.seed,
            snapshots=overrides.get("snapshots"),
            tolerance=args.tolerance,
        )
        print()
        print(format_telemetry_overhead(telemetry))

    from repro.obs.metrics import get_registry

    metrics_snapshot = get_registry().snapshot()
    if args.metrics_out is not None:
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_out.write_text(
            json.dumps(metrics_snapshot, indent=2) + "\n"
        )
        print(f"wrote {args.metrics_out}")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            results_to_json(
                results, telemetry=telemetry, metrics=metrics_snapshot
            )
        )
        print(f"wrote {args.json}")

    if args.quick:
        failures = []
        gates = (
            ("harmonic", args.min_harmonic_speedup, "budget"),
            ("adaptive-harmonic", args.min_adaptive_speedup, "tolerance"),
        )
        for result in results:
            reference = result.timing("reference")
            for name, floor, budget in gates:
                timing = result.timing(name)
                if reference is None or timing is None:
                    continue
                ratio = reference.total_s / timing.total_s
                if ratio < floor:
                    failures.append(
                        f"{name} engine is only {ratio:.2f}x the reference "
                        f"engine on the {result.spec.name} scenario "
                        f"(need >= {floor:.1f}x)"
                    )
                elif timing.max_angular_error > timing.error_budget:
                    failures.append(
                        f"{name} max angular error "
                        f"{timing.max_angular_error:.2e} rad exceeds the "
                        f"{budget} {timing.error_budget:.0e}"
                    )
                else:
                    print(
                        f"OK: {name} engine is {ratio:.2f}x the reference "
                        f"engine on the {result.spec.name} scenario "
                        f"(max angular error {timing.max_angular_error:.2e}"
                        f" <= {timing.error_budget:.0e} rad)"
                    )
        if telemetry is not None:
            if telemetry.overhead_fraction > args.max_telemetry_overhead:
                failures.append(
                    f"telemetry overhead "
                    f"{telemetry.overhead_fraction * 100:.2f}% exceeds "
                    f"{args.max_telemetry_overhead * 100:.0f}% on the "
                    f"{telemetry.scenario} scenario"
                )
            else:
                print(
                    f"OK: telemetry overhead is "
                    f"{telemetry.overhead_fraction * 100:+.2f}% on the "
                    f"{telemetry.scenario} scenario "
                    f"(<= {args.max_telemetry_overhead * 100:.0f}%)"
                )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
