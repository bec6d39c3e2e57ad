"""Render the committed baseline from the records runs leave in ``out/``.

After one traced invocation per workload at seed S, and untraced ones
at the seeds listed::

    python3 perfbench/run.py --workload poll --seed S --seconds 30 --trace 1
    (likewise bulk and sharded; untraced runs use --trace 0)
    python3 perfbench/summarize.py --seed S --seeds 1 2 3 4 5 6 7 8 9 10

this writes ``perfbench/results/baseline.md``: the traced per-layer
table, the end-to-end medians over the untraced seeds, the 2-core
sharded/poll throughput ratio and the health monitor's share of the
poll tail.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("poll", "bulk", "sharded")


def _load(workload: str, seed: int, trace: int) -> dict:
    return json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def _table(header, rows):
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * 2 + "---:|" * (len(header) - 2),
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write perfbench/results/baseline.md")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the traced invocations")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="seeds of the untraced invocations")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    traced = {w: _load(w, args.seed, 1) for w in WORKLOADS}
    untraced = {
        w: [
            _load(w, s, 0)
            for s in args.seeds
            if (OUT_DIR / f"{w}-seed{s}-trace0.json").exists()
        ]
        for w in WORKLOADS
    }
    poll = traced["poll"]

    lines = [
        "# Baseline",
        "",
        f"Program unmodified; engine `{poll['engine']}`; "
        f"`os.cpu_count()` = {poll['cpu_count']}; {poll['seconds']:g} s per "
        "invocation (one window untraced, three equal windows traced).",
        "",
        "## End-to-end: median over untraced invocations",
        "",
        "Seeds per workload: "
        + "; ".join(
            f"{w} {', '.join(str(r['seed']) for r in untraced[w])}"
            for w in WORKLOADS
        )
        + ".",
        "",
    ]
    rows = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    rows += [("fix_error_cm", "cm"), ("rss_mb", "MiB")]
    medians = {
        w: {
            name: statistics.median(r["metrics"][name] for r in untraced[w])
            for name, _unit in rows
        }
        for w in WORKLOADS
    }
    lines += _table(
        ["metric", "unit", *WORKLOADS],
        [
            [name, unit, *(f"{medians[w][name]:.4g}" for w in WORKLOADS)]
            for name, unit in rows
        ],
    )
    ratio = medians["sharded"]["reports_per_s"] / medians["poll"]["reports_per_s"]
    tail = poll["notes"]["monitor_tail"]
    lines += [
        "",
        f"- 2-core sharding baseline: sharded / poll throughput = {ratio:.3f} "
        f"({medians['sharded']['reports_per_s']:.1f} / "
        f"{medians['poll']['reports_per_s']:.1f} reports/s, same traffic).",
        f"- Health monitor share of the poll tail (seed {args.seed}, traced): "
        f"{tail['share']:.1%} of the latency of the {tail['requests']} fixes "
        "at or beyond p95.",
        "- failed_frac: "
        + ", ".join(
            f"{w} {sum(r['failed'] for r in untraced[w])} failed of "
            f"{sum(r['attempted'] for r in untraced[w])} attempted"
            for w in WORKLOADS
        )
        + ".",
        "",
        f"## Per layer: traced invocation, seed {args.seed}",
        "",
        "Times are seconds per 1000 wire reports fed in the traced window;",
        "`-` marks what happens inside sharded workers, which the wrappers",
        "do not reach.",
        "",
    ]
    lines += _table(
        ["metric", "unit", *WORKLOADS],
        [
            [
                m["name"],
                m["unit"],
                *(
                    "-" if m["name"] in traced[w]["notes"]["unmeasured"]
                    else f"{traced[w]['metrics'][m['name']]:.4g}"
                    for w in WORKLOADS
                ),
            ]
            for m in spec["per_layer"]
        ],
    )
    lines.append("")
    for w in WORKLOADS:
        notes = traced[w]["notes"]
        findings = notes["findings"]
        lines.append(
            f"- {w}: named layers cover {traced[w]['metrics']['trace.coverage']:.1%} "
            f"of {notes['coverage_of']}; "
            + (
                f"{len(findings)} of {notes['requests']} fixes leave over 10% "
                "unattributed."
                if findings else "no request leaves over 10% unattributed."
            )
        )
    out = BENCH_DIR / "results" / "baseline.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
