"""End-to-end serving benchmark: seeded wire bytes in, antenna fixes out.

Run from the repository root::

    python3 perfbench/run.py --workload poll --seed 1 --seconds 30 --trace 0

``--workload`` is ``poll``, ``bulk`` or ``sharded`` (BENCHMARK.json says
why each exists).  ``--trace 0`` times one ``--seconds`` window with no
wrapper installed and prints the end-to-end metrics; ``--trace 1``
splits ``--seconds`` over a default window, a window with
``TAGSPIN_DISABLE_TELEMETRY=1`` and a traced window, and prints the
per-layer metrics.  Every invocation checks the program's outputs and
exits 1 when a check fails.  The last line of standard output is the
JSON result; details of the run go to ``perfbench/out/``.

The program is imported from the ``src/`` directory beside this one;
without it the benchmark stops before measuring anything.  Every process
an invocation starts has ended when it exits.
"""

from __future__ import annotations

import argparse
import asyncio
import multiprocessing
import os
import signal
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Children still running this long after being told to stop are killed.
STOP_GRACE_S = 10.0


def _use_checkout_source() -> None:
    """Put this checkout's ``src/`` first on the import path, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(
            f"perfbench: repro was imported from {repro.__file__}, not {SRC}"
        )


def _child_pids() -> List[int]:
    """Pids of this process's children, ended but unreaped ones included."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if parent == os.getpid():
            children.append(int(entry))
    return children


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``ShardedFleet.close`` joins its workers; workers a failed window
    left running are killed here.  The fleet's shared memory also starts
    multiprocessing's resource tracker, which would outlive this process
    for a moment: stopping it makes it unlink any segment still
    registered, and waits for it to exit.  Children left after
    STOP_GRACE_S are killed.
    """
    for process in multiprocessing.active_children():
        process.kill()
        process.join()
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + STOP_GRACE_S
    while children := _child_pids():
        late = time.monotonic() >= deadline
        for pid in children:
            if late:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, 0 if late else os.WNOHANG)
            except ChildProcessError:
                pass
        if late:
            return
        time.sleep(0.01)


def _terminated(signum, _frame) -> None:
    """Unwind on SIGTERM, so that targets are closed and children waited for."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end Tagspin serving benchmark"
    )
    parser.add_argument(
        "--workload", required=True, choices=("poll", "bulk", "sharded")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="seconds of timed windows per invocation",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _use_checkout_source()
    from perfbench.bench import measure

    signal.signal(signal.SIGTERM, _terminated)
    try:
        return asyncio.run(
            measure(args.workload, args.seed, args.seconds, bool(args.trace))
        )
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
