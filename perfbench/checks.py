"""Correctness checks run after every timed window.

Each returns a :class:`Check`; one failed check makes the invocation's
``correct`` false and its exit code 1.  The measurement helpers at the
end read what the kernel keeps about processes and shared memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Set

#: Final fixes must land this close to their recording's truth.
TRUTH_LIMIT_CM = 10.0
#: Sharded fixes must equal in-process fixes of the same frames this closely.
IDENTITY_TOLERANCE = 1e-9
SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def ledgers_balance(ledgers: Dict[str, dict], fed: Dict[str, int]) -> Check:
    """Every deployment's report ledger balances and books what was fed."""
    broken = []
    for deployment_id, ledger in sorted(ledgers.items()):
        booked = ledger["offered"] + ledger["rejected_open"]
        if ledger["offered"] != (
            ledger["shed"]
            + ledger["pending"]
            + ledger["delivered"]
            + ledger["lost_in_crash"]
        ):
            broken.append(
                f"{deployment_id}: offered != shed + pending + delivered"
                " + lost_in_crash"
            )
        elif ledger["delivered"] != ledger["received"] + ledger["rejected_invalid"]:
            broken.append(
                f"{deployment_id}: delivered != received + rejected_invalid"
            )
        elif booked != fed.get(deployment_id, 0):
            broken.append(
                f"{deployment_id}: {booked} reports booked, "
                f"{fed.get(deployment_id, 0)} fed"
            )
    detail = (
        "; ".join(broken[:3])
        if broken
        else f"{len(ledgers)} deployments balance"
    )
    return Check("ledgers-balance", bool(ledgers) and not broken, detail)


def horizontal_error_cm(fix, truth) -> float:
    return 100.0 * math.hypot(fix.position.x - truth.x, fix.position.y - truth.y)


def fixes_near_truth(errors_cm: Sequence[float]) -> Check:
    """Final fixes land within TRUTH_LIMIT_CM of their recording's truth."""
    if not errors_cm:
        return Check("fixes-near-truth", False, "no final fix to check")
    worst = max(errors_cm)
    return Check(
        "fixes-near-truth",
        worst <= TRUTH_LIMIT_CM,
        f"{len(errors_cm)} final fixes, worst {worst:.2f} cm "
        f"(limit {TRUTH_LIMIT_CM:g} cm)",
    )


def fixes_identical(pairs) -> Check:
    """``(label, served, reference)`` fixes agree within IDENTITY_TOLERANCE."""
    if not pairs:
        return Check(
            "sharded-equals-in-process", False, "no completed session to compare"
        )
    worst = max(
        max(
            abs(served.position.x - reference.position.x),
            abs(served.position.y - reference.position.y),
            abs(served.residual - reference.residual),
        )
        for _label, served, reference in pairs
    )
    return Check(
        "sharded-equals-in-process",
        worst <= IDENTITY_TOLERANCE,
        f"{len(pairs)} final fixes recomputed in process, largest "
        f"difference {worst:.3g} (limit {IDENTITY_TOLERANCE:g})",
    )


def duplicates_quarantined(
    ledgers: Dict[str, dict],
    injected: Dict[str, int],
    screened_duplicates: Optional[float],
) -> Check:
    """Bulk: the validator quarantined exactly the reads delivered twice.

    Duplicates are the only fault that quarantines (pi slips are
    repaired), so each deployment's ``quarantined`` must equal what the
    generator injected; ``screened_duplicates`` is the program's own
    duplicate counter over the window (``None`` with telemetry off).
    """
    total = sum(injected.values())
    wrong = [
        f"{deployment_id}: {ledgers[deployment_id]['quarantined']} "
        f"quarantined, {count} injected"
        for deployment_id, count in sorted(injected.items())
        if ledgers[deployment_id]["quarantined"] != count
    ]
    if screened_duplicates is not None and screened_duplicates != total:
        wrong.append(
            f"duplicate counter reads {screened_duplicates:g}, {total} injected"
        )
    detail = "; ".join(wrong[:3]) if wrong else (
        f"{total} injected duplicates quarantined across {len(injected)} "
        f"deployments"
    )
    return Check("duplicates-quarantined", total > 0 and not wrong, detail)


def fleet_released(pids: Sequence[int], leaked: Set[str]) -> Check:
    """After close, no worker process survives and no segment is left."""
    alive = [pid for pid in pids if os.path.exists(f"/proc/{pid}")]
    if alive or leaked:
        detail = f"alive worker pids {alive}; leaked segments {sorted(leaked)}"
    else:
        detail = f"{len(pids)} worker processes ended, no {SHM_DIR} segment left"
    return Check("fleet-released", bool(pids) and not alive and not leaked, detail)


def shm_segments() -> Set[str]:
    """Names of the shared-memory segments that currently exist."""
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


def resident_mib(pids: Iterable[int] = (), field: str = "VmHWM") -> float:
    """Resident set of this process plus each live ``pids`` [MiB]:
    the peak so far (``VmHWM``) or the current one (``VmRSS``)."""
    total_kib = 0
    for pid in ("self", *pids):
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith(f"{field}:"):
                    total_kib += int(line.split()[1])
                    break
    return total_kib / 1024.0
