"""Checkpoint/restore of per-deployment serving state.

A :class:`DeploymentCheckpoint` snapshots everything a restarted actor
needs to *warm-start* instead of rebuilding from nothing: the per-stream
report buffers (byte-for-byte, so a restored server fixes exactly as
the one it replaces), the validator quarantine counters, and the last
known degradation state per stream.

Checkpoints serialize to a versioned JSON document
(``schema: tagspin-checkpoint/1``) through a pluggable
:class:`CheckpointStore`.  Corruption is a first-class case:
:meth:`DeploymentCheckpoint.from_json` raises
:class:`~repro.errors.CheckpointError` on any structural damage, and the
actor answers it by cold-starting — a bad checkpoint must never poison a
recovery, only slow it down.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import CheckpointError
from repro.hardware.llrp import TagReportData
from repro.robustness.diagnostics import DegradationState
from repro.server.resilience import ResilientLocalizationServer
from repro.server.service import StreamKey

CHECKPOINT_SCHEMA = "tagspin-checkpoint/1"

_REPORT_FIELDS = (
    "epc",
    "antenna_port",
    "channel_index",
    "reader_timestamp_us",
    "host_timestamp_us",
    "phase_rad",
    "rssi_dbm",
)


def _report_to_row(report: TagReportData) -> list:
    return [getattr(report, name) for name in _REPORT_FIELDS]


def _report_from_row(row: object) -> TagReportData:
    if not isinstance(row, list) or len(row) != len(_REPORT_FIELDS):
        raise CheckpointError(f"malformed report row: {row!r}")
    try:
        return TagReportData(
            epc=str(row[0]),
            antenna_port=int(row[1]),
            channel_index=int(row[2]),
            reader_timestamp_us=int(row[3]),
            host_timestamp_us=int(row[4]),
            phase_rad=float(row[5]),
            rssi_dbm=float(row[6]),
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed report row: {row!r}") from exc


@dataclass
class DeploymentCheckpoint:
    """Restorable snapshot of one deployment's serving state."""

    deployment_id: str
    seq: int
    streams: Dict[StreamKey, List[TagReportData]] = field(default_factory=dict)
    quarantine: Dict[StreamKey, Dict[str, int]] = field(default_factory=dict)
    degradation: Dict[StreamKey, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Capture / restore
    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        deployment_id: str,
        server: ResilientLocalizationServer,
        seq: int,
    ) -> "DeploymentCheckpoint":
        streams = server.snapshot_streams()
        return cls(
            deployment_id=deployment_id,
            seq=seq,
            streams=streams,
            quarantine={
                key: server.quarantine_stats(*key).as_dict()
                for key in streams
            },
            degradation={
                key: state.value
                for key, state in server.degradation_states().items()
            },
        )

    def restore_into(self, server: ResilientLocalizationServer) -> None:
        """Load the snapshot into a fresh server.

        Buffers are replaced wholesale (preserving exact report order, so
        fixes after later appends match an uninterrupted server's) and
        degradation states carry over.
        Validator counters restart at zero — the validators' duplicate
        windows died with the old process, and pretending otherwise would
        double-count; cross-incarnation totals are the supervisor's job.
        """
        server.restore_streams(self.streams)
        server.restore_degradation(
            {
                key: DegradationState(value)
                for key, value in self.degradation.items()
            }
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA,
                "deployment_id": self.deployment_id,
                "seq": self.seq,
                "streams": [
                    {
                        "reader_name": key[0],
                        "antenna_port": key[1],
                        "reports": [_report_to_row(r) for r in reports],
                    }
                    for key, reports in sorted(self.streams.items())
                ],
                "quarantine": [
                    {
                        "reader_name": key[0],
                        "antenna_port": key[1],
                        "stats": stats,
                    }
                    for key, stats in sorted(self.quarantine.items())
                ],
                "degradation": [
                    {
                        "reader_name": key[0],
                        "antenna_port": key[1],
                        "state": state,
                    }
                    for key, state in sorted(self.degradation.items())
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DeploymentCheckpoint":
        try:
            doc = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise CheckpointError("checkpoint document is not an object")
        if doc.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"unsupported checkpoint schema {doc.get('schema')!r} "
                f"(expected {CHECKPOINT_SCHEMA!r})"
            )
        try:
            deployment_id = str(doc["deployment_id"])
            seq = int(doc["seq"])
            streams: Dict[StreamKey, List[TagReportData]] = {}
            for entry in doc["streams"]:
                key = (str(entry["reader_name"]), int(entry["antenna_port"]))
                streams[key] = [_report_from_row(r) for r in entry["reports"]]
            quarantine: Dict[StreamKey, Dict[str, int]] = {}
            for entry in doc.get("quarantine", []):
                key = (str(entry["reader_name"]), int(entry["antenna_port"]))
                quarantine[key] = {
                    str(k): int(v) for k, v in entry["stats"].items()
                }
            degradation: Dict[StreamKey, str] = {}
            for entry in doc.get("degradation", []):
                key = (str(entry["reader_name"]), int(entry["antenna_port"]))
                state = str(entry["state"])
                DegradationState(state)  # rejects unknown states
                degradation[key] = state
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint missing or malformed field: {exc}"
            ) from exc
        return cls(
            deployment_id=deployment_id,
            seq=seq,
            streams=streams,
            quarantine=quarantine,
            degradation=degradation,
        )

    def report_count(self) -> int:
        return sum(len(reports) for reports in self.streams.values())


class CheckpointStore:
    """Interface of a deployment-checkpoint backing store."""

    def save(self, deployment_id: str, payload: str) -> None:
        raise NotImplementedError

    def load(self, deployment_id: str) -> Optional[str]:
        """Stored payload, or ``None`` if no checkpoint exists."""
        raise NotImplementedError

    def delete(self, deployment_id: str) -> None:
        raise NotImplementedError


class MemoryCheckpointStore(CheckpointStore):
    """In-process store for tests and the chaos harness.

    :meth:`corrupt` damages a stored payload in place — the harness uses
    it to prove a torn checkpoint degrades recovery to a cold start
    instead of crashing or restoring garbage.
    """

    def __init__(self) -> None:
        self._payloads: Dict[str, str] = {}
        self.saves = 0
        self.loads = 0

    def save(self, deployment_id: str, payload: str) -> None:
        self._payloads[deployment_id] = payload
        self.saves += 1

    def load(self, deployment_id: str) -> Optional[str]:
        self.loads += 1
        return self._payloads.get(deployment_id)

    def delete(self, deployment_id: str) -> None:
        self._payloads.pop(deployment_id, None)

    def corrupt(self, deployment_id: str) -> None:
        """Truncate the stored payload mid-document (torn write)."""
        payload = self._payloads.get(deployment_id)
        if payload is not None:
            self._payloads[deployment_id] = payload[: len(payload) // 2]


class JsonCheckpointStore(CheckpointStore):
    """One JSON file per deployment under ``root``, written atomically.

    The write goes to a temp file in the same directory followed by
    :func:`os.replace`, so a crash mid-save leaves the previous
    checkpoint intact rather than a torn file.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, deployment_id: str) -> Path:
        if not deployment_id or "/" in deployment_id or deployment_id.startswith("."):
            raise CheckpointError(
                f"deployment id {deployment_id!r} is not a safe file name"
            )
        return self.root / f"{deployment_id}.checkpoint.json"

    def save(self, deployment_id: str, payload: str) -> None:
        path = self._path(deployment_id)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def load(self, deployment_id: str) -> Optional[str]:
        path = self._path(deployment_id)
        try:
            return path.read_text()
        except FileNotFoundError:
            return None

    def delete(self, deployment_id: str) -> None:
        path = self._path(deployment_id)
        try:
            path.unlink()
        except FileNotFoundError:
            pass
