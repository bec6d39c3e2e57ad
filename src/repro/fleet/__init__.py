"""Fleet serving tier: supervised deployment actors over asyncio.

The paper's "central localization server" is a single in-process object;
this package is what lets one process serve *thousands* of deployments
(disk sets) with robustness as the organizing principle:

* :mod:`repro.fleet.events` — structured actor-lifecycle events;
* :mod:`repro.fleet.backpressure` — bounded ingest mailboxes with
  high-water-mark load shedding and exact shed accounting;
* :mod:`repro.fleet.actor` — one :class:`DeploymentActor` per deployment
  id, wrapping a :class:`~repro.server.resilience
  .ResilientLocalizationServer`, serializing ingest and fixes, and
  bounding every solve with a deadline budget;
* :mod:`repro.fleet.supervisor` — restart-with-backoff supervision and
  per-deployment circuit breakers;
* :mod:`repro.fleet.checkpoint` — periodic snapshot/restore of stream
  buffers and degradation state so restarts warm-start instead of
  rebuilding cold;
* :mod:`repro.fleet.chaos` — the fault-injection harness asserting the
  tier's recovery SLOs;
* :mod:`repro.fleet.sharding` / :mod:`repro.fleet.worker` — the
  multi-core tier: hash-sharded worker *processes* (a full supervisor
  per shard) fed columnar batches over one pipe each.
"""

from repro.fleet.actor import ActorConfig, ActorStats, DeploymentActor
from repro.fleet.backpressure import (
    BoundedMailbox,
    ColumnarIngestMessage,
    ShedStats,
)
from repro.fleet.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    DeploymentCheckpoint,
    JsonCheckpointStore,
    MemoryCheckpointStore,
)
from repro.fleet.chaos import ChaosConfig, ChaosReport, run_chaos_suite
from repro.fleet.events import (
    EVENT_ACTOR_CRASHED,
    EVENT_ACTOR_RESTARTED,
    EVENT_ACTOR_STARTED,
    EVENT_ACTOR_STOPPED,
    EVENT_BREAKER_CLOSED,
    EVENT_BREAKER_HALF_OPEN,
    EVENT_BREAKER_OPENED,
    EVENT_CHECKPOINT_CORRUPT,
    EVENT_CHECKPOINT_RESTORED,
    EVENT_CHECKPOINT_SAVED,
    EVENT_FIX_DEADLINE,
    EVENT_REPORTS_SHED,
    EVENT_WORKER_KILLED,
    EVENT_WORKER_LOST,
    EVENT_WORKER_RESTARTED,
    EVENT_WORKER_STARTED,
    EVENT_WORKER_STOPPED,
    EventLog,
    FleetEvent,
)
from repro.fleet.sharding import ShardedFleet, shard_for
from repro.fleet.supervisor import (
    BreakerState,
    FleetSupervisor,
    SupervisorPolicy,
)
from repro.fleet.worker import DeploymentSpec, WorkerOptions

__all__ = [
    "ActorConfig",
    "ActorStats",
    "DeploymentActor",
    "BoundedMailbox",
    "ShedStats",
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "DeploymentCheckpoint",
    "JsonCheckpointStore",
    "MemoryCheckpointStore",
    "ChaosConfig",
    "ChaosReport",
    "run_chaos_suite",
    "EventLog",
    "FleetEvent",
    "EVENT_ACTOR_CRASHED",
    "EVENT_ACTOR_RESTARTED",
    "EVENT_ACTOR_STARTED",
    "EVENT_ACTOR_STOPPED",
    "EVENT_BREAKER_CLOSED",
    "EVENT_BREAKER_HALF_OPEN",
    "EVENT_BREAKER_OPENED",
    "EVENT_CHECKPOINT_CORRUPT",
    "EVENT_CHECKPOINT_RESTORED",
    "EVENT_CHECKPOINT_SAVED",
    "EVENT_FIX_DEADLINE",
    "EVENT_REPORTS_SHED",
    "EVENT_WORKER_KILLED",
    "EVENT_WORKER_LOST",
    "EVENT_WORKER_RESTARTED",
    "EVENT_WORKER_STARTED",
    "EVENT_WORKER_STOPPED",
    "ColumnarIngestMessage",
    "BreakerState",
    "FleetSupervisor",
    "SupervisorPolicy",
    "DeploymentSpec",
    "ShardedFleet",
    "WorkerOptions",
    "shard_for",
]
