"""A served fix keeps nothing, and depends on nothing, beyond its buffer.

The spectrum engines memoize what one fix's passes share (scoring,
triangulation, orientation refinement, R-to-Q fallback, health monitor)
for that fix's scope only: every entry is keyed on the fix's own sample
times, which no later fix can read.  These tests pin both halves of that
contract on the serving engine:

* a simulated 2-disk session served frame by frame, with a supervised
  fix after every frame, retains (almost) no memory, while the memo
  still serves hits inside each fix;
* a fix is a pure function of registry, config and buffer: whatever
  sequence of object/columnar ingest, fixes, checkpoint/restore and
  ``clear`` a server went through, a fresh server restored from the
  same snapshot gives the same fix within 1e-9.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point3
from repro.errors import TransientError
from repro.fleet.checkpoint import DeploymentCheckpoint
from repro.fleet.worker import DeploymentSpec
from repro.hardware.llrp_columnar import ColumnarReportBatch
from repro.server.resilience import ResilientLocalizationServer, RetryPolicy
from repro.sim.scenario import ScenarioConfig, TagspinScenario
from repro.sim.scene import DeploymentSpec as SceneSpec

READER = "reader-1"
#: Reports per frame, as a reader's RO_ACCESS_REPORT delivers them.
FRAME_REPORTS = 50
#: tracemalloc growth a whole served session may leave behind: the
#: buffered reports themselves take ~0.2 MiB of it, while an engine memo
#: that outlived its fixes would hold ~34 MiB over this session.
MAX_SESSION_GROWTH_BYTES = 2 * 2**20


@pytest.fixture(scope="module")
def session():
    """(registry, pipeline config, frames) of one 2-disk session.

    Every frame prefix of this seed and pose supports a fix.
    """
    config = ScenarioConfig(
        deployment=SceneSpec(
            disk_centers=(Point3(-0.25, 0.0, 0.0), Point3(0.25, 0.0, 0.0))
        ),
        seed=7,
    )
    scenario = TagspinScenario(config)
    scenario.run_orientation_prelude()
    batch, _reader = scenario.collect(Point3(0.3, 1.8, 0.0))
    reports = batch.sorted_by_reader_time().reports
    frames = [
        reports[start : start + FRAME_REPORTS]
        for start in range(0, len(reports), FRAME_REPORTS)
    ]
    return scenario.scene.registry, config.pipeline, frames


def _server(registry, pipeline) -> ResilientLocalizationServer:
    return ResilientLocalizationServer(
        registry,
        pipeline,
        engine=DeploymentSpec.engine,
        retry=RetryPolicy(max_attempts=1),
        sleep=lambda _seconds: None,
    )


def _serve(server, frames) -> None:
    for frame in frames:
        server.ingest(READER, frame)
        server.locate_antenna_2d_diagnosed(READER, 1)


def test_served_session_keeps_nothing_per_fix(session):
    registry, pipeline, frames = session
    # Warm up imports, metric families and shared tables on a throwaway
    # server, so the measured session only holds what serving retains.
    _serve(_server(registry, pipeline), frames[:1])
    server = _server(registry, pipeline)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _serve(server, frames)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(frames) >= 15
    assert grown <= MAX_SESSION_GROWTH_BYTES, f"retained {grown / 2**20:.2f} MiB"
    # The memo still works inside each fix: the orientation-corrected
    # pass re-reads the scoring pass's steering phasors, and the
    # triangulation pass the scoring pass's spectra.
    stats = server.engine_cache_stats()
    assert stats["steering"]["hits"] > 0
    assert stats["adaptive"]["spectra"]["hits"] > 0


def _outcome(server):
    """The server's 2D fix position, or the type of transient failure."""
    try:
        fix, _diagnostics = server.locate_antenna_2d_diagnosed(READER, 1)
    except TransientError as exc:
        return type(exc)
    return fix.position


def _assert_fix_matches_fresh_restore(server, registry, pipeline) -> None:
    snapshot = DeploymentCheckpoint.from_json(
        DeploymentCheckpoint.capture("deployment", server, 0).to_json()
    )
    served = _outcome(server)
    fresh = _server(registry, pipeline)
    snapshot.restore_into(fresh)
    restored = _outcome(fresh)
    if isinstance(served, type) or isinstance(restored, type):
        assert served is restored
    else:
        assert abs(served.x - restored.x) <= 1e-9
        assert abs(served.y - restored.y) <= 1e-9


STEPS = st.lists(
    st.sampled_from(
        [
            "ingest",
            "ingest-columnar",
            "ingest",
            "ingest-columnar",
            "fix",
            "fix",
            "checkpoint",
            "restore",
            "clear",
        ]
    ),
    min_size=1,
    max_size=12,
)


@given(steps=STEPS)
@settings(max_examples=40, deadline=None)
def test_fix_is_a_pure_function_of_registry_config_and_buffer(session, steps):
    registry, pipeline, frames = session
    server = _server(registry, pipeline)
    cursor = 0
    saved = None
    for step in steps:
        if step.startswith("ingest"):
            frame = frames[cursor % len(frames)]
            cursor += 1
            if step == "ingest":
                server.ingest(READER, frame)
            else:
                server.ingest_columnar(
                    READER, ColumnarReportBatch.from_reports(frame)
                )
        elif step == "checkpoint":
            saved = DeploymentCheckpoint.capture("deployment", server, cursor)
        elif step == "restore":
            if saved is not None:
                saved.restore_into(server)
        elif step == "clear":
            server.clear(READER)
        else:
            _assert_fix_matches_fresh_restore(server, registry, pipeline)
    _assert_fix_matches_fresh_restore(server, registry, pipeline)
