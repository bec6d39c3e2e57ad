"""Tests for repro.fleet.wire_ingest (endpoint + recording replay)."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.geometry import Point3
from repro.errors import ConfigurationError
from repro.fleet.wire_ingest import (
    WireIngestEndpoint,
    replay_frames,
    replay_into_supervisor,
)
from repro.fleet.worker import DeploymentSpec
from repro.sim.wire_recording import WireRecording

TRUTH = Point3(0.4, 1.9, 0.0)


@pytest.fixture(scope="module")
def recording(calibrated_scenario_2d) -> WireRecording:
    batch, _reader = calibrated_scenario_2d.collect(TRUTH)
    return WireRecording.capture(
        batch,
        list(calibrated_scenario_2d.scene.registry),
        truth=TRUTH,
        label="fleet-replay regression",
    )


@pytest.fixture(scope="module")
def reference_fix(calibrated_scenario_2d, recording):
    """The fix the plain in-process server computes from the capture,
    on the engine replayed deployments serve on."""
    from repro.server.resilience import ResilientLocalizationServer

    server = ResilientLocalizationServer(
        recording.build_registry(),
        calibrated_scenario_2d.config.pipeline,
        engine=DeploymentSpec.engine,
    )
    from repro.hardware.llrp_stream import StreamingLLRPParser

    parser = StreamingLLRPParser()
    for frame in recording.frames:
        for _mid, batch in parser.feed(frame.payload):
            server.ingest("reader-1", batch.reports)
    fix, _diag = server.locate_antenna_2d_diagnosed("reader-1")
    return fix


class TestReplayRegression:
    def test_replayed_fix_matches_recorded_truth(self, recording):
        result = asyncio.run(
            replay_into_supervisor(
                recording, speed=1e5, fragment_bytes=1400
            )
        )
        assert result.reports_offered > 0
        assert result.reports_enqueued == result.reports_offered
        assert result.error_m is not None
        assert result.error_m < 0.05  # within 5 cm of recorded truth

    def test_replay_reproduces_in_process_fix(
        self, recording, reference_fix
    ):
        """The wire loopback changes nothing: columnar batches offered
        by the endpoint give the fix of direct object ingest."""
        result = asyncio.run(
            replay_into_supervisor(recording, speed=1e5)
        )
        assert result.fix.position.x == pytest.approx(
            reference_fix.position.x, abs=1e-9
        )
        assert result.fix.position.y == pytest.approx(
            reference_fix.position.y, abs=1e-9
        )

    def test_round_tripped_file_replays_identically(
        self, recording, tmp_path
    ):
        path = tmp_path / "session.tswire"
        recording.save(path)
        restored = WireRecording.load(path)
        a = asyncio.run(replay_into_supervisor(recording, speed=1e5))
        b = asyncio.run(replay_into_supervisor(restored, speed=1e5))
        assert a.fix.position == b.fix.position
        assert a.stream_stats == b.stream_stats

    def test_fragmentation_does_not_change_outcome(self, recording):
        whole = asyncio.run(
            replay_into_supervisor(recording, speed=1e5)
        )
        shredded = asyncio.run(
            replay_into_supervisor(
                recording, speed=1e5, fragment_bytes=17
            )
        )
        assert whole.fix.position == shredded.fix.position
        assert (
            whole.stream_stats["reports"]
            == shredded.stream_stats["reports"]
        )


class TestEndpointMechanics:
    def test_rejects_bad_read_size(self):
        with pytest.raises(ConfigurationError):
            WireIngestEndpoint(None, "d", "r", read_bytes=0)

    def test_stats_aggregate_connections(self, recording):
        result = asyncio.run(
            replay_into_supervisor(recording, speed=1e5)
        )
        stats = result.stream_stats
        assert stats["frames"] == len(recording)
        assert stats["batches"] == len(recording)
        assert stats["reports"] == result.reports_offered
        assert stats["bytes_fed"] == recording.total_bytes

    def test_replay_frames_rejects_bad_fragment(self, recording):
        async def run():
            server = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=0
            )
            host, port = server.sockets[0].getsockname()[:2]
            _r, writer = await asyncio.open_connection(host, port)
            try:
                with pytest.raises(ConfigurationError):
                    await replay_frames(
                        recording, writer, fragment_bytes=0
                    )
            finally:
                writer.close()
                server.close()
                await server.wait_closed()

        asyncio.run(run())


class TestReplayFanOut:
    def test_clone_ids_shapes(self):
        from repro.fleet.wire_ingest import clone_deployment_ids

        assert clone_deployment_ids("replay", 1) == ["replay"]
        assert clone_deployment_ids("replay", 3) == [
            "replay-000", "replay-001", "replay-002"
        ]
        with pytest.raises(ConfigurationError):
            clone_deployment_ids("replay", 0)

    def test_fanout_clones_agree_with_single_replay(
        self, recording, reference_fix
    ):
        """One capture cloned across M deployments: every clone ingests
        the full stream independently and lands on the identical fix."""
        results = asyncio.run(
            replay_into_supervisor(recording, speed=1e5, deployments=3)
        )
        assert isinstance(results, list) and len(results) == 3
        offered = {r.reports_offered for r in results}
        assert len(offered) == 1 and offered.pop() > 0
        for result in results:
            assert result.reports_enqueued == result.reports_offered
            assert result.fix.position.x == pytest.approx(
                reference_fix.position.x, abs=1e-9
            )
            assert result.fix.position.y == pytest.approx(
                reference_fix.position.y, abs=1e-9
            )

    def test_decoded_batches_match_frame_parse(self, recording):
        """decode_columnar_batches: one decode equals per-frame decode."""
        from repro.hardware.llrp_stream import StreamingLLRPParser

        batches = recording.decode_columnar_batches()
        parser = StreamingLLRPParser()
        expected = []
        for frame in recording.frames:
            for _mid, cols in parser.feed_columnar(frame.payload):
                if len(cols):
                    expected.append(cols)
        assert len(batches) == len(expected)
        total = sum(len(b) for b in batches)
        assert total > 0
        for got, want in zip(batches, expected):
            assert got.epcs == want.epcs
            assert (got.phase_rad == want.phase_rad).all()
