"""End-to-end: the pipeline and servers produce the same fixes per engine.

The ``engine=`` strategy object must be a pure performance knob — swapping
it can never change a localization answer.  These tests run one simulated
collection through :class:`TagspinSystem` (and the resilient server) once
per engine and hold the harmonic engine's fixes within 1e-9 of the
reference's.  The serving engine's fixes are also held, within 1e-9, to
be independent of how a server's buffer was filled: polling between
appends must end at the same fix as one ingest of every report.
"""

from __future__ import annotations

import pytest

from repro.core.geometry import Point2, Point3
from repro.core.pipeline import LocalizationPipeline, TagspinSystem
from repro.fleet.worker import DeploymentSpec
from repro.perf import ReferenceEngine, create_engine
from repro.server.resilience import ResilientLocalizationServer
from repro.server.service import LocalizationServer
from repro.sim.scenario import paper_default_scenario


@pytest.fixture(scope="module")
def collected():
    """One scenario and one collected batch, shared across engine runs."""
    scenario = paper_default_scenario(seed=11)
    scenario.run_orientation_prelude()
    batch, _reader = scenario.collect(Point3(0.5, 2.0, 0.0))
    return scenario, batch


def _fix_with_engine(collected, engine):
    scenario, batch = collected
    system = TagspinSystem(
        scenario.scene.registry, scenario.config.pipeline, engine=engine
    )
    return system.locate_2d(batch, 1)


class TestPipelineEngineEquivalence:
    def test_harmonic_fix_within_budget(self, collected):
        # The harmonic engine is numerically (not bit-) equivalent: its
        # FFT-realized steering phasors round differently than direct
        # cosines, so the fix is held to the 1e-9 dense budget instead.
        expected = _fix_with_engine(collected, "reference")
        actual = _fix_with_engine(collected, "harmonic")
        assert abs(actual.position.x - expected.position.x) <= 1e-9
        assert abs(actual.position.y - expected.position.y) <= 1e-9
        assert abs(actual.residual - expected.residual) <= 1e-9

    def test_fused_joint_path_per_engine(self, collected):
        # locate_3d exercises engine.fused_joint_spectrum end to end.
        scenario, batch = collected

        def fix_3d(engine):
            system = TagspinSystem(
                scenario.scene.registry,
                scenario.config.pipeline,
                engine=engine,
            )
            return system.locate_3d(batch, 1)

        expected = fix_3d("reference")
        harmonic = fix_3d("harmonic")
        assert abs(harmonic.position.x - expected.position.x) <= 1e-6
        assert abs(harmonic.position.y - expected.position.y) <= 1e-6
        assert abs(harmonic.position.z - expected.position.z) <= 1e-6

    def test_fix_is_accurate(self, collected):
        fix = _fix_with_engine(collected, "adaptive-harmonic")
        truth = Point2(0.5, 2.0)
        assert fix.position.distance_to(truth) < 0.15

    def test_repeated_fix_hits_caches(self, collected):
        """Inside one fix, the locate pass re-reads the scoring pass's
        spectra instead of recomputing them."""
        scenario, batch = collected
        engine = create_engine("adaptive-harmonic")
        system = TagspinSystem(
            scenario.scene.registry, scenario.config.pipeline, engine=engine
        )
        first, _diagnostics = system.locate_2d_diagnosed(batch, 1)
        assert engine.cache_stats()["adaptive"]["spectra"]["hits"] > 0
        second, _diagnostics = system.locate_2d_diagnosed(batch, 1)
        assert second.position.x == first.position.x
        assert second.position.y == first.position.y

    def test_fix_retains_nothing_after_it_returns(self, collected):
        """A second fix over the same buffer computes everything again:
        the first fix's memo was dropped when it returned."""
        scenario, batch = collected
        engine = create_engine("adaptive-harmonic")
        system = TagspinSystem(
            scenario.scene.registry, scenario.config.pipeline, engine=engine
        )

        def counters():
            stats = engine.cache_stats()
            memos = {
                "steering": stats["steering"],
                "geometry": stats["geometry"],
                "spectra": stats["adaptive"]["spectra"],
            }
            return {
                (name, key): memo[key]
                for name, memo in memos.items()
                for key in ("hits", "misses")
            }

        system.locate_2d_diagnosed(batch, 1)
        once = counters()
        system.locate_2d_diagnosed(batch, 1)
        twice = counters()
        assert all(twice[key] == 2 * once[key] for key in once)
        assert once[("spectra", "misses")] > 0

    def test_engine_instance_passthrough(self, collected):
        scenario, _batch = collected
        engine = ReferenceEngine()
        system = TagspinSystem(
            scenario.scene.registry, scenario.config.pipeline, engine=engine
        )
        assert system.engine is engine

    def test_unknown_engine_name_rejected(self, collected):
        scenario, _batch = collected
        # Names of deleted engines are unknown too (matching ignores
        # case, so the mixed-case spelling is the same name).
        for name in (
            "quantum",
            "batched",
            "adaptive",
            "parallel",
            "parallel-thread",
            "parallel-process",
            "streaming",
            "Harmonic+Native",
        ):
            with pytest.raises(ValueError, match="unknown spectrum engine"):
                TagspinSystem(
                    scenario.scene.registry,
                    scenario.config.pipeline,
                    engine=name,
                )

    def test_localization_pipeline_alias(self):
        assert LocalizationPipeline is TagspinSystem


class TestServerEnginePassthrough:
    def test_localization_server_forwards_engine(self, collected):
        scenario, _batch = collected
        server = LocalizationServer(
            scenario.scene.registry,
            scenario.config.pipeline,
            engine="harmonic",
        )
        assert server.system.engine.name == "harmonic"

    def test_resilient_server_forwards_engine(self, collected):
        scenario, _batch = collected
        server = ResilientLocalizationServer(
            scenario.scene.registry,
            scenario.config.pipeline,
            engine="harmonic",
        )
        assert server.system.engine.name == "harmonic"

    def test_resilient_server_fix_identical_across_engines(self, collected):
        scenario, batch = collected

        def serve(engine):
            server = ResilientLocalizationServer(
                scenario.scene.registry,
                scenario.config.pipeline,
                engine=engine,
            )
            server.ingest("reader-1", batch.reports)
            return server.locate_antenna_2d("reader-1")

        expected = serve("reference")
        harmonic = serve("harmonic")
        assert abs(harmonic.position.x - expected.position.x) <= 1e-9
        assert abs(harmonic.position.y - expected.position.y) <= 1e-9


class TestServingEnginePollAfterAppend:
    def test_fix_after_append_matches_fresh_server(self, collected):
        scenario, batch = collected
        reports = sorted(batch.reports, key=lambda r: r.reader_timestamp_us)
        cut = int(len(reports) * 0.7)

        def server():
            return LocalizationServer(
                scenario.scene.registry,
                scenario.config.pipeline,
                engine=DeploymentSpec.engine,
            )

        polled = server()
        polled.ingest("reader-1", reports[:cut])
        polled.locate_antenna_2d("reader-1")
        polled.ingest("reader-1", reports[cut:])
        fix = polled.locate_antenna_2d("reader-1")

        fresh = server()
        fresh.ingest("reader-1", reports)
        expected = fresh.locate_antenna_2d("reader-1")
        assert abs(fix.position.x - expected.position.x) <= 1e-9
        assert abs(fix.position.y - expected.position.y) <= 1e-9
        assert abs(fix.residual - expected.residual) <= 1e-9
