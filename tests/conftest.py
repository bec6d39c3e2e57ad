"""Shared fixtures for the Tagspin test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import make_series as _make_series  # noqa: E402

from repro.sim.scenario import TagspinScenario, paper_default_scenario  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def make_series():
    """Factory producing synthetic spinning-tag snapshot series.

    The phases follow the paper's far-field model exactly, with optional
    Gaussian noise, so the true azimuth/polar angles are known by
    construction.  Hypothesis-driven tests import ``tests/helpers.py``
    directly instead (function-scoped fixtures don't mix with @given).
    """
    return _make_series


@pytest.fixture(scope="session")
def _prelude_2d():
    """The calibrated 2D scenario and its RNG state right after the prelude."""
    scenario = paper_default_scenario(seed=11)
    scenario.run_orientation_prelude()
    return scenario, scenario.rng.bit_generator.state


@pytest.fixture(scope="session")
def calibrated_scenario_2d(_prelude_2d) -> TagspinScenario:
    """A paper-default 2D scenario with the orientation prelude already run.

    Session-scoped: building it costs a simulated calibration campaign.
    It is not read-only: every ``collect()`` advances its RNG, so a
    module's batch depends on how many collects ran before it.
    :func:`collect_after_prelude_2d` gives a batch that does not.
    """
    return _prelude_2d[0]


@pytest.fixture(scope="session")
def collect_after_prelude_2d(_prelude_2d):
    """``collect(pose)`` from the RNG state right after the prelude.

    Returns the batch a module gets when it runs alone, whatever ran
    before it, and puts the session's RNG stream back afterwards.
    """
    scenario, state = _prelude_2d

    def collect(pose):
        session_state = scenario.rng.bit_generator.state
        scenario.rng.bit_generator.state = state
        try:
            return scenario.collect(pose)
        finally:
            scenario.rng.bit_generator.state = session_state

    return collect


@pytest.fixture(scope="session")
def calibrated_scenario_3d() -> TagspinScenario:
    scenario = paper_default_scenario(seed=13, three_d=True)
    scenario.run_orientation_prelude()
    return scenario
