"""Performance engines for spectrum evaluation (see ``DESIGN.md``).

Public surface:

* :class:`~repro.perf.engine.SpectrumEngine` — the strategy interface
  the pipeline calls through;
* :class:`~repro.perf.engine.ReferenceEngine` — the seed per-call path;
* :class:`~repro.perf.batched.BatchedEngine` — cached steering matrices
  + whole-grid vectorized evaluation under a memory budget;
* :class:`~repro.perf.adaptive.AdaptiveEngine` — coarse-to-fine basin
  search down to an angular tolerance, dense fallback on flat spectra;
* :class:`~repro.perf.harmonic.HarmonicEngine` — Jacobi-Anger harmonic
  decomposition with batched inverse-FFT grid evaluation and cross-fix
  steering-phasor caching;
* :func:`~repro.perf.engine.create_engine` — resolve ``engine=`` specs
  (``"reference"`` / ``"batched"`` / ``"adaptive"`` / ``"harmonic"`` /
  ``"adaptive-harmonic"`` / instance).
"""

from repro.perf.adaptive import AdaptiveEngine
from repro.perf.batched import BatchedEngine
from repro.perf.cache import CacheStats, LRUCache
from repro.perf.engine import (
    EngineSpec,
    ReferenceEngine,
    SpectrumEngine,
    create_engine,
)
from repro.perf.harmonic import HarmonicEngine
from repro.perf.steering import SteeringCache

__all__ = [
    "AdaptiveEngine",
    "BatchedEngine",
    "CacheStats",
    "EngineSpec",
    "HarmonicEngine",
    "LRUCache",
    "ReferenceEngine",
    "SpectrumEngine",
    "SteeringCache",
    "create_engine",
]
