"""Performance engines for spectrum evaluation (see ``DESIGN.md``).

Public surface:

* :class:`~repro.perf.engine.SpectrumEngine` — the strategy interface
  the pipeline calls through;
* :class:`~repro.perf.engine.ReferenceEngine` — the seed per-call path;
* :class:`~repro.perf.harmonic.HarmonicEngine` — Jacobi-Anger harmonic
  decomposition with batched inverse-FFT grid evaluation;
* :class:`~repro.perf.adaptive.AdaptiveEngine` — the serving engine:
  coarse-to-fine basin search over a harmonic dense stage down to an
  angular tolerance, dense fallback on flat spectra;
* :func:`~repro.perf.engine.create_engine` — resolve ``engine=`` specs
  (``"reference"`` / ``"harmonic"`` / ``"adaptive-harmonic"`` /
  instance);
* :func:`~repro.perf.cache.fix_scope` — the scope one fix's engine memo
  lives in.
"""

from repro.perf.adaptive import AdaptiveEngine
from repro.perf.cache import CacheStats, fix_scope
from repro.perf.engine import (
    EngineSpec,
    ReferenceEngine,
    SpectrumEngine,
    create_engine,
)
from repro.perf.harmonic import HarmonicEngine

__all__ = [
    "AdaptiveEngine",
    "CacheStats",
    "EngineSpec",
    "HarmonicEngine",
    "ReferenceEngine",
    "SpectrumEngine",
    "create_engine",
    "fix_scope",
]
