"""Fix-scoped memo of spectrum-engine intermediates.

One Tagspin fix evaluates spectra of the same snapshot series several
times: the disk-quality scoring pass, the triangulation pass, the
orientation-corrected refinement (same geometry, new phases), the R-to-Q
fallback and the health monitor's check.  Engines memoize what those
passes share (steering phasors, coefficient tables, residuals, finished
spectra), but every entry is keyed on the fix's own sample times, which
change with every report appended, so no later fix can read it.  The
memo therefore lives for one *fix scope*:

* :func:`fix_scope` opens a scope on the calling thread; scopes opened
  inside it join it, and closing the outermost one drops every entry;
* a :class:`ScopedCache` is one named table of an engine: its entries
  live in the open scope, its hit/miss counters on the engine, so
  ``cache_stats()`` stays cumulative across fixes;
* outside any scope every lookup misses and nothing is kept.

Scopes are thread-local, so fixes on different threads never share or
drop each other's memo.

Keys are values, not object identity: the health monitor re-extracts the
series of the fix it checks as new objects with equal values, and the
pipeline rebuilds its candidate grids per call.  Keys quantize every
float to a fixed number of decimals, so two inputs that agree to
``1e-12`` share one entry.  The quantum sits three orders of magnitude
below the engines' ``1e-9`` equivalence budget, so a collision can never
move a spectrum outside the guaranteed tolerance.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Hashable, Iterator, Optional

import numpy as np

from repro.core.spectrum import SnapshotSeries

#: Decimals kept when quantizing float inputs into cache keys.
KEY_DECIMALS = 12


def quantize_scalar(value: float) -> float:
    """Quantize one float for use inside a cache key."""
    return round(float(value), KEY_DECIMALS)


def quantize_array(values: np.ndarray) -> bytes:
    """Quantize an array into a hashable byte string."""
    rounded = np.round(np.asarray(values, dtype=float), KEY_DECIMALS)
    # -0.0 and 0.0 hash to different byte patterns; normalize.
    rounded = rounded + 0.0
    return rounded.tobytes()


def series_geometry_key(series: SnapshotSeries) -> Hashable:
    """Key of everything a series' steering depends on but the grid:
    sample times, wavelength, disk radius, angular speed, start angle."""
    return (
        quantize_array(series.times),
        quantize_scalar(series.wavelength),
        quantize_scalar(series.radius),
        quantize_scalar(series.angular_speed),
        quantize_scalar(series.phase0),
    )


def grid_key(azimuths: np.ndarray, polar: "np.ndarray | float") -> Hashable:
    """Key of an (azimuth, polar) candidate grid."""
    polar_part: Hashable
    if np.ndim(polar) == 0:
        polar_part = quantize_scalar(float(polar))
    else:
        polar_part = quantize_array(np.asarray(polar))
    return (quantize_array(azimuths), polar_part)


#: The open scope of each thread: one entry table per ScopedCache.
_scopes = threading.local()


@contextmanager
def fix_scope() -> Iterator[None]:
    """Keep engine intermediates until the outermost scope closes.

    Usable as ``with fix_scope():`` or as a ``@fix_scope()`` decorator.
    """
    if getattr(_scopes, "tables", None) is not None:
        yield
        return
    _scopes.tables = {}
    try:
        yield
    finally:
        _scopes.tables = None


@dataclass
class CacheStats:
    """Cumulative hit/miss counters of one cache."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
        }


class ScopedCache:
    """One memo table whose entries live in the calling thread's scope."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def _table(self) -> Optional[dict]:
        tables = getattr(_scopes, "tables", None)
        if tables is None:
            return None
        table = tables.get(self)
        if table is None:
            table = tables[self] = {}
        return table

    def get(self, key: Hashable) -> Optional[Any]:
        """The entry of the open scope, or ``None``."""
        table = self._table()
        value = None if table is None else table.get(key)
        with self._lock:
            if value is None:
                self._misses += 1
            else:
                self._hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Keep ``value`` until the open scope closes (no-op outside one)."""
        table = self._table()
        if table is not None:
            table[key] = value

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses)
