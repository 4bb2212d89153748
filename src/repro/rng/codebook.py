"""Codebook sampling kernel: precomputed code→noise tables with a cache.

Every fixed-point noise generator is a *finite* function of the URNG
code: there are only ``2**Bu`` possible uniform codes (paper Section
III-A2, eq. 11), so the whole datapath — a float or CORDIC logarithm, a
staircase rung pick, a probit, a geometric quantile — collapses into a
table ``m → k`` of magnitude codes that can be computed once and gathered
forever.  This is exactly the hardware LUT option the paper discusses and
the table-based RNG idiom of the stochastic-computing literature
(SNIPPETS.md, UnarySim).

This module owns that table machinery:

* :class:`CodebookEntry` — one precomputed ``m → k`` table for a
  generator :attr:`~repro.rng.inversion.FxpInversionRng.fingerprint`,
  bit-identical to the live datapath *by construction* (it is built by
  sweeping every code through the live datapath — the same sweep the
  exact-PMF enumeration performs).
  The entry also carries the magnitude counts and the exact signed PMF
  derived from the same table, so distribution analysis and sampling
  provably share one source of truth.
* :class:`CodebookCache` — a process-wide keyed LRU cache of entries.
  Repeated mechanism constructions across benchmarks, fleet devices and
  the DP-Box FSM share one table instead of re-enumerating the alphabet.
* a **table budget**: configurations whose alphabet would exceed
  ``table_budget_bytes`` are not tabulated; callers fall back to the
  live datapath (kernel ``"live"`` instead of ``"codebook"``).

Gathering from a codebook is *audited randomness* in the dplint sense
(rule DPL001): the table is a deterministic function of the
configuration, and every random bit still comes from the injected
:class:`~repro.rng.urng.UniformCodeSource`.  See ``docs/performance.md``
for the kernel/budget/cache-key contract and the benchmark format.
"""

from __future__ import annotations

import collections
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "CodebookEntry",
    "CodebookCache",
    "codebook_cache",
    "configure_codebooks",
    "backend_fingerprint",
    "DEFAULT_TABLE_BUDGET_BYTES",
    "DEFAULT_MAX_ENTRIES",
]

#: Largest single ``m → k`` table the cache will build (8 MiB covers the
#: paper's running example ``Bu = 17`` ~60x over and every configuration
#: up to ``Bu = 21`` at int32).  Beyond it the live datapath is used.
DEFAULT_TABLE_BUDGET_BYTES = 8 << 20

#: Default number of distinct configurations kept (LRU beyond this).
DEFAULT_MAX_ENTRIES = 16


def backend_fingerprint(log_backend) -> Tuple:
    """Hashable identity of a logarithm backend for cache keying.

    ``None`` (the exact float64 log) keys as ``("exact-f64",)``.  Hardware
    backends expose a ``fingerprint`` property covering every parameter
    that affects their output.  Unknown backends without one key by object
    identity — correct (no false sharing) but only shared per instance.
    """
    if log_backend is None:
        return ("exact-f64",)
    fp = getattr(log_backend, "fingerprint", None)
    if fp is not None:
        return tuple(fp)
    return (type(log_backend).__qualname__, "id", id(log_backend))


class CodebookEntry:
    """One precomputed magnitude-code table plus derived exact artifacts."""

    def __init__(self, input_bits: int, top_code: int, table: np.ndarray):
        self.input_bits = input_bits
        self.top_code = top_code
        #: ``table[m - 1]`` is the magnitude code for URNG code ``m``.
        self.table = table
        self._counts: Optional[np.ndarray] = None
        self._signed: Optional[np.ndarray] = None
        #: Exact signed PMF; populated lazily by ``FxpInversionRng.exact_pmf``
        #: so the PMF math stays in one place (inversion).
        self.pmf = None
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """Memory footprint of the gather table."""
        return int(self.table.nbytes)

    def gather(self, m: np.ndarray) -> np.ndarray:
        """Magnitude codes for URNG codes ``m`` — one vectorized gather."""
        return self.table[m - 1]

    def signed_table(self) -> np.ndarray:
        """Flat int64 table indexed by ``(b << Bu) + m`` → signed code.

        Slot ``m`` (``1 .. 2**Bu``) holds ``+table[m - 1]`` and slot
        ``2**Bu + m`` holds ``-table[m - 1]`` (slot 0 is padding), so
        ``signed_table()[(b << Bu) + m]`` is ``(1 - 2b) · table[m - 1]``
        in a *single* gather — both the sign multiply *and* the ``m - 1``
        index shift of the unfused path folded into the lookup.  Built
        lazily (adds a ``2**(Bu+1)`` int64 table only when a fused caller
        exists) and cached for the life of the entry.
        """
        with self._lock:
            if self._signed is None:
                magnitudes = self.table.astype(np.int64)
                self._signed = np.concatenate(([0], magnitudes, -magnitudes))
            return self._signed

    def gather_signed_add(
        self, m: np.ndarray, sign_bits: np.ndarray, codes: np.ndarray
    ) -> np.ndarray:
        """Fused ``codes + (1 - 2·sign_bits) · table[m - 1]``.

        One signed gather plus one in-place add replaces the unfused
        gather → ``2b`` → ``1 - …`` → ``sign·k`` → ``+ codes`` chain.
        Inputs are never mutated; the result is a fresh int64 buffer the
        caller owns (the guards mutate it in place).
        """
        idx = sign_bits << self.input_bits
        idx += m
        out = self.signed_table()[idx]
        out += codes
        return out

    def magnitude_counts(self) -> np.ndarray:
        """Exact counts of URNG codes per magnitude code (cached)."""
        with self._lock:
            if self._counts is None:
                self._counts = np.bincount(
                    self.table, minlength=self.top_code + 1
                )
            return self._counts


class CodebookCache:
    """Process-wide keyed LRU cache of :class:`CodebookEntry` objects.

    Keys are generator fingerprints — class, datapath and the
    distribution's own parameters: everything the table contents depend
    on and nothing they don't (in particular not the uniform source, which
    only feeds indices into the gather).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        table_budget_bytes: int = DEFAULT_TABLE_BUDGET_BYTES,
    ):
        if max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1")
        if table_budget_bytes < 1:
            raise ConfigurationError("table_budget_bytes must be >= 1")
        self.max_entries = max_entries
        self.table_budget_bytes = table_budget_bytes
        self._entries: "collections.OrderedDict[Tuple, CodebookEntry]" = (
            collections.OrderedDict()
        )
        self._lock = threading.RLock()
        # Statistics (monotone counters; surfaced by `python -m repro kernels`).
        self.hits = 0
        self.builds = 0
        self.evictions = 0
        self.budget_fallbacks = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _table_dtype(top_code: int):
        return np.int32 if top_code < (1 << 31) else np.int64

    def planned_bytes(self, rng) -> int:
        """Bytes the table for generator ``rng`` would occupy."""
        itemsize = np.dtype(self._table_dtype(rng.top_code)).itemsize
        return (1 << rng.config.input_bits) * itemsize

    def fits_budget(self, rng) -> bool:
        """Whether ``rng``'s alphabet fits the per-table budget."""
        return self.planned_bytes(rng) <= self.table_budget_bytes

    # ------------------------------------------------------------------
    def get(self, rng) -> Optional[CodebookEntry]:
        """Fetch (or build) the codebook for generator ``rng``.

        On a miss the table is built by sweeping the full URNG code vector
        ``1..2**Bu`` through ``rng``'s *live* datapath.  Returns ``None``
        when the table would exceed the budget; the caller must then keep
        using the live datapath.
        """
        if not self.fits_budget(rng):
            with self._lock:
                self.budget_fallbacks += 1
            return None
        key = rng.fingerprint
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
        # Build outside the lock: enumeration can take milliseconds and
        # must not serialize unrelated lookups.  A racing duplicate build
        # is harmless (identical contents); last writer wins.
        bits, top_code = rng.config.input_bits, rng.top_code
        m = np.arange(1, (1 << bits) + 1, dtype=np.int64)
        table = np.ascontiguousarray(
            rng._codes_from_uniform(m), dtype=self._table_dtype(top_code)
        )
        entry = CodebookEntry(input_bits=bits, top_code=top_code, table=table)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return existing
            self.builds += 1
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def peek(self, rng) -> Optional[CodebookEntry]:
        """Return the cached entry without building (and without LRU touch)."""
        return self._entries.get(rng.fingerprint)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Bytes held by all resident tables."""
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    def stats(self) -> Dict[str, object]:
        """Cache statistics snapshot (JSON-ready).

        ``hits + builds + budget_fallbacks`` equals the number of
        :meth:`get` calls — the reconciliation the unit tests assert.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "builds": self.builds,
                "evictions": self.evictions,
                "budget_fallbacks": self.budget_fallbacks,
                "bytes": sum(e.nbytes for e in self._entries.values()),
                "max_entries": self.max_entries,
                "table_budget_bytes": self.table_budget_bytes,
            }

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.builds = 0
            self.evictions = 0
            self.budget_fallbacks = 0


# ---------------------------------------------------------------------
# The process-wide cache.  Every FxpInversionRng resolves its kernel here
# unless constructed with kernel="live".
_CACHE = CodebookCache()


def codebook_cache() -> CodebookCache:
    """The shared process-wide codebook cache."""
    return _CACHE


def configure_codebooks(
    max_entries: Optional[int] = None,
    table_budget_bytes: Optional[int] = None,
) -> CodebookCache:
    """Adjust the process-wide cache limits (returns the cache).

    Shrinking ``max_entries`` evicts immediately (LRU order); changing
    the table budget only affects future :meth:`CodebookCache.get` calls
    — RNGs already holding an entry keep it.
    """
    with _CACHE._lock:
        if max_entries is not None:
            if max_entries < 1:
                raise ConfigurationError("max_entries must be >= 1")
            _CACHE.max_entries = max_entries
            while len(_CACHE._entries) > max_entries:
                _CACHE._entries.popitem(last=False)
                _CACHE.evictions += 1
        if table_budget_bytes is not None:
            if table_budget_bytes < 1:
                raise ConfigurationError("table_budget_bytes must be >= 1")
            _CACHE.table_budget_bytes = table_budget_bytes
    return _CACHE
