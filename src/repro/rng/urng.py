"""Uniform random-number source interfaces and adapters.

Every Laplace sampler in this library consumes *integer uniform codes*
``m in {1, ..., 2**Bu}`` — the exact alphabet the paper's URNG hardware
emits (``u = m * 2**-Bu``, Section III-A2) — rather than floats, so that
the discrete structure that causes the privacy failure is preserved
end-to-end.

Three sources implement the interface:

* :class:`TauswortheSource` — the hardware-accurate generator (DP-Box).
* :class:`NumpySource` — a PCG64-backed source for fast large-scale
  statistical experiments (identical alphabet, different stream).
* :class:`ExhaustiveSource` — enumerates *every* code exactly once; used
  by the exact-PMF tests to validate the analytic eq.-(11) counts.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Union

import numpy as np

from ..errors import ConfigurationError
from .lfsr import FibonacciLFSR, GaloisLFSR, MAXIMAL_TAPS
from .tausworthe import VectorTaus88

__all__ = [
    "UniformCodeSource",
    "TauswortheSource",
    "NumpySource",
    "ExhaustiveSource",
    "SplitStreamSource",
    "LfsrSource",
    "audited_generator",
    "shard_seed_sequences",
    "spawn_shard_sources",
]

#: Seed material accepted wherever a stream is derived: a plain integer,
#: an already-derived ``SeedSequence`` (e.g. a shard sub-seed), or
#: ``None`` for fresh OS entropy.
SeedLike = Union[None, int, np.random.SeedSequence]


def audited_generator(seed: SeedLike = None) -> np.random.Generator:
    """The audited construction point for ``numpy.random.Generator``.

    Release-path code must not call ``np.random.default_rng`` directly
    (dplint rule DPL001): scattering generator construction makes the
    randomness supply unauditable, which is exactly the failure mode the
    secure-sampling literature warns about (PAPERS.md, Holohan &
    Braghin).  Routing every construction through this one function keeps
    the supply greppable and gives a single seam where a hardware entropy
    source or CSPRNG can be swapped in.

    Float-generator randomness is only appropriate for the *ideal*
    reference arms and analysis sampling; the fixed-point release
    datapath consumes integer codes from a :class:`UniformCodeSource`.
    """
    return np.random.default_rng(seed)


class UniformCodeSource(abc.ABC):
    """Source of uniform integer codes in ``{1, ..., 2**bits}``."""

    @abc.abstractmethod
    def uniform_codes(self, n: int, bits: int) -> np.ndarray:
        """Draw ``n`` codes uniformly from ``{1, ..., 2**bits}`` (int64)."""

    @abc.abstractmethod
    def random_bits(self, n: int) -> np.ndarray:
        """Draw ``n`` fair bits (0/1 int64) — used for the noise sign."""

    def uniforms(self, n: int, bits: int) -> np.ndarray:
        """Float uniforms in (0, 1] on the ``2**-bits`` grid."""
        return self.uniform_codes(n, bits) * 2.0 ** (-bits)


class TauswortheSource(UniformCodeSource):
    """Adapter exposing :class:`VectorTaus88` through the common interface."""

    def __init__(self, seed: int = 12345, n_lanes: int = 256):
        self._gen = VectorTaus88(seed=seed, n_lanes=n_lanes)

    def uniform_codes(self, n: int, bits: int) -> np.ndarray:
        return self._gen.uniform_codes(n, bits)

    def random_bits(self, n: int) -> np.ndarray:
        return (self._gen.next_u32(n) & np.uint64(1)).astype(np.int64)


class NumpySource(UniformCodeSource):
    """PCG64-backed source; same discrete alphabet, much faster in bulk."""

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    def uniform_codes(self, n: int, bits: int) -> np.ndarray:
        if not 1 <= bits <= 62:
            raise ConfigurationError("bits must be in 1..62")
        return self._rng.integers(1, (1 << bits) + 1, size=n, dtype=np.int64)

    def random_bits(self, n: int) -> np.ndarray:
        return self._rng.integers(0, 2, size=n, dtype=np.int64)


class SplitStreamSource(UniformCodeSource):
    """PCG64 source with *independent* streams for codes and sign bits.

    :class:`NumpySource` draws codes and sign bits from one PCG64 stream,
    so consuming ``n`` samples one-at-a-time interleaves the stream
    differently than one batched ``sample_codes(n)`` call (code, bit,
    code, bit, ... versus n codes then n bits) and the outputs diverge.
    This source derives two child generators from one ``SeedSequence``
    spawn — one dedicated to ``uniform_codes``, one to ``random_bits`` —
    so each stream is consumed in sample order regardless of batching.
    PCG64's ``integers`` fills a batch element-by-element from the same
    stream as repeated size-1 calls, hence scalar and vectorized release
    paths produce **bit-identical** samples (the fleet-equivalence
    guarantee exercised by ``tests/unit/test_runtime_fleet.py``).

    ``seed`` may be an already-derived ``numpy.random.SeedSequence`` — a
    shard sub-seed from :func:`shard_seed_sequences` — in which case the
    source's streams are a pure function of that sequence's entropy and
    spawn key.  This is the sharded-fleet determinism anchor: a worker
    process rebuilding its source from the shipped sub-seed draws exactly
    the stream the coordinator would have drawn for that shard in
    process (``tests/property/test_shard_determinism.py``).
    """

    def __init__(self, seed: SeedLike = None):
        if isinstance(seed, np.random.SeedSequence):
            seq = seed
        else:
            seq = np.random.SeedSequence(seed)
        self.seed_sequence = seq
        code_seq, bit_seq = seq.spawn(2)
        self._code_rng = np.random.Generator(np.random.PCG64(code_seq))
        self._bit_rng = np.random.Generator(np.random.PCG64(bit_seq))

    def uniform_codes(self, n: int, bits: int) -> np.ndarray:
        if not 1 <= bits <= 62:
            raise ConfigurationError("bits must be in 1..62")
        return self._code_rng.integers(1, (1 << bits) + 1, size=n, dtype=np.int64)

    def random_bits(self, n: int) -> np.ndarray:
        return self._bit_rng.integers(0, 2, size=n, dtype=np.int64)


def shard_seed_sequences(seed: SeedLike, n_shards: int) -> List[np.random.SeedSequence]:
    """Derive ``n_shards`` independent sub-seeds from one fleet seed.

    This is the *only* place shard randomness is derived (keeping the
    supply greppable, like :func:`audited_generator`).  The contract that
    makes sharded fleet execution deterministic:

    * the sub-seed of shard ``i`` is a pure function of
      ``(seed, n_shards, i)`` — independent of how many workers execute
      the shards, of execution order, and of which process runs them;
    * ``n_shards == 1`` returns the fleet seed itself, so a single-shard
      plan consumes **exactly** the root :class:`SplitStreamSource`
      stream — the one the scalar reference fleet loop builds its arm
      on (bit-identical reports);
    * for ``n_shards > 1`` the sub-seeds are ``SeedSequence.spawn``
      children of the fleet seed, so no shard stream aliases another or
      the root stream.

    ``seed=None`` draws fresh OS entropy *once*; the returned sub-seeds
    still satisfy the invariants within the run (workers=1 and workers=W
    agree), they just differ between runs.
    """
    if n_shards < 1:
        raise ConfigurationError("n_shards must be >= 1")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    if n_shards == 1:
        return [root]
    return list(root.spawn(n_shards))


def spawn_shard_sources(seed: SeedLike, n_shards: int) -> List["SplitStreamSource"]:
    """Per-shard :class:`SplitStreamSource` list (see :func:`shard_seed_sequences`)."""
    return [SplitStreamSource(seq) for seq in shard_seed_sequences(seed, n_shards)]


class LfsrSource(UniformCodeSource):
    """Standalone LFSR URNG option (ultra-low-area DP-Box variants).

    One maximal-length LFSR clocks out the code bits (``bits`` clocks per
    code, MSB-first, exactly as a serial hardware URNG would shift them
    into the sampler) and an independently seeded second LFSR supplies
    the sign bits, so code and sign streams do not alias.  Batched draws
    ride the vectorized :meth:`~repro.rng.lfsr._LinearFSR.draw` /
    ``bit_stream`` paths, which advance the registers exactly as scalar
    stepping would — scalar and batched consumption stay bit-identical.
    """

    def __init__(self, width: int = 31, seed: int = 1, topology: str = "fibonacci"):
        if width not in MAXIMAL_TAPS:
            raise ConfigurationError(
                f"no maximal tap set known for width {width}; "
                f"choose from {sorted(MAXIMAL_TAPS)}"
            )
        mask = (1 << width) - 1
        code_seed = seed & mask or 1
        # Decorrelate the sign register by seeding from the bit-reversed
        # complement; any nonzero distinct state works (same sequence,
        # different phase).
        sign_seed = (~seed) & mask or 1
        if topology == "fibonacci":
            self._code_gen = FibonacciLFSR(width, MAXIMAL_TAPS[width], code_seed)
            self._sign_gen = FibonacciLFSR(width, MAXIMAL_TAPS[width], sign_seed)
        elif topology == "galois":
            self._code_gen = GaloisLFSR.from_taps(width, MAXIMAL_TAPS[width], code_seed)
            self._sign_gen = GaloisLFSR.from_taps(width, MAXIMAL_TAPS[width], sign_seed)
        else:
            raise ConfigurationError(
                f"topology must be 'fibonacci' or 'galois', got {topology!r}"
            )

    def uniform_codes(self, n: int, bits: int) -> np.ndarray:
        if not 1 <= bits <= 62:
            raise ConfigurationError("bits must be in 1..62")
        raw = self._code_gen.draw(n, bits)
        # The URNG alphabet is {1, ..., 2**bits}: the all-zero word maps
        # to the top code, as in the Tausworthe adapter.
        raw[raw == 0] = 1 << bits
        return raw

    def random_bits(self, n: int) -> np.ndarray:
        return self._sign_gen.bit_stream(n).astype(np.int64)


class ExhaustiveSource(UniformCodeSource):
    """Emits every code ``1..2**bits`` exactly once per sweep, in order.

    Drawing more than ``2**bits`` codes wraps around to a fresh sweep.
    ``random_bits`` emits ``bit_block`` zeros, then ``bit_block`` ones,
    and so on; with ``bit_block = 2**bits`` a double sweep pairs every
    code with both signs exactly once — which is how the exact-PMF tests
    validate the sampler against the analytic counts.
    """

    def __init__(self, bit_block: int = 1) -> None:
        if bit_block < 1:
            raise ConfigurationError("bit_block must be >= 1")
        self._pos = 0
        self._bit_pos = 0
        self._bit_block = bit_block

    def uniform_codes(self, n: int, bits: int) -> np.ndarray:
        size = 1 << bits
        idx = (self._pos + np.arange(n, dtype=np.int64)) % size
        self._pos = (self._pos + n) % size
        return idx + 1

    def random_bits(self, n: int) -> np.ndarray:
        pos = self._bit_pos + np.arange(n, dtype=np.int64)
        bits = (pos // self._bit_block) % 2
        self._bit_pos += n
        return bits
