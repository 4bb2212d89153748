"""LDP frequency-oracle arms: OUE, OLH and k-ary RR on the pipeline.

The three standard frequency oracles from the LDP survey (Qin et al.,
PAPERS.md), realized in *exact finite precision*: every perturbation
probability is a dyadic rational ``t / 2**bits`` implemented by
comparing audited URNG codes against an integer threshold, and the
channel the estimators invert is the realized one, not the ideal one —
the same honesty the paper demands of the fixed-point Laplace datapath.

* :class:`KaryRandomizedResponse` — generalized RR over ``d``
  categories.  The perturbation is *additive noise on Z_d*: report
  ``(v + o) mod d`` with ``o = 0`` with keep probability ``t0/2**B``
  and ``o`` exactly uniform over ``1..d-1`` otherwise (the threshold
  calibration forces ``2**B - t0`` to be divisible by ``d - 1``, so the
  realized channel is exactly symmetric).  ``ceil(log2 d)`` bits per
  report.
* :class:`OptimizedUnaryEncoding` (OUE) — one-hot encode; transmit each
  bit through an asymmetric binary channel with ``Pr[1→1] = 1/2``
  (exactly: a ``2**(B-1)`` threshold) and ``Pr[0→1] = q̂``.  ``d`` bits
  per report, and the variance-optimal unary encoding.
* :class:`OptimizedLocalHashing` (OLH) — hash the value into
  ``g ≈ e^ε + 1`` buckets with a per-user public hash, then k-ary RR
  over the ``g`` buckets.  ``ceil(log2 g)`` bits per report — OUE's
  variance at a tiny fraction of its payload.

All three implement :class:`~repro.mechanisms.categorical.
CategoricalMechanism`: their perturbation is one
:class:`~repro.runtime.ReleaseRequest` with ``modulus=g`` (categorical
alphabets are cyclic groups; k-ary RR *is* additive noise on Z_g), so
ReleaseEvents, charge policies and the dplint randomness audit apply
unchanged.

OLH's per-user hash is *public* randomness: it is derived
deterministically from ``(hash_seed, global user index)`` via a
splitmix64 key schedule feeding a ``((a·v + b) mod P) mod g`` universal
hash (P = 2^31 - 1), so the server — and any shard of a sharded fleet —
can recompute it without communication, and sharded execution is
worker-count bit-identical.  The marginal collision probability over the
hash family is ``1/g`` up to the usual O(g/P) universal-hash bias, which
is the ``q`` the estimator uses.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..rng.urng import SplitStreamSource, UniformCodeSource
from ..runtime import ReleaseRequest
from .categorical import CategoricalMechanism, check_categories

__all__ = [
    "DEFAULT_ORACLE_BITS",
    "KaryRandomizedResponse",
    "OptimizedUnaryEncoding",
    "OptimizedLocalHashing",
    "make_oracle",
    "ORACLE_NAMES",
    "calibrate_oue_threshold",
    "calibrate_krr_thresholds",
    "optimal_hash_range",
]

#: URNG width the oracle thresholds quantize against.  16 bits puts the
#: dyadic rounding error of the realized channel below 2^-16 — far under
#: every estimator's sampling noise — while keeping thresholds exact.
DEFAULT_ORACLE_BITS = 16

#: Oracle arm names accepted by :func:`make_oracle`.
ORACLE_NAMES = ("krr", "oue", "olh")

_HASH_PRIME = (1 << 31) - 1  # Mersenne prime; a·v + b stays well in int64
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------
# Dyadic threshold calibration
# ---------------------------------------------------------------------
def calibrate_oue_threshold(epsilon: float, bits: int) -> int:
    """Smallest 0→1 threshold ``t`` with realized ε ≤ the target.

    The OUE channel's worst log-ratio is ``ln((1-q̂)/q̂)`` with
    ``q̂ = t/2**bits`` (the 1-bit channel is exactly symmetric at 1/2,
    so it contributes nothing extra), which is decreasing in ``t``; the
    smallest compliant ``t`` is ``ceil(2**bits / (e^ε + 1))`` — the
    realized channel is then at least as private as claimed and as
    useful as the grid allows.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if not 2 <= bits <= 30:
        raise ConfigurationError("oracle bits must be in 2..30")
    total = 1 << bits
    t = int(math.ceil(total / (math.exp(epsilon) + 1.0)))
    if t >= total // 2:
        raise ConfigurationError(
            f"epsilon={epsilon:g} needs a 0->1 probability >= 1/2 on a "
            f"{bits}-bit grid; increase bits or epsilon"
        )
    return max(t, 1)


def calibrate_krr_thresholds(epsilon: float, g: int, bits: int) -> Tuple[int, int]:
    """Exact-symmetric k-RR thresholds ``(t_keep, c_other)`` on Z_g.

    Splits the ``2**bits`` URNG codes into ``t_keep`` codes that keep
    the value and ``g - 1`` *equal* blocks of ``c_other`` codes, one per
    nonzero offset — equality is forced by requiring ``2**bits - t_keep``
    divisible by ``g - 1``, so the realized channel is exactly the
    symmetric k-ary RR channel with ``p = t_keep/2**bits`` and
    ``q = c_other/2**bits`` and realized ε = ``ln(t_keep/c_other)``.
    Starting from the ideal ``2**bits · e^ε/(e^ε + g - 1)`` the keep
    threshold steps down in ``g - 1`` strides until the realized ε meets
    the target.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if g < 2:
        raise ConfigurationError("need at least two categories")
    if not 2 <= bits <= 30:
        raise ConfigurationError("oracle bits must be in 2..30")
    total = 1 << bits
    if g - 1 >= total:
        raise ConfigurationError(
            f"{g} categories cannot be resolved by a {bits}-bit URNG grid"
        )
    e = math.exp(epsilon)
    t = int(math.floor(total * e / (e + g - 1.0)))
    # Snap down to the divisibility class, then step down (g-1 at a
    # time, which grows the per-offset block) until t/c_other <= e^eps.
    # Snap down into the divisibility class: shrink t until g-1 divides
    # the remaining code mass (lowering t only makes the channel more
    # private, never less).
    t -= ((g - 1) - (total - t) % (g - 1)) % (g - 1)
    # dplint: allow[DPL003] -- calibration-time search over the *public*
    # (epsilon, g, bits) triple; no per-user data flows into this loop.
    while t > 0:
        c_other = (total - t) // (g - 1)
        # dplint: allow[DPL003] -- same public calibration arithmetic.
        if c_other >= 1 and t <= e * c_other * (1.0 + 1e-12):
            break
        t -= g - 1
    c_other = (total - t) // (g - 1) if t > 0 else 0
    if t < 1 or c_other < 1 or t <= c_other:
        raise ConfigurationError(
            f"no exact-symmetric k-RR channel with p > q for epsilon="
            f"{epsilon:g}, g={g} on a {bits}-bit grid; increase bits"
        )
    return t, c_other


def optimal_hash_range(epsilon: float) -> int:
    """OLH's variance-optimal hash range ``g = round(e^ε + 1)`` (≥ 2)."""
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    return max(2, int(round(math.exp(epsilon) + 1.0)))


# ---------------------------------------------------------------------
# Per-user public hashing (OLH)
# ---------------------------------------------------------------------
def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 in, uint64 out)."""
    z = (x + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
    return z ^ (z >> np.uint64(31))


def _resolve_user_indices(n: int, user_offset) -> np.ndarray:
    """Global user indices for a batch of ``n`` reports.

    ``user_offset`` is either an int (the batch is the contiguous block
    of global users starting there — the common case) or an explicit
    array of ``n`` global indices (a dropout-thinned shard slice, where
    the reporting devices are not contiguous).
    """
    if isinstance(user_offset, (int, np.integer)):
        return int(user_offset) + np.arange(n, dtype=np.int64)
    idx = np.asarray(user_offset, dtype=np.int64).reshape(-1)
    if idx.size != n:
        raise ConfigurationError(
            f"user index array has {idx.size} entries for {n} reports"
        )
    return idx


def _user_hash_params(
    hash_seed: int, user_indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic per-user ``(a, b)`` universal-hash coefficients.

    A pure function of ``(hash_seed, global user index)`` — public
    randomness shared with the server, independent of the privatization
    stream and of shard/worker layout.
    """
    base = _splitmix64(
        np.uint64(hash_seed & 0xFFFFFFFFFFFFFFFF)
        ^ (np.asarray(user_indices, dtype=np.uint64) + np.uint64(1))
    )
    a = (base >> np.uint64(33)).astype(np.int64) % (_HASH_PRIME - 1) + 1
    b = _splitmix64(base).astype(np.int64) % _HASH_PRIME
    return a.astype(np.uint32), b.astype(np.uint32)


def _hash_buckets(values: np.ndarray, a: np.ndarray, b: np.ndarray, g: int) -> np.ndarray:
    """``((a·v + b) mod P) mod g`` as int64, without a hardware divide.

    ``values`` are int64 categories below ``P``; ``a`` and ``b`` are the
    users' ``uint32`` coefficients, both below ``P``.  Then ``x = a·v +
    b <= (P - 1)·2**31 < 2**62``, and the Mersenne fold ``(x & P) + (x
    >> 31)`` (``2**31 ≡ 1 mod P``) is congruent to ``x`` and at most
    ``P + (P - 1)``: it fits a ``uint32``, and one conditional subtract,
    ``min(s, s - P)`` with the unsigned wrap of ``s - P`` when ``s <
    P``, leaves ``x mod P``.  The bucket is then ``s - (s // g)·g``, the
    multiply-shift form the decode sweep uses.
    """
    x = a * values  # uint32 · int64 -> int64
    x += b
    s = (x >> 31).astype(np.uint32)
    x &= _HASH_PRIME
    s += x.astype(np.uint32)
    prime = np.uint32(_HASH_PRIME)
    np.minimum(s, s - prime, out=s)
    return _bucket(s, np.uint32(g), out=np.empty_like(s)).astype(np.int64)


def _bucket(x: np.ndarray, g: np.uint32, out: np.ndarray) -> np.ndarray:
    """``x mod g`` for ``uint32`` ``x`` as ``x - (x // g)·g`` into ``out``.

    ``(x // g)·g <= x`` cannot wrap, and NumPy's scalar-divisor
    ``floor_divide`` is a multiply-shift where ``remainder`` is a
    hardware divide per element.
    """
    np.floor_divide(x, g, out=out)
    np.multiply(out, g, out=out)
    return np.subtract(x, out, out=out)


def _krr_offsets(u: np.ndarray, t_keep: int, span: int) -> np.ndarray:
    """Additive k-RR offsets on ``Z_(span+1)`` from URNG codes ``u``.

    Codes ``1..t_keep`` keep (offset 0); the remaining ``span·c_other``
    codes split into ``span`` equal blocks, one per nonzero offset:
    ``1 + (u - t_keep - 1) mod span``, with the ``mod`` taken as ``r -
    (r // span)·span`` (floor division, so equal to ``%`` for every
    ``r``, negative ones included).  The kept codes are zeroed by a
    multiply with the ``u > t_keep`` mask: on a random mask that is
    several times faster than ``np.where``.
    """
    r = u - (t_keep + 1)
    q = r // span
    q *= span
    r -= q
    r += 1
    r *= u > t_keep
    return r


# ---------------------------------------------------------------------
# The oracle arms
# ---------------------------------------------------------------------
class _CodeThresholdOracle(CategoricalMechanism):
    """Shared plumbing: URNG source, bits, pipeline, claim bookkeeping."""

    def __init__(
        self,
        n_categories: int,
        epsilon: float,
        source: Optional[UniformCodeSource] = None,
        bits: int = DEFAULT_ORACLE_BITS,
        pipeline=None,
    ):
        if n_categories < 2:
            raise ConfigurationError("need at least two categories")
        if epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        self.n_categories = int(n_categories)
        self.epsilon = float(epsilon)
        self.bits = int(bits)
        self.source = source if source is not None else SplitStreamSource(None)
        self._pipeline = pipeline

    def _request(
        self,
        codes: np.ndarray,
        draw: Callable[[int], np.ndarray],
        modulus: int,
        decode=None,
    ) -> ReleaseRequest:
        return ReleaseRequest(
            mechanism=self.name,
            epsilon=self.epsilon,
            claimed_loss=self.claimed_loss_bound,
            codes=np.asarray(codes, dtype=np.int64).reshape(-1),
            draw=draw,
            guard="none",
            modulus=modulus,
            decode=decode,
        )


class _KaryChannelOracle(_CodeThresholdOracle):
    """Shared k-ary RR channel on ``Z_g``: thresholds, offsets, exact ε.

    k-RR runs it over the categories (``g = d``), OLH over the hash
    buckets.
    """

    def _calibrate(self, g: int) -> None:
        self.t_keep, self.c_other = calibrate_krr_thresholds(self.epsilon, g, self.bits)
        #: Nonzero offset count ``g - 1`` (the modular split width).
        self.c_other_span = g - 1

    def _draw_offsets(self, n: int) -> np.ndarray:
        """Additive Z_g offsets: 0 with keep prob, else exactly uniform."""
        u = self.source.uniform_codes(n, self.bits)
        return _krr_offsets(u, self.t_keep, self.c_other_span)

    def exact_epsilon(self) -> float:
        return math.log(self.t_keep / self.c_other)


class KaryRandomizedResponse(_KaryChannelOracle):
    """Generalized (k-ary) randomized response as a frequency oracle."""

    name = "k-RR"

    def __init__(self, n_categories, epsilon, **kwargs):
        super().__init__(n_categories, epsilon, **kwargs)
        self._calibrate(self.n_categories)

    # -- client stages --------------------------------------------------
    def encode(self, values: np.ndarray, user_offset: int = 0) -> np.ndarray:
        """Identity encoding: the category index itself."""
        return check_categories(values, self.n_categories)

    def perturb_request(self, encoded, user_offset: int = 0) -> ReleaseRequest:
        return self._request(encoded, self._draw_offsets, modulus=self.n_categories)

    # -- server-side metadata ------------------------------------------
    def support_counts(self, reports, user_offset: int = 0) -> np.ndarray:
        reports = check_categories(reports, self.n_categories)
        return np.bincount(reports, minlength=self.n_categories).astype(np.int64)

    def estimator_params(self) -> Tuple[float, float]:
        scale = float(1 << self.bits)
        return self.t_keep / scale, self.c_other / scale

    @property
    def report_bits(self) -> int:
        return max(1, int(math.ceil(math.log2(self.n_categories))))


class OptimizedUnaryEncoding(_CodeThresholdOracle):
    """OUE: one-hot encoding, per-bit asymmetric binary channels."""

    name = "OUE"

    def __init__(self, n_categories, epsilon, **kwargs):
        super().__init__(n_categories, epsilon, **kwargs)
        #: 1-bits transmit with probability exactly 1/2.
        self.t_one = 1 << (self.bits - 1)
        #: 0→1 threshold: realized q̂ = t_zero / 2**bits.
        self.t_zero = calibrate_oue_threshold(self.epsilon, self.bits)

    # -- client stages --------------------------------------------------
    def encode(self, values: np.ndarray, user_offset: int = 0) -> np.ndarray:
        """One-hot rows: shape ``(n, d)`` 0/1 int64."""
        values = check_categories(values, self.n_categories)
        onehot = np.zeros((values.size, self.n_categories), dtype=np.int64)
        onehot[np.arange(values.size), values] = 1
        return onehot

    def perturb_request(self, encoded, user_offset: int = 0) -> ReleaseRequest:
        encoded = np.asarray(encoded, dtype=np.int64)
        if encoded.ndim != 2 or encoded.shape[1] != self.n_categories:
            raise ConfigurationError(
                f"OUE expects an (n, {self.n_categories}) one-hot matrix"
            )
        flat = encoded.reshape(-1)
        # Per-position flip thresholds: a 1-bit flips with probability
        # exactly 1/2, a 0-bit with q̂.  The draw closes over them; all
        # randomness still comes from the audited URNG codes.
        thresholds = np.where(flat == 1, self.t_one, self.t_zero)

        def draw(n: int) -> np.ndarray:
            u = self.source.uniform_codes(n, self.bits)
            return (u <= thresholds[:n]).astype(np.int64)

        return self._request(flat, draw, modulus=2)

    # -- server-side metadata ------------------------------------------
    def support_counts(self, reports, user_offset: int = 0) -> np.ndarray:
        reports = np.asarray(reports)
        if reports.ndim != 2 or reports.shape[1] != self.n_categories:
            raise ConfigurationError(
                f"OUE reports must be an (n, {self.n_categories}) bit matrix"
            )
        if reports.size and (
            not (reports.dtype == bool or np.issubdtype(reports.dtype, np.integer))
            or reports.min() < 0
            or reports.max() > 1
        ):
            raise ConfigurationError("OUE report entries must be 0 or 1")
        return reports.sum(axis=0).astype(np.int64)

    def estimator_params(self) -> Tuple[float, float]:
        return 0.5, self.t_zero / float(1 << self.bits)

    @property
    def report_bits(self) -> int:
        return self.n_categories

    def exact_epsilon(self) -> float:
        total = 1 << self.bits
        return math.log((total - self.t_zero) / self.t_zero)


class OptimizedLocalHashing(_KaryChannelOracle):
    """OLH: per-user public hash into g buckets, then k-ary RR on Z_g."""

    name = "OLH"

    #: User-block size for the support-count pass.  Each candidate
    #: sweeps three ``uint32`` columns of this length (``a``, ``x``,
    #: scratch), one report row and one bool row per epoch and, with
    #: several epochs, a narrow bucket column: ≈1.1 MiB at one epoch
    #: (a ``uint32`` report row) and ≈1.9 MiB at eight (``uint8`` rows
    #: for g < 256), sized to stay in a core's L2 while a shard
    #: (≈25,000 users) fits in one block.
    _SUPPORT_BLOCK = 65536

    def __init__(
        self,
        n_categories,
        epsilon,
        g: Optional[int] = None,
        hash_seed: int = 0x01F5,
        **kwargs,
    ):
        super().__init__(n_categories, epsilon, **kwargs)
        if self.n_categories > _HASH_PRIME:
            raise ConfigurationError(f"OLH hashes at most {_HASH_PRIME} categories")
        self.g = optimal_hash_range(self.epsilon) if g is None else int(g)
        if self.g < 2:
            raise ConfigurationError("hash range g must be >= 2")
        self.hash_seed = int(hash_seed)
        self._calibrate(self.g)
        self._users: Optional[range] = None
        self._columns: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- hashing --------------------------------------------------------
    def bind_users(self, users: range) -> None:
        """Hash the global users in ``users`` once, for every later call.

        The ``(a, b)`` columns of the whole range are computed on the
        first :meth:`encode` or support count whose users all fall
        inside it, and every such call after that gathers from them
        instead of rehashing.  A shard binds its device range, so its
        epochs' encodes and its decode sweep share one hash pass.
        Results are the same as unbound: only the work moves.
        """
        self._users, self._columns = users, None

    def _user_hashes(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``uint32`` ``(a, b)`` coefficients of global users ``indices``."""
        users = self._users
        if (
            users is None
            or not indices.size
            or indices.min() < users.start
            or indices.max() >= users.stop
        ):
            return _user_hash_params(self.hash_seed, indices)
        if self._columns is None:
            self._columns = _user_hash_params(
                self.hash_seed, np.arange(users.start, users.stop, dtype=np.int64)
            )
        local = indices - users.start
        a, b = self._columns
        return a[local], b[local]

    def hash_values(self, values: np.ndarray, user_indices: np.ndarray) -> np.ndarray:
        """``h_i(v)`` for aligned arrays of values and global user indices.

        Values must be categories in ``0..n_categories-1``.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= self.n_categories):
            raise ConfigurationError(f"categories must be in 0..{self.n_categories - 1}")
        a, b = self._user_hashes(np.asarray(user_indices, dtype=np.int64))
        return _hash_buckets(values, a, b, self.g)

    # -- client stages --------------------------------------------------
    def encode(self, values: np.ndarray, user_offset: int = 0) -> np.ndarray:
        """Per-user hashed bucket ``h_i(v_i)``, shape ``(n,)``."""
        values = check_categories(values, self.n_categories)
        a, b = self._user_hashes(_resolve_user_indices(values.size, user_offset))
        return _hash_buckets(values, a, b, self.g)

    def perturb_request(self, encoded, user_offset: int = 0) -> ReleaseRequest:
        encoded = np.asarray(encoded, dtype=np.int64)
        if encoded.min(initial=0) < 0 or encoded.max(initial=0) >= self.g:
            raise ConfigurationError(f"OLH encoded buckets must be in 0..{self.g - 1}")
        return self._request(encoded, self._draw_offsets, modulus=self.g)

    # -- server-side metadata ------------------------------------------
    def support_counts(self, reports, user_offset: int = 0) -> np.ndarray:
        """``c_v = #{i : y_i == h_i(v)}``: the one-epoch call of
        :meth:`support_counts_epochs`.

        Reports must be integers in ``0..g-1``: anything else would
        support no candidate yet still count in ``n``, so it raises.
        An empty batch gives zero counts.
        """
        reports = np.asarray(reports).reshape(1, -1)
        return self._sweep(reports, user_offset, self.g - 1)[0]

    def support_counts_epochs(self, reports, user_offset=0) -> np.ndarray:
        """Support counts of every epoch of one user set, in one sweep.

        ``reports`` is an ``(n_epochs, n_users)`` integer matrix: column
        ``i`` is the user at ``user_offset`` (an int, or an array of
        ``n_users`` global indices, as for :meth:`support_counts`), and
        entry ``g`` marks an epoch in which that user sent no report — it
        matches no bucket.  Returns the ``(n_epochs, n_categories)``
        int64 count rows, each equal to :meth:`support_counts` of that
        epoch's reports.  A user's hash is the same in every epoch, so
        the candidate walk runs once for all of them; storing the matrix
        as ``np.min_scalar_type(g)`` keeps the compares narrow.  Any
        entry outside ``0..g`` raises before a count is taken.
        """
        reports = np.asarray(reports)
        if reports.ndim != 2:
            raise ConfigurationError("OLH epoch reports must be an (epochs, users) matrix")
        return self._sweep(reports, user_offset, self.g)

    def _sweep(self, reports: np.ndarray, user_offset, top: int) -> np.ndarray:
        """The decode, blocked over users.

        Walks the candidates in order with ``x_v = (a·v + b) mod P`` kept
        as a ``uint32`` column: ``x += a`` then ``x = min(x, x - P)``.
        Since ``x, a < P < 2**31`` the sum never wraps, and the unsigned
        wrap of ``x - P`` when ``x < P`` makes ``min`` the conditional
        subtract.  The bucket ``x mod g`` is then :func:`_bucket`'s
        ``x - (x // g)·g``.  With several epochs the reports are held as
        ``np.min_scalar_type(g)``, and the bucket is cast to that dtype
        and compared against every epoch's row in one broadcast
        ``equal``.  So each (user, candidate) pair costs an add, a
        conditional subtract, a floor-divide, a multiply, a subtract and
        a cast, plus one narrow compare per epoch.  The counts are exact
        on every NumPy version; only the speed depends on it.
        """
        n_epochs, n = reports.shape
        indices = _resolve_user_indices(n, user_offset)
        counts = np.zeros((n_epochs, self.n_categories), dtype=np.int64)
        if reports.size == 0:
            return counts
        if not np.issubdtype(reports.dtype, np.integer):
            raise ConfigurationError("OLH reports must be integers")
        if reports.min() < 0 or reports.max() > top:
            absent = f" ({self.g} for no report)" if top == self.g else ""
            raise ConfigurationError(f"OLH reports must be in 0..{self.g - 1}{absent}")
        # One row compares flat and in ``uint32``: there the bucket's
        # narrowing cast and a (1, n) broadcast cost more than they save.
        single = n_epochs == 1
        dtype = np.dtype(np.uint32) if single else np.min_scalar_type(self.g)
        reports = reports.astype(dtype, copy=False)
        all_a, all_b = self._user_hashes(indices)
        prime, g = np.uint32(_HASH_PRIME), np.uint32(self.g)
        for start in range(0, n, self._SUPPORT_BLOCK):
            stop = min(start + self._SUPPORT_BLOCK, n)
            a, x = all_a[start:stop], all_b[start:stop].copy()
            y = np.ascontiguousarray(reports[:, start:stop])
            tmp = np.empty_like(x)
            hit = np.empty(y.shape, dtype=bool)
            rows = list(hit)
            if single:
                y, hit, bucket = y[0], rows[0], tmp
            else:
                bucket = np.empty(x.shape, dtype=dtype)
            tally = []
            for v in range(self.n_categories):
                if v:
                    np.add(x, a, out=x)
                    np.subtract(x, prime, out=tmp)
                    np.minimum(x, tmp, out=x)
                _bucket(x, g, out=tmp)
                if bucket is not tmp:
                    bucket[...] = tmp
                np.equal(y, bucket, out=hit)
                tally.append([np.count_nonzero(row) for row in rows])
            counts += np.array(tally, dtype=np.int64).T
        return counts

    def estimator_params(self) -> Tuple[float, float]:
        # p is the realized keep probability; q is the hash-marginal
        # support probability 1/g of a *different* true value (pairwise
        # uniformity of the per-user hash family).
        return self.t_keep / float(1 << self.bits), 1.0 / self.g

    @property
    def report_bits(self) -> int:
        return max(1, int(math.ceil(math.log2(self.g))))


# ---------------------------------------------------------------------
def make_oracle(
    kind: str, n_categories: int, epsilon: float, **kwargs
) -> CategoricalMechanism:
    """Build a frequency-oracle arm by name (``krr``/``oue``/``olh``)."""
    kind = kind.lower()
    if kind == "krr":
        return KaryRandomizedResponse(n_categories, epsilon, **kwargs)
    if kind == "oue":
        return OptimizedUnaryEncoding(n_categories, epsilon, **kwargs)
    if kind == "olh":
        return OptimizedLocalHashing(n_categories, epsilon, **kwargs)
    raise ConfigurationError(
        f"unknown oracle {kind!r}; choose from {', '.join(ORACLE_NAMES)}"
    )
