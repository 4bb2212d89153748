"""The fixed-point inversion-method noise generator every distribution shares.

The paper's analysis (Section III-A4) applies to *any* DP-guaranteeing
noise distribution realized on finite-precision hardware — it names
Laplace, Gaussian, and staircase.  Every such generator has the same
datapath: a ``Bu``-bit uniform code drives a symmetric inverse-half-CDF,
the magnitude is rounded to the ``Δ`` grid and saturated to ``By`` bits,
and a random bit supplies the sign.

:class:`FxpDatapath` holds the bit widths and grid and nothing else;
every generator is ``Gen(datapath, <own parameters>, source=None,
kernel="auto")``.  :class:`FxpInversionRng` owns the datapath once:
sampling (plain and fused with the input add), the exact output PMF
obtained by enumerating the full code alphabet through the *actual*
datapath with one signed fold, the :attr:`~FxpInversionRng.fingerprint`
and the codebook kernel keyed on it.  A concrete distribution supplies
only its own parameters and its magnitude transform —
:meth:`~FxpInversionRng.magnitude_from_uniform` on real uniforms, or
:meth:`~FxpInversionRng._magnitudes` on the integer codes themselves
(the Laplace log backends) — so the analyzer in
:mod:`repro.privacy.loss` and the guarded arms in
:mod:`repro.mechanisms` treat every generator identically.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .codebook import CodebookEntry, codebook_cache
from .pmf import DiscretePMF
from .urng import NumpySource, UniformCodeSource

__all__ = ["FxpDatapath", "FxpInversionRng"]


@dataclasses.dataclass(frozen=True)
class FxpDatapath:
    """Bit widths and output grid of a fixed-point noise generator.

    Parameters
    ----------
    input_bits:
        ``Bu`` — width of the uniform code (paper's URNG output bits).
    output_bits:
        ``By`` — width of the signed output; magnitudes saturate at
        ``2**(By-1) - 1`` steps.
    delta:
        ``Δ`` — output quantization step, in real units.
    """

    input_bits: int
    output_bits: int
    delta: float

    def __post_init__(self) -> None:
        if not 2 <= self.input_bits <= 40:
            raise ConfigurationError("input_bits must be in 2..40")
        if not 2 <= self.output_bits <= 40:
            raise ConfigurationError("output_bits must be in 2..40")
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")

    @property
    def max_code(self) -> int:
        """Largest magnitude code representable: ``2**(By-1) - 1``."""
        return (1 << (self.output_bits - 1)) - 1


class FxpInversionRng(abc.ABC):
    """Fixed-point sampler: uniform code → magnitude → grid → signed.

    ``config`` is the generator's :class:`FxpDatapath`; the distribution's
    own parameters live on the subclass.  ``kernel`` selects the sampling
    implementation:

    * ``"auto"`` (default) — gather from a precomputed ``m → k`` codebook
      shared process-wide under :attr:`fingerprint` (see
      :mod:`repro.rng.codebook`) when the alphabet fits the table budget,
      else the live datapath;
    * ``"codebook"`` — require the codebook (raises if over budget);
    * ``"live"`` — always recompute the datapath per draw (the
      bit-identity reference).

    Both kernels consume the uniform source identically (``n`` codes, then
    ``n`` sign bits), and the table is built by sweeping every code through
    the live datapath, so the output stream never depends on the kernel.
    """

    def __init__(
        self,
        datapath: FxpDatapath,
        source: Optional[UniformCodeSource] = None,
        kernel: str = "auto",
    ):
        if kernel not in ("auto", "codebook", "live"):
            raise ConfigurationError(
                f"kernel must be 'auto', 'codebook' or 'live', got {kernel!r}"
            )
        self.config = datapath
        self.source = source if source is not None else NumpySource()
        self.kernel_mode = kernel
        self._codebook: Optional[CodebookEntry] = None
        self._codebook_resolved = False
        #: Instance-local PMF, used whenever no shared table carries it.
        self._pmf_cache: Optional[DiscretePMF] = None

    # ------------------------------------------------------------------
    # Distribution hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _parameters(self) -> Tuple:
        """The distribution's own (hashable) parameters, datapath excluded."""

    @property
    def fingerprint(self) -> Tuple:
        """Everything the ``m → k`` map depends on: class, datapath, parameters.

        Two generators with equal fingerprints emit the same code for every
        URNG code, so the codebook cache keys its tables on it.
        """
        return (type(self).__qualname__, self.config, *self._parameters())

    def magnitude_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse half-CDF: uniforms in (0, 1] → nonnegative magnitudes.

        Must be finite for every representable ``u`` (the extreme code
        maps to the distribution's largest representable magnitude, which
        is what bounds the support — the first failure cause).  A subclass
        whose datapath works on the integer codes overrides
        :meth:`_magnitudes` instead.
        """
        raise NotImplementedError

    @property
    @abc.abstractmethod
    def max_magnitude_real(self) -> float:
        """Largest magnitude before rounding (at the extreme code)."""

    def _magnitudes(self, m: np.ndarray) -> np.ndarray:
        """Real magnitudes for URNG codes ``m`` (``1 .. 2**Bu``)."""
        # dplint: allow[DPL002] -- u = m*2^-Bu is the paper's exact code
        # scaling (Section III-A2); float64 represents it losslessly for
        # Bu <= 40, so no finite-precision semantics are introduced.
        u = m.astype(float) * 2.0 ** (-self.config.input_bits)
        magnitude = self.magnitude_from_uniform(u)
        if np.any(~np.isfinite(magnitude)) or np.any(magnitude < 0):
            raise ConfigurationError("magnitude transform must be finite and >= 0")
        return magnitude

    def _resolve_codebook(self) -> Optional[CodebookEntry]:
        """The shared codebook entry, or ``None`` for the live datapath."""
        if not self._codebook_resolved:
            if self.kernel_mode != "live":
                self._codebook = codebook_cache().get(self)
                if self._codebook is None and self.kernel_mode == "codebook":
                    raise ConfigurationError(
                        f"codebook kernel requested but the 2**{self.config.input_bits}"
                        "-entry table exceeds the table budget; raise it via "
                        "repro.rng.codebook.configure_codebooks or use kernel='auto'"
                    )
            self._codebook_resolved = True
        return self._codebook

    def _u_cap(self) -> float:
        """Largest uniform the datapath can distinguish from 1.

        The hardware computes ``log(1-u)`` on ``Bu+1`` fractional bits; a
        ``1-u`` smaller than one LSB is indistinguishable from it, which
        is exactly the finite-precision effect that bounds the support of
        every transform increasing in ``u`` (the analogue of Laplace's
        ``L = λ·Bu·ln2``).
        """
        return 1.0 - 2.0 ** (-(self.config.input_bits + 1))

    # ------------------------------------------------------------------
    @property
    def top_code(self) -> int:
        """Largest emitted magnitude code (rounded, saturated)."""
        unsat = int(math.floor(self.max_magnitude_real / self.config.delta + 0.5))
        return min(unsat, self.config.max_code)

    @property
    def kernel(self) -> str:
        """The sampling kernel actually in use: ``codebook`` or ``live``."""
        return "codebook" if self._resolve_codebook() is not None else "live"

    def _codes_from_uniform(self, m: np.ndarray) -> np.ndarray:
        """Magnitude codes (nonnegative ints) for URNG codes ``m``."""
        k = np.floor(self._magnitudes(m) / self.config.delta + 0.5).astype(np.int64)
        return np.minimum(k, self.config.max_code)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_codes(self, n: int) -> np.ndarray:
        """Draw ``n`` signed output codes ``k`` (noise value is ``k·Δ``)."""
        m = self.source.uniform_codes(n, self.config.input_bits)
        entry = self._resolve_codebook()
        # Codebook gather and live datapath agree bit-for-bit: the table
        # *is* the live datapath, evaluated once over the whole alphabet.
        k = entry.gather(m) if entry is not None else self._codes_from_uniform(m)
        sign = 1 - 2 * self.source.random_bits(n)  # ±1
        return sign * k

    def sample_codes_add(self, codes: np.ndarray) -> np.ndarray:
        """Fused ``codes + sample_codes(len(codes))`` — same stream, fewer passes.

        The unfused draw-then-add spends three elementwise round-trips on
        the sign alone (``2*b``, ``1 - …``, ``sign*k``) plus a fourth for
        the add.  On the codebook path the sign multiply folds into the
        lookup itself: a doubled ``[+k…, -k…]`` table indexed by
        ``(sign_bit << Bu) | (m - 1)`` yields the *signed* code in one
        gather (see :meth:`CodebookEntry.gather_signed_add`), leaving a
        single in-place add for the input codes.  The live datapath keeps
        the arithmetic form ``codes + k - 2·b·k`` with in-place updates.

        Source consumption is *identical* to :meth:`sample_codes` (``n``
        uniform codes, then ``n`` sign bits), so the result is
        bit-identical to ``codes + sample_codes(n)`` for any source/seed;
        the guard-fusion property tests pin that against the scalar
        reference.

        ``codes`` must be integer grid codes (every fixed-point arm's
        quantizer emits ``int64``); the fused buffer is ``int64``.
        """
        codes = np.asarray(codes)
        n = codes.shape[0]
        m = self.source.uniform_codes(n, self.config.input_bits)
        entry = self._resolve_codebook()
        sign_bits = self.source.random_bits(n)
        if entry is not None:
            return entry.gather_signed_add(m, sign_bits, codes)
        k = self._codes_from_uniform(m)  # fresh int64 — safe to mutate
        signed_twice = k * sign_bits
        k += codes
        k -= signed_twice
        k -= signed_twice
        return k

    def sample(self, n: int) -> np.ndarray:
        """Draw ``n`` noise values in real units."""
        return self.sample_codes(n) * self.config.delta

    # ------------------------------------------------------------------
    # Exact distribution
    # ------------------------------------------------------------------
    def exact_pmf(self) -> DiscretePMF:
        """Exact signed PMF by sweeping every URNG code through the datapath."""
        entry = self._resolve_codebook()
        if entry is not None:
            # Shared process-wide: the PMF lives on the table entry, so
            # every generator/mechanism with this table computes it once.
            if entry.pmf is None:
                entry.pmf = self._signed_from_magnitude(entry.magnitude_counts())
            return entry.pmf
        if self._pmf_cache is None:
            m = np.arange(1, (1 << self.config.input_bits) + 1, dtype=np.int64)
            counts = np.bincount(self._codes_from_uniform(m), minlength=self.top_code + 1)
            self._pmf_cache = self._signed_from_magnitude(counts)
        return self._pmf_cache

    def _signed_from_magnitude(self, mag_counts: np.ndarray) -> DiscretePMF:
        """Fold magnitude counts into the signed PMF over ``2**(Bu+1)``."""
        top = mag_counts.size - 1
        denom = 2 * (1 << self.config.input_bits)
        signed = np.zeros(2 * top + 1, dtype=np.int64)
        signed[top] = 2 * mag_counts[0]  # both signs of zero collapse
        if top > 0:
            signed[top + 1 :] = mag_counts[1:]
            signed[:top] = mag_counts[1:][::-1]
        return DiscretePMF.from_counts(self.config.delta, -top, signed, denom)
