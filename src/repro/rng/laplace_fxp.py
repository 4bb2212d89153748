"""Fixed-point Laplace random number generator (paper Section III-A2).

This models the RNG block of Fig. 3: a ``Bu``-bit uniform code ``m`` is
mapped through the inverse half-CDF ``-λ·ln(m·2**-Bu)``, rounded to the
nearest multiple of the output quantization step ``Δ``, saturated into the
``By``-bit two's-complement output range, and given a random sign.

Two properties make this RNG the villain of the paper:

* its support is **bounded** by ``L = λ·Bu·ln(2)`` (the largest magnitude,
  reached at ``m = 1``), and
* its tail has **holes**: once the ideal bin probability drops below one
  URNG code (``2**-Bu``), some output values receive zero probability.

Both are captured exactly by :meth:`FxpLaplaceRng.exact_pmf`, which either
enumerates the full URNG alphabet (default; exact for *any* logarithm
back-end, including CORDIC) or applies the analytic counting formula of
paper eq. (11).

Sampling, the fused input add and the enumerated PMF are the shared
:class:`~repro.rng.inversion.FxpInversionRng` datapath; this module adds
what is Laplace-specific: the logarithm on integer codes (exact or a
hardware model), the codebook table, eq. (11) and the ideal bin masses.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Union

import numpy as np

from ..errors import ConfigurationError
from .codebook import CodebookEntry, codebook_cache
from .cordic import CordicLn
from .inversion import FxpInversionRng
from .log_approx import PiecewisePolyLn
from .pmf import DiscretePMF
from .urng import UniformCodeSource

__all__ = ["FxpLaplaceConfig", "FxpLaplaceRng"]

LogBackend = Union[None, CordicLn, PiecewisePolyLn]


@dataclasses.dataclass(frozen=True)
class FxpLaplaceConfig:
    """Static parameters of the fixed-point Laplace RNG.

    Parameters
    ----------
    input_bits:
        ``Bu`` — width of the uniform code (paper's URNG output bits).
    output_bits:
        ``By`` — width of the signed output; magnitudes saturate at
        ``2**(By-1) - 1`` steps.
    delta:
        ``Δ`` — output quantization step, in real units.
    lam:
        ``λ`` — Laplace scale.  For an ε-LDP mechanism over a sensor range
        of length ``d``, ``λ = d/ε``.
    """

    input_bits: int
    output_bits: int
    delta: float
    lam: float

    def __post_init__(self) -> None:
        if not 2 <= self.input_bits <= 40:
            raise ConfigurationError("input_bits must be in 2..40")
        if not 2 <= self.output_bits <= 40:
            raise ConfigurationError("output_bits must be in 2..40")
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")
        if self.lam <= 0:
            raise ConfigurationError("lam must be positive")

    # ------------------------------------------------------------------
    @property
    def max_code(self) -> int:
        """Largest magnitude code representable: ``2**(By-1) - 1``."""
        return (1 << (self.output_bits - 1)) - 1

    @property
    def max_magnitude_real(self) -> float:
        """``L = λ·Bu·ln2`` — the largest magnitude before rounding."""
        return self.lam * self.input_bits * math.log(2.0)

    @property
    def top_code(self) -> int:
        """Largest code the RNG actually emits (after rounding, saturated)."""
        unsat = int(math.floor(self.max_magnitude_real / self.delta + 0.5))
        return min(unsat, self.max_code)

    @property
    def saturates(self) -> bool:
        """True when ``By`` is too small to represent the full support."""
        return int(math.floor(self.max_magnitude_real / self.delta + 0.5)) > self.max_code

    @classmethod
    def for_mechanism(
        cls,
        sensor_range: float,
        epsilon: float,
        input_bits: int = 17,
        output_bits: int = 12,
        delta: Optional[float] = None,
    ) -> "FxpLaplaceConfig":
        """Convenience constructor: ``λ = d/ε``; Δ defaults to ``d/2**5``.

        The default Δ matches the paper's running example
        (``Δ = 10/2**5`` for a range of 10).
        """
        if sensor_range <= 0:
            raise ConfigurationError("sensor_range must be positive")
        if epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if delta is None:
            delta = sensor_range / 32.0
        return cls(
            input_bits=input_bits,
            output_bits=output_bits,
            delta=delta,
            lam=sensor_range / epsilon,
        )


class FxpLaplaceRng(FxpInversionRng):
    """Sampler + exact distribution of the fixed-point Laplace RNG.

    The shared :class:`~repro.rng.inversion.FxpInversionRng` datapath with
    the logarithm evaluated on the integer URNG codes, so a hardware
    logarithm model can stand in for the exact one.  ``kernel`` selects
    the sampling implementation:

    * ``"auto"`` (default) — gather from a precomputed ``m → k`` codebook
      shared process-wide (see :mod:`repro.rng.codebook`) when the
      alphabet fits the table budget, else the live datapath;
    * ``"codebook"`` — require the codebook (raises if over budget);
    * ``"live"`` — always recompute the logarithm datapath per draw (the
      pre-codebook behaviour; the bit-identity reference).

    Both kernels consume the uniform source identically (``n`` codes,
    then ``n`` sign bits), so for any fixed source/seed the output stream
    is bit-identical regardless of kernel — the codebook is built by
    sweeping every code through the live datapath.
    """

    def __init__(
        self,
        config: FxpLaplaceConfig,
        source: Optional[UniformCodeSource] = None,
        log_backend: LogBackend = None,
        kernel: str = "auto",
    ):
        if kernel not in ("auto", "codebook", "live"):
            raise ConfigurationError(
                f"kernel must be 'auto', 'codebook' or 'live', got {kernel!r}"
            )
        super().__init__(config, source=source)
        #: ``None`` means an exact float64 logarithm; otherwise a hardware
        #: logarithm model (CORDIC or piecewise polynomial).
        self.log_backend = log_backend
        self.kernel_mode = kernel
        self._codebook: Optional[CodebookEntry] = None
        self._codebook_resolved = False

    @property
    def max_magnitude_real(self) -> float:
        """``L = λ·Bu·ln2`` (see :attr:`FxpLaplaceConfig.max_magnitude_real`)."""
        return self.config.max_magnitude_real

    # ------------------------------------------------------------------
    # Magnitude hook: ``-λ·ln(m·2**-Bu)`` on the integer codes
    # ------------------------------------------------------------------
    def _magnitudes(self, m: np.ndarray) -> np.ndarray:
        bu = self.config.input_bits
        if self.log_backend is None:
            # dplint: allow[DPL002] -- models the exact-log datapath the
            # analytic eq.-(11) counts assume; hardware backends below
            # (CordicLn / PiecewisePolyLn) run on integer codes.
            ln_u = np.log(m.astype(float)) - bu * math.log(2.0)
        else:
            codes = self.log_backend.ln_uniform_codes(m, bu)
            ln_u = codes * 2.0 ** (-self.log_backend.frac_bits)
        return -self.config.lam * ln_u

    # ------------------------------------------------------------------
    # Codebook table (the base samples from it when present)
    # ------------------------------------------------------------------
    def _resolve_codebook(self) -> Optional[CodebookEntry]:
        """The shared codebook entry, or ``None`` for the live datapath."""
        if not self._codebook_resolved:
            if self.kernel_mode != "live":
                self._codebook = codebook_cache().get(
                    self.config, self.log_backend, self._codes_from_uniform
                )
                if self._codebook is None and self.kernel_mode == "codebook":
                    raise ConfigurationError(
                        f"codebook kernel requested but the 2**{self.config.input_bits}"
                        "-entry table exceeds the table budget; raise it via "
                        "repro.rng.codebook.configure_codebooks or use kernel='auto'"
                    )
            self._codebook_resolved = True
        return self._codebook

    # ------------------------------------------------------------------
    # Exact distribution
    # ------------------------------------------------------------------
    def exact_pmf(self, method: str = "enumerate") -> DiscretePMF:
        """Exact signed PMF of the RNG output.

        ``method="enumerate"`` sweeps every URNG code through the *actual*
        sampling datapath (valid for any log back-end).
        ``method="analytic"`` applies paper eq. (11) (exact-log datapath
        only).
        """
        if method == "enumerate":
            return super().exact_pmf()
        if method == "analytic":
            if self.log_backend is not None:
                raise ConfigurationError(
                    "eq. (11) describes the exact-log datapath; use enumerate "
                    "for hardware log back-ends"
                )
            return self._signed_from_magnitude(self._analytic_magnitude_counts())
        raise ConfigurationError(f"unknown method {method!r}")

    def _analytic_magnitude_counts(self) -> np.ndarray:
        """Counts via eq. (11): integers in ``(m2(k), m1(k)]`` per bin."""
        cfg = self.config
        bu_codes = 1 << cfg.input_bits
        a = cfg.delta / cfg.lam
        log_c = cfg.input_bits * math.log(2.0)
        top = cfg.top_code
        ks = np.arange(0, top + 1, dtype=float)
        # m1/m2 are the URNG codes at the bin edges k ∓ 1/2; clamp the
        # upper edge of bin 0 to the full alphabet.
        m1 = np.exp(log_c - a * (ks - 0.5))
        m2 = np.exp(log_c - a * (ks + 0.5))
        m1 = np.minimum(m1, float(bu_codes))
        counts = np.floor(m1) - np.floor(m2)
        counts = np.maximum(counts, 0.0).astype(np.int64)
        # Saturation: codes below the last bin edge all round into top.
        if cfg.saturates:
            counts[top] += int(np.floor(m2[top]))
        # Any telescoping remainder (e.g. m = 1 landing exactly on the last
        # bin edge) belongs to the largest magnitude bin.
        deficit = bu_codes - int(counts.sum())
        counts[top] += deficit
        if counts[top] < 0:
            raise ConfigurationError(
                "analytic counting produced a negative bin; use enumerate"
            )
        return counts

    # ------------------------------------------------------------------
    # Ideal counterpart (for comparison plots)
    # ------------------------------------------------------------------
    def ideal_bin_probs(self) -> DiscretePMF:
        """Ideal ``Lap(λ)`` mass integrated over each output bin.

        This is the distribution an infinitely precise RNG would induce on
        the same grid — the natural yardstick for Fig. 4.
        """
        cfg = self.config
        top = cfg.top_code
        ks = np.arange(-top, top + 1)
        lo = (ks - 0.5) * cfg.delta
        hi = (ks + 0.5) * cfg.delta
        lam = cfg.lam

        def cdf(x: np.ndarray) -> np.ndarray:
            return np.where(x < 0, 0.5 * np.exp(x / lam), 1 - 0.5 * np.exp(-x / lam))

        probs = cdf(hi) - cdf(lo)
        # Fold the ideal tails into the end bins so both PMFs sum to 1.
        probs[0] += cdf(lo[0]) - 0.0
        probs[-1] += 1.0 - cdf(hi[-1])
        return DiscretePMF(cfg.delta, -top, probs)
