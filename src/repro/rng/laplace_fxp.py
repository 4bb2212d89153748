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

Sampling, the fused input add, the enumerated PMF and the codebook kernel
are the shared :class:`~repro.rng.inversion.FxpInversionRng` datapath;
this module adds what is Laplace-specific: the scale ``λ``, the logarithm
on integer codes (exact or a hardware model), eq. (11) and the ideal bin
masses.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from .codebook import backend_fingerprint
from .cordic import CordicLn
from .inversion import FxpDatapath, FxpInversionRng
from .log_approx import PiecewisePolyLn
from .pmf import DiscretePMF
from .urng import UniformCodeSource

__all__ = ["FxpLaplaceRng"]

LogBackend = Union[None, CordicLn, PiecewisePolyLn]


class FxpLaplaceRng(FxpInversionRng):
    """Sampler + exact distribution of the fixed-point Laplace RNG.

    The shared :class:`~repro.rng.inversion.FxpInversionRng` datapath with
    magnitude ``-λ·ln(m·2**-Bu)`` evaluated on the integer URNG codes, so a
    hardware logarithm model can stand in for the exact one.  ``lam`` is
    the scale ``λ`` (``d/ε`` for an ε-LDP mechanism over a sensor range of
    length ``d``); ``log_backend`` is ``None`` for an exact float64
    logarithm, else a hardware model (CORDIC or piecewise polynomial).
    """

    def __init__(
        self,
        datapath: FxpDatapath,
        lam: float,
        source: Optional[UniformCodeSource] = None,
        log_backend: LogBackend = None,
        kernel: str = "auto",
    ):
        if lam <= 0:
            raise ConfigurationError("lam must be positive")
        super().__init__(datapath, source=source, kernel=kernel)
        self.lam = lam
        self.log_backend = log_backend

    def _parameters(self) -> Tuple:
        return (self.lam, backend_fingerprint(self.log_backend))

    @property
    def max_magnitude_real(self) -> float:
        """``L = λ·Bu·ln2`` — the largest magnitude before rounding."""
        return self.lam * self.config.input_bits * math.log(2.0)

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
        return -self.lam * ln_u

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
        a = cfg.delta / self.lam
        log_c = cfg.input_bits * math.log(2.0)
        unsat = int(math.floor(self.max_magnitude_real / cfg.delta + 0.5))
        top = min(unsat, cfg.max_code)
        ks = np.arange(0, top + 1, dtype=float)
        # m1/m2 are the URNG codes at the bin edges k ∓ 1/2; clamp the
        # upper edge of bin 0 to the full alphabet.
        m1 = np.exp(log_c - a * (ks - 0.5))
        m2 = np.exp(log_c - a * (ks + 0.5))
        m1 = np.minimum(m1, float(bu_codes))
        counts = np.floor(m1) - np.floor(m2)
        counts = np.maximum(counts, 0.0).astype(np.int64)
        # Saturation: codes below the last bin edge all round into top.
        if unsat > top:
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
        top = self.top_code
        ks = np.arange(-top, top + 1)
        lo = (ks - 0.5) * cfg.delta
        hi = (ks + 0.5) * cfg.delta
        lam = self.lam

        def cdf(x: np.ndarray) -> np.ndarray:
            return np.where(x < 0, 0.5 * np.exp(x / lam), 1 - 0.5 * np.exp(-x / lam))

        probs = cdf(hi) - cdf(lo)
        # Fold the ideal tails into the end bins so both PMFs sum to 1.
        probs[0] += cdf(lo[0]) - 0.0
        probs[-1] += 1.0 - cdf(hi[-1])
        return DiscretePMF(cfg.delta, -top, probs)
