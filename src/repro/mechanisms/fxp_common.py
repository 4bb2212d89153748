"""Shared machinery for the fixed-point mechanism arms.

All three fixed-point arms (naive baseline, resampling, thresholding)
share the same front end: sensor readings are quantized onto the noise
grid ``Δ`` (the sensor ADC step is assumed to be a multiple of ``Δ``, as
in the DP-Box datapath), a signed noise code is drawn from a fixed-point
generator, and the sum is produced.  The generator is the paper's
:class:`~repro.rng.laplace_fxp.FxpLaplaceRng` unless ``noise_rng=``
supplies another :class:`~repro.rng.inversion.FxpInversionRng`
(staircase, Gaussian, geometric): Section III-A4's failure and its guard
fix do not depend on the distribution, so neither does this code.

:class:`FxpMechanismBase` leaves the guard abstract;
:class:`GuardedFxpMechanism` is the one threshold policy (window,
calibration, claimed ``n·ε``) both guards share.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..errors import CalibrationError, ConfigurationError
from ..privacy.definitions import LossReport
from ..privacy.loss import DiscreteMechanismFamily, input_grid_codes
from ..privacy.thresholds import calibrate_threshold_exact
from ..rng.inversion import FxpDatapath, FxpInversionRng
from ..rng.laplace_fxp import FxpLaplaceRng
from ..rng.pmf import DiscretePMF
from ..rng.urng import UniformCodeSource
from ..runtime import ReleasePipeline, ReleaseRequest
from .base import LocalMechanism, SensorSpec

__all__ = [
    "FxpMechanismBase",
    "GuardedFxpMechanism",
    "DEFAULT_INPUT_BITS",
    "DEFAULT_OUTPUT_BITS",
]

#: Paper running-example URNG width (Fig. 4 uses Bu = 17).
DEFAULT_INPUT_BITS = 17
#: Signed output width; 20 matches the synthesized DP-Box datapath.
DEFAULT_OUTPUT_BITS = 20


class FxpMechanismBase(LocalMechanism):
    """Base class: quantized sensor + fixed-point noise.

    ``input_bits``, ``output_bits``, ``delta``, ``source``,
    ``log_backend`` and ``kernel`` build the default
    :class:`~repro.rng.laplace_fxp.FxpLaplaceRng` (``λ = d/ε``).
    ``noise_rng`` replaces it with any
    :class:`~repro.rng.inversion.FxpInversionRng`, which already carries
    all six, so passing any of them alongside it is refused.
    """

    def __init__(
        self,
        sensor: SensorSpec,
        epsilon: float,
        input_bits: Optional[int] = None,
        output_bits: Optional[int] = None,
        delta: Optional[float] = None,
        source: Optional[UniformCodeSource] = None,
        log_backend=None,
        n_verify_inputs: int = 9,
        pipeline: Optional[ReleasePipeline] = None,
        kernel: str = "auto",
        noise_rng: Optional[FxpInversionRng] = None,
    ):
        super().__init__(sensor, epsilon, pipeline=pipeline)
        if noise_rng is None:
            if delta is None:
                # Default grid: 7 fractional bits of the sensor range — fine
                # enough that quantization is negligible next to the noise,
                # coarse enough that exact PMFs stay small.
                delta = sensor.d / 128.0
            datapath = FxpDatapath(
                input_bits=DEFAULT_INPUT_BITS if input_bits is None else input_bits,
                output_bits=DEFAULT_OUTPUT_BITS if output_bits is None else output_bits,
                delta=delta,
            )
            noise_rng = FxpLaplaceRng(
                datapath, sensor.d / epsilon, source=source,
                log_backend=log_backend, kernel=kernel,
            )
        elif not isinstance(noise_rng, FxpInversionRng):
            raise ConfigurationError(
                f"noise_rng must be an FxpInversionRng, got {type(noise_rng).__name__}"
            )
        else:
            clashing = [
                name
                for name, value in (
                    ("input_bits", input_bits),
                    ("output_bits", output_bits),
                    ("delta", delta),
                    ("source", source),
                    ("log_backend", log_backend),
                    ("kernel", None if kernel == "auto" else kernel),
                )
                if value is not None
            ]
            if clashing:
                raise ConfigurationError(
                    f"noise_rng carries its own {', '.join(clashing)}; "
                    "set them on the generator instead"
                )
        self.rng = noise_rng
        self.n_verify_inputs = n_verify_inputs
        self._noise_pmf: Optional[DiscretePMF] = None
        # Sensor range endpoints must land on the grid; snap them once and
        # validate the snap is exact enough to be a pure representation
        # choice, not a data change.
        self.k_m = self._snap(sensor.m, "lower range bound")
        self.k_M = self._snap(sensor.M, "upper range bound")
        if self.k_M <= self.k_m:
            raise ConfigurationError("sensor range collapses on the noise grid")

    # ------------------------------------------------------------------
    def _snap(self, value: float, what: str) -> int:
        k = int(round(value / self.delta))
        if abs(k * self.delta - value) > 0.5 * self.delta + 1e-12:
            raise ConfigurationError(f"{what} cannot be represented on the grid")
        return k

    @property
    def delta(self) -> float:
        """Noise/output quantization step ``Δ``."""
        return self.rng.config.delta

    @property
    def noise_pmf(self) -> DiscretePMF:
        """Exact signed noise PMF (cached)."""
        if self._noise_pmf is None:
            self._noise_pmf = self.rng.exact_pmf()
        return self._noise_pmf

    def verification_codes(self) -> Sequence[int]:
        """Sensor grid codes used for the exact LDP certification."""
        return input_grid_codes(
            self.k_m * self.delta,
            self.k_M * self.delta,
            self.delta,
            n_points=self.n_verify_inputs,
        )

    def quantize_inputs(self, x: np.ndarray) -> np.ndarray:
        """Sensor readings → grid codes (round to nearest, clamped to range)."""
        x = self._check_inputs(x)
        k = np.floor(x / self.delta + 0.5).astype(np.int64)
        return np.clip(k, self.k_m, self.k_M)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def _family(self) -> DiscreteMechanismFamily:
        """The conditional-distribution family this arm induces."""
        raise NotImplementedError

    def ldp_report(self, epsilon_target: Optional[float] = None) -> LossReport:
        target = self.claimed_loss_bound if epsilon_target is None else epsilon_target
        return self._family().worst_case_loss(epsilon_target=target)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _build_request(
        self,
        x: np.ndarray,
        guard: str,
        window=None,
        max_rounds: Optional[int] = None,
    ) -> ReleaseRequest:
        """Common fixed-point release description.

        Clip/quantize happens here (the pipeline's clip stage); the draw
        callable is the audited fixed-point noise generator; decode maps
        output codes back to sensor units on the ``Δ`` grid.
        """
        delta = self.delta
        request = ReleaseRequest(
            mechanism=self.name,
            epsilon=self.epsilon,
            claimed_loss=self.claimed_loss_bound,
            codes=self.quantize_inputs(x).reshape(-1),
            draw=self.rng.sample_codes,
            # Fused fast path: bit-identical to codes + draw(n) with
            # identical source consumption (see sample_codes_add).
            draw_add=self.rng.sample_codes_add,
            guard=guard,
            window=window,
            decode=lambda k: k * delta,
            kernel=self.rng.kernel,
        )
        if max_rounds is not None:
            request.max_rounds = max_rounds
        return request


class GuardedFxpMechanism(FxpMechanismBase):
    """The threshold policy shared by the resampling and thresholding arms.

    Both guards keep outputs inside the input-independent window
    ``[m - n_th, M + n_th]`` and claim ``n·ε`` (``n = loss_multiple``);
    they differ only in what happens outside it (:attr:`guard`) and in
    the paper's closed form for ``n_th`` (:meth:`_paper_threshold`).  The
    threshold comes from, in order of precedence: an explicit
    ``threshold``; ``threshold_policy="paper"`` (the Laplace closed form,
    so Laplace noise only); or ``"exact"`` (the default) — the largest
    threshold whose exactly computed worst-case loss is ``<= n·ε``, for
    any generator.
    """

    #: Pipeline guard and exact-analysis mode: ``resample`` or ``threshold``.
    guard: str
    #: Redraw cap handed to the pipeline (``None``: its default).
    _max_rounds: Optional[int] = None

    def __init__(
        self,
        sensor: SensorSpec,
        epsilon: float,
        loss_multiple: float = 2.0,
        threshold: Optional[float] = None,
        threshold_policy: str = "exact",
        **kwargs,
    ):
        super().__init__(sensor, epsilon, **kwargs)
        if loss_multiple <= 1.0:
            raise ConfigurationError("loss_multiple must exceed 1")
        self.loss_multiple = loss_multiple
        if threshold is not None:
            self.threshold = float(threshold)
        elif threshold_policy == "paper":
            if not isinstance(self.rng, FxpLaplaceRng):
                raise ConfigurationError(
                    "threshold_policy='paper' is the Laplace closed form; "
                    "use 'exact' for other noise"
                )
            self.threshold = self._paper_threshold()
        elif threshold_policy == "exact":
            self.threshold = calibrate_threshold_exact(
                self.noise_pmf,
                self.verification_codes(),
                self.claimed_loss_bound,
                mode=self.guard,
                k_hint=self._paper_hint(),
            )
        else:
            raise ConfigurationError(f"unknown threshold_policy {threshold_policy!r}")
        self.k_th = int(math.floor(self.threshold / self.delta + 1e-9))
        if self.k_th < 1:
            raise ConfigurationError("threshold must be at least one grid step")
        #: Output window in grid codes: common to all inputs.
        self.window = (self.k_m - self.k_th, self.k_M + self.k_th)

    def _paper_threshold(self) -> float:
        """The paper's closed-form threshold for this guard (Laplace)."""
        raise NotImplementedError

    def _paper_hint(self) -> int:
        """Seed for the exact search: the closed form in grid codes."""
        try:
            return int(round(self._paper_threshold() / self.delta))
        except (CalibrationError, ValueError, OverflowError):
            # The paper closed form has no positive solution (or its
            # exp/log left the float range) for this configuration; the
            # hint only seeds the exact search, so fall back to a
            # neutral starting point.  Anything else — a typed config
            # error, an interrupt — is a real bug and must propagate.
            return 16

    # ------------------------------------------------------------------
    @property
    def claimed_loss_bound(self) -> float:
        """Both guards guarantee ``n·ε``, not ε (paper Section III-B)."""
        return self.loss_multiple * self.epsilon

    def release_request(self, x: np.ndarray) -> ReleaseRequest:
        return self._build_request(
            x, guard=self.guard, window=self.window, max_rounds=self._max_rounds
        )

    def _family(self) -> DiscreteMechanismFamily:
        return DiscreteMechanismFamily.additive(
            self.noise_pmf,
            self.verification_codes(),
            window=self.window,
            mode=self.guard,
        )
