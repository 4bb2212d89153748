"""Cycle-level behavioural model of the DP-Box (paper Section IV).

The model is faithful to the paper's architecture:

* a 3-bit **command port** plus a signed value port (Section IV-A).  The
  ports are wires: they hold whatever the host last drove, which is why
  the Do Nothing command exists — "if not used, the DP-Box would
  immediately begin noising the sensor value again".  The Set Threshold
  toggle is edge-triggered ("needs to be re-sent to toggle again").
* three **phases** — initialization (budget/replenishment lock-in, cannot
  be re-entered without a power cycle), waiting (replenishment timer
  ticks, next Laplace sample prefetched), noising (Section IV-C);
* **latency**: one cycle to load the registers, one to produce the noised
  output; thresholding adds nothing; every resample adds one cycle
  (Section V);
* an embedded **budget engine** implementing Algorithm 1 with the exact
  Fig.-8 segment table, caching, and periodic replenishment;
* ``ε = 2**-nm`` privacy levels so noise scaling is a bit shift (eq. 19).

Use :class:`DPBox` directly for cycle-accurate experiments, or the
:class:`DPBoxDriver` convenience wrapper that issues the command
sequences a real integration would.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import (
    CalibrationError,
    ConfigurationError,
    HardwareProtocolError,
    UncalibratableConfigError,
)
from ..privacy.loss import DiscreteMechanismFamily, input_grid_codes
from ..privacy.thresholds import calibrate_threshold_exact
from ..rng.cordic import CordicLn
from ..rng.inversion import FxpDatapath
from ..rng.laplace_fxp import FxpLaplaceRng
from ..rng.urng import NumpySource, UniformCodeSource
from ..runtime import ReleasePipeline, SlotCharge, default_pipeline
from ..sim import Clock, Module
from .budget import BudgetEngine
from .commands import Command
from .config import DPBoxConfig, GuardMode, validate_epsilon_exponent
from .fsm import Phase
from .segments import SegmentTable, build_segment_table

__all__ = ["DPBox", "DPBoxDriver", "NoisingResult"]


@dataclasses.dataclass(frozen=True)
class NoisingResult:
    """One completed noising transaction."""

    #: Noised output in real units.
    value: float
    #: DP-Box cycles from Start Noising to ready (2 + resamples).
    cycles: int
    #: Number of Laplace samples drawn (1 + resamples).
    draws: int
    #: Loss charged against the budget (0 when served from cache).
    charged: float
    #: True when the reply came from the output cache.
    from_cache: bool


@dataclasses.dataclass
class _RuntimeState:
    """Mechanism state derived from the runtime configuration.

    The grid is anchored at the range lower bound: code ``k`` represents
    the value ``origin + k·Δ``, so the sensor range maps exactly onto
    codes ``[0, d/Δ]`` regardless of where it sits in absolute units.
    """

    delta: float
    origin: float
    k_m: int
    k_M: int
    k_th: int
    rng: FxpLaplaceRng
    table: SegmentTable
    mode: GuardMode


class DPBox(Module):
    """The DP-Box hardware module."""

    def __init__(
        self,
        config: DPBoxConfig,
        clock: Optional[Clock] = None,
        source: Optional[UniformCodeSource] = None,
        pipeline: Optional[ReleasePipeline] = None,
    ):
        clock = clock or Clock(frequency_hz=config.frequency_hz)
        super().__init__(clock)
        self.config = config
        self.source = source if source is not None else NumpySource()
        self._pipeline = pipeline
        self._log_backend = (
            CordicLn(frac_bits=config.cordic_frac_bits, n_iterations=24)
            if config.use_cordic_log
            else None
        )

        # Input ports (wires: hold the last driven value).
        self.cmd_port: Command = Command.DO_NOTHING
        self.value_port: float = 0.0
        self._prev_cmd: Command = Command.DO_NOTHING

        # Output ports.
        self.output: float = 0.0
        self.ready: bool = False

        # Architectural state.
        self._phase = self.reg(Phase.INITIALIZATION)
        self._nm: Optional[int] = None  # ε exponent
        self._sensor_value: Optional[float] = None
        self._r_u: Optional[float] = None
        self._r_l: Optional[float] = None
        self._mode: GuardMode = config.guard_mode
        self._budget_amount: Optional[float] = None
        self._replenish_period: Optional[int] = None

        # Internal noising state.
        self._prefetched_code: Optional[int] = None
        self._noising_cycles = 0
        self._noising_draws = 0
        self._loaded = False
        self._fixed_pick: Optional[Tuple[Optional[int]]] = None
        self._last_result: Optional[NoisingResult] = None

        self._engine: Optional[BudgetEngine] = None
        self._runtime: Optional[_RuntimeState] = None
        self._calibration_cache: Dict[Tuple, Tuple[int, SegmentTable]] = {}

    # ------------------------------------------------------------------
    # External interface
    # ------------------------------------------------------------------
    @property
    def phase(self) -> Phase:
        """Current FSM phase."""
        return self._phase.q

    @property
    def guard_mode(self) -> GuardMode:
        """Currently selected guard (Set Threshold toggles it)."""
        return self._mode

    @property
    def epsilon(self) -> float:
        """Current privacy level ``2**-nm`` (eq. 19)."""
        if self._nm is None:
            raise HardwareProtocolError("epsilon has not been configured")
        return 2.0 ** (-self._nm)

    def issue(self, command: Command, value: float = 0.0) -> None:
        """Drive the command and value ports (they hold until re-driven)."""
        self.cmd_port = command
        self.value_port = float(value)

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------
    def _combinational(self) -> None:
        phase = self._phase.q
        cmd = self.cmd_port
        rising = cmd is not self._prev_cmd
        self._prev_cmd = cmd
        if phase is Phase.INITIALIZATION:
            self._init_phase(cmd, self.value_port)
        elif phase is Phase.WAITING:
            self._waiting_phase(cmd, self.value_port, rising)
        else:
            self._noising_phase()

    # --- initialization ------------------------------------------------
    def _init_phase(self, cmd: Command, val: float) -> None:
        if cmd is Command.SET_EPSILON:
            if val <= 0:
                raise HardwareProtocolError("budget must be positive")
            self._budget_amount = float(val)
        elif cmd is Command.SET_RANGE_UPPER:
            if val <= 0 or val != int(val):
                raise HardwareProtocolError(
                    "replenishment period must be a positive cycle count"
                )
            self._replenish_period = int(val)
        elif cmd is Command.START_NOISING:
            if self._budget_amount is None:
                raise HardwareProtocolError(
                    "budget must be set before leaving initialization"
                )
            self._phase.set(Phase.WAITING)
        elif cmd is Command.DO_NOTHING:
            pass
        else:
            raise HardwareProtocolError(
                f"command {cmd.name} invalid during initialization"
            )

    # --- waiting ---------------------------------------------------------
    def _waiting_phase(self, cmd: Command, val: float, rising: bool) -> None:
        if self._engine is not None:
            self._engine.advance_cycles(1)
        if cmd is Command.SET_EPSILON:
            nm = int(val)
            try:
                validate_epsilon_exponent(nm)
            except ConfigurationError as exc:
                # A bad value on the port is a host protocol violation.
                raise HardwareProtocolError(str(exc)) from exc
            if nm != self._nm:
                self._nm = nm
                self._invalidate_runtime()
        elif cmd is Command.SET_SENSOR_VALUE:
            self._sensor_value = val
        elif cmd is Command.SET_RANGE_UPPER:
            if val != self._r_u:
                self._r_u = val
                self._invalidate_runtime()
        elif cmd is Command.SET_RANGE_LOWER:
            if val != self._r_l:
                self._r_l = val
                self._invalidate_runtime()
        elif cmd is Command.SET_THRESHOLD:
            if rising:  # edge-triggered toggle
                self._mode = self._mode.toggled()
                self._invalidate_runtime()
        elif cmd is Command.START_NOISING:
            self._begin_noising()
            return
        # Prefetch the next Laplace sample so noising can be single-cycle
        # (paper: "a new noise sample [is generated] immediately upon
        # entering this stage").  Skipped while the configuration is
        # transiently inconsistent (e.g. the host has updated one range
        # bound but not yet the other).
        if (
            self._prefetched_code is None
            and self._runtime_ready()
            and self._r_u > self._r_l  # type: ignore[operator]
        ):
            self._ensure_runtime()
            self._prefetched_code = self._draw_code()

    # --- noising -----------------------------------------------------------
    def _begin_noising(self) -> None:
        if not self._runtime_ready() or self._sensor_value is None:
            raise HardwareProtocolError(
                "ε, sensor value and both range bounds must be set before Start Noising"
            )
        rt = self._ensure_runtime()
        x = self._sensor_value
        lo = rt.origin + rt.k_m * rt.delta
        hi = rt.origin + rt.k_M * rt.delta
        if not lo - 1e-9 <= x <= hi + 1e-9:
            raise HardwareProtocolError("sensor value outside the configured range")
        self.ready = False
        self._noising_cycles = 0
        self._noising_draws = 0
        self._loaded = False
        self._fixed_pick = None
        self._phase.set(Phase.NOISING)

    def _noising_phase(self) -> None:
        rt = self._runtime
        assert rt is not None and self._sensor_value is not None
        self._noising_cycles += 1
        if not self._loaded:
            # Cycle 1: load the operand registers.
            self._loaded = True
            return
        k_x = int(
            np.clip(
                round((self._sensor_value - rt.origin) / rt.delta), rt.k_m, rt.k_M
            )
        )
        lo, hi = rt.k_m - rt.k_th, rt.k_M + rt.k_th
        n_fixed = self.config.fixed_resample_draws
        if rt.mode is GuardMode.RESAMPLE and n_fixed > 0:
            self._fixed_draw_noising(k_x, lo, hi, n_fixed)
            return
        if self._prefetched_code is None:
            self._prefetched_code = self._draw_code()
        k_n = self._prefetched_code
        self._prefetched_code = None
        self._noising_draws += 1
        k_y = k_x + k_n
        if rt.mode is GuardMode.THRESHOLD:
            k_y = min(max(k_y, lo), hi)
        elif not lo <= k_y <= hi:
            # Resample: a fresh sample is ready every cycle (Section IV-C.3).
            self._prefetched_code = self._draw_code()
            return
        self._finish_noising(k_y)

    def _fixed_draw_noising(self, k_x: int, lo: int, hi: int, n_fixed: int) -> None:
        """Timing-channel mitigation: draw a fixed batch, pick one.

        Latency is a constant ``1 + n_fixed`` cycles regardless of the
        sensor value (unless the whole batch misses, which falls back to
        per-cycle resampling and is astronomically unlikely for calibrated
        thresholds).
        """
        rt = self._runtime
        assert rt is not None
        if self._fixed_pick is None:
            codes = k_x + rt.rng.sample_codes(n_fixed)
            self._noising_draws += n_fixed
            good = codes[(codes >= lo) & (codes <= hi)]
            self._fixed_pick = (int(good[0]) if good.size else None,)
        if self._noising_cycles < 1 + n_fixed:
            return  # burn the constant-latency cycles
        pick = self._fixed_pick[0]
        if pick is None:
            # Whole batch missed: degrade to one redraw per cycle.
            k_n = int(rt.rng.sample_codes(1)[0])
            self._noising_draws += 1
            k_y = k_x + k_n
            if not lo <= k_y <= hi:
                return
            pick = k_y
        self._finish_noising(pick)

    def _finish_noising(self, k_y: int) -> None:
        # Start Noising's charge + event go through the release pipeline
        # (the spend-or-replay rule over the engine's budget columns), so
        # hardware noisings land in the same trace as mechanism-level
        # releases — with their cycle latency attached.
        rt = self._runtime
        eng = self._engine
        assert rt is not None and eng is not None
        charge = self.pipeline.charge_and_emit(
            mechanism="dpbox",
            epsilon=self.epsilon,
            claimed_loss=self.config.loss_multiple * self.epsilon,
            guard=(
                "resample" if rt.mode is GuardMode.RESAMPLE else "threshold"
            ),
            k_fresh=int(k_y),
            accounting=SlotCharge(*eng.slot, eng.table),
            draws=self._noising_draws,
            cycles=self._noising_cycles,
            kernel=rt.rng.kernel,
        )
        from_cache = bool(charge.cache_hits[0])
        eng.n_cached_replies += from_cache
        eng.n_fresh_replies += not from_cache
        self.output = rt.origin + int(charge.codes[0]) * rt.delta
        self.ready = True
        self._last_result = NoisingResult(
            value=self.output,
            cycles=self._noising_cycles,
            draws=self._noising_draws,
            charged=float(charge.charged[0]),
            from_cache=from_cache,
        )
        self._phase.set(Phase.WAITING)

    # ------------------------------------------------------------------
    # Runtime (derived) state management
    # ------------------------------------------------------------------
    def _runtime_ready(self) -> bool:
        return None not in (self._nm, self._r_u, self._r_l)

    def _invalidate_runtime(self) -> None:
        self._runtime = None
        self._prefetched_code = None

    def _draw_code(self) -> int:
        rt = self._ensure_runtime()
        return int(rt.rng.sample_codes(1)[0])

    def _ensure_runtime(self) -> _RuntimeState:
        if self._runtime is not None:
            return self._runtime
        if not self._runtime_ready():
            raise HardwareProtocolError("runtime parameters incomplete")
        assert self._r_u is not None and self._r_l is not None and self._nm is not None
        if self._r_u <= self._r_l:
            raise HardwareProtocolError("range upper bound must exceed lower bound")
        d = self._r_u - self._r_l
        eps = self.epsilon
        delta = self.config.delta_for_range(d)
        key = (self._nm, self._r_l, self._r_u, self._mode)
        if key not in self._calibration_cache:
            try:
                self._calibration_cache[key] = self._calibrate(d, eps, delta)
            except CalibrationError as exc:
                # An uncalibratable epsilon/range combination is a refused
                # command, not a software crash: the hardware cannot build
                # a guard window within the loss bound for this
                # configuration, so the FSM reports it as a protocol-level
                # fault and stays recoverable (reconfigure and retry).
                raise UncalibratableConfigError(str(exc)) from exc
        k_th, table = self._calibration_cache[key]
        datapath = FxpDatapath(self.config.input_bits, self.config.output_bits, delta)
        rng = FxpLaplaceRng(
            datapath, d / eps, source=self.source, log_backend=self._log_backend
        )
        self._runtime = _RuntimeState(
            delta=delta,
            origin=self._r_l,
            k_m=0,
            k_M=int(round(d / delta)),
            k_th=k_th,
            rng=rng,
            table=table,
            mode=self._mode,
        )
        if self._engine is None:
            if self._budget_amount is None:
                raise HardwareProtocolError("initialization phase was never completed")
            self._engine = BudgetEngine(
                table,
                self._budget_amount,
                replenish_period_cycles=self._replenish_period,
                cache_on_exhaustion=self.config.cache_on_exhaustion,
            )
        else:
            self._engine.table = table
        return self._runtime

    def _calibrate(self, d: float, eps: float, delta: float) -> Tuple[int, SegmentTable]:
        # Calibration must analyze the PMF of the *deployed* datapath:
        # the enumerated PMF honours the configured log backend.
        datapath = FxpDatapath(self.config.input_bits, self.config.output_bits, delta)
        noise = FxpLaplaceRng(datapath, d / eps, log_backend=self._log_backend).exact_pmf()
        # The grid is anchored at r_l, so calibration runs on [0, d].
        codes = input_grid_codes(0.0, d, delta, n_points=5)
        mode = "resample" if self._mode is GuardMode.RESAMPLE else "threshold"
        threshold = calibrate_threshold_exact(
            noise, codes, self.config.loss_multiple * eps, mode=mode
        )
        k_th = int(round(threshold / delta))
        window = (min(codes) - k_th, max(codes) + k_th)
        family = DiscreteMechanismFamily.additive(noise, codes, window=window, mode=mode)
        table = build_segment_table(family, eps, self.config.segment_levels)
        return k_th, table

    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> ReleasePipeline:
        """The release pipeline noisings are charged/emitted through."""
        return self._pipeline if self._pipeline is not None else default_pipeline()

    @pipeline.setter
    def pipeline(self, value: Optional[ReleasePipeline]) -> None:
        self._pipeline = value

    @property
    def last_result(self) -> Optional[NoisingResult]:
        """The most recently completed transaction."""
        return self._last_result

    @property
    def budget_engine(self) -> BudgetEngine:
        """The embedded budget engine (after first use)."""
        if self._engine is None:
            raise HardwareProtocolError("budget engine not yet instantiated")
        return self._engine


class DPBoxDriver:
    """Issues the command sequences a host processor would.

    Wraps a :class:`DPBox` with a software-friendly API: initialize once,
    reconfigure as needed, and call :meth:`noise` per sensor reading.
    After starting a noising the driver drives Do Nothing, as the paper
    notes is required to keep the box from immediately re-noising.
    """

    def __init__(self, box: DPBox):
        self.box = box

    # ------------------------------------------------------------------
    def _step(self, command: Command, value: float = 0.0) -> None:
        self.box.issue(command, value)
        self.box.clock.tick()

    def initialize(self, budget: float, replenish_period: Optional[int] = None) -> None:
        """Run the initialization phase and lock the budget."""
        if self.box.phase is not Phase.INITIALIZATION:
            raise HardwareProtocolError("DP-Box already left initialization")
        self._step(Command.SET_EPSILON, budget)
        if replenish_period is not None:
            self._step(Command.SET_RANGE_UPPER, replenish_period)
        self._step(Command.START_NOISING)
        self._step(Command.DO_NOTHING)

    def configure(
        self,
        epsilon_exponent: int,
        range_lower: float,
        range_upper: float,
        mode: Optional[GuardMode] = None,
    ) -> None:
        """Set ε = 2**-nm and the sensor range; optionally force a mode."""
        self._step(Command.SET_EPSILON, epsilon_exponent)
        self._step(Command.SET_RANGE_LOWER, range_lower)
        self._step(Command.SET_RANGE_UPPER, range_upper)
        if mode is not None and mode is not self.box.guard_mode:
            self._step(Command.SET_THRESHOLD)
        self._step(Command.DO_NOTHING)

    def noise(self, x: float, max_cycles: int = 512) -> NoisingResult:
        """Noise one sensor value; returns output + cycle count."""
        self._step(Command.SET_SENSOR_VALUE, x)
        # Start, then immediately release to Do Nothing so the box does
        # not re-noise after completing.
        self._step(Command.START_NOISING)
        self.box.issue(Command.DO_NOTHING)
        for _ in range(max_cycles):
            if self.box.ready:
                break
            self.box.clock.tick()
        else:
            raise HardwareProtocolError(f"noising did not finish in {max_cycles} cycles")
        result = self.box.last_result
        assert result is not None
        return result
