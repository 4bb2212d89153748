"""The release pipeline: one execution core for every privatized release.

Every release path in the library — the six mechanism arms, the
cycle-level DP-Box, the multi-sensor box, fleet devices — reduces to the
same stage sequence:

    clip -> draw (audited RNG) -> guard -> budget charge -> cache -> emit

:class:`ReleasePipeline` owns that sequence.  A caller describes its
release declaratively as a :class:`ReleaseRequest` (clipped input codes,
a draw callable over the audited RNG, the guard kind and window, a
decode back to sensor units) plus an optional accounting policy
(:mod:`repro.runtime.accounting`), and gets back a
:class:`ReleaseOutcome` whose :class:`~repro.runtime.events.ReleaseEvent`
has already been routed to the pipeline's sinks.

The guard stage is vectorized: resampling redraws only the still-
out-of-window lanes each round (geometric round counts, the paper's
Fig. 12 timing channel), so a whole fleet epoch privatizes as one array
operation.  This module deliberately imports nothing from
``mechanisms``/``core``/``aggregation`` — those layers import *it*.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BudgetExhaustedError, ConfigurationError, ResampleExhaustedError
from .accounting import ChargeOutcome, NoCharge
from .events import ReleaseEvent
from .sinks import CounterSink, EventSink, RingBufferSink

__all__ = [
    "ReleaseRequest",
    "ReleaseOutcome",
    "ReleasePipeline",
    "default_pipeline",
    "set_default_pipeline",
]

#: Library-wide default resample round limit (the old per-mechanism
#: ``_MAX_ROUNDS``).  Exhaustion raises a typed error and emits an
#: ``exhausted=True`` event instead of silently falling through.
DEFAULT_MAX_ROUNDS = 64


@dataclasses.dataclass
class ReleaseRequest:
    """Declarative description of one (possibly batched) release."""

    mechanism: str
    """Mechanism identifier recorded on the event."""

    epsilon: float
    """Per-release privacy parameter."""

    claimed_loss: float
    """Worst-case per-sample loss bound the mechanism claims."""

    codes: np.ndarray
    """Already clipped/quantized input codes, flattened to 1-D."""

    draw: Callable[[int], np.ndarray]
    """Audited noise source: ``draw(n)`` returns ``n`` noise codes."""

    draw_add: Optional[Callable[[np.ndarray], np.ndarray]] = None
    """Fused draw: ``draw_add(codes)`` returns ``codes + draw(len(codes))``
    in fewer elementwise passes (e.g.
    :meth:`~repro.rng.laplace_fxp.FxpLaplaceRng.sample_codes_add` on the
    codebook-gather path).  MUST consume the audited source identically
    to ``draw`` and be bit-identical to ``codes + draw(n)`` — the guards
    treat it as a pure fast path and fall back to ``draw`` when unset."""

    guard: str = "none"
    """``none`` (release as drawn), ``threshold`` (clamp into window),
    or ``resample`` (redraw until in window)."""

    window: Optional[Tuple[float, float]] = None
    """Inclusive guard window ``(lo, hi)`` in output-code units."""

    max_rounds: int = DEFAULT_MAX_ROUNDS
    """Resample round limit before :class:`ResampleExhaustedError`."""

    decode: Optional[Callable[[np.ndarray], np.ndarray]] = None
    """Map released output codes to sensor units (default: identity)."""

    channel: Optional[str] = None
    """Channel / device label recorded on the event."""

    kernel: Optional[str] = None
    """Sampling kernel behind ``draw`` (``codebook``/``live``), recorded
    on the event; ``None`` when the draw path does not report one."""

    modulus: Optional[int] = None
    """Categorical alphabet size: when set, the draw combines as
    ``(codes + draw(n)) % modulus`` instead of plain addition.  This is
    how the frequency-oracle arms express their perturbation — k-ary
    randomized response is exactly additive noise on Z_g, and a per-bit
    flip is the ``modulus=2`` special case — so categorical perturbation
    runs through the same draw/guard/charge/emit stages as numeric
    noise.  Only valid with ``guard="none"`` (categorical alphabets have
    no order, hence no window to clamp or resample into)."""


@dataclasses.dataclass
class ReleaseOutcome:
    """What one pipeline pass produced."""

    values: np.ndarray
    """Released values in sensor units (post decode, post cache)."""

    codes: np.ndarray
    """Released output codes (cached codes where the budget refused)."""

    rounds: np.ndarray
    """Per-sample noise-draw counts (1 for single-draw guards)."""

    charged: np.ndarray
    """Per-sample privacy loss charged."""

    cache_hits: np.ndarray
    """Boolean mask of samples served from a cache."""

    budget_remaining: Optional[float]
    """Budget left after this release (``None`` when unaccounted)."""

    event: ReleaseEvent
    """The event emitted for this release."""


class ReleasePipeline:
    """Executes release requests and emits one event per release."""

    def __init__(self, sinks: Optional[Sequence[EventSink]] = None):
        self._sinks: List[EventSink] = list(sinks) if sinks else []
        self._seq = 0

    # -- sink management ----------------------------------------------
    @property
    def sinks(self) -> List[EventSink]:
        return list(self._sinks)

    def add_sink(self, sink: EventSink) -> EventSink:
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: EventSink) -> None:
        self._sinks.remove(sink)

    @contextlib.contextmanager
    def capture(self, capacity: int = 4096) -> Iterator[RingBufferSink]:
        """Temporarily attach a ring buffer; yields it for inspection."""
        ring = RingBufferSink(capacity)
        self.add_sink(ring)
        try:
            yield ring
        finally:
            self.remove_sink(ring)

    def emit(self, event: ReleaseEvent) -> None:
        for sink in self._sinks:
            sink.emit(event)

    def adopt(self, events: Sequence[ReleaseEvent]) -> List[ReleaseEvent]:
        """Re-emit events produced by *another* pipeline, renumbered.

        The sharded fleet runner collects each worker's events and
        reassembles them here in shard order: every adopted event gets
        this pipeline's next sequence number (its shard-local ``seq``
        is discarded) and is routed to this pipeline's sinks, so a
        sharded run leaves one coherent, monotone trace exactly like an
        in-process run.  Returns the renumbered events in order.
        """
        adopted = [
            dataclasses.replace(event, seq=self._next_seq()) for event in events
        ]
        for event in adopted:
            self.emit(event)
        return adopted

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- the stages ----------------------------------------------------
    def release(self, request: ReleaseRequest, accounting=None) -> ReleaseOutcome:
        """Run draw -> guard -> charge -> emit for one request.

        ``accounting`` is any object with ``charge(codes) ->
        ChargeOutcome`` (see :mod:`repro.runtime.accounting`); ``None``
        means an unaccounted release.  On guard exhaustion or a refused
        charge with no cache, an ``exhausted=True`` event is emitted
        *before* the typed exception propagates, so failed releases are
        still visible in the trace.
        """
        codes = np.asarray(request.codes).reshape(-1)
        n = codes.shape[0]
        rounds = np.ones(n, dtype=np.int64) if n else np.zeros(0, dtype=np.int64)
        if request.modulus is not None:
            if request.guard != "none":
                raise ConfigurationError(
                    "modulus (categorical alphabet) releases take no guard: "
                    f"got guard={request.guard!r}"
                )
            if request.modulus < 2:
                raise ConfigurationError("modulus must be >= 2")

        # draw + guard
        if n == 0:
            k_y = codes.copy()
        elif request.guard == "none":
            k_y = self._noised(request, codes)
            if request.modulus is not None:
                # ``k_y mod m`` as ``k_y - (k_y // m)·m``: floor division
                # gives np.mod's result for negative codes too, and a
                # scalar divisor makes it a multiply-shift, not a divide.
                q = k_y // request.modulus
                q *= request.modulus
                k_y -= q
        elif request.guard == "threshold":
            # Fully fused threshold pass on the codebook-gather path:
            # draw_add folds sign + add into the gather buffer and the
            # clamp clips that same buffer in place — one output array
            # end to end, no elementwise round-trips (ROADMAP fast-path
            # note).
            k_y = self._noised(request, codes)
            k_y = self._clamp(k_y, *self._window(request))
        elif request.guard == "resample":
            k_y = self._resample(request, codes, rounds)
        else:
            raise ConfigurationError(f"unknown guard kind {request.guard!r}")

        # charge + cache
        policy = accounting if accounting is not None else NoCharge()
        try:
            charge = policy.charge(k_y)
        except BudgetExhaustedError:
            self._emit_for(request, n, rounds, exhausted=True)
            raise

        # decode + emit
        values = charge.codes if request.decode is None else request.decode(charge.codes)
        event = self._emit_for(request, n, rounds, charge=charge)
        return ReleaseOutcome(
            values=np.asarray(values),
            codes=charge.codes,
            rounds=rounds,
            charged=charge.charged,
            cache_hits=charge.cache_hits,
            budget_remaining=charge.budget_remaining,
            event=event,
        )

    def charge_and_emit(
        self,
        *,
        mechanism: str,
        epsilon: float,
        claimed_loss: float,
        guard: str,
        k_fresh: int,
        accounting,
        draws: int,
        cycles: Optional[int] = None,
        channel: Optional[str] = None,
        kernel: Optional[str] = None,
    ) -> ChargeOutcome:
        """Charge+emit for a release whose draw/guard ran externally.

        The cycle-level DP-Box FSM executes its own draw and guard (it
        models them cycle by cycle) but still routes Start Noising's
        budget charge and event emission through the pipeline, so
        hardware noisings land in the same trace as mechanism releases —
        with their cycle latency attached.
        """
        codes = np.asarray([k_fresh], dtype=np.int64)
        try:
            charge = accounting.charge(codes)
        except BudgetExhaustedError:
            self.emit(
                ReleaseEvent(
                    seq=self._next_seq(),
                    mechanism=mechanism,
                    epsilon=epsilon,
                    claimed_loss=claimed_loss,
                    guard=guard,
                    batch=1,
                    draws=int(draws),
                    resample_rounds=int(draws) - 1,
                    max_rounds_used=int(draws),
                    exhausted=True,
                    channel=channel,
                    cycles=cycles,
                    kernel=kernel,
                )
            )
            raise
        self.emit(
            ReleaseEvent(
                seq=self._next_seq(),
                mechanism=mechanism,
                epsilon=epsilon,
                claimed_loss=claimed_loss,
                guard=guard,
                batch=1,
                draws=int(draws),
                resample_rounds=int(draws) - 1,
                max_rounds_used=int(draws),
                charged=float(charge.charged.sum()),
                cache_hits=int(charge.cache_hits.sum()),
                budget_remaining=charge.budget_remaining,
                channel=channel,
                cycles=cycles,
                kernel=kernel,
            )
        )
        return charge

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _noised(request: ReleaseRequest, codes: np.ndarray) -> np.ndarray:
        """``codes + noise`` through the fused draw when one is wired.

        ``draw_add`` is contractually bit-identical to ``codes + draw(n)``
        with identical source consumption, so the guards can treat the
        two interchangeably.
        """
        if request.draw_add is not None:
            return request.draw_add(codes)
        return codes + request.draw(codes.shape[0])

    @staticmethod
    def _window(request: ReleaseRequest) -> Tuple[float, float]:
        if request.window is None:
            raise ConfigurationError(
                f"guard {request.guard!r} requires a window"
            )
        return request.window

    @staticmethod
    def _clamp(k_y: np.ndarray, lo, hi) -> np.ndarray:
        """Clamp ``k_y`` into ``[lo, hi]`` in place where dtypes allow.

        Integer codes with an integral window (every fixed-point arm)
        clip without a temporary; a fractional window over integer codes
        falls back to the upcasting out-of-place clip, preserving the
        pre-fusion semantics.
        """
        if k_y.dtype.kind in "iu":
            ilo, ihi = int(lo), int(hi)
            if ilo != lo or ihi != hi:
                return np.clip(k_y, lo, hi)
            lo, hi = ilo, ihi
        np.clip(k_y, lo, hi, out=k_y)
        return k_y

    @staticmethod
    def _out_of_window(k: np.ndarray, lo, hi, span) -> np.ndarray:
        """Membership test ``(k < lo) | (k > hi)`` as one fused pass.

        For integer codes the two comparisons and the ``|`` fuse into a
        single unsigned range check: ``uint(k - lo) > hi - lo`` is true
        exactly when ``k`` is outside ``[lo, hi]`` (a negative ``k - lo``
        wraps to a huge unsigned value).  The reinterpretation is a free
        ``view`` when the difference is already int64 — two's-complement
        bit patterns *are* the wrapped unsigned values — and only narrower
        dtypes pay an ``astype`` widening.  Float codes keep the two-pass
        comparison; the wrap trick has no float analogue.
        """
        if k.dtype.kind in "iu" and span is not None:
            diff = k - lo
            if diff.dtype.itemsize == 8:
                return diff.view(np.uint64) > span
            return diff.astype(np.uint64) > span
        return (k < lo) | (k > hi)

    def _resample(
        self, request: ReleaseRequest, codes: np.ndarray, rounds: np.ndarray
    ) -> np.ndarray:
        """Vectorized redraw-until-in-window; mutates ``rounds`` in place."""
        lo, hi = self._window(request)
        # The fused unsigned range check needs an exact integer span;
        # fractional windows disable it (span=None -> two-pass compare).
        span = None
        if int(lo) == lo and int(hi) == hi:
            span = np.uint64(int(hi) - int(lo))
            lo = int(lo)
            hi = int(hi)
        n = codes.shape[0]
        k_y = self._noised(request, codes)
        # dplint note: the redraw loop below is the paper's Fig. 12
        # timing channel, reproduced deliberately; its round counts are
        # surfaced on every ReleaseEvent so attacks/timing.py can measure
        # it from the trace instead of re-instrumenting mechanisms.
        pending = np.flatnonzero(self._out_of_window(k_y, lo, hi, span))
        for _ in range(request.max_rounds - 1):
            if pending.size == 0:
                break
            # Per-round fused redraw: draw_add writes sign+add into the
            # gather buffer, and the accept mask is the one-pass unsigned
            # range check — no ±1 vector, no two-pass compare.
            redrawn = self._noised(request, codes[pending])
            k_y[pending] = redrawn
            rounds[pending] += 1
            pending = pending[self._out_of_window(redrawn, lo, hi, span)]
        if pending.size:
            self._emit_for(request, n, rounds, exhausted=True)
            raise ResampleExhaustedError(
                f"{request.mechanism}: {pending.size} of {n} samples still "
                f"out of window after {request.max_rounds} draws; the guard "
                f"window is almost certainly mis-calibrated"
            )
        return k_y

    def _emit_for(
        self,
        request: ReleaseRequest,
        n: int,
        rounds: np.ndarray,
        charge: Optional[ChargeOutcome] = None,
        exhausted: bool = False,
    ) -> ReleaseEvent:
        draws = int(rounds.sum())
        event = ReleaseEvent(
            seq=self._next_seq(),
            mechanism=request.mechanism,
            epsilon=request.epsilon,
            claimed_loss=request.claimed_loss,
            guard=request.guard,
            batch=n,
            draws=draws,
            resample_rounds=draws - n,
            max_rounds_used=int(rounds.max()) if n else 0,
            exhausted=exhausted,
            charged=float(charge.charged.sum()) if charge is not None else 0.0,
            cache_hits=int(charge.cache_hits.sum()) if charge is not None else 0,
            budget_remaining=(
                charge.budget_remaining if charge is not None else None
            ),
            channel=request.channel,
            kernel=request.kernel,
        )
        self.emit(event)
        return event


# ---------------------------------------------------------------------
# Process-wide default pipeline.  Mechanisms constructed without an
# explicit pipeline share this one, so "just privatize something" is
# still observable (counters + a small ring) without any setup.
_default: Optional[ReleasePipeline] = None


def default_pipeline() -> ReleasePipeline:
    """The shared process-wide pipeline (created on first use)."""
    global _default
    if _default is None:
        _default = ReleasePipeline(sinks=[CounterSink()])
    return _default


def set_default_pipeline(pipeline: ReleasePipeline) -> ReleasePipeline:
    """Replace the process-wide default; returns the previous one."""
    global _default
    previous = default_pipeline()
    _default = pipeline
    return previous
