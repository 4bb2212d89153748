"""Privacy-loss segmentation of the output range (paper Fig. 8, Alg. 1).

The budget-control algorithm charges a loss that depends on where the
realized noised output lands.  This module derives the segment table
exactly: given the mechanism's conditional-distribution family, it finds,
for each requested loss level ``l_i·ε``, the furthest output offset
(distance beyond the sensor range) whose exact worst-case loss still
stays below the level.

The resulting :class:`SegmentTable` is what the DP-Box budget engine
stores in its (hardware) lookup ROM.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..privacy.loss import DiscreteMechanismFamily

__all__ = ["Segment", "SegmentTable", "build_segment_table"]


@dataclasses.dataclass(frozen=True)
class Segment:
    """Outputs with offset ``<= max_offset_codes`` charge ``loss``.

    ``max_offset_codes`` is the distance (in grid steps) of the output
    beyond the sensor range ``[m, M]``; offset 0 means inside the range.
    """

    max_offset_codes: int
    loss: float


@dataclasses.dataclass(frozen=True)
class SegmentTable:
    """Ascending segments covering the whole guarded output window."""

    k_m: int
    k_M: int
    segments: Tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("segment table cannot be empty")
        offs = [s.max_offset_codes for s in self.segments]
        if offs != sorted(offs) or len(set(offs)) != len(offs):
            raise ConfigurationError("segment offsets must be strictly ascending")

    def offset_of(self, k_y: int) -> int:
        """Distance of an output code beyond the sensor range (0 inside)."""
        if k_y > self.k_M:
            return k_y - self.k_M
        if k_y < self.k_m:
            return self.k_m - k_y
        return 0

    def losses_for_outputs(self, codes: np.ndarray) -> np.ndarray:
        """Per-query loss charged for each realized output code.

        One ``searchsorted`` of the codes' offsets (see :meth:`offset_of`)
        over the segment boundaries.
        """
        codes = np.asarray(codes, dtype=np.int64)
        offsets = np.where(
            codes > self.k_M,
            codes - self.k_M,
            np.where(codes < self.k_m, self.k_m - codes, 0),
        )
        bounds, losses = self._lookup
        idx = np.searchsorted(bounds, offsets, side="left")
        try:
            return losses[idx]
        except IndexError:
            bad = int(offsets[idx >= bounds.shape[0]].max())
            raise ConfigurationError(
                f"output offset {bad} beyond the last segment "
                f"({self.segments[-1].max_offset_codes}); guard window mismatch"
            ) from None

    @functools.cached_property
    def _lookup(self) -> Tuple[np.ndarray, np.ndarray]:
        """Segment bounds and losses as arrays, built on first lookup."""
        bounds = np.array([s.max_offset_codes for s in self.segments], dtype=np.int64)
        return bounds, np.array([s.loss for s in self.segments], dtype=float)

    @property
    def base_loss(self) -> float:
        """The in-range charge ε_RNG (the first segment's loss)."""
        return self.segments[0].loss

    def describe(self, delta: float) -> List[str]:
        """Fig.-8-style rows: offset interval (real units) → loss."""
        rows = []
        prev = -1
        for seg in self.segments:
            lo = (prev + 1) * delta
            hi = seg.max_offset_codes * delta
            rows.append(f"offset ({lo:.4g}, {hi:.4g}] beyond range -> loss {seg.loss:.4g}")
            prev = seg.max_offset_codes
        return rows


def build_segment_table(
    family: DiscreteMechanismFamily,
    epsilon: float,
    levels: Sequence[float],
) -> SegmentTable:
    """Derive the exact segment table from a mechanism family.

    Parameters
    ----------
    family:
        The guarded mechanism's conditional distributions (the output
        window must be the guard window).
    epsilon:
        Base privacy parameter; levels are multiples of it.
    levels:
        Ascending loss levels, e.g. ``(1.0, 1.5, 2.0)``.  The last level
        must cover the whole window (i.e. be >= the calibrated loss
        multiple), otherwise construction fails.

    Returns
    -------
    SegmentTable
        First segment: the in-range region, charged its exact worst loss
        (ε_RNG, capped by ``levels[0]·ε``).  Subsequent segments: the
        largest offsets achieving each level.
    """
    levels = [float(l) for l in levels]
    if levels != sorted(levels) or not levels:
        raise ConfigurationError("levels must be a nonempty ascending sequence")
    profile = family.loss_profile()
    codes = family.output_codes
    k_m = int(family.input_codes.min())
    k_M = int(family.input_codes.max())
    # Worst loss at each offset (symmetric: both sides pooled).
    offsets = np.where(
        codes > k_M, codes - k_M, np.where(codes < k_m, k_m - codes, 0)
    )
    max_off = int(offsets.max())
    worst_at_offset = np.full(max_off + 1, -np.inf)
    for off in range(max_off + 1):
        vals = profile[offsets == off]
        vals = vals[~np.isnan(vals)]
        if vals.size:
            worst_at_offset[off] = vals.max()
    # Cumulative worst loss up to each offset (what a segment charges).
    cum_worst = np.maximum.accumulate(worst_at_offset)

    # The in-range segment is always charged its exact worst loss ε_RNG
    # (slightly above ε due to quantization); levels below it are skipped.
    base_loss = float(cum_worst[0])
    segments = [Segment(max_offset_codes=0, loss=base_loss)]
    for level in levels:
        # dplint: allow[DPL008] -- float-comparison guard band on the
        # level bound, not budget arithmetic: the 1e-12 only absorbs
        # accumulation error in cum_worst so a level exactly at k·ε is
        # not dropped; the charged loss itself comes from cum_worst.
        bound = level * epsilon + 1e-12
        ok = np.flatnonzero(cum_worst <= bound)
        if ok.size == 0:
            continue
        off = int(ok[-1])
        if off <= segments[-1].max_offset_codes:
            continue  # level adds no new reach
        segments.append(Segment(max_offset_codes=off, loss=float(cum_worst[off])))
    if segments[-1].max_offset_codes < max_off:
        raise ConfigurationError(
            "segment levels do not cover the guard window; the last level "
            "must be >= the guard's calibrated loss multiple"
        )
    return SegmentTable(k_m=k_m, k_M=k_M, segments=tuple(segments))
