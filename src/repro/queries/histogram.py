"""Histogram query: bucketed frequency estimation over a sensor range.

The natural generalization of the paper's counting query: split the
declared range into ``n_buckets`` and estimate each bucket's occupancy.
Two routes are provided:

* :class:`HistogramQuery` — the paper-style naive route: bucket the
  *noised numeric values*.  Laplace noise smears mass across buckets, so
  narrow buckets lose badly.
* :func:`histogram_via_krr` — the categorical route: each device
  bucketizes its own raw value and reports the bucket through the k-ary
  randomized-response oracle
  (:class:`~repro.mechanisms.oracles.KaryRandomizedResponse`, released
  through the pipeline on dyadic thresholds), which the analyst debiases
  with the realized channel.  For histogram-shaped questions this is the
  standard and far more accurate construction at the same ε — the test
  suite quantifies the gap.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..mechanisms.base import SensorSpec
from ..mechanisms.oracles import make_oracle
from ..rng.urng import UniformCodeSource
from .base import Query
from .frequency import estimate_frequencies

__all__ = ["HistogramQuery", "bucketize", "histogram_via_krr"]


def bucketize(values: np.ndarray, sensor: SensorSpec, n_buckets: int) -> np.ndarray:
    """Map values to bucket indices ``0..n_buckets-1`` over the range."""
    if n_buckets < 2:
        raise ConfigurationError("need at least two buckets")
    values = np.asarray(values, dtype=float)
    width = sensor.d / n_buckets
    idx = np.floor((values - sensor.m) / width).astype(np.int64)
    return np.clip(idx, 0, n_buckets - 1)


class HistogramQuery(Query):
    """Bucket-occupancy *fractions* of a data vector.

    ``evaluate`` returns the ℓ1 norm is not meaningful as a scalar, so the
    Query interface's scalar is the occupancy of ``focus_bucket``; use
    :meth:`frequencies` for the full vector.
    """

    name = "histogram"

    def __init__(self, sensor: SensorSpec, n_buckets: int = 8, focus_bucket: int = 0):
        if not 0 <= focus_bucket < n_buckets:
            raise ConfigurationError("focus_bucket out of range")
        self.sensor = sensor
        self.n_buckets = n_buckets
        self.focus_bucket = focus_bucket

    def frequencies(self, data: np.ndarray) -> np.ndarray:
        """Occupancy fraction per bucket (clipping data into the range)."""
        data = self._check(data)
        idx = bucketize(self.sensor.clip(data), self.sensor, self.n_buckets)
        counts = np.bincount(idx, minlength=self.n_buckets)
        return counts / counts.sum()

    def evaluate(self, data: np.ndarray) -> float:
        return float(self.frequencies(data)[self.focus_bucket])

    def l1_error(self, noisy: np.ndarray, raw: np.ndarray) -> float:
        """Total-variation-style error between the two histograms."""
        return float(np.abs(self.frequencies(noisy) - self.frequencies(raw)).sum())


def histogram_via_krr(
    raw: np.ndarray,
    sensor: SensorSpec,
    n_buckets: int,
    epsilon: float,
    source: Optional[UniformCodeSource] = None,
) -> np.ndarray:
    """LDP histogram through the categorical channel (debiased).

    Each record is bucketized *locally* and the bucket index passes
    through the ε-LDP k-RR oracle; the return value is the debiased
    frequency vector, clipped and renormalized onto the simplex.
    """
    idx = bucketize(np.asarray(raw, dtype=float), sensor, n_buckets)
    oracle = make_oracle("krr", n_buckets, epsilon, source=source)
    return estimate_frequencies(oracle, oracle.report(idx)).normalized()
