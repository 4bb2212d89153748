"""Batch moments: a batch reduced elsewhere merges like the batch itself.

A streaming fleet's shard workers run :func:`batch_moments` on their own
privatized batch and ship one float64 row; the server merges the row
with :meth:`~repro.aggregation.AggregationServer.submit_moments`.  That
is only a transport change if the merged state equals, bit for bit, the
state :meth:`submit_array` folds from the values — which is what these
tests pin, along with the row checks ``submit_moments`` fails closed on.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggregation import AggregationServer
from repro.aggregation.server import _EpochMoments, batch_moments
from repro.errors import ConfigurationError


def exact(snapshot):
    """A snapshot with every float as its hex string: equal iff bit-equal."""
    def conv(x):
        if isinstance(x, dict):
            return {k: conv(v) for k, v in x.items()}
        if isinstance(x, float):
            return float(x).hex()
        return x

    return conv(snapshot)


def split(values, cuts):
    """``values`` cut at the (sorted, possibly repeated) positions."""
    bounds = [0, *sorted(c % (len(values) + 1) for c in cuts), len(values)]
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class ReferenceMoments(_EpochMoments):
    """The one-pass fold over the values, written out independently of
    :func:`batch_moments` and ``merge``: what both must reproduce."""

    def fold(self, values):
        k = int(values.size)
        if k == 0:
            return
        batch_mean = float(values.mean())
        batch_m2 = float(np.square(values - batch_mean).sum())
        n = self.n + k
        delta = batch_mean - self.mean
        self.mean += delta * (k / n)
        self.m2 += batch_m2 + delta * delta * (self.n * k / n)
        self.n = n
        self.lo = min(self.lo, float(values.min()))
        self.hi = max(self.hi, float(values.max()))
        for t in self.count_above:
            self.count_above[t] += int(np.count_nonzero(values > t))


FLOATS = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestMergeEqualsFold:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        values=st.lists(FLOATS, min_size=1, max_size=200),
        cuts=st.lists(st.integers(0, 400), max_size=12),
        thresholds=st.lists(FLOATS, max_size=3),
    )
    @example(values=[3.5], cuts=[], thresholds=[3.5])
    @example(values=[1.0, -2.0, 7.25], cuts=[1, 2], thresholds=[0.0, 1.0])
    def test_merged_rows_equal_folded_batches(self, values, cuts, thresholds):
        batches = split(np.asarray(values, dtype=np.float64), cuts)
        reference = ReferenceMoments(thresholds)
        folded, merged = _EpochMoments(thresholds), _EpochMoments(thresholds)
        for batch in batches:
            reference.fold(batch)
            folded.fold(batch)
            # Through a float64 row, as a shard's moments region holds it.
            merged.merge(
                np.array(batch_moments(batch, merged.count_above), dtype=np.float64)
            )
        assert exact(merged.snapshot()) == exact(reference.snapshot())
        assert exact(folded.snapshot()) == exact(reference.snapshot())

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        values=st.lists(FLOATS, min_size=1, max_size=120),
        cuts=st.lists(st.integers(0, 240), max_size=6),
    )
    def test_submit_moments_equals_submit_array(self, values, cuts):
        thresholds = (0.0, 1e3, 0.0)  # the duplicate is registered once
        array = AggregationServer(streaming=True, count_thresholds=thresholds)
        moments = AggregationServer(streaming=True, count_thresholds=thresholds)
        for epoch, batch in enumerate(split(np.asarray(values), cuts)):
            array.submit_array(epoch % 2, batch, 0.5)
            moments.submit_moments(
                epoch % 2, batch_moments(batch, moments.count_thresholds), 0.5
            )
        assert exact(moments.snapshot()) == exact(array.snapshot())

    def test_empty_batch_is_the_identity(self):
        row = batch_moments(np.zeros(0), (1.0, 2.0))
        assert row == (0, 0.0, 0.0, math.inf, -math.inf, 0, 0)
        moments = _EpochMoments((1.0, 2.0))
        moments.merge(row)
        assert exact(moments.snapshot()) == exact(_EpochMoments((1.0, 2.0)).snapshot())


class TestSubmitMomentsFailsClosed:
    THRESHOLDS = (2.0, 5.0)

    def server(self):
        server = AggregationServer(streaming=True, count_thresholds=self.THRESHOLDS)
        server.submit_array(0, np.array([1.0, 3.0, 6.0]), 0.5)
        return server

    def row(self, **fields):
        base = dict(n=3.0, mean=2.0, m2=1.5, lo=1.0, hi=3.0, above=(1.0, 0.0))
        base.update(fields)
        return (base["n"], base["mean"], base["m2"], base["lo"], base["hi"],
                *base["above"])

    def test_a_valid_row_folds(self):
        server = self.server()
        server.submit_moments(0, self.row(), 0.5)
        assert server.moments(0)["count"] == 6
        assert server.moments(0)["count_above"] == {2.0: 3, 5.0: 1}

    @pytest.mark.parametrize(
        "stats,loss",
        [
            pytest.param(dict(), float("nan"), id="nan-loss"),
            pytest.param(dict(), -0.1, id="negative-loss"),
            pytest.param(dict(n=2.5), 0.5, id="fractional-n"),
            pytest.param(dict(n=-1.0), 0.5, id="negative-n"),
            pytest.param(dict(n=float("nan")), 0.5, id="nan-n"),
            pytest.param(dict(n=float("inf")), 0.5, id="infinite-n"),
            pytest.param(dict(m2=-1e-9), 0.5, id="negative-m2"),
            pytest.param(dict(m2=float("nan")), 0.5, id="nan-m2"),
            pytest.param(dict(mean=float("nan")), 0.5, id="nan-mean"),
            pytest.param(dict(lo=3.5), 0.5, id="min-above-max"),
            pytest.param(dict(above=(4.0, 0.0)), 0.5, id="count-above-n"),
            pytest.param(dict(above=(-1.0, 0.0)), 0.5, id="negative-count"),
            pytest.param(dict(above=(0.5, 0.0)), 0.5, id="fractional-count"),
            pytest.param(dict(above=(1.0,)), 0.5, id="row-too-short"),
            pytest.param(dict(above=(1.0, 0.0, 0.0)), 0.5, id="row-too-long"),
        ],
    )
    def test_bad_rows_raise_and_change_nothing(self, stats, loss):
        server = self.server()
        before = exact(server.snapshot())
        with pytest.raises(ConfigurationError):
            server.submit_moments(0, self.row(**stats), loss)
        with pytest.raises(ConfigurationError):
            server.submit_moments(7, self.row(**stats), loss)  # a new epoch
        assert exact(server.snapshot()) == before

    def test_retaining_server_refuses(self):
        server = AggregationServer(count_thresholds=self.THRESHOLDS)
        with pytest.raises(ConfigurationError):
            server.submit_moments(0, self.row(), 0.5)
        assert server.epochs == []
