"""Analysis helpers: histograms, empirical loss, report rendering."""

import numpy as np
import pytest
from scipy.stats import beta

from repro.analysis import (
    GridHistogram,
    estimate_pairwise_loss,
    overlap_fraction,
    render_series,
    render_table,
    tail_region,
)
from repro.errors import ConfigurationError


class TestGridHistogram:
    def test_from_samples(self):
        h = GridHistogram.from_samples(np.array([0.0, 0.5, 0.5, 1.0]), step=0.5)
        assert h.min_k == 0
        np.testing.assert_array_equal(h.counts, [1, 2, 1])

    def test_values(self):
        h = GridHistogram.from_samples(np.array([1.0, 2.0]), step=1.0)
        np.testing.assert_allclose(h.values(), [1.0, 2.0])

    def test_count_at_outside(self):
        h = GridHistogram.from_samples(np.array([0.0]), step=1.0)
        assert h.count_at(99) == 0

    def test_to_pmf_total(self):
        h = GridHistogram.from_samples(np.array([0.0, 1.0, 1.0]), step=1.0)
        assert h.to_pmf().total == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            GridHistogram.from_samples(np.array([]), step=1.0)


class TestTailRegion:
    def test_upper_tail_contains_small_mass(self):
        rng = np.random.default_rng(0)
        h = GridHistogram.from_samples(rng.normal(0, 10, 20000), step=1.0)
        lo, hi = tail_region(h, tail_fraction=0.05, side="upper")
        mass = sum(h.count_at(k) for k in range(lo, hi + 1)) / h.counts.sum()
        assert mass <= 0.05 + 0.01

    def test_lower_tail(self):
        rng = np.random.default_rng(1)
        h = GridHistogram.from_samples(rng.normal(0, 10, 20000), step=1.0)
        lo, hi = tail_region(h, tail_fraction=0.05, side="lower")
        assert lo == h.min_k and hi < 0

    def test_validation(self):
        h = GridHistogram.from_samples(np.array([0.0]), step=1.0)
        with pytest.raises(ConfigurationError):
            tail_region(h, tail_fraction=1.5)
        with pytest.raises(ConfigurationError):
            tail_region(h, side="middle")


class TestOverlap:
    def test_identical_full_overlap(self):
        h = GridHistogram.from_samples(np.array([0.0, 1.0, 2.0]), step=1.0)
        assert overlap_fraction(h, h) == 1.0

    def test_disjoint_zero_overlap(self):
        a = GridHistogram.from_samples(np.array([0.0]), step=1.0)
        b = GridHistogram.from_samples(np.array([5.0]), step=1.0)
        assert overlap_fraction(a, b) == 0.0

    def test_windowed(self):
        a = GridHistogram.from_samples(np.array([0.0, 5.0]), step=1.0)
        b = GridHistogram.from_samples(np.array([0.0, 9.0]), step=1.0)
        assert overlap_fraction(a, b, window=(0, 0)) == 1.0


def _output_counts(mechanism, x1, x2, n):
    """Per-output-code sample counts of ``mechanism`` at ``x1`` and ``x2``."""
    k1 = np.rint(mechanism.privatize(np.full(n, x1)) / mechanism.delta)
    k2 = np.rint(mechanism.privatize(np.full(n, x2)) / mechanism.delta)
    lo = int(min(k1.min(), k2.min()))
    size = int(max(k1.max(), k2.max())) - lo + 1
    c1 = np.bincount(k1.astype(np.int64) - lo, minlength=size)
    c2 = np.bincount(k2.astype(np.int64) - lo, minlength=size)
    return c1, c2


def _loss_lower_limit(c1, c2, n, alpha):
    """A lower confidence limit on the largest pointwise loss
    ``|ln(p1/p2)|`` over the bins of two ``n``-sample histograms.

    Each bin's ``p1``/``p2`` gets a one-sided Clopper-Pearson lower and
    upper limit at level ``alpha / (4 * bins)``; a bin's loss is at
    least ``ln(lower1 / upper2)`` (and symmetrically) unless one of its
    four limits misses.  By the union bound the returned value exceeds
    the true largest loss with probability at most ``alpha``.  Empty
    bins are covered too: their lower limit is 0, their upper limit
    about ``ln(4 * bins / alpha) / n``.
    """
    a = alpha / (4 * c1.size)

    def limits(c):
        lower = np.where(c > 0, beta.ppf(a, c, n - c + 1), 0.0)
        upper = np.where(c < n, beta.isf(a, c + 1, n - c), 1.0)
        return lower, upper

    lo1, hi1 = limits(c1)
    lo2, hi2 = limits(c2)
    with np.errstate(divide="ignore"):
        return float(max(np.log(lo1 / hi2).max(), np.log(lo2 / hi1).max()))


class TestEmpiricalLoss:
    def test_guarded_mechanism_bounded(self, small_thresholding):
        """The exact analyzer certifies the claim, and a million samples
        per input give no significant evidence against it.

        Calibration: a sampler whose pointwise loss is within its claim
        fails the sampled check with probability at most 1e-6 per run
        (see :func:`_loss_lower_limit`; Clopper-Pearson limits are
        conservative, so the true rate is lower).  Power: at 10^6
        samples the limit reaches ~0.45 against an exact loss of 0.92
        between 0 and 8, so a sampler that leaks well past its 1.0
        claim at any well-populated output fails.
        """
        mech = small_thresholding
        bound = mech.claimed_loss_bound
        assert mech.ldp_report().worst_loss <= bound
        n = 1_000_000
        c1, c2 = _output_counts(mech, 0.0, 8.0, n)
        seen = _loss_lower_limit(c1, c2, n, alpha=1e-6)
        assert seen <= bound
        # Not vacuous: the same limit exposes a claim of a quarter of
        # the bound, which the edge atoms alone (loss ~0.5) exceed.
        assert seen > bound / 4

    def test_baseline_violation_detected(self, small_baseline):
        est = estimate_pairwise_loss(
            small_baseline, 0.0, 8.0, small_baseline.delta, n_samples=60000
        )
        assert est.suggests_violation

    def test_validation(self, small_baseline):
        with pytest.raises(ConfigurationError):
            estimate_pairwise_loss(small_baseline, 0.0, 8.0, 0.1, n_samples=10)


class TestReports:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_row_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            render_table(["a"], [[1, 2]])

    def test_float_formatting(self):
        text = render_table(["x"], [[0.123456789]])
        assert "0.1235" in text

    def test_render_series(self):
        text = render_series("n", [1, 2], [("y", [0.1, 0.2]), ("z", [3, 4])])
        assert "n" in text and "y" in text and "z" in text
        assert len(text.splitlines()) == 4
