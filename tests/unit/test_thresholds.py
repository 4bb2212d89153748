"""Threshold formulas (eqs. 13/15) and exact calibration."""

import math

import pytest

from repro.errors import CalibrationError, ConfigurationError
from repro.privacy import (
    calibrate_threshold_exact,
    exact_worst_loss_at_threshold,
    input_grid_codes,
    paper_resampling_threshold,
    paper_thresholding_threshold,
)
from repro.rng import FxpDatapath, FxpLaplaceRng

D, EPS, BU = 10.0, 0.5, 17
DELTA = 10 / 32


@pytest.fixture(scope="module")
def noise():
    datapath = FxpDatapath(input_bits=BU, output_bits=14, delta=DELTA)
    return FxpLaplaceRng(datapath, D / EPS).exact_pmf()


@pytest.fixture(scope="module")
def codes():
    return input_grid_codes(0.0, D, DELTA, n_points=5)


class TestPaperResampling:
    def test_positive_and_on_grid(self):
        t = paper_resampling_threshold(D, DELTA, EPS, BU, n=2.0)
        assert t > 0
        assert (t / DELTA) == pytest.approx(round(t / DELTA))

    def test_monotone_in_n(self):
        t2 = paper_resampling_threshold(D, DELTA, EPS, BU, n=2.0)
        t3 = paper_resampling_threshold(D, DELTA, EPS, BU, n=3.0)
        assert t3 > t2

    def test_monotone_in_bu(self):
        t_lo = paper_resampling_threshold(D, DELTA, EPS, 14, n=2.0)
        t_hi = paper_resampling_threshold(D, DELTA, EPS, 20, n=2.0)
        assert t_hi > t_lo

    def test_below_rng_support(self):
        # The threshold must be realizable: below L = λ·Bu·ln2.
        t = paper_resampling_threshold(D, DELTA, EPS, BU, n=2.0)
        assert t < (D / EPS) * BU * math.log(2)

    def test_formula_bounds_exact_loss(self, noise, codes):
        # The paper's closed form must be confirmed by the exact analyzer.
        for n in (1.5, 2.0, 3.0):
            t = paper_resampling_threshold(D, DELTA, EPS, BU, n=n)
            loss = exact_worst_loss_at_threshold(noise, codes, t, "resample")
            assert loss <= n * EPS + 1e-9

    def test_rejects_n_at_most_one(self):
        with pytest.raises(CalibrationError):
            paper_resampling_threshold(D, DELTA, EPS, BU, n=1.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            paper_resampling_threshold(-1.0, DELTA, EPS, BU, n=2.0)


class TestPaperThresholding:
    def test_positive(self):
        assert paper_thresholding_threshold(D, DELTA, EPS, BU, n=2.0) > 0

    def test_monotone_in_n(self):
        t2 = paper_thresholding_threshold(D, DELTA, EPS, BU, n=2.0)
        t3 = paper_thresholding_threshold(D, DELTA, EPS, BU, n=3.0)
        assert t3 > t2

    def test_larger_than_resampling_threshold(self):
        # eq. 15 lacks the ln(2 sinh(a/2)) term, so it reaches further out.
        t_th = paper_thresholding_threshold(D, DELTA, EPS, BU, n=2.0)
        t_rs = paper_resampling_threshold(D, DELTA, EPS, BU, n=2.0)
        assert t_th > t_rs

    def test_bounds_boundary_atom_ratio(self, noise):
        # What eq. 15 actually guarantees: the tail-mass ratio a distance
        # d apart is bounded by exp(n·eps).
        n = 2.0
        t = paper_thresholding_threshold(D, DELTA, EPS, BU, n=n)
        k = int(t / DELTA)
        d_codes = int(round(D / DELTA))
        upper = noise.tail_ge(k)
        lower = noise.tail_ge(k + d_codes)
        assert lower > 0
        assert math.log(upper / lower) <= n * EPS + 1e-9

    def test_known_delta_interior_holes(self, noise, codes):
        # DESIGN.md §5: eq. 15 does not constrain the window interior; at
        # this Bu the exact analyzer finds holes below n_th2 and reports
        # infinite loss.  This documents the delta from the paper.
        t = paper_thresholding_threshold(D, DELTA, EPS, BU, n=2.0)
        loss = exact_worst_loss_at_threshold(noise, codes, t, "threshold")
        assert loss == math.inf

    def test_rejects_n_at_most_one(self):
        with pytest.raises(CalibrationError):
            paper_thresholding_threshold(D, DELTA, EPS, BU, n=1.0)


class TestExactCalibration:
    @pytest.mark.parametrize("mode", ["resample", "threshold"])
    def test_calibrated_threshold_meets_target(self, noise, codes, mode):
        t = calibrate_threshold_exact(noise, codes, 2 * EPS, mode=mode)
        assert exact_worst_loss_at_threshold(noise, codes, t, mode) <= 2 * EPS + 1e-9

    @pytest.mark.parametrize("mode", ["resample", "threshold"])
    def test_calibrated_threshold_is_maximal(self, noise, codes, mode):
        t = calibrate_threshold_exact(noise, codes, 2 * EPS, mode=mode)
        k = int(round(t / noise.step))
        bigger = (k + 1) * noise.step
        assert (
            exact_worst_loss_at_threshold(noise, codes, bigger, mode) > 2 * EPS + 1e-9
        )

    def test_exact_beats_paper_formula_for_resampling(self, noise, codes):
        # Exact calibration can only push the threshold further out than
        # the conservative closed form.
        t_paper = paper_resampling_threshold(D, DELTA, EPS, BU, n=2.0)
        t_exact = calibrate_threshold_exact(noise, codes, 2 * EPS, mode="resample")
        assert t_exact >= t_paper

    def test_target_too_small_raises(self, noise, codes):
        with pytest.raises(CalibrationError):
            # Quantized mechanisms cannot achieve arbitrarily small loss.
            calibrate_threshold_exact(noise, codes, 1e-6, mode="resample")

    def test_invalid_mode(self, noise, codes):
        with pytest.raises(ConfigurationError):
            calibrate_threshold_exact(noise, codes, 1.0, mode="clamp")

    def test_hint_does_not_change_answer(self, noise, codes):
        a = calibrate_threshold_exact(noise, codes, 2 * EPS, mode="resample", k_hint=0)
        b = calibrate_threshold_exact(
            noise, codes, 2 * EPS, mode="resample", k_hint=700
        )
        assert a == b
