"""Frequency-oracle arms: calibration exactness, channels, unbiasedness."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mechanisms import (
    KaryRandomizedResponse,
    OptimizedLocalHashing,
    OptimizedUnaryEncoding,
    make_oracle,
)
from repro.mechanisms.oracles import (
    _HASH_PRIME,
    _hash_buckets,
    _krr_offsets,
    _user_hash_params,
    calibrate_krr_thresholds,
    calibrate_oue_threshold,
    optimal_hash_range,
)
from repro.queries import estimate_frequencies, frequency_variance
from repro.rng import SplitStreamSource
from repro.runtime import ReleasePipeline, ReleaseRequest


# ---------------------------------------------------------------------
# Calibration: dyadic thresholds realize the claimed channel exactly
# ---------------------------------------------------------------------
class TestCalibration:
    @pytest.mark.parametrize("eps", [0.3, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("bits", [12, 16, 20])
    def test_oue_threshold_realizes_at_most_eps(self, eps, bits):
        t = calibrate_oue_threshold(eps, bits)
        total = 1 << bits
        realized = math.log((total - t) / t)
        assert realized <= eps + 1e-12
        # Tightness: one step looser would exceed the target.
        if t > 1:
            assert math.log((total - (t - 1)) / (t - 1)) > eps

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("g", [2, 3, 5, 16, 64])
    def test_krr_thresholds_exactly_symmetric(self, eps, g):
        t, c = calibrate_krr_thresholds(eps, g, 16)
        total = 1 << 16
        # The nonzero-offset codes split into g-1 EQUAL blocks.
        assert (total - t) % (g - 1) == 0
        assert (total - t) // (g - 1) == c
        # The channel's rows sum to 1: the code mass is fully assigned.
        assert t + (g - 1) * c == total
        assert math.log(t / c) <= eps + 1e-9
        assert t > c >= 1

    def test_krr_rejects_unresolvable_domain(self):
        with pytest.raises(ConfigurationError):
            calibrate_krr_thresholds(1.0, 1 << 12, 10)

    def test_oue_rejects_tiny_epsilon_on_coarse_grid(self):
        with pytest.raises(ConfigurationError):
            calibrate_oue_threshold(1e-6, 2)

    def test_positive_epsilon_required(self):
        for fn in (
            lambda: calibrate_oue_threshold(0.0, 16),
            lambda: calibrate_krr_thresholds(-1.0, 4, 16),
            lambda: optimal_hash_range(0.0),
        ):
            with pytest.raises(ConfigurationError):
                fn()

    def test_optimal_hash_range(self):
        assert optimal_hash_range(math.log(3.0)) == 4  # e^eps + 1 = 4
        assert optimal_hash_range(0.01) == 2


# ---------------------------------------------------------------------
# Channel realization: empirical flips match the dyadic thresholds
# ---------------------------------------------------------------------
class TestRealizedChannels:
    def test_krr_keep_rate(self):
        d, eps, n = 5, 1.5, 60000
        o = KaryRandomizedResponse(d, eps, source=SplitStreamSource(2))
        values = np.zeros(n, dtype=np.int64)
        reports = o.report(values)
        p, q = o.estimator_params()
        kept = float(np.mean(reports == 0))
        assert kept == pytest.approx(p, abs=0.01)
        # Each nonzero report value appears with probability exactly q.
        for v in range(1, d):
            assert float(np.mean(reports == v)) == pytest.approx(q, abs=0.01)

    def test_oue_per_bit_probabilities(self):
        d, eps, n = 4, 2.0, 50000
        o = OptimizedUnaryEncoding(d, eps, source=SplitStreamSource(3))
        values = np.zeros(n, dtype=np.int64)  # one-hot bit 0 set
        reports = o.report(values)
        p, q = o.estimator_params()
        assert p == 0.5
        assert float(reports[:, 0].mean()) == pytest.approx(0.5, abs=0.01)
        for j in range(1, d):
            assert float(reports[:, j].mean()) == pytest.approx(q, abs=0.01)

    def test_olh_keep_rate(self):
        d, eps, n = 20, 2.0, 60000
        o = OptimizedLocalHashing(d, eps, source=SplitStreamSource(4))
        values = np.full(n, 7, dtype=np.int64)
        encoded = o.encode(values)
        reports = o.perturb(encoded)
        p_keep = o.t_keep / float(1 << o.bits)
        assert float(np.mean(reports == encoded)) == pytest.approx(p_keep, abs=0.01)

    def test_exact_epsilon_at_most_claim(self):
        for kind in ("krr", "oue", "olh"):
            for eps in (0.5, 1.0, 2.0):
                o = make_oracle(kind, 8, eps, source=SplitStreamSource(0))
                assert o.exact_epsilon() <= eps + 1e-9
                assert o.claimed_loss_bound == eps


# ---------------------------------------------------------------------
# Unbiasedness: estimates land within error bars of the truth
# ---------------------------------------------------------------------
class TestUnbiasedness:
    @pytest.mark.parametrize("kind", ["krr", "oue", "olh"])
    def test_estimates_within_error_bars(self, kind):
        rng = np.random.default_rng(6)
        d, n, eps = 8, 40000, 2.0
        true = rng.choice(d, size=n, p=np.r_[0.5, np.full(7, 0.5 / 7)])
        f_true = np.bincount(true, minlength=d) / n
        o = make_oracle(kind, d, eps, source=SplitStreamSource(21))
        est = estimate_frequencies(o, o.report(true))
        z = np.abs(est.frequencies - f_true) / est.std_errors()
        assert z.max() < 5.0

    def test_variance_formula_matches_empirical(self):
        # Repeated trials of a fixed dataset: the spread of f_hat_0 must
        # match the closed form within Monte Carlo tolerance.
        d, n, eps, trials = 4, 2000, 1.0, 60
        values = np.zeros(n, dtype=np.int64)
        estimates = []
        for t in range(trials):
            o = KaryRandomizedResponse(d, eps, source=SplitStreamSource(100 + t))
            est = estimate_frequencies(o, o.report(values))
            estimates.append(est.frequencies[0])
        p, q = KaryRandomizedResponse(
            d, eps, source=SplitStreamSource(0)
        ).estimator_params()
        predicted = frequency_variance(n, p, q, 1.0)
        observed = float(np.var(estimates))
        assert observed == pytest.approx(predicted, rel=0.6)


# ---------------------------------------------------------------------
# OLH public randomness: pure function of the global user index
# ---------------------------------------------------------------------
class TestOlhUserIndexing:
    def test_hash_independent_of_batch_layout(self):
        o = OptimizedLocalHashing(16, 2.0, source=SplitStreamSource(5))
        values = np.arange(16, dtype=np.int64) % 16
        whole = o.encode(values, user_offset=100)
        split = np.concatenate(
            [o.encode(values[:9], user_offset=100), o.encode(values[9:], user_offset=109)]
        )
        np.testing.assert_array_equal(whole, split)

    def test_explicit_index_arrays(self):
        o = OptimizedLocalHashing(16, 2.0, source=SplitStreamSource(5))
        values = np.array([3, 5, 11], dtype=np.int64)
        idx = np.array([40, 2, 977], dtype=np.int64)
        enc = o.encode(values, user_offset=idx)
        for j in range(3):
            assert enc[j] == o.encode(values[j : j + 1], user_offset=int(idx[j]))[0]
        # support counting accepts the same index array
        counts = o.support_counts(enc, user_offset=idx)
        assert counts.sum() >= 3  # every true value supports itself

    def test_mismatched_index_array_rejected(self):
        o = OptimizedLocalHashing(8, 1.0, source=SplitStreamSource(5))
        with pytest.raises(ConfigurationError):
            o.encode(np.array([1, 2]), user_offset=np.array([0, 1, 2]))
        for reports in (np.array([1, 2]), np.array([], dtype=np.int64)):
            with pytest.raises(ConfigurationError):
                o.support_counts(reports, user_offset=np.array([0, 1, 2]))


# ---------------------------------------------------------------------
# Divide-free arithmetic: exactly the ``%`` forms it replaces
# ---------------------------------------------------------------------
class TestDivideFreeForms:
    @pytest.mark.parametrize("span", [1, 2, 7, 255, 2**16 - 2])
    def test_offsets_equal_the_mod_form_for_every_code(self, span):
        u = np.arange(1, 2**16 + 1, dtype=np.int64)
        for t_keep in (1, span, 2**15, 2**16 - span):
            reference = np.where(u <= t_keep, 0, 1 + (u - t_keep - 1) % span)
            np.testing.assert_array_equal(_krr_offsets(u, t_keep, span), reference)

    @pytest.mark.parametrize("g", [2, 3, 8, 255, 256, 300])
    @pytest.mark.parametrize("n_categories", [2, 1000, 2**20])
    def test_encode_hash_equals_the_mod_form_at_edge_coefficients(
        self, g, n_categories
    ):
        values = np.arange(n_categories, dtype=np.int64)
        for a in (1, _HASH_PRIME - 1):
            for b in (1, _HASH_PRIME - 1):
                reference = ((a * values + b) % _HASH_PRIME) % g
                got = _hash_buckets(
                    values,
                    np.full(n_categories, a, dtype=np.uint32),
                    np.full(n_categories, b, dtype=np.uint32),
                    g,
                )
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, reference)

    def test_hash_values_equal_the_mod_form_for_random_users(self):
        o = OptimizedLocalHashing(2**20, 2.0, g=300, source=SplitStreamSource(5))
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2**20, size=50_000)
        users = rng.integers(0, 2**40, size=50_000)
        a, b = _user_hash_params(o.hash_seed, users)
        a, b = a.astype(np.int64), b.astype(np.int64)
        reference = ((a * values + b) % _HASH_PRIME) % 300
        np.testing.assert_array_equal(o.hash_values(values, users), reference)
        np.testing.assert_array_equal(o.encode(values, user_offset=users), reference)

    def test_olh_rejects_a_domain_beyond_the_hash_prime(self):
        with pytest.raises(ConfigurationError):
            OptimizedLocalHashing(_HASH_PRIME + 1, 2.0)

    @pytest.mark.parametrize("modulus", [2, 3, 8, 255, 256, 300])
    def test_pipeline_modulus_equals_np_mod_on_negative_sums(self, modulus):
        codes = np.arange(-3 * modulus, 3 * modulus, dtype=np.int64)
        offsets = np.resize(np.array([-2 * modulus - 1, -1, 0, 1, modulus + 5]), codes.size)
        request = ReleaseRequest(
            mechanism="mod-probe",
            epsilon=1.0,
            claimed_loss=1.0,
            codes=codes,
            draw=lambda n: offsets[:n],
            modulus=modulus,
        )
        out = ReleasePipeline(sinks=[]).release(request)
        np.testing.assert_array_equal(out.values, np.mod(codes + offsets, modulus))
        assert (codes + offsets < 0).any()


# ---------------------------------------------------------------------
# Interface hygiene
# ---------------------------------------------------------------------
class TestInterface:
    def test_make_oracle_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_oracle("rappor", 4, 1.0)

    def test_category_validation(self):
        o = KaryRandomizedResponse(4, 1.0, source=SplitStreamSource(0))
        with pytest.raises(ConfigurationError):
            o.encode(np.array([4]))
        with pytest.raises(ConfigurationError):
            o.encode(np.array([-1]))
        with pytest.raises(ConfigurationError):
            o.encode(np.array([0.5]))
        with pytest.raises(ConfigurationError):
            o.encode(np.array([], dtype=np.int64))

    def test_oue_shape_validation(self):
        o = OptimizedUnaryEncoding(4, 1.0, source=SplitStreamSource(0))
        with pytest.raises(ConfigurationError):
            o.perturb_request(np.zeros((3, 5), dtype=np.int64))
        with pytest.raises(ConfigurationError):
            o.support_counts(np.zeros((3, 5), dtype=np.int64))

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_oue_support_counts_rejects_non_bits(self, bad):
        # A stray 2 used to count twice; -1 and 0.5 used to subtract
        # or fractionally count.
        o = OptimizedUnaryEncoding(4, 1.0, source=SplitStreamSource(0))
        reports = np.zeros((3, 4), dtype=np.asarray(bad).dtype)
        reports[1, 2] = bad
        with pytest.raises(ConfigurationError, match="0 or 1"):
            o.support_counts(reports)

    def test_oue_support_counts_accepts_bits(self):
        o = OptimizedUnaryEncoding(4, 1.0, source=SplitStreamSource(0))
        reports = np.array([[1, 0, 1, 0], [1, 1, 0, 0]], dtype=np.int64)
        np.testing.assert_array_equal(o.support_counts(reports), [2, 1, 1, 0])
        np.testing.assert_array_equal(
            o.support_counts(reports.astype(bool)), [2, 1, 1, 0]
        )
        np.testing.assert_array_equal(
            o.support_counts(np.zeros((0, 4), dtype=np.int64)), [0, 0, 0, 0]
        )

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0, 1, 8], dtype=np.int64),  # g == 8: one past the top
            np.array([0, -1], dtype=np.int64),
            np.array([(1 << 32) + 3], dtype=np.uint64),  # aliases 3 in uint32
            np.array([1.0, 2.0]),  # integral, but not an integer dtype
        ],
    )
    def test_olh_support_counts_rejects_bad_reports(self, bad):
        # These used to support nothing yet still count in n, biasing
        # every estimate low with no error.
        o = OptimizedLocalHashing(16, 2.0, source=SplitStreamSource(0))
        assert o.g == 8
        with pytest.raises(ConfigurationError, match="OLH reports"):
            o.support_counts(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            np.int64(-1),
            np.int64(9),  # g == 8 marks no report; 9 is out of range
            np.uint64((1 << 32) + 3),  # aliases 3 in uint32
            np.float64(2.0),
        ],
    )
    def test_olh_epoch_decode_rejects_bad_reports(self, bad):
        o = OptimizedLocalHashing(16, 2.0, source=SplitStreamSource(0))
        reports = np.full((3, 4), o.g, dtype=bad.dtype)
        reports[0, 0] = 1
        reports[2, 3] = bad
        with pytest.raises(ConfigurationError, match="OLH reports"):
            o.support_counts_epochs(reports)

    def test_olh_epoch_decode_sentinel_is_no_report(self):
        o = OptimizedLocalHashing(16, 2.0, source=SplitStreamSource(0))
        reports = np.array([[3, o.g, 5], [o.g, o.g, o.g]])
        counts = o.support_counts_epochs(reports, user_offset=10)
        assert counts.shape == (2, 16) and counts.dtype == np.int64
        np.testing.assert_array_equal(
            counts[0], o.support_counts([3, 5], user_offset=np.array([10, 12]))
        )
        np.testing.assert_array_equal(counts[1], np.zeros(16, dtype=np.int64))
        # Only the multi-epoch call reads g as "no report".
        with pytest.raises(ConfigurationError, match="OLH reports"):
            o.support_counts(np.array([3, o.g]))
        with pytest.raises(ConfigurationError, match="matrix"):
            o.support_counts_epochs(np.array([3, 5]))

    def test_olh_support_counts_empty_is_zeros(self):
        o = OptimizedLocalHashing(16, 2.0, source=SplitStreamSource(0))
        for empty in (np.array([], dtype=np.int64), np.array([])):
            counts = o.support_counts(empty, user_offset=12)
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(counts, np.zeros(16, dtype=np.int64))

    def test_report_bits(self):
        assert KaryRandomizedResponse(16, 1.0).report_bits == 4
        assert OptimizedUnaryEncoding(16, 1.0).report_bits == 16
        olh = OptimizedLocalHashing(1024, 2.0)
        assert olh.report_bits == math.ceil(math.log2(olh.g))

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            KaryRandomizedResponse(1, 1.0)
        with pytest.raises(ConfigurationError):
            OptimizedUnaryEncoding(4, 0.0)
        with pytest.raises(ConfigurationError):
            OptimizedLocalHashing(4, 1.0, g=1)

    def test_reports_are_release_events(self):
        # Every oracle report is one pipeline release with the right
        # batch size and mechanism label.
        from repro.runtime import RingBufferSink

        ring = RingBufferSink()
        pipe = ReleasePipeline(sinks=[ring])
        o = make_oracle("krr", 4, 1.0, source=SplitStreamSource(0), pipeline=pipe)
        o.report(np.array([0, 1, 2, 3, 0]))
        assert len(ring.events) == 1
        ev = ring.events[0]
        assert ev.mechanism == "k-RR"
        assert ev.batch == 5
        assert ev.guard == "none"
