"""Approximate (ε, δ)-LDP analysis."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.privacy import delta_at_epsilon, epsilon_at_delta, hockey_stick_divergence
from repro.privacy.loss import DiscreteMechanismFamily
from repro.rng import DiscretePMF, FxpDatapath, FxpLaplaceRng


@pytest.fixture(scope="module")
def naive_family():
    datapath = FxpDatapath(input_bits=12, output_bits=16, delta=8 / 64)
    noise = FxpLaplaceRng(datapath, 16.0).exact_pmf()
    return DiscreteMechanismFamily.additive(noise, [0, 64])


@pytest.fixture(scope="module")
def guarded_family():
    datapath = FxpDatapath(input_bits=12, output_bits=16, delta=8 / 64)
    noise = FxpLaplaceRng(datapath, 16.0).exact_pmf()
    from repro.privacy import calibrate_threshold_exact

    t = calibrate_threshold_exact(noise, [0, 64], 1.0, mode="threshold")
    k = int(round(t / noise.step))
    return DiscreteMechanismFamily.additive(
        noise, [0, 64], window=(-k, 64 + k), mode="threshold"
    )


class TestHockeyStick:
    def test_identical_distributions_zero(self):
        p = np.array([0.5, 0.5])
        assert hockey_stick_divergence(p, p, 0.0) == 0.0

    def test_disjoint_at_eps_zero_is_one(self):
        assert hockey_stick_divergence(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0
        ) == 1.0

    def test_hand_computed(self):
        p1 = np.array([0.8, 0.2])
        p2 = np.array([0.5, 0.5])
        # eps = 0: sum max(0, p1-p2) = 0.3
        assert hockey_stick_divergence(p1, p2, 0.0) == pytest.approx(0.3)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            hockey_stick_divergence(np.array([1.0]), np.array([0.5, 0.5]), 0.0)


class TestDeltaAtEpsilon:
    def test_monotone_decreasing_in_epsilon(self, naive_family):
        deltas = [delta_at_epsilon(naive_family, e) for e in (0.0, 0.5, 1.0, 2.0)]
        assert deltas == sorted(deltas, reverse=True)

    def test_naive_has_positive_floor(self, naive_family):
        # No finite epsilon absorbs the revealing outputs: delta floors at
        # the certain-identification mass.
        assert delta_at_epsilon(naive_family, 32.0) > 0.0

    def test_floor_equals_certainty_mass(self, naive_family):
        # For huge eps, only the outputs with P(y|x2) = 0 contribute.
        mat = naive_family.matrix
        worst = 0.0
        for i in range(mat.shape[0]):
            for j in range(mat.shape[0]):
                mass = mat[i][(mat[i] > 0) & (mat[j] == 0)].sum()
                worst = max(worst, float(mass))
        assert delta_at_epsilon(naive_family, 40.0) == pytest.approx(worst, abs=1e-12)

    def test_guarded_reaches_zero_delta(self, guarded_family):
        eps = guarded_family.worst_case_loss().worst_loss
        assert delta_at_epsilon(guarded_family, eps + 1e-9) == pytest.approx(0.0)

    def test_validation(self, naive_family):
        with pytest.raises(ConfigurationError):
            delta_at_epsilon(naive_family, -1.0)


class TestEpsilonAtDelta:
    def test_guarded_pure_dp(self, guarded_family):
        eps = epsilon_at_delta(guarded_family, delta=0.0)
        exact = guarded_family.worst_case_loss().worst_loss
        assert eps == pytest.approx(exact, abs=1e-4)

    def test_naive_unreachable_at_tiny_delta(self, naive_family):
        floor = delta_at_epsilon(naive_family, 40.0)
        assert epsilon_at_delta(naive_family, delta=floor / 10) is None

    def test_naive_reachable_above_floor(self, naive_family):
        floor = delta_at_epsilon(naive_family, 40.0)
        eps = epsilon_at_delta(naive_family, delta=2 * floor)
        assert eps is not None and math.isfinite(eps)

    def test_delta_tradeoff_monotone(self, naive_family):
        floor = delta_at_epsilon(naive_family, 40.0)
        e_loose = epsilon_at_delta(naive_family, delta=min(10 * floor, 0.5))
        e_tight = epsilon_at_delta(naive_family, delta=2 * floor)
        assert e_loose is not None and e_tight is not None
        assert e_loose <= e_tight + 1e-6

    def test_validation(self, naive_family):
        with pytest.raises(ConfigurationError):
            epsilon_at_delta(naive_family, delta=1.0)


class TestConsistencyWithPureAnalysis:
    def test_delta_zero_iff_pure_ldp(self, guarded_family, naive_family):
        g_eps = guarded_family.worst_case_loss().worst_loss
        assert delta_at_epsilon(guarded_family, g_eps) <= 1e-12
        n_rep = naive_family.worst_case_loss()
        assert not n_rep.is_finite
        assert delta_at_epsilon(naive_family, 50.0) > 0

    def test_small_pmf_sanity(self):
        noise = DiscretePMF(1.0, -1, np.array([0.25, 0.5, 0.25]))
        fam = DiscreteMechanismFamily.additive(noise, [0, 1])
        # y=-1 only from x=0 (mass .25), y=2 only from x=1 (mass .25).
        assert delta_at_epsilon(fam, 100.0) == pytest.approx(0.25)
