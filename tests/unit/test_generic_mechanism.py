"""Staircase/Gaussian/geometric noise through the fixed-point arms.

Every arm takes any :class:`~repro.rng.inversion.FxpInversionRng` as
``noise_rng``; the guard, calibration and certificate are the Laplace
arms' own.  The goldens below were recorded with the earlier dedicated
guarded-noise mechanism and pin the arms to it bit for bit: threshold,
window, worst-case loss, exact PMF and seeded ``privatize`` output.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec, make_mechanism
from repro.rng import (
    FxpGaussianRng,
    FxpDatapath,
    FxpStaircaseRng,
    NumpySource,
    StaircaseParams,
    gaussian_sigma,
)
from repro.rng.geometric import FxpGeometricRng, IdealTwoSidedGeometric, geometric_alpha

D, EPS = 8.0, 0.5
SENSOR = SensorSpec(0.0, D)
CFG = FxpDatapath(input_bits=12, output_bits=18, delta=D / 64)
CFG13 = FxpDatapath(input_bits=13, output_bits=20, delta=D / 64)
CFG_GEOM = FxpDatapath(input_bits=12, output_bits=20, delta=D / 64)

#: Guard mode → evaluation arm.
ARM = {"baseline": "baseline", "resample": "resampling", "threshold": "thresholding"}


def _guarded(mode, noise_rng):
    return make_mechanism(ARM[mode], SENSOR, EPS, noise_rng=noise_rng)


def _generator(name, source=None):
    if name.startswith("staircase"):
        cfg = CFG if name == "staircase12" else CFG13
        return FxpStaircaseRng(cfg, StaircaseParams(sensitivity=D, epsilon=EPS), source=source)
    if name.startswith("gaussian"):
        cfg = CFG if name == "gaussian12" else CFG13
        return FxpGaussianRng(cfg, sigma=gaussian_sigma(D, EPS, 1e-5), source=source)
    alpha = geometric_alpha(D, EPS, CFG_GEOM.delta)
    return FxpGeometricRng(CFG_GEOM, IdealTwoSidedGeometric(alpha), source=source)


@pytest.fixture(scope="module")
def staircase_rng():
    return FxpStaircaseRng(CFG, StaircaseParams(sensitivity=D, epsilon=EPS))


@pytest.fixture(scope="module")
def gaussian_rng():
    return FxpGaussianRng(CFG, sigma=gaussian_sigma(D, EPS, 1e-5))


@pytest.fixture(scope="module", params=["staircase", "gaussian"])
def noise_rng(request, staircase_rng, gaussian_rng):
    return staircase_rng if request.param == "staircase" else gaussian_rng


class TestBaselinePathology:
    def test_naive_arm_not_ldp(self, noise_rng):
        mech = _guarded("baseline", noise_rng)
        rep = mech.ldp_report(epsilon_target=1e6)
        assert not rep.is_finite  # Section III-A4: the problem generalizes


class TestGuards:
    @pytest.mark.parametrize("mode", ["resample", "threshold"])
    def test_guarded_arm_certified(self, noise_rng, mode):
        mech = _guarded(mode, noise_rng)
        rep = mech.ldp_report()
        assert rep.is_finite and rep.satisfied

    def test_outputs_within_window(self, noise_rng):
        mech = _guarded("threshold", noise_rng)
        y = mech.privatize(np.full(4000, 0.0))
        lo, hi = np.array(mech.window) * mech.delta
        assert y.min() >= lo - 1e-9 and y.max() <= hi + 1e-9

    def test_resample_outputs_within_window(self, noise_rng):
        mech = _guarded("resample", noise_rng)
        y = mech.privatize(np.full(4000, D))
        lo, hi = np.array(mech.window) * mech.delta
        assert y.min() >= lo - 1e-9 and y.max() <= hi + 1e-9


class TestNoiseRngOption:
    def test_arm_runs_on_the_given_generator(self, staircase_rng):
        mech = _guarded("threshold", staircase_rng)
        assert mech.rng is staircase_rng
        assert mech.delta == CFG.delta
        assert mech.rng.kernel == "codebook"

    @pytest.mark.parametrize(
        "clash",
        [
            {"input_bits": 13},
            {"output_bits": 20},
            {"delta": D / 32},
            {"source": NumpySource(0)},
            {"kernel": "live"},
        ],
    )
    def test_generator_settings_clash_refused(self, staircase_rng, clash):
        with pytest.raises(ConfigurationError, match="noise_rng carries"):
            make_mechanism(
                "thresholding", SENSOR, EPS, noise_rng=staircase_rng, **clash
            )

    def test_non_generator_refused(self):
        with pytest.raises(ConfigurationError, match="FxpInversionRng"):
            make_mechanism("baseline", SENSOR, EPS, noise_rng=object())

    @pytest.mark.parametrize("arm", ["resampling", "thresholding"])
    def test_paper_policy_is_laplace_only(self, staircase_rng, arm):
        with pytest.raises(ConfigurationError, match="Laplace closed form"):
            make_mechanism(
                arm, SENSOR, EPS, noise_rng=staircase_rng, threshold_policy="paper"
            )


#: Exact PMF per generator: (min_k, size, sha256[:16] of the int64 counts).
PMF_GOLDENS = {
    "staircase12": (-1153, 2307, "79d905e2b11ed803"),
    "gaussian12": (-2383, 4767, "95a8c9bfb624f25b"),
    "staircase13": (-1239, 2479, "410bbbd374d04b28"),
    "gaussian13": (-2486, 4973, "b144744216b056ed"),
    "geometric12": (-1153, 2307, "445947e23f7b7cbc"),
}

#: (generator, mode) → (threshold, window, worst-case loss, sha256[:16] of
#: ``privatize(linspace(0, d, 2000))`` under ``NumpySource(1234)``).
ARM_GOLDENS = {
    ("staircase12", "baseline"): (None, None, math.inf, "a897b0263873a008"),
    ("staircase12", "resample"): (35.75, (-286, 350), 0.9166902258537677, "9d2d2d0bcf2c6ab3"),
    ("staircase12", "threshold"): (35.875, (-287, 351), 0.9162907318741542, "9bc7faa8a298d185"),
    ("gaussian12", "baseline"): (None, None, math.inf, "9f3f0957763886e0"),
    ("gaussian12", "resample"): (100.75, (-806, 870), 0.6935920534077953, "4974f8ae402dd0dc"),
    ("gaussian12", "threshold"): (100.875, (-807, 871), 0.6931471805599445, "d2a91437aab86eaa"),
    ("staircase13", "baseline"): (None, None, math.inf, "d23756bd0d29d922"),
    ("staircase13", "resample"): (44.25, (-354, 418), 0.6936606593902255, "639018ce1f05ffe5"),
    ("staircase13", "threshold"): (44.375, (-355, 419), 0.6931471805599454, "c79c5d678435db5d"),
    ("gaussian13", "baseline"): (None, None, math.inf, "956dee064b9ee47e"),
    ("gaussian13", "resample"): (136.0, (-1088, 1152), 0.6934099926508139, "732e3e37b7f0f17a"),
    ("gaussian13", "threshold"): (136.125, (-1089, 1153), 0.6931471805599454, "ac6db1575400822c"),
    ("geometric12", "baseline"): (None, None, math.inf, "d27b91ae9ad2d429"),
    ("geometric12", "resample"): (36.875, (-295, 359), 0.9182789358560219, "dda4fa81a82edfb7"),
    ("geometric12", "threshold"): (37.0, (-296, 360), 0.9162907318741542, "02f207a9172b262a"),
}


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


class TestEquivalenceGoldens:
    @pytest.mark.parametrize("name", sorted(PMF_GOLDENS))
    def test_exact_pmf(self, name):
        gen = _generator(name)
        pmf = gen.exact_pmf()
        denom = 2 << gen.config.input_bits
        counts = np.rint(pmf.probs * denom).astype(np.int64)
        np.testing.assert_array_equal(counts / float(denom), pmf.probs)
        assert (pmf.min_k, counts.size, _sha(counts)) == PMF_GOLDENS[name]

    @pytest.mark.parametrize("key", sorted(ARM_GOLDENS), ids="/".join)
    def test_arm(self, key):
        name, mode = key
        threshold, window, loss, out_sha = ARM_GOLDENS[key]
        mech = _guarded(mode, _generator(name, source=NumpySource(1234)))
        if mode == "baseline":
            assert not hasattr(mech, "window")
            rep = mech.ldp_report(epsilon_target=1e9)
        else:
            assert (mech.threshold, mech.window) == (threshold, window)
            rep = mech.ldp_report()
        assert rep.worst_loss == pytest.approx(loss, rel=1e-12)
        assert _sha(mech.privatize(np.linspace(0.0, D, 2000))) == out_sha


class TestUtilityOrdering:
    def test_staircase_l1_beats_gaussian(self, staircase_rng, gaussian_rng):
        # At the same nominal eps (Gaussian paying delta>0 on top), the
        # staircase adds far less absolute noise.
        st = _guarded("threshold", staircase_rng)
        ga = _guarded("threshold", gaussian_rng)
        x = np.full(8000, D / 2)
        st_mae = np.abs(st.privatize(x) - D / 2).mean()
        ga_mae = np.abs(ga.privatize(x) - D / 2).mean()
        assert st_mae < ga_mae
