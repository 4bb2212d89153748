"""Mechanism arms: API contracts, guards, exact certifications."""

import numpy as np
import pytest

from repro import SensorSpec, make_mechanism
from repro.errors import ConfigurationError
from repro.mechanisms import (
    ARM_NAMES,
    FxpBaselineMechanism,
    IdealLaplaceMechanism,
    ResamplingMechanism,
    ThresholdingMechanism,
)


class TestSensorSpec:
    def test_d(self):
        assert SensorSpec(2.0, 10.0).d == 8.0

    def test_midpoint(self):
        assert SensorSpec(2.0, 10.0).midpoint == 6.0

    def test_rejects_empty_range(self):
        with pytest.raises(ConfigurationError):
            SensorSpec(5.0, 5.0)

    def test_clip(self):
        s = SensorSpec(0.0, 1.0)
        np.testing.assert_allclose(s.clip(np.array([-1, 0.5, 2])), [0, 0.5, 1])

    def test_contains(self):
        s = SensorSpec(0.0, 1.0)
        np.testing.assert_array_equal(
            s.contains(np.array([-0.1, 0.0, 1.0, 1.1])), [False, True, True, False]
        )


class TestFactory:
    @pytest.mark.parametrize("arm", ARM_NAMES)
    def test_builds_all_arms(self, arm, small_sensor, small_kwargs):
        kwargs = {} if arm == "ideal" else small_kwargs
        mech = make_mechanism(arm, small_sensor, 0.5, **kwargs)
        assert mech.epsilon == 0.5

    def test_unknown_arm(self, small_sensor):
        with pytest.raises(ConfigurationError):
            make_mechanism("magic", small_sensor, 0.5)

    def test_case_insensitive(self, small_sensor):
        assert isinstance(
            make_mechanism("IDEAL", small_sensor, 0.5), IdealLaplaceMechanism
        )


class TestIdealArm:
    def test_privatize_adds_noise(self, small_ideal):
        x = np.full(1000, 4.0)
        y = small_ideal.privatize(x)
        assert y.std() > 0
        assert abs(y.mean() - 4.0) < 5.0

    def test_report_is_exact_epsilon(self, small_ideal):
        rep = small_ideal.ldp_report()
        assert rep.worst_loss == 0.5
        assert rep.satisfied

    def test_out_of_range_rejected(self, small_ideal):
        with pytest.raises(ConfigurationError):
            small_ideal.privatize(np.array([100.0]))

    def test_shape_preserved(self, small_ideal):
        x = np.full((3, 4), 2.0)
        assert small_ideal.privatize(x).shape == (3, 4)

    def test_privatize_golden(self):
        # Fixed seed, fixed outputs: the ideal arm draws Lap(d/ε) from
        # the caller's generator, two uniforms per value, bit for bit.
        mech = make_mechanism(
            "ideal", SensorSpec(0, 10), 1.0, rng=np.random.default_rng(7)
        )
        np.testing.assert_array_equal(
            mech.privatize([1, 5, 9]),
            [15.907344560921949, 17.034186748466205, 10.351859659377439],
        )


class TestBaselineArm:
    def test_not_ldp(self, small_baseline):
        rep = small_baseline.ldp_report()
        assert not rep.is_finite
        assert not small_baseline.is_ldp()

    def test_outputs_on_grid(self, small_baseline):
        y = small_baseline.privatize(np.full(100, 4.0))
        k = y / small_baseline.delta
        np.testing.assert_allclose(k, np.round(k), atol=1e-9)

    def test_utility_close_to_ideal(self, small_baseline, small_ideal):
        # Tables II-V: the baseline's utility matches the ideal closely.
        x = np.full(20000, 4.0)
        mae_base = np.abs(small_baseline.privatize(x) - 4.0).mean()
        mae_ideal = np.abs(small_ideal.privatize(x) - 4.0).mean()
        assert mae_base == pytest.approx(mae_ideal, rel=0.05)


class TestResamplingArm:
    def test_is_ldp_at_claimed_bound(self, small_resampling):
        rep = small_resampling.ldp_report()
        assert rep.satisfied
        assert small_resampling.claimed_loss_bound == pytest.approx(1.0)

    def test_outputs_within_window(self, small_resampling):
        y = small_resampling.privatize(np.full(5000, 0.0))
        lo = small_resampling.sensor.m - small_resampling.threshold
        hi = small_resampling.sensor.M + small_resampling.threshold
        assert y.min() >= lo - 1e-9 and y.max() <= hi + 1e-9

    def test_draw_counts_geometricish(self, small_resampling):
        _, draws = small_resampling.privatize_with_counts(np.full(5000, 0.0))
        assert draws.min() >= 1
        expected = small_resampling.expected_draws(0.0)
        assert draws.mean() == pytest.approx(expected, rel=0.2)

    def test_acceptance_probability_high(self, small_resampling):
        assert small_resampling.acceptance_probability(0.0) > 0.9

    def test_loss_multiple_must_exceed_one(self, small_sensor, small_kwargs):
        with pytest.raises(ConfigurationError):
            ResamplingMechanism(small_sensor, 0.5, loss_multiple=1.0, **small_kwargs)

    def test_explicit_threshold_respected(self, small_sensor, small_kwargs):
        mech = ResamplingMechanism(
            small_sensor, 0.5, threshold=20 * small_kwargs["delta"], **small_kwargs
        )
        assert mech.threshold == 20 * small_kwargs["delta"]

    def test_paper_policy(self, small_sensor):
        mech = ResamplingMechanism(
            small_sensor,
            0.5,
            threshold_policy="paper",
            input_bits=12,
            output_bits=16,
            delta=8.0 / 64,
        )
        assert mech.ldp_report().satisfied

    def test_unknown_policy(self, small_sensor, small_kwargs):
        with pytest.raises(ConfigurationError):
            ResamplingMechanism(
                small_sensor, 0.5, threshold_policy="best", **small_kwargs
            )


class TestThresholdingArm:
    def test_is_ldp_at_claimed_bound(self, small_thresholding):
        assert small_thresholding.ldp_report().satisfied

    def test_outputs_clamped(self, small_thresholding):
        y = small_thresholding.privatize(np.full(5000, 0.0))
        lo = small_thresholding.sensor.m - small_thresholding.threshold
        hi = small_thresholding.sensor.M + small_thresholding.threshold
        assert y.min() >= lo - 1e-9 and y.max() <= hi + 1e-9

    def test_boundary_atoms_observable(self, small_thresholding):
        y = small_thresholding.privatize(np.full(30000, 0.0))
        lo = small_thresholding.window[0] * small_thresholding.delta
        observed_atom = np.mean(np.isclose(y, lo))
        assert observed_atom > 0  # Fig. 7's visible boundary spike

    def test_atom_probability_matches_exact(self, small_thresholding):
        y = small_thresholding.privatize(np.full(60000, 0.0))
        lo, hi = small_thresholding.window
        emp = np.mean(
            np.isclose(y, lo * small_thresholding.delta)
            | np.isclose(y, hi * small_thresholding.delta)
        )
        exact = small_thresholding.boundary_atom_probability(0.0)
        assert emp == pytest.approx(exact, abs=0.005)

    def test_single_draw_always(self, small_sensor, small_kwargs):
        # Thresholding never redraws; privatize of n values consumes
        # exactly n codes from the source.
        from repro.rng import ExhaustiveSource

        mech = ThresholdingMechanism(
            small_sensor, 0.5, source=ExhaustiveSource(), **small_kwargs
        )
        src = mech.rng.source
        before = src._pos
        mech.privatize(np.full(10, 4.0))
        assert src._pos == before + 10


class TestGuardedVsBaselineDistribution:
    def test_resampling_conditional_matches_truncation(self, small_resampling):
        # Empirical distribution of guarded outputs == exact truncated PMF.
        x = 0.0
        y = small_resampling.privatize(np.full(40000, x))
        k = np.round(y / small_resampling.delta).astype(int)
        lo, hi = small_resampling.window
        k_x = int(small_resampling.quantize_inputs(np.array([x]))[0])
        exact = small_resampling.noise_pmf.shifted(k_x).truncated(lo, hi)
        emp_counts = np.bincount(k - lo, minlength=hi - lo + 1)
        emp = emp_counts / emp_counts.sum()
        # Compare aggregate mass over coarse bins to keep variance low.
        splits = np.array_split(np.arange(emp.size), 16)
        for idx in splits:
            assert emp[idx].sum() == pytest.approx(exact.probs[idx].sum(), abs=0.02)


class TestPaperHintExceptionNarrowing:
    """The ``_paper_hint`` fallback must not swallow foreign exceptions.

    The hint seeds the exact threshold search; only the paper closed
    form's legitimate failures (no positive solution, exp/log out of
    float range) may fall back to the neutral hint.  A foreign exception
    raised under the hint call — a real bug, an interrupt-adjacent
    failure — must propagate, not be masked into "hint 16".
    """

    def _make(self, arm):
        from repro.mechanisms import SensorSpec, make_mechanism

        return make_mechanism(
            arm, SensorSpec(0.0, 8.0), 0.5, input_bits=14,
            threshold_policy="exact",
        )

    @pytest.mark.parametrize(
        "module, fn",
        [
            ("repro.mechanisms.resampling", "paper_resampling_threshold"),
            ("repro.mechanisms.thresholding", "paper_thresholding_threshold"),
        ],
    )
    def test_foreign_exception_propagates(self, monkeypatch, module, fn):
        def _boom(*args, **kwargs):
            raise RuntimeError("foreign failure on the draw path")

        monkeypatch.setattr(f"{module}.{fn}", _boom)
        arm = "resampling" if "resampling" in module else "thresholding"
        with pytest.raises(RuntimeError, match="foreign failure"):
            self._make(arm)

    @pytest.mark.parametrize(
        "module, fn",
        [
            ("repro.mechanisms.resampling", "paper_resampling_threshold"),
            ("repro.mechanisms.thresholding", "paper_thresholding_threshold"),
        ],
    )
    def test_calibration_error_falls_back(self, monkeypatch, module, fn):
        from repro.errors import CalibrationError

        def _no_solution(*args, **kwargs):
            raise CalibrationError("no positive threshold")

        monkeypatch.setattr(f"{module}.{fn}", _no_solution)
        arm = "resampling" if "resampling" in module else "thresholding"
        mech = self._make(arm)  # hint falls back to 16; search still runs
        assert mech.threshold > 0.0

    @pytest.mark.parametrize(
        "module, fn",
        [
            ("repro.mechanisms.resampling", "paper_resampling_threshold"),
            ("repro.mechanisms.thresholding", "paper_thresholding_threshold"),
        ],
    )
    def test_overflow_falls_back(self, monkeypatch, module, fn):
        def _overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(f"{module}.{fn}", _overflow)
        arm = "resampling" if "resampling" in module else "thresholding"
        assert self._make(arm).threshold > 0.0
