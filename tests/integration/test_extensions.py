"""Integration: the extension subsystems against the core machinery."""

import numpy as np
import pytest

from repro.analysis import estimate_pairwise_loss
from repro.core import ChannelConfig, GuardMode, MultiSensorDPBox, minimum_input_bits
from repro.mechanisms import SensorSpec, make_mechanism
from repro.queries import MeanQuery, measure_utility
from repro.rng import (
    FxpDatapath,
    FxpStaircaseRng,
    StaircaseParams,
)

D, EPS = 8.0, 0.5
SENSOR = SensorSpec(0.0, D)


class TestStaircaseThroughTheHarness:
    """Staircase noise through a standard arm is a drop-in for the
    evaluation stack."""

    @pytest.fixture(scope="class")
    def staircase_mech(self):
        datapath = FxpDatapath(input_bits=12, output_bits=18, delta=D / 64)
        rng = FxpStaircaseRng(datapath, StaircaseParams(sensitivity=D, epsilon=EPS))
        return make_mechanism("thresholding", SENSOR, EPS, noise_rng=rng)

    def test_utility_harness_runs(self, staircase_mech):
        data = np.random.default_rng(0).uniform(0, D, 500)
        results = measure_utility(staircase_mech, data, [MeanQuery()], n_trials=6)
        assert results["mean"].mae >= 0

    def test_empirical_loss_respects_exact_bound(self, staircase_mech):
        est = estimate_pairwise_loss(
            staircase_mech, 0.0, D, staircase_mech.delta, n_samples=30000,
            min_count=20,
        )
        assert not est.suggests_violation

    def test_exact_verdict_stable_across_reconstruction(self):
        datapath = FxpDatapath(input_bits=12, output_bits=18, delta=D / 64)
        losses = []
        for _ in range(2):
            rng = FxpStaircaseRng(datapath, StaircaseParams(sensitivity=D, epsilon=EPS))
            mech = make_mechanism("thresholding", SENSOR, EPS, noise_rng=rng)
            losses.append(mech.ldp_report().worst_loss)
        assert losses[0] == losses[1]  # calibration is deterministic


class TestMultiSensorAdversary:
    def test_averaging_across_channels_capped_by_shared_budget(self):
        """An adversary polling two twin channels cannot beat the shared
        budget's information cap."""
        twins = [
            ChannelConfig(f"s{i}", SensorSpec(0.0, 10.0), 0.5, input_bits=12)
            for i in range(2)
        ]
        box = MultiSensorDPBox(twins, budget=6.0)
        replies = []
        for _ in range(200):
            for name in ("s0", "s1"):
                replies.append(box.request(name, 5.0))
        fresh = [r.value for r in replies if not r.from_cache]
        # The number of fresh samples is bounded by budget / min charge.
        min_charge = min(
            seg.loss
            for name in ("s0", "s1")
            for seg in box.channel(name).table.segments
        )
        assert len(fresh) <= 6.0 / min_charge + 1
        # And the estimate error from the capped fresh pool stays bounded
        # away from zero (cannot average indefinitely).
        err = abs(np.mean(fresh) - 5.0)
        assert err > 1e-3

    def test_channel_modes_can_differ(self):
        box = MultiSensorDPBox(
            [
                ChannelConfig("a", SensorSpec(0.0, 8.0), 0.5, input_bits=12),
                ChannelConfig(
                    "b",
                    SensorSpec(0.0, 8.0),
                    0.5,
                    guard_mode=GuardMode.RESAMPLE,
                    input_bits=12,
                ),
            ],
            budget=100.0,
        )
        a = box.channel("a").mechanism
        b = box.channel("b").mechanism
        assert a.name == "Thresholding" and b.name == "Resampling"
        assert box.request("a", 4.0).charged > 0
        assert box.request("b", 4.0).charged > 0


class TestDesignSpaceConsistency:
    def test_minimum_width_point_actually_certifies(self):
        point = minimum_input_bits(10.0, 0.25, range_frac_bits=6)
        mech = make_mechanism(
            "thresholding",
            SensorSpec(0.0, 10.0),
            0.25,
            input_bits=point.input_bits,
            output_bits=20,
            delta=10.0 / 64,
        )
        assert mech.ldp_report().satisfied
