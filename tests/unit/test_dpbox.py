"""Cycle-level DP-Box: protocol, phases, latency, guards, budget."""

import numpy as np
import pytest

from repro.core import Command, DPBox, DPBoxConfig, DPBoxDriver, GuardMode, Phase
from repro.errors import HardwareProtocolError


def fresh_box(**overrides):
    defaults = dict(input_bits=12, range_frac_bits=6)
    defaults.update(overrides)
    return DPBox(DPBoxConfig(**defaults))


class TestInitializationPhase:
    def test_starts_in_initialization(self):
        assert fresh_box().phase is Phase.INITIALIZATION

    def test_budget_required_to_leave(self):
        box = fresh_box()
        box.issue(Command.START_NOISING)
        with pytest.raises(HardwareProtocolError):
            box.clock.tick()

    def test_initialize_moves_to_waiting(self):
        box = fresh_box()
        DPBoxDriver(box).initialize(budget=5.0)
        assert box.phase is Phase.WAITING

    def test_runtime_commands_invalid_during_init(self):
        box = fresh_box()
        box.issue(Command.SET_SENSOR_VALUE, 1.0)
        with pytest.raises(HardwareProtocolError):
            box.clock.tick()

    def test_replenish_period_must_be_integer_cycles(self):
        box = fresh_box()
        box.issue(Command.SET_RANGE_UPPER, 10.5)
        with pytest.raises(HardwareProtocolError):
            box.clock.tick()

    def test_cannot_reenter_initialization(self, dpbox_driver):
        # After leaving init, SET_EPSILON reinterprets as the runtime
        # epsilon exponent — the budget is locked.
        with pytest.raises(HardwareProtocolError):
            dpbox_driver.initialize(budget=1.0)


class TestNoisingProtocol:
    def test_latency_two_cycles_thresholding(self, dpbox_driver):
        results = [dpbox_driver.noise(4.0) for _ in range(20)]
        assert all(r.cycles == 2 for r in results)

    def test_noise_requires_configuration(self):
        box = fresh_box()
        DPBoxDriver(box).initialize(budget=5.0)
        box.issue(Command.SET_SENSOR_VALUE, 1.0)
        box.clock.tick()
        box.issue(Command.START_NOISING)
        with pytest.raises(HardwareProtocolError):
            box.clock.tick()

    def test_sensor_value_out_of_range_rejected(self, dpbox_driver):
        with pytest.raises(HardwareProtocolError):
            dpbox_driver.noise(100.0)

    def test_output_within_guard_window(self, dpbox_driver):
        rt = dpbox_driver.box._ensure_runtime()
        lo = (rt.k_m - rt.k_th) * rt.delta
        hi = (rt.k_M + rt.k_th) * rt.delta
        for _ in range(50):
            r = dpbox_driver.noise(4.0)
            assert lo - 1e-9 <= r.value <= hi + 1e-9

    def test_epsilon_property(self, dpbox_driver):
        assert dpbox_driver.box.epsilon == 0.5  # nm = 1

    def test_outputs_vary(self, dpbox_driver):
        values = {dpbox_driver.noise(4.0).value for _ in range(30)}
        assert len(values) > 3

    def test_ready_flag_cleared_during_noising(self, dpbox_driver):
        box = dpbox_driver.box
        dpbox_driver._step(Command.SET_SENSOR_VALUE, 4.0)
        dpbox_driver._step(Command.START_NOISING)
        box.issue(Command.DO_NOTHING)
        assert not box.ready  # mid-transaction
        box.clock.tick()
        box.clock.tick()
        assert box.ready


class TestGuardModes:
    def test_set_threshold_toggles_once_per_edge(self, dpbox_driver):
        box = dpbox_driver.box
        start = box.guard_mode
        box.issue(Command.SET_THRESHOLD)
        box.clock.tick()
        box.clock.tick()  # held command must NOT toggle again
        assert box.guard_mode is start.toggled()
        box.issue(Command.DO_NOTHING)
        box.clock.tick()
        box.issue(Command.SET_THRESHOLD)
        box.clock.tick()
        assert box.guard_mode is start

    def test_resample_latency_two_plus_redraws(self):
        box = fresh_box(guard_mode=GuardMode.RESAMPLE)
        drv = DPBoxDriver(box)
        drv.initialize(budget=1e6)
        drv.configure(epsilon_exponent=1, range_lower=0.0, range_upper=8.0)
        results = [drv.noise(0.0) for _ in range(200)]
        cycles = np.array([r.cycles for r in results])
        draws = np.array([r.draws for r in results])
        np.testing.assert_array_equal(cycles, 1 + draws)
        assert cycles.min() == 2

    def test_fixed_draw_mode_constant_latency(self):
        box = fresh_box(guard_mode=GuardMode.RESAMPLE, fixed_resample_draws=4)
        drv = DPBoxDriver(box)
        drv.initialize(budget=1e6)
        drv.configure(epsilon_exponent=1, range_lower=0.0, range_upper=8.0)
        results = [drv.noise(0.0) for _ in range(100)]
        assert {r.cycles for r in results} == {5}  # 1 load + 4 fixed draws

    def test_start_noising_held_renoises(self, dpbox_driver):
        # Paper: without Do Nothing the box immediately noises again.
        box = dpbox_driver.box
        dpbox_driver._step(Command.SET_SENSOR_VALUE, 4.0)
        box.issue(Command.START_NOISING)
        box.clock.tick()  # enters noising
        box.clock.tick()  # load
        box.clock.tick()  # generate -> ready, back to waiting
        first = box.last_result
        box.clock.tick()  # START still held -> begins again
        box.clock.tick()
        box.clock.tick()
        second = box.last_result
        assert second is not first


class TestEmbeddedBudget:
    def test_budget_depletes_and_caches(self):
        box = fresh_box()
        drv = DPBoxDriver(box)
        drv.initialize(budget=3.0)
        drv.configure(epsilon_exponent=1, range_lower=0.0, range_upper=8.0)
        results = [drv.noise(4.0) for _ in range(40)]
        cached = [r for r in results if r.from_cache]
        assert cached, "budget of 3.0 at ~0.5+/query must exhaust within 40"
        assert all(r.charged == 0.0 for r in cached)
        # Every cached reply replays the most recent fresh output.  (A
        # cached and a fresh reply can interleave near exhaustion when a
        # far-segment charge is unaffordable but the base charge still is.)
        last_fresh = None
        for r in results:
            if r.from_cache:
                assert last_fresh is not None and r.value == last_fresh
            else:
                last_fresh = r.value
        # Once the budget cannot cover even the base charge, everything
        # is cached: the tail of the run must be uniformly from_cache.
        assert results[-1].from_cache

    def test_replenishment_resumes_fresh_replies(self):
        box = fresh_box()
        drv = DPBoxDriver(box)
        drv.initialize(budget=1.5, replenish_period=200)
        drv.configure(epsilon_exponent=1, range_lower=0.0, range_upper=8.0)
        first = [drv.noise(4.0) for _ in range(10)]
        assert any(r.from_cache for r in first)
        # Idle long enough for the replenishment timer to fire.
        box.issue(Command.DO_NOTHING)
        box.clock.tick(250)
        after = drv.noise(4.0)
        assert not after.from_cache

    def test_engine_counts_fresh_and_cached_replies(self):
        box = fresh_box()
        drv = DPBoxDriver(box)
        drv.initialize(budget=3.0)
        drv.configure(epsilon_exponent=1, range_lower=0.0, range_upper=8.0)
        hits = [drv.noise(4.0).from_cache for _ in range(20)]
        eng = box.budget_engine
        assert eng.n_cached_replies == sum(hits) > 0
        assert eng.n_fresh_replies == len(hits) - sum(hits) > 0

    def test_charged_losses_match_segment_table(self, dpbox_driver):
        eng = dpbox_driver.box.budget_engine
        table = eng.table
        for _ in range(20):
            r = dpbox_driver.noise(4.0)
            if not r.from_cache:
                rt = dpbox_driver.box._ensure_runtime()
                k_out = round(r.value / rt.delta)
                assert r.charged == table.losses_for_outputs(np.array([k_out]))[0]


class TestReconfiguration:
    def test_epsilon_change_recalibrates(self, dpbox_driver):
        box = dpbox_driver.box
        t1 = box._ensure_runtime().k_th
        dpbox_driver.configure(epsilon_exponent=2, range_lower=0.0, range_upper=8.0)
        t2 = box._ensure_runtime().k_th
        assert t1 != t2

    def test_range_change_rescales_delta(self, dpbox_driver):
        box = dpbox_driver.box
        dpbox_driver.configure(epsilon_exponent=1, range_lower=0.0, range_upper=16.0)
        assert box._ensure_runtime().delta == pytest.approx(16.0 / 64)

    def test_invalid_range_rejected(self, dpbox_driver):
        dpbox_driver._step(Command.SET_RANGE_LOWER, 10.0)
        dpbox_driver._step(Command.SET_RANGE_UPPER, 5.0)
        dpbox_driver._step(Command.SET_SENSOR_VALUE, 7.0)
        dpbox_driver.box.issue(Command.START_NOISING)
        with pytest.raises(HardwareProtocolError):
            dpbox_driver.box.clock.tick()

    def test_calibration_cached_across_reconfig(self, dpbox_driver):
        box = dpbox_driver.box
        n_before = len(box._calibration_cache)
        dpbox_driver.configure(epsilon_exponent=1, range_lower=0.0, range_upper=8.0)
        assert len(box._calibration_cache) == n_before  # same key, no rework


class TestResolutionLimits:
    def test_small_epsilon_needs_more_bits(self):
        """Paper Section III-D: supporting small ε requires wide datapaths.

        At Bu=10 a request for ε = 2^-3 = 0.125 cannot be calibrated to
        the 2ε loss target — the box reports it as a calibration error
        instead of silently weakening the guarantee.
        """
        from repro.errors import CalibrationError

        box = fresh_box(input_bits=10, range_frac_bits=5)
        drv = DPBoxDriver(box)
        drv.initialize(budget=10.0)
        with pytest.raises(CalibrationError):
            drv.configure(epsilon_exponent=3, range_lower=0.0, range_upper=8.0)
            drv.noise(4.0)

    def test_same_epsilon_calibrates_with_more_bits(self):
        box = fresh_box(input_bits=17, range_frac_bits=5)
        drv = DPBoxDriver(box)
        drv.initialize(budget=10.0)
        drv.configure(epsilon_exponent=3, range_lower=0.0, range_upper=8.0)
        assert drv.noise(4.0).cycles >= 2


class TestCordicLogBackend:
    """DP-Box with the bit-true CORDIC logarithm unit (Section IV-B)."""

    def _driver(self):
        box = fresh_box(input_bits=12, range_frac_bits=6, use_cordic_log=True)
        drv = DPBoxDriver(box)
        drv.initialize(budget=1e6)
        drv.configure(epsilon_exponent=1, range_lower=0.0, range_upper=8.0)
        return drv

    def test_noising_works(self):
        drv = self._driver()
        results = [drv.noise(4.0) for _ in range(20)]
        assert all(r.cycles == 2 for r in results)

    def test_calibration_uses_cordic_pmf(self):
        """The guard is certified on the CORDIC datapath's own PMF."""
        drv = self._driver()
        rt = drv.box._ensure_runtime()
        from repro.privacy import exact_worst_loss_at_threshold
        noise = rt.rng.exact_pmf()
        from repro.privacy import input_grid_codes
        codes = input_grid_codes(0.0, 8.0, rt.delta, n_points=5)
        loss = exact_worst_loss_at_threshold(
            noise, codes, rt.k_th * rt.delta, "threshold"
        )
        assert loss <= drv.box.config.loss_multiple * drv.box.epsilon + 1e-9

    def test_outputs_within_window(self):
        drv = self._driver()
        rt = drv.box._ensure_runtime()
        lo = rt.origin + (rt.k_m - rt.k_th) * rt.delta
        hi = rt.origin + (rt.k_M + rt.k_th) * rt.delta
        for _ in range(30):
            assert lo - 1e-9 <= drv.noise(0.0).value <= hi + 1e-9

    def test_cordic_frac_bits_validation(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            DPBoxConfig(cordic_frac_bits=4)
