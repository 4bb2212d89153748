"""BIST self-test: healthy components pass, injected faults are caught."""

import numpy as np
import pytest

from repro.core.selftest import (
    bit_bias_scan,
    cordic_check,
    monobit_check,
    noise_shape_check,
    run_selftest,
    runs_check,
)
from repro.errors import ConfigurationError
from repro.rng import (
    CordicLn,
    FxpDatapath,
    FxpLaplaceRng,
    NumpySource,
    TauswortheSource,
)
from repro.rng.urng import UniformCodeSource


class StuckBitSource(UniformCodeSource):
    """Fault model: one output bit line stuck at 1."""

    def __init__(self, inner, stuck_bit: int):
        self.inner = inner
        self.mask = 1 << stuck_bit

    def uniform_codes(self, n, bits):
        codes = self.inner.uniform_codes(n, bits)
        return np.minimum(codes | self.mask, 1 << bits)

    def random_bits(self, n):
        return self.inner.random_bits(n)


class BiasedSource(UniformCodeSource):
    """Fault model: entropy collapse — codes squeezed into the top half."""

    def __init__(self, inner):
        self.inner = inner

    def uniform_codes(self, n, bits):
        codes = self.inner.uniform_codes(n, bits)
        half = 1 << (bits - 1)
        return half + (codes - 1) // 2 + 1

    def random_bits(self, n):
        return self.inner.random_bits(n)


class ConstantSource(UniformCodeSource):
    """Fault model: the generator froze."""

    def uniform_codes(self, n, bits):
        return np.full(n, 1 << (bits - 1), dtype=np.int64)

    def random_bits(self, n):
        return np.zeros(n, dtype=np.int64)


class TestHealthyComponentsPass:
    @pytest.mark.parametrize("source_cls", [TauswortheSource, NumpySource])
    def test_urng_checks_pass(self, source_cls):
        src = source_cls()
        assert monobit_check(src).passed
        assert runs_check(src).passed
        assert bit_bias_scan(src).passed

    def test_cordic_passes(self):
        assert cordic_check(CordicLn(frac_bits=24, n_iterations=24)).passed

    def test_noise_shape_passes(self):
        datapath = FxpDatapath(input_bits=12, output_bits=16, delta=1 / 16)
        rng = FxpLaplaceRng(datapath, 2.0, source=NumpySource(seed=5))
        assert noise_shape_check(rng).passed

    def test_full_selftest_passes(self):
        report = run_selftest(TauswortheSource(seed=11))
        assert report.passed
        assert "PASSED" in report.describe()
        assert len(report.checks) == 5


class TestFaultsDetected:
    def test_stuck_bit_detected(self):
        faulty = StuckBitSource(NumpySource(seed=0), stuck_bit=13)
        assert not bit_bias_scan(faulty).passed

    def test_entropy_collapse_detected(self):
        faulty = BiasedSource(NumpySource(seed=1))
        report = run_selftest(faulty)
        assert not report.passed

    def test_frozen_generator_detected(self):
        report = run_selftest(ConstantSource())
        assert not report.passed
        # Both bit-level and distribution-level checks should scream.
        failing = {c.name for c in report.checks if not c.passed}
        assert "urng-runs" in failing or "urng-monobit" in failing

    def test_broken_log_unit_detected(self):
        # Starve the CORDIC of iterations: large ln error.
        assert not cordic_check(CordicLn(frac_bits=24, n_iterations=4)).passed

    def test_wrong_noise_scale_detected(self):
        # The datapath samples at twice the configured scale: URNG healthy,
        # transform corrupted — only the shape check can catch it.
        datapath = FxpDatapath(input_bits=12, output_bits=16, delta=1 / 16)

        class WrongScaleRng(FxpLaplaceRng):
            def exact_pmf(self, method="enumerate"):
                return FxpLaplaceRng(datapath, 2.0).exact_pmf(method)

        rng = WrongScaleRng(datapath, 4.0, source=NumpySource(seed=2))
        assert not noise_shape_check(rng).passed


class TestValidation:
    def test_minimum_bits(self):
        with pytest.raises(ConfigurationError):
            monobit_check(NumpySource(seed=0), n_bits=100)
        with pytest.raises(ConfigurationError):
            runs_check(NumpySource(seed=0), n_bits=100)

    def test_minimum_samples(self):
        datapath = FxpDatapath(input_bits=10, output_bits=14, delta=1 / 8)
        with pytest.raises(ConfigurationError):
            noise_shape_check(FxpLaplaceRng(datapath, 2.0), n_samples=100)

    def test_check_result_describe(self):
        res = monobit_check(NumpySource(seed=3))
        assert "urng-monobit" in res.describe()
