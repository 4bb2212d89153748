"""Shared fixtures.

Expensive objects (exact PMFs, calibrated mechanisms, DP-Box instances)
are session-scoped: they are immutable or are only read by the tests that
share them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DPBox, DPBoxConfig, DPBoxDriver, GuardMode, SensorSpec, make_mechanism
from repro.rng import FxpDatapath, FxpLaplaceRng


# ---------------------------------------------------------------------------
# Paper running example: Lap(20) from Fig. 4 (d=10, eps=0.5, Bu=17, By=12,
# delta=10/2**5).
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def fig4_rng() -> FxpLaplaceRng:
    return FxpLaplaceRng(FxpDatapath(input_bits=17, output_bits=12, delta=10 / 2**5), 20.0)


@pytest.fixture(scope="session")
def fig4_pmf(fig4_rng):
    return fig4_rng.exact_pmf()


# ---------------------------------------------------------------------------
# A small, fast configuration used wherever exactness matters more than
# realism: Bu=12 keeps enumeration and calibration cheap.
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def small_sensor() -> SensorSpec:
    return SensorSpec(0.0, 8.0)


@pytest.fixture(scope="session")
def small_kwargs() -> dict:
    return dict(input_bits=12, output_bits=16, delta=8.0 / 64)


@pytest.fixture(scope="session")
def small_baseline(small_sensor, small_kwargs):
    return make_mechanism("baseline", small_sensor, 0.5, **small_kwargs)


@pytest.fixture(scope="session")
def small_resampling(small_sensor, small_kwargs):
    return make_mechanism("resampling", small_sensor, 0.5, **small_kwargs)


@pytest.fixture(scope="session")
def small_thresholding(small_sensor, small_kwargs):
    return make_mechanism("thresholding", small_sensor, 0.5, **small_kwargs)


@pytest.fixture(scope="session")
def small_ideal(small_sensor):
    return make_mechanism("ideal", small_sensor, 0.5)


# ---------------------------------------------------------------------------
# A configured DP-Box (threshold mode, locked budget) shared by read-only
# tests; tests that exercise budget exhaustion build their own.
# ---------------------------------------------------------------------------
@pytest.fixture()
def dpbox_driver():
    box = DPBox(DPBoxConfig(input_bits=12, range_frac_bits=6))
    driver = DPBoxDriver(box)
    driver.initialize(budget=100.0, replenish_period=None)
    driver.configure(
        epsilon_exponent=1,
        range_lower=0.0,
        range_upper=8.0,
        mode=GuardMode.THRESHOLD,
    )
    return driver


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20180601)
