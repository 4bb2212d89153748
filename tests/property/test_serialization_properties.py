"""Property-based tests: config serialization round-trips."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DPBoxConfig, GuardMode
from repro.core.serialization import config_from_dict, config_to_dict
from repro.mechanisms import SensorSpec
from repro.rng import FxpDatapath


@st.composite
def dpbox_configs(draw):
    loss_multiple = draw(st.floats(min_value=1.1, max_value=5.0))
    n_levels = draw(st.integers(min_value=1, max_value=4))
    levels = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.1, max_value=loss_multiple),
                min_size=n_levels,
                max_size=n_levels,
                unique=True,
            )
        )
    )
    return DPBoxConfig(
        input_bits=draw(st.integers(min_value=2, max_value=40)),
        output_bits=draw(st.integers(min_value=4, max_value=40)),
        range_frac_bits=draw(st.integers(min_value=1, max_value=16)),
        guard_mode=draw(st.sampled_from(list(GuardMode))),
        loss_multiple=loss_multiple,
        segment_levels=tuple(levels),
        cache_on_exhaustion=draw(st.booleans()),
        fixed_resample_draws=draw(st.integers(min_value=0, max_value=8)),
        use_cordic_log=draw(st.booleans()),
        cordic_frac_bits=draw(st.integers(min_value=8, max_value=32)),
    )


@settings(max_examples=60)
@given(cfg=dpbox_configs())
def test_dpbox_round_trip_identity(cfg):
    assert config_from_dict(config_to_dict(cfg)) == cfg


@settings(max_examples=60)
@given(cfg=dpbox_configs())
def test_dict_is_json_safe(cfg):
    encoded = json.dumps(config_to_dict(cfg))
    assert config_from_dict(json.loads(encoded)) == cfg


@settings(max_examples=40)
@given(
    m=st.floats(min_value=-1e6, max_value=1e6),
    d=st.floats(min_value=1e-3, max_value=1e6),
)
def test_sensor_spec_round_trip(m, d):
    spec = SensorSpec(m, m + d)
    assert config_from_dict(config_to_dict(spec)) == spec


@settings(max_examples=40)
@given(
    input_bits=st.integers(min_value=2, max_value=40),
    output_bits=st.integers(min_value=2, max_value=40),
    delta=st.floats(min_value=1e-6, max_value=1e3),
)
def test_fxp_config_round_trip(input_bits, output_bits, delta):
    cfg = FxpDatapath(input_bits=input_bits, output_bits=output_bits, delta=delta)
    assert config_from_dict(config_to_dict(cfg)) == cfg
