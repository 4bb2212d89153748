"""Config JSON round-trips."""

import pytest

from repro.core import ChannelConfig, DPBoxConfig, GuardMode
from repro.core.serialization import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec
from repro.rng import FxpDatapath


class TestRoundTrips:
    def test_dpbox_config(self):
        cfg = DPBoxConfig(
            input_bits=14,
            guard_mode=GuardMode.RESAMPLE,
            segment_levels=(1.0, 2.0),
            use_cordic_log=True,
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_fxp_datapath(self):
        cfg = FxpDatapath(input_bits=12, output_bits=16, delta=0.25)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_sensor_spec(self):
        spec = SensorSpec(94.0, 200.0)
        assert config_from_dict(config_to_dict(spec)) == spec

    def test_channel_config_with_nested_sensor(self):
        ch = ChannelConfig(
            "temp", SensorSpec(0.0, 40.0), 0.5, guard_mode=GuardMode.RESAMPLE
        )
        rebuilt = config_from_dict(config_to_dict(ch))
        assert rebuilt == ch
        assert isinstance(rebuilt.sensor, SensorSpec)

    def test_file_round_trip(self, tmp_path):
        cfg = DPBoxConfig(input_bits=17, loss_multiple=3.0, segment_levels=(1.5, 3.0))
        path = tmp_path / "dpbox.json"
        save_config(cfg, path)
        assert load_config(path, DPBoxConfig) == cfg

    def test_guard_mode_serialized_by_value(self):
        d = config_to_dict(DPBoxConfig(guard_mode=GuardMode.RESAMPLE))
        assert d["guard_mode"] == "resample"


class TestErrorHandling:
    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"type": "Nonsense"})

    def test_missing_discriminator(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"input_bits": 14})

    def test_unknown_field_rejected(self):
        d = config_to_dict(DPBoxConfig())
        d["budgget"] = 5  # typo must not be silently dropped
        with pytest.raises(ConfigurationError):
            config_from_dict(d)

    def test_expected_type_enforced(self):
        d = config_to_dict(SensorSpec(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            config_from_dict(d, DPBoxConfig)

    def test_unsupported_object(self):
        with pytest.raises(ConfigurationError):
            config_to_dict(object())

    def test_invalid_values_still_validated(self):
        d = config_to_dict(DPBoxConfig())
        d["input_bits"] = 99
        with pytest.raises(ConfigurationError):
            config_from_dict(d)

    def test_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(path)
