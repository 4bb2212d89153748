"""Configuration (de)serialization.

Reproducible experiments need configurations on disk: these helpers
round-trip the library's frozen config dataclasses through plain JSON
(enums by value, tuples as lists).  Unknown keys are rejected rather than
ignored — a typo in a privacy configuration must not silently fall back
to a default.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Dict, Type, TypeVar, Union

from ..errors import ConfigurationError
from ..mechanisms.base import SensorSpec
from ..rng.inversion import FxpDatapath
from .config import DPBoxConfig, GuardMode
from .multisensor import ChannelConfig

__all__ = ["config_to_dict", "config_from_dict", "save_config", "load_config"]

T = TypeVar("T")

#: Dataclasses this module knows how to round-trip, keyed by type name.
_REGISTRY: Dict[str, type] = {
    cls.__name__: cls
    for cls in (DPBoxConfig, FxpDatapath, ChannelConfig, SensorSpec)
}


def _encode_value(value: Any) -> Any:
    if isinstance(value, GuardMode):
        return value.value
    if isinstance(value, SensorSpec):
        return config_to_dict(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def config_to_dict(config: Any) -> Dict[str, Any]:
    """Serialize a supported config dataclass to a plain dict.

    The dict carries a ``"type"`` discriminator so ``config_from_dict``
    can rebuild without being told the class.
    """
    name = type(config).__name__
    if name not in _REGISTRY:
        raise ConfigurationError(f"unsupported config type {name!r}")
    out: Dict[str, Any] = {"type": name}
    for field in dataclasses.fields(config):
        out[field.name] = _encode_value(getattr(config, field.name))
    return out


def _decode_field(cls: type, name: str, value: Any) -> Any:
    if cls is DPBoxConfig and name == "guard_mode":
        return GuardMode(value)
    if cls is ChannelConfig and name == "guard_mode":
        return GuardMode(value)
    if cls is ChannelConfig and name == "sensor":
        return config_from_dict(value, SensorSpec)
    if cls is DPBoxConfig and name == "segment_levels":
        return tuple(value)
    if cls is ChannelConfig and name == "segment_levels":
        return tuple(value)
    return value


def config_from_dict(data: Dict[str, Any], expected: Type[T] = None) -> T:
    """Rebuild a config dataclass from :func:`config_to_dict` output."""
    if not isinstance(data, dict) or "type" not in data:
        raise ConfigurationError("config dict must carry a 'type' discriminator")
    name = data["type"]
    if name not in _REGISTRY:
        raise ConfigurationError(f"unknown config type {name!r}")
    cls = _REGISTRY[name]
    if expected is not None and cls is not expected:
        raise ConfigurationError(
            f"expected a {expected.__name__}, got {name}"
        )
    field_names = {f.name for f in dataclasses.fields(cls)}
    payload = {k: v for k, v in data.items() if k != "type"}
    unknown = set(payload) - field_names
    if unknown:
        raise ConfigurationError(f"unknown {name} fields: {sorted(unknown)}")
    kwargs = {k: _decode_field(cls, k, v) for k, v in payload.items()}
    return cls(**kwargs)  # type: ignore[return-value]


def save_config(config: Any, path: Union[str, pathlib.Path]) -> None:
    """Write a config as pretty JSON."""
    pathlib.Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def load_config(path: Union[str, pathlib.Path], expected: Type[T] = None) -> T:
    """Read a config back from JSON."""
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot load config from {path}: {exc}") from exc
    return config_from_dict(data, expected)
