"""The seven evaluation datasets (paper Table I), synthesized.

No network access is available, so each UCI dataset is replaced by a
deterministic synthetic equivalent matched to its published entry count,
declared sensor range, mean, standard deviation, and qualitative shape
(DESIGN.md §4).  The numbers below are the UCI-documented statistics of
the attribute the paper privatizes (or our best reading of the paper's
partially corrupted Table I); they are configuration data, not
measurements.

Datasets are built lazily and deterministically: ``load(name)`` with the
same seed always returns the same values.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..mechanisms.base import SensorSpec
from .base import SensorDataset
from .synthetic import (
    bimodal_gaussian,
    clustered_uniform,
    decaying_exponential,
    skewed_lognormal,
    truncated_gaussian,
)

__all__ = ["DatasetConfig", "DATASET_CONFIGS", "PAPER_DATASETS", "load", "load_all"]


@dataclasses.dataclass(frozen=True)
class DatasetConfig:
    """Recipe for one synthetic Table-I dataset."""

    name: str
    entries: int
    lo: float
    hi: float
    mean: float
    std: float
    shape: str  # generator key
    description: str

    def generator(self) -> Callable:
        return _GENERATORS[self.shape]


_GENERATORS: Dict[str, Callable] = {
    "gaussian": truncated_gaussian,
    "bimodal": bimodal_gaussian,
    "skewed": skewed_lognormal,
    "exponential": decaying_exponential,
    "clustered": clustered_uniform,
}

#: Table-I dataset recipes.  Entry counts / ranges / moments follow the
#: UCI documentation of the privatized attribute.
DATASET_CONFIGS: Tuple[DatasetConfig, ...] = (
    DatasetConfig(
        name="auto-mpg",
        entries=398,
        lo=9.0,
        hi=46.6,
        mean=23.5,
        std=7.8,
        shape="skewed",
        description="Auto-MPG: fuel efficiency (miles per gallon), right-skewed",
    ),
    DatasetConfig(
        name="robot-sensors",
        entries=5456,
        lo=0.0,
        hi=5.0,
        mean=1.3,
        std=1.0,
        shape="exponential",
        description="Wall-following robot ultrasound ranges, decaying from 0",
    ),
    DatasetConfig(
        name="statlog-heart",
        entries=270,
        lo=94.0,
        hi=200.0,
        mean=131.3,
        std=17.8,
        shape="gaussian",
        description="Statlog (Heart): resting blood pressure, Gaussian-like",
    ),
    DatasetConfig(
        name="human-activity",
        entries=10299,
        lo=-1.0,
        hi=1.0,
        mean=-0.1,
        std=0.4,
        shape="bimodal",
        description="Smartphone human-activity feature (normalized), bimodal",
    ),
    DatasetConfig(
        name="localization-person",
        entries=164860,
        lo=-2.5,
        hi=6.5,
        mean=1.6,
        std=1.0,
        shape="clustered",
        description="Localization Data for Person Activity: tag coordinate",
    ),
    DatasetConfig(
        name="ujiindoorloc",
        entries=19937,
        lo=-7691.4,
        hi=-7300.8,
        mean=-7464.3,
        std=123.4,
        shape="clustered",
        description="UJIIndoorLoc: WiFi-localization longitude, multi-building",
    ),
    DatasetConfig(
        name="postural-transitions",
        entries=10929,
        lo=-1.0,
        hi=1.0,
        mean=0.15,
        std=0.32,
        shape="gaussian",
        description="Smartphone postural-transition feature, narrow peak",
    ),
)

#: Names in paper-table order.
PAPER_DATASETS: Tuple[str, ...] = tuple(c.name for c in DATASET_CONFIGS)

_BY_NAME: Dict[str, DatasetConfig] = {c.name: c for c in DATASET_CONFIGS}


def load(
    name: str,
    seed: int = 2018,
    entries: Optional[int] = None,
) -> SensorDataset:
    """Build one Table-I dataset deterministically.

    ``entries`` overrides the published count (used by the dataset-size
    sweeps of Figs. 14/15).
    """
    if name not in _BY_NAME:
        raise ConfigurationError(
            f"unknown dataset {name!r}; available: {sorted(_BY_NAME)}"
        )
    cfg = _BY_NAME[name]
    n = cfg.entries if entries is None else int(entries)
    if n < 1:
        raise ConfigurationError("entries must be positive")
    # crc32, not hash(): str hashes are salted per process (PYTHONHASHSEED).
    # dplint: allow[DPL001] -- deterministic dataset materialization only.
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))
    values = cfg.generator()(n, cfg.lo, cfg.hi, cfg.mean, cfg.std, rng=rng)
    return SensorDataset(
        name=cfg.name,
        values=values,
        sensor=SensorSpec(cfg.lo, cfg.hi),
        description=cfg.description,
    )


def load_all(seed: int = 2018) -> Dict[str, SensorDataset]:
    """Build every Table-I dataset."""
    return {name: load(name, seed=seed) for name in PAPER_DATASETS}
