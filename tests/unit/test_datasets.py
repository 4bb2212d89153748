"""Dataset containers, synthetic generators, and the Table-I registry."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.datasets import (
    DATASET_CONFIGS,
    PAPER_DATASETS,
    SensorDataset,
    bimodal_gaussian,
    clustered_uniform,
    decaying_exponential,
    load,
    load_all,
    skewed_lognormal,
    truncated_gaussian,
)
from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec


class TestSensorDataset:
    def test_stats(self):
        ds = SensorDataset("t", np.array([1.0, 2.0, 3.0]), SensorSpec(0.0, 5.0))
        st = ds.stats()
        assert st.entries == 3 and st.mean == 2.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            SensorDataset("t", np.array([10.0]), SensorSpec(0.0, 5.0))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            SensorDataset("t", np.array([]), SensorSpec(0.0, 5.0))

    def test_subsample_without_replacement(self):
        ds = SensorDataset("t", np.arange(100.0), SensorSpec(0.0, 100.0))
        sub = ds.subsample(10, np.random.default_rng(0))
        assert sub.n == 10
        assert len(np.unique(sub.values)) == 10

    def test_subsample_with_replacement_when_oversized(self):
        ds = SensorDataset("t", np.arange(5.0), SensorSpec(0.0, 5.0))
        sub = ds.subsample(20, np.random.default_rng(0))
        assert sub.n == 20

    def test_stats_row_renders(self):
        ds = SensorDataset("t", np.array([1.0, 2.0]), SensorSpec(0.0, 5.0))
        assert "mean" in ds.stats().row()


GENERATORS = [
    truncated_gaussian,
    bimodal_gaussian,
    skewed_lognormal,
    decaying_exponential,
    clustered_uniform,
]


@pytest.mark.parametrize("gen", GENERATORS)
class TestGenerators:
    def test_within_bounds(self, gen):
        v = gen(2000, 0.0, 10.0, 5.0, 2.0, rng=np.random.default_rng(0))
        assert v.min() >= 0.0 and v.max() <= 10.0

    def test_moments_close(self, gen):
        v = gen(5000, 0.0, 10.0, 5.0, 2.0, rng=np.random.default_rng(1))
        assert v.mean() == pytest.approx(5.0, abs=0.5)
        assert v.std() == pytest.approx(2.0, abs=0.5)

    def test_size(self, gen):
        assert gen(123, 0.0, 1.0, 0.5, 0.1, rng=np.random.default_rng(2)).size == 123

    def test_validation(self, gen):
        with pytest.raises(ConfigurationError):
            gen(0, 0.0, 1.0, 0.5, 0.1)
        with pytest.raises(ConfigurationError):
            gen(10, 1.0, 0.0, 0.5, 0.1)


class TestShapes:
    def test_bimodal_has_two_modes(self):
        v = bimodal_gaussian(
            20000, -10, 10, 0.0, 2.0, separation=3.0, rng=np.random.default_rng(3)
        )
        hist, _ = np.histogram(v, bins=40)
        center = hist[18:22].mean()
        flanks = max(hist[10:15].mean(), hist[25:30].mean())
        assert flanks > center  # dip between the modes

    def test_skewed_is_right_skewed(self):
        v = skewed_lognormal(20000, 0, 50, 10.0, 5.0, rng=np.random.default_rng(4))
        assert np.mean(((v - v.mean()) / v.std()) ** 3) > 0.2


class TestRegistry:
    def test_seven_datasets(self):
        assert len(PAPER_DATASETS) == 7

    def test_load_all(self):
        all_ds = load_all(seed=1)
        assert set(all_ds) == set(PAPER_DATASETS)

    @pytest.mark.parametrize("cfg", DATASET_CONFIGS, ids=lambda c: c.name)
    def test_matches_published_stats(self, cfg):
        ds = load(cfg.name, seed=7)
        st = ds.stats()
        assert st.entries == cfg.entries
        assert st.minimum >= cfg.lo and st.maximum <= cfg.hi
        spread = cfg.hi - cfg.lo
        assert abs(st.mean - cfg.mean) < 0.1 * spread
        assert abs(st.std - cfg.std) < 0.15 * spread

    def test_deterministic(self):
        a = load("statlog-heart", seed=3)
        b = load("statlog-heart", seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_values_do_not_depend_on_the_hash_seed(self):
        # Python salts str hashes per process; two processes with
        # different PYTHONHASHSEED must still build identical datasets.
        script = (
            "import hashlib; from repro.datasets import PAPER_DATASETS, load; "
            "print([hashlib.sha256(load(n).values.tobytes()).hexdigest() "
            "for n in PAPER_DATASETS])"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        digests = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert digests[0] == digests[1] != ""

    def test_seed_changes_values(self):
        a = load("statlog-heart", seed=3)
        b = load("statlog-heart", seed=4)
        assert not np.array_equal(a.values, b.values)

    def test_entries_override(self):
        assert load("auto-mpg", entries=50).n == 50

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            load("mnist")
