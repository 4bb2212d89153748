"""Codebook cache: LRU behavior, budgets, stats, and kernel reporting."""

import numpy as np
import pytest

from repro.core import DPBox, DPBoxConfig, DPBoxDriver
from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec, make_mechanism
from repro.rng import (
    CordicLn,
    FxpDatapath,
    FxpGaussianRng,
    FxpGeometricRng,
    FxpLaplaceRng,
    FxpStaircaseRng,
    IdealTwoSidedGeometric,
    StaircaseParams,
    codebook_cache,
    configure_codebooks,
)
from repro.rng.codebook import (
    DEFAULT_MAX_ENTRIES,
    DEFAULT_TABLE_BUDGET_BYTES,
    CodebookCache,
    backend_fingerprint,
)
from repro.runtime import CounterSink, ReleasePipeline


DATAPATH = FxpDatapath(input_bits=8, output_bits=20, delta=0.25)


def lap(bits=8, lam=8.0, **kwargs):
    """A Laplace generator; the cache tables its live datapath."""
    datapath = FxpDatapath(input_bits=bits, output_bits=20, delta=0.25)
    return FxpLaplaceRng(datapath, lam, **kwargs)


def staircase(gamma=None):
    return FxpStaircaseRng(DATAPATH, StaircaseParams(sensitivity=2.0, epsilon=0.5, gamma=gamma))


class TestCacheLRU:
    def test_hit_returns_same_entry(self):
        cache = CodebookCache()
        e1 = cache.get(lap())
        e2 = cache.get(lap())
        assert e1 is e2
        assert cache.stats()["hits"] == 1
        assert cache.stats()["builds"] == 1

    def test_distinct_backends_distinct_entries(self):
        cache = CodebookCache()
        exact = cache.get(lap())
        cordic = cache.get(lap(log_backend=CordicLn()))
        assert exact is not cordic
        assert len(cache) == 2

    def test_lru_evicts_oldest(self):
        cache = CodebookCache(max_entries=2)
        rngs = [lap(lam=l) for l in (4.0, 8.0, 16.0)]
        for rng in rngs:
            cache.get(rng)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.peek(rngs[0]) is None  # the oldest went
        assert cache.peek(rngs[2]) is not None

    def test_get_refreshes_recency(self):
        cache = CodebookCache(max_entries=2)
        a, b, c = (lap(lam=l) for l in (4.0, 8.0, 16.0))
        cache.get(a)
        cache.get(b)
        cache.get(a)  # touch a — b becomes LRU
        cache.get(c)
        assert cache.peek(a) is not None
        assert cache.peek(b) is None

    def test_stats_reconcile_with_get_calls(self):
        cache = CodebookCache(max_entries=2, table_budget_bytes=1024)
        calls = 0
        for rng in [lap(bits=6), lap(bits=6), lap(bits=7), lap(bits=12)]:
            cache.get(rng)  # bits=12 > 1 KiB budget
            calls += 1
        s = cache.stats()
        assert s["hits"] + s["builds"] + s["budget_fallbacks"] == calls
        assert s["budget_fallbacks"] == 1
        assert s["bytes"] == cache.total_bytes

    def test_clear_resets_everything(self):
        cache = CodebookCache()
        cache.get(lap())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["builds"] == 0


class TestBudget:
    def test_over_budget_returns_none(self):
        cache = CodebookCache(table_budget_bytes=64)
        assert cache.get(lap(bits=8)) is None  # 256 * 4 bytes > 64
        assert cache.budget_fallbacks == 1

    def test_planned_bytes_int32(self):
        cache = CodebookCache()
        rng = lap(bits=10)
        assert cache.planned_bytes(rng) == (1 << 10) * 4
        entry = cache.get(rng)
        assert entry.table.dtype == np.int32
        assert entry.nbytes == cache.planned_bytes(rng)

    def test_table_dtype_widens_past_int32(self):
        assert CodebookCache._table_dtype((1 << 31) - 1) is np.int32
        assert CodebookCache._table_dtype(1 << 31) is np.int64

    def test_invalid_limits_rejected(self):
        with pytest.raises(ConfigurationError):
            CodebookCache(max_entries=0)
        with pytest.raises(ConfigurationError):
            CodebookCache(table_budget_bytes=0)


class TestConfigureProcessCache:
    def test_shrink_evicts_immediately(self):
        cache = codebook_cache()
        try:
            cache.clear()
            for l in (4.0, 8.0, 16.0):
                cache.get(lap(lam=l))
            configure_codebooks(max_entries=1)
            assert len(cache) == 1
            assert cache.evictions == 2
        finally:
            configure_codebooks(
                max_entries=DEFAULT_MAX_ENTRIES,
                table_budget_bytes=DEFAULT_TABLE_BUDGET_BYTES,
            )
            cache.clear()

    def test_budget_change_gates_future_gets(self):
        cache = codebook_cache()
        try:
            cache.clear()
            configure_codebooks(table_budget_bytes=64)
            assert lap(bits=8, kernel="auto").kernel == "live"
            with pytest.raises(ConfigurationError):
                lap(bits=8, kernel="codebook").kernel
        finally:
            configure_codebooks(
                max_entries=DEFAULT_MAX_ENTRIES,
                table_budget_bytes=DEFAULT_TABLE_BUDGET_BYTES,
            )
            cache.clear()


class TestBackendFingerprint:
    def test_exact_and_hardware_backends(self):
        assert backend_fingerprint(None) == ("exact-f64",)
        assert backend_fingerprint(CordicLn(frac_bits=20, n_iterations=16)) == (
            "cordic",
            20,
            16,
        )

    def test_unknown_backend_keys_by_identity(self):
        class Weird:
            def ln_uniform(self, m, input_bits):  # pragma: no cover
                return 0.0

        w = Weird()
        assert backend_fingerprint(w) != backend_fingerprint(Weird())
        assert backend_fingerprint(w) == backend_fingerprint(w)


class TestGeneratorFingerprint:
    """One cache entry per distinct m → k map, whatever the distribution."""

    def test_same_datapath_different_generator_or_parameters(self):
        cache = CodebookCache()
        rngs = [
            lap(),
            lap(lam=4.0),
            staircase(),
            staircase(gamma=0.3),
            FxpGaussianRng(DATAPATH, sigma=3.0),
            FxpGaussianRng(DATAPATH, sigma=4.0),
            FxpGeometricRng(DATAPATH, IdealTwoSidedGeometric(0.9)),
        ]
        entries = [cache.get(rng) for rng in rngs]
        assert len({id(e) for e in entries}) == len(rngs) == len(cache)
        assert len({rng.fingerprint for rng in rngs}) == len(rngs)
        # Equal parameters share, whichever instance asks.
        assert cache.get(staircase(gamma=0.3)) is entries[3]
        assert cache.get(FxpGaussianRng(DATAPATH, sigma=3.0)) is entries[4]

    def test_fingerprint_is_class_datapath_and_parameters(self):
        rng = lap(log_backend=CordicLn(frac_bits=20, n_iterations=16))
        assert rng.fingerprint == (
            "FxpLaplaceRng", rng.config, 8.0, ("cordic", 20, 16)
        )
        assert staircase().fingerprint == ("FxpStaircaseRng", DATAPATH, staircase().params)

    def test_kernel_validated_by_every_generator(self):
        with pytest.raises(ConfigurationError):
            FxpGaussianRng(DATAPATH, sigma=3.0, kernel="fast")
        with pytest.raises(ConfigurationError):
            lap(kernel="fast")


class TestSharedPmf:
    def test_enumerated_pmf_shared_across_instances(self):
        """_pmf_cache routes through the process cache: one PMF object."""
        a = lap(bits=9, kernel="codebook")
        b = lap(bits=9, kernel="codebook")
        assert a.exact_pmf("enumerate") is b.exact_pmf("enumerate")

    def test_live_kernel_keeps_private_pmf(self):
        a = lap(bits=9, kernel="live")
        b = lap(bits=9, kernel="live")
        pa, pb = a.exact_pmf("enumerate"), b.exact_pmf("enumerate")
        assert pa is not pb
        assert pa.total_variation(pb) == 0.0


class TestKernelReporting:
    def test_counter_sink_per_kernel(self):
        counters = CounterSink()
        pipe = ReleasePipeline(sinks=[counters])
        sensor = SensorSpec(0.0, 8.0)
        kwargs = dict(input_bits=10, output_bits=16, delta=8 / 64, pipeline=pipe)
        cb = make_mechanism("baseline", sensor, 0.5, kernel="codebook", **kwargs)
        live = make_mechanism("baseline", sensor, 0.5, kernel="live", **kwargs)
        cb.release(np.full(7, 3.0))
        cb.release(np.full(5, 3.0))
        live.release(np.full(2, 3.0))
        per = counters.per_kernel
        assert per["codebook"]["events"] == 2
        assert per["codebook"]["draws"] == 12
        assert per["live"]["events"] == 1
        assert per["live"]["draws"] == 2
        assert "per_kernel" in counters.summary()

    def test_mechanism_event_carries_kernel(self):
        pipe = ReleasePipeline()
        sensor = SensorSpec(0.0, 8.0)
        mech = make_mechanism(
            "thresholding", sensor, 0.5, input_bits=10, output_bits=16,
            delta=8 / 64, pipeline=pipe, kernel="auto",
        )
        with pipe.capture() as ring:
            mech.release(np.array([4.0]))
        assert ring.events[-1].kernel == "codebook"

    def test_dpbox_event_carries_kernel(self):
        counters = CounterSink()
        pipe = ReleasePipeline(sinks=[counters])
        box = DPBox(
            DPBoxConfig(input_bits=10, range_frac_bits=6), pipeline=pipe
        )
        driver = DPBoxDriver(box)
        driver.initialize(budget=5.0)
        driver.configure(
            epsilon_exponent=1, range_lower=0.0, range_upper=8.0
        )
        driver.noise(4.0)
        assert "codebook" in counters.per_kernel
        assert counters.per_kernel["codebook"]["events"] >= 1
