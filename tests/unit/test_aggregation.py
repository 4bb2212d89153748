"""Aggregation substrate: reports, devices, server, fleet harness."""

import numpy as np
import pytest

from repro.aggregation import AggregationServer, Device, Report, run_fleet
from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec, make_mechanism

SENSOR = SensorSpec(0.0, 8.0)
KW = dict(input_bits=12, output_bits=16, delta=8 / 64)


def make_device(device_id="dev-1", budget=None):
    return Device(device_id, make_mechanism("thresholding", SENSOR, 0.5, **KW), budget)


class TestReport:
    def test_valid(self):
        r = Report(device_id="d", epoch=0, value=1.0, claimed_loss=0.5)
        assert r.value == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Report(device_id="", epoch=0, value=1.0, claimed_loss=0.5)
        with pytest.raises(ConfigurationError):
            Report(device_id="d", epoch=-1, value=1.0, claimed_loss=0.5)
        with pytest.raises(ConfigurationError):
            Report(device_id="d", epoch=0, value=1.0, claimed_loss=0.0)


class TestDevice:
    def test_report_carries_noised_value(self):
        dev = make_device()
        r = dev.report(4.0, epoch=0)
        assert r.device_id == "dev-1"
        assert r.claimed_loss == pytest.approx(1.0)  # 2·ε

    def test_reports_vary(self):
        dev = make_device()
        values = {dev.report(4.0, epoch=0).value for _ in range(20)}
        assert len(values) > 3

    def test_budget_caps_fresh_reports(self):
        dev = make_device(budget=3.0)
        replies = [dev.report(4.0, epoch=e) for e in range(10)]
        assert dev.n_fresh == 3  # 3.0 / 1.0 per report
        assert dev.n_cached == 7
        cached_values = {r.value for r in replies[3:]}
        assert len(cached_values) == 1  # replayed

    def test_replenish(self):
        dev = make_device(budget=1.0)
        dev.report(4.0, epoch=0)
        dev.report(4.0, epoch=1)
        assert dev.n_cached == 1
        dev.replenish()
        dev.report(4.0, epoch=2)
        assert dev.n_fresh == 2

    def test_budget_exhausted_without_cache_raises(self):
        dev = make_device(budget=0.5)  # below one report's loss
        with pytest.raises(ConfigurationError):
            dev.report(4.0, epoch=0)

    def test_no_budget_unlimited(self):
        dev = make_device(budget=None)
        for e in range(20):
            dev.report(4.0, epoch=e)
        assert dev.n_fresh == 20
        assert dev.remaining_budget is None


class TestServer:
    @pytest.fixture()
    def loaded_server(self):
        server = AggregationServer(noise_scale=16.0)
        rng = np.random.default_rng(0)
        dev_values = rng.uniform(0, 8, 200)
        mech = make_mechanism("thresholding", SENSOR, 0.5, **KW)
        for epoch in range(3):
            noised = mech.privatize(dev_values)
            for i, v in enumerate(noised):
                server.submit(
                    Report(device_id=f"d{i}", epoch=epoch, value=float(v), claimed_loss=1.0)
                )
        return server, dev_values

    def test_epochs_listed(self, loaded_server):
        server, _ = loaded_server
        assert server.epochs == [0, 1, 2]

    def test_summary_counts(self, loaded_server):
        server, _ = loaded_server
        s = server.summarize(0)
        assert s.n_reports == 200 and s.n_devices == 200

    def test_mean_estimate_close(self, loaded_server):
        server, dev_values = loaded_server
        s = server.summarize(0)
        # λ=16, N=200 → std of mean ≈ 1.6
        assert s.mean == pytest.approx(dev_values.mean(), abs=6.0)

    def test_debiased_variance_closer(self, loaded_server):
        server, dev_values = loaded_server
        s = server.summarize(0)
        assert s.variance_debiased is not None
        true_var = float(dev_values.var())
        assert abs(s.variance_debiased - true_var) < abs(s.variance - true_var)

    def test_count_above(self, loaded_server):
        server, _ = loaded_server
        c = server.count_above(0, threshold=4.0)
        assert 0 <= c <= 200

    def test_unknown_epoch(self, loaded_server):
        server, _ = loaded_server
        with pytest.raises(ConfigurationError):
            server.reports(99)

    def test_worst_case_disclosure_composition(self):
        server = AggregationServer()
        for epoch in range(5):
            server.submit(
                Report(device_id="d0", epoch=epoch, value=float(epoch), claimed_loss=0.5)
            )
        assert server.worst_case_disclosure("d0") == pytest.approx(2.5)
        assert server.worst_case_disclosure("ghost") == 0.0

    def test_disclosure_bound_is_conservative_for_replays(self):
        server = AggregationServer()
        # The same cached value replayed across epochs still counts —
        # the server cannot verify the device's cache claims.
        for epoch in range(4):
            server.submit(
                Report(device_id="d0", epoch=epoch, value=7.0, claimed_loss=1.0)
            )
        assert server.worst_case_disclosure("d0") == pytest.approx(4.0)


class TestFleet:
    def test_fleet_estimates_track_truth(self):
        rng = np.random.default_rng(1)
        truth = rng.normal(4.0, 0.5, size=(4, 400)).clip(0, 8)
        result = run_fleet(
            truth, SENSOR, epsilon=0.5, rng=np.random.default_rng(2), **KW
        )
        assert len(result.estimated_means) == 4
        assert result.mean_abs_error < 2.0

    def test_dropout_tolerated(self):
        rng = np.random.default_rng(3)
        truth = rng.normal(4.0, 0.5, size=(3, 100)).clip(0, 8)
        result = run_fleet(
            truth,
            SENSOR,
            epsilon=0.5,
            dropout=0.5,
            rng=np.random.default_rng(4),
            **KW,
        )
        for e in result.server.epochs:
            n = result.server.summarize(e).n_reports
            assert 0 < n < 100

    def test_device_budgets_enforced(self):
        truth = np.full((10, 20), 4.0)
        result = run_fleet(
            truth,
            SENSOR,
            epsilon=0.5,
            device_budget=3.0,
            rng=np.random.default_rng(5),
            **KW,
        )
        for dev in result.devices:
            assert dev.n_fresh <= 3
            # The device's own accountant is the authoritative bound...
            assert dev.remaining_budget is not None
            actual = 3.0 - dev.remaining_budget
            assert actual <= 3.0 + 1e-9
            # ...and the server's conservative bound can only exceed it
            # (it cannot distinguish cached replays from fresh reports).
            server_bound = result.server.worst_case_disclosure(dev.device_id)
            assert server_bound >= actual - 1e-9

    def test_validation(self):
        # Both paths validate the fleet shape through one shared helper.
        for batched in (True, False):
            with pytest.raises(ConfigurationError):
                run_fleet(np.zeros(5), SENSOR, 0.5, batched=batched)
            with pytest.raises(ConfigurationError):
                run_fleet(np.zeros((2, 3)), SENSOR, 0.5, dropout=1.0, batched=batched)
            with pytest.raises(ConfigurationError, match="n_devices"):
                run_fleet(np.zeros((2, 0)), SENSOR, 0.5, batched=batched)

    @pytest.mark.parametrize("batched", [True, False])
    def test_shared_noise_source_refused(self, batched):
        # Noise streams are derived from source_seed on both paths, so a
        # caller-supplied source would be silently ignored or aliased.
        # (`rng` and `pipeline` are run_fleet's own parameters — the
        # dropout generator and the event pipeline — so they never reach
        # the mechanism kwargs.)
        from repro.rng.urng import SplitStreamSource

        with pytest.raises(ConfigurationError, match="'source'"):
            run_fleet(
                np.full((2, 3), 4.0), SENSOR, 0.5, batched=batched,
                source=SplitStreamSource(1), **KW,
            )


class TestTypedEpochErrors:
    def test_values_unknown_epoch_typed(self):
        server = AggregationServer()
        with pytest.raises(ConfigurationError):
            server.values(7)

    def test_summarize_unknown_epoch_typed(self):
        server = AggregationServer()
        with pytest.raises(ConfigurationError):
            server.summarize(7)

    def test_streaming_unknown_epoch_typed(self):
        server = AggregationServer(streaming=True)
        server.submit(Report(device_id="d0", epoch=0, value=1.0, claimed_loss=0.5))
        with pytest.raises(ConfigurationError):
            server.summarize(7)
        with pytest.raises(ConfigurationError):
            server.count_above(7, 0.0)


class TestSubmitArray:
    def test_retain_mode_materializes_reports(self):
        server = AggregationServer()
        server.submit_array(
            0, np.asarray([1.0, 2.0, 3.0]), 0.5, device_ids=["a", "b", "c"]
        )
        reports = server.reports(0)
        assert [r.device_id for r in reports] == ["a", "b", "c"]
        assert [r.value for r in reports] == [1.0, 2.0, 3.0]
        assert all(r.claimed_loss == 0.5 for r in reports)
        assert np.array_equal(server.values(0), [1.0, 2.0, 3.0])

    def test_retain_mode_requires_device_ids(self):
        server = AggregationServer()
        with pytest.raises(ConfigurationError):
            server.submit_array(0, np.asarray([1.0]), 0.5)

    def test_length_mismatch_rejected(self):
        server = AggregationServer()
        with pytest.raises(ConfigurationError):
            server.submit_array(0, np.asarray([1.0, 2.0]), 0.5, device_ids=["a"])

    def test_worst_case_disclosure_counts_array_submissions(self):
        server = AggregationServer()
        server.submit(Report(device_id="a", epoch=0, value=1.0, claimed_loss=0.5))
        server.submit_array(1, np.asarray([2.0, 3.0]), 0.5, device_ids=["a", "b"])
        server.submit_array(2, np.asarray([4.0]), 0.5, device_ids=["a"])
        assert server.worst_case_disclosure("a") == pytest.approx(1.5)
        assert server.worst_case_disclosure("b") == pytest.approx(0.5)
        assert server.worst_case_disclosure("ghost") == 0.0


class TestStreamingServer:
    @staticmethod
    def fill(server, n_epochs=3, n_devices=50):
        rng = np.random.default_rng(5)
        batches = rng.normal(4.0, 2.0, size=(n_epochs, n_devices))
        for epoch in range(n_epochs):
            server.submit_array(epoch, batches[epoch, :30], 0.5)
            server.submit_array(epoch, batches[epoch, 30:], 0.5)
        return batches

    def test_memory_is_o_epochs_not_o_reports(self):
        # The acceptance check: a streaming server retains zero reports
        # no matter how many arrive; a retaining server keeps them all.
        streaming = AggregationServer(streaming=True)
        self.fill(streaming)
        assert streaming.n_retained_reports == 0

        retain = AggregationServer()
        rng = np.random.default_rng(5)
        for epoch in range(3):
            retain.submit_array(
                epoch,
                rng.normal(size=50),
                0.5,
                device_ids=[f"d{i}" for i in range(50)],
            )
        assert retain.n_retained_reports == 150

    def test_moments_match_raw_statistics(self):
        server = AggregationServer(noise_scale=2.0, streaming=True)
        batches = self.fill(server)
        for epoch in range(batches.shape[0]):
            vals = batches[epoch]
            s = server.summarize(epoch)
            assert s.n_reports == vals.size
            assert s.mean == pytest.approx(vals.mean(), rel=1e-12)
            assert s.variance == pytest.approx(vals.var(), rel=1e-9)
            assert s.variance_debiased == pytest.approx(
                max(vals.var() - 2 * 2.0**2, 0.0), rel=1e-9
            )
            assert np.isnan(s.median)
            m = server.moments(epoch)
            assert m["min"] == vals.min() and m["max"] == vals.max()

    def test_registered_count_above(self):
        server = AggregationServer(streaming=True, count_thresholds=(4.0,))
        batches = self.fill(server)
        assert server.count_above(0, 4.0) == int((batches[0] > 4.0).sum())
        with pytest.raises(ConfigurationError):
            server.count_above(0, 1.0)

    def test_raw_report_queries_raise_typed(self):
        server = AggregationServer(streaming=True)
        self.fill(server)
        with pytest.raises(ConfigurationError):
            server.values(0)
        with pytest.raises(ConfigurationError):
            server.reports(0)

    def test_moments_accessor_is_streaming_only(self):
        server = AggregationServer()
        with pytest.raises(ConfigurationError):
            server.moments(0)

    def test_bulk_disclosure_recording(self):
        server = AggregationServer(streaming=True)
        self.fill(server)
        server.record_claimed_losses({"d0": 1.5, "d1": 0.5})
        server.record_claimed_losses({"d0": 0.5})
        assert server.worst_case_disclosure("d0") == pytest.approx(2.0)
        assert server.worst_case_disclosure("d1") == pytest.approx(0.5)

    def test_mean_trend_streaming(self):
        server = AggregationServer(streaming=True)
        batches = self.fill(server)
        trend = server.mean_trend()
        assert trend == pytest.approx([b.mean() for b in batches], rel=1e-12)
