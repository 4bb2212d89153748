"""Pre-admission guard chain: ALLOW / WARN / BLOCK / REPAIR semantics.

Unit tests for each guard's decision table and the chain's trichotomy
fold (admitted / repaired-with-delta / blocked-with-reason).  The
property-level "no silent drops" statement lives in
``tests/property/test_service_guard_properties.py``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service import (
    EpochBudgetGuard,
    GuardChain,
    RateLimitGuard,
    SchemaGuard,
    Verdict,
    default_chain,
    decode_binary_frame,
    encode_binary_counts,
)


def submit(epoch=0, ids=("a", "b"), values=(1.0, 2.0), loss=1.0, **extra):
    req = {
        "op": "submit",
        "epoch": epoch,
        "device_ids": list(ids),
        "values": list(values),
        "claimed_loss": loss,
    }
    req.update(extra)
    return req


def columns(**kwargs):
    """:func:`submit` with its values as the canonical float64 column
    the schema guard hands the guards after it."""
    req = submit(**kwargs)
    req["values"] = np.asarray(req["values"], dtype=np.float64)
    return req


class TestSchemaGuard:
    def test_clean_batch_allows(self):
        d = SchemaGuard().check(submit())
        assert d.verdict is Verdict.ALLOW
        assert d.request["values"].tolist() == [1.0, 2.0]

    def test_numeric_string_value_repaired_with_delta(self):
        d = SchemaGuard().check(submit(values=("3.25", 2.0)))
        assert d.verdict is Verdict.REPAIR
        assert d.request["values"].tolist() == [3.25, 2.0]
        assert any("3.25" in entry for entry in d.delta)

    def test_integral_float_epoch_repaired(self):
        d = SchemaGuard().check(submit(epoch=3.0))
        assert d.verdict is Verdict.REPAIR
        assert d.request["epoch"] == 3

    def test_unknown_field_dropped_with_delta(self):
        d = SchemaGuard().check(submit(debug="x"))
        assert d.verdict is Verdict.REPAIR
        assert "debug" not in d.request
        assert any("debug" in entry for entry in d.delta)

    def test_strict_mode_blocks_coercibles(self):
        guard = SchemaGuard(coerce=False)
        assert guard.check(submit(values=("3.25",), ids=("a",))).verdict \
            is Verdict.BLOCK
        assert guard.check(submit(epoch=3.0)).verdict is Verdict.BLOCK
        assert guard.check(submit(debug="x")).verdict is Verdict.BLOCK

    @pytest.mark.parametrize(
        "mutation",
        [
            {"epoch": -1},
            {"epoch": "zero"},
            {"values": []},
            {"values": [float("nan")]},
            {"values": [float("inf"), 1.0]},
            {"values": ["not a number", 1.0]},
            {"device_ids": ["a"]},  # length mismatch vs 2 values
            {"device_ids": ["a", ""]},
            {"device_ids": ["a", 7]},
            {"claimed_loss": 0.0},
            {"claimed_loss": -1.0},
            {"claimed_loss": float("nan")},
            {"claimed_loss": "much"},
        ],
    )
    def test_malformed_blocks_with_reason(self, mutation):
        req = submit()
        req.update(mutation)
        if "device_ids" in mutation:
            req["values"] = [1.0, 2.0]
        d = SchemaGuard().check(req)
        assert d.verdict is Verdict.BLOCK
        assert d.reason

    def test_oversized_batch_blocks(self):
        guard = SchemaGuard(max_batch=4)
        d = guard.check(
            submit(ids=[f"d{i}" for i in range(5)], values=[1.0] * 5)
        )
        assert d.verdict is Verdict.BLOCK
        assert "max_batch" in d.reason

    def test_counts_batch(self):
        guard = SchemaGuard()
        ok = guard.check(
            {"op": "submit_counts", "epoch": 0, "counts": [1, 2, 3],
             "n_reports": 6, "claimed_loss": 1.0}
        )
        assert ok.verdict is Verdict.ALLOW
        bad = guard.check(
            {"op": "submit_counts", "epoch": 0, "counts": [1, -2, 3],
             "n_reports": 6, "claimed_loss": 1.0}
        )
        assert bad.verdict is Verdict.BLOCK

    def test_wrapping_binary_counts_blocked(self):
        # Regression: the counts sum of a binary frame wrapped in int64
        # (4 * 2**62 == 0 mod 2**64) and passed the "impossible" rule.
        frame = encode_binary_counts(1, [2**62] * 4, 1, 1.0)
        outcome = default_chain().check(decode_binary_frame(frame[4:]))
        assert outcome.verdict == "blocked"
        assert outcome.reason == (
            f"counts sum {2**64} impossible for 1 reports over 4 categories"
        )

    def test_unknown_op_blocks(self):
        d = SchemaGuard().check({"op": "exfiltrate"})
        assert d.verdict is Verdict.BLOCK


class TestEpochBudgetGuard:
    def test_epoch_beyond_horizon_blocks(self):
        g = EpochBudgetGuard(epoch_horizon=10)
        assert g.check(submit(epoch=11)).verdict is Verdict.BLOCK
        assert g.check(submit(epoch=10)).verdict is Verdict.ALLOW

    def test_absurd_loss_blocks(self):
        g = EpochBudgetGuard(max_claimed_loss=4.0)
        assert g.check(submit(loss=4.5)).verdict is Verdict.BLOCK

    def test_high_loss_warns(self):
        g = EpochBudgetGuard(max_claimed_loss=4.0)  # warn level 2.0
        d = g.check(submit(loss=3.0))
        assert d.verdict is Verdict.WARN
        assert "warning level" in d.reason

    def test_device_budget_tracks_cumulative_loss(self):
        g = EpochBudgetGuard(device_budget=2.0)
        for epoch in (0, 1):
            req = submit(epoch=epoch, loss=1.0)
            d = g.check(req)
            assert d.verdict is Verdict.ALLOW
            d.commit(req)
        d = g.check(submit(epoch=2, loss=1.0))
        assert d.verdict is Verdict.BLOCK
        assert "past budget" in d.reason

    def test_check_charges_nothing_until_commit(self):
        # The busy-retry contract: a check whose batch the queue refused
        # must not have consumed budget — same batch, still admissible.
        g = EpochBudgetGuard(device_budget=1.0)
        assert g.check(submit(loss=1.0)).verdict is Verdict.ALLOW
        assert g.check(submit(loss=1.0)).verdict is Verdict.ALLOW
        assert g.spend_items() == []

    def test_returning_device_keeps_its_spend(self):
        # Spend is never evicted: a device that spent its whole budget
        # stays blocked however many other ids are admitted after it.
        g = EpochBudgetGuard(device_budget=4.0)
        first = submit(ids=("a",), values=(1.0,), loss=4.0)
        g.check(first).commit(first)
        for name in ("b", "c", "d", "e", "f"):
            req = submit(ids=(name,), values=(1.0,), loss=1.0)
            g.check(req).commit(req)
        d = g.check(submit(ids=("a",), values=(1.0,), loss=1.0))
        assert d.verdict is Verdict.BLOCK
        assert "past budget" in d.reason
        assert [dev for dev, _ in g.spend_items()] == ["a", "b", "c", "d", "e", "f"]


class TestRateLimitGuard:
    def test_under_limit_allows(self):
        g = RateLimitGuard(per_epoch_limit=1)
        first = columns()
        d = g.check(first)
        assert d.verdict is Verdict.ALLOW
        d.commit(first)
        # Same devices, different epoch: a fresh budget.
        assert g.check(columns(epoch=1)).verdict is Verdict.ALLOW

    def test_uncommitted_check_consumes_no_allowance(self):
        # A queue-refused (busy) batch never reached the server, so its
        # devices' per-epoch allowance must still be intact on retry.
        g = RateLimitGuard(per_epoch_limit=1)
        assert g.check(columns()).verdict is Verdict.ALLOW
        assert g.check(columns()).verdict is Verdict.ALLOW
        assert g.tracked_epochs() == []

    def test_duplicate_device_repaired_with_recorded_drop(self):
        g = RateLimitGuard(per_epoch_limit=1)
        first = columns()
        g.check(first).commit(first)
        d = g.check(columns(ids=("a", "c"), values=(9.0, 4.0)))
        assert d.verdict is Verdict.REPAIR
        assert d.request["device_ids"] == ["c"]
        assert d.request["values"].tolist() == [4.0]
        assert len(d.delta) == 1 and "'a'" in d.delta[0]

    def test_in_batch_duplicates_count(self):
        g = RateLimitGuard(per_epoch_limit=1)
        d = g.check(columns(ids=("a", "a"), values=(1.0, 2.0)))
        assert d.verdict is Verdict.REPAIR
        assert d.request["values"].tolist() == [1.0]

    def test_fully_over_limit_blocks_instead_of_empty_repair(self):
        g = RateLimitGuard(per_epoch_limit=1)
        first = columns()
        g.check(first).commit(first)
        d = g.check(columns())
        assert d.verdict is Verdict.BLOCK
        assert "rate limit" in d.reason

    def test_counts_batches_not_rate_limited(self):
        g = RateLimitGuard(per_epoch_limit=1)
        req = {"op": "submit_counts", "epoch": 0, "counts": [1, 2],
               "n_reports": 3, "claimed_loss": 1.0}
        assert g.check(req).verdict is Verdict.ALLOW
        assert g.check(req).verdict is Verdict.ALLOW

    def test_epoch_state_bounded(self):
        g = RateLimitGuard(per_epoch_limit=1, max_epochs_tracked=2)
        for epoch in range(5):
            req = columns(epoch=epoch)
            g.check(req).commit(req)
        assert len(g.tracked_epochs()) <= 2

    def test_stale_checks_commit_without_wrapping(self):
        # Every check rules before any commit lands, so each commit is
        # stale; the uint8 count column must widen, not wrap at 256.
        g = RateLimitGuard(per_epoch_limit=1)
        req = columns(ids=("a",), values=(1.0,))
        decisions = [g.check(req) for _ in range(300)]
        assert all(d.verdict is Verdict.ALLOW for d in decisions)
        for d in decisions:
            d.commit(req)
        assert g.check(req).verdict is Verdict.BLOCK
        assert g.epoch_counts(0) == [("a", 300)]

    @pytest.mark.parametrize("n_devices", [1024, 16384])
    def test_more_reports_into_an_epoch_add_no_state(self, n_devices):
        # An epoch's rate state is one count column over the slots, so
        # once it is sized, further reports only bump counts in place.
        g = RateLimitGuard(per_epoch_limit=4)
        ids = [f"dev-{i}" for i in range(n_devices)]
        g.device_index.intern(ids)
        req = columns(ids=ids, values=np.zeros(n_devices))

        def one_round():
            g.check(req).commit(req)

        one_round()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                one_round()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert g.epoch_counts(0)[-1] == (ids[-1], 4)
        assert grown < 1024


class TestGuardChain:
    def test_empty_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            GuardChain([])

    def test_block_stops_the_chain(self):
        chain = default_chain(max_claimed_loss=4.0)
        outcome = chain.check(submit(loss=100.0))
        assert outcome.verdict == "blocked"
        assert outcome.guard == "epoch-budget"
        assert not outcome.admitted

    def test_repairs_accumulate_across_guards(self):
        chain = default_chain()
        chain.check(submit()).commit()  # land device "a" for epoch 0
        outcome = chain.check(
            submit(ids=("a", "c"), values=("5.5", 1.0))
        )
        assert outcome.verdict == "repaired"
        assert outcome.admitted
        # Schema coercion delta AND rate-limit drop delta both recorded.
        assert any("5.5" in e for e in outcome.delta)
        assert any("rate limit" in e for e in outcome.delta)
        assert outcome.request["device_ids"] == ["c"]

    def test_unapplied_check_leaves_state_untouched(self):
        # The high-severity backpressure bug: a batch refused at the
        # queue (busy) must not have charged rate/budget state, or its
        # own retry becomes "every report over rate limit".
        chain = default_chain()
        assert chain.check(submit()).verdict == "admitted"  # refused, no commit
        retry = chain.check(submit())
        assert retry.verdict == "admitted"
        retry.commit()
        assert chain.check(submit()).verdict == "blocked"

    def test_commit_is_once_only(self):
        outcome = default_chain().check(submit())
        outcome.commit()
        with pytest.raises(ConfigurationError):
            outcome.commit()

    def test_blocked_outcome_cannot_commit(self):
        outcome = default_chain(max_claimed_loss=4.0).check(submit(loss=100.0))
        assert outcome.verdict == "blocked"
        with pytest.raises(ConfigurationError):
            outcome.commit()

    def test_rate_limit_rules_before_the_budget(self):
        assert [g.name for g in default_chain().guards] == [
            "schema",
            "rate-limit",
            "epoch-budget",
        ]

    def test_budget_counts_a_device_repeated_in_one_batch(self):
        # Regression: the budget screen used to check each distinct id
        # at spend + loss, so three reports of "a" at 4.0 passed a 10.0
        # budget and charged it 12.0.
        chain = default_chain(device_budget=10.0, per_epoch_limit=3)
        budget = chain.guards[2]
        outcome = chain.check(
            submit(ids=("a", "a", "a"), values=(1.0, 2.0, 3.0), loss=4.0)
        )
        assert outcome.verdict == "blocked"
        assert outcome.guard == "epoch-budget"
        assert outcome.reason == "1 device(s) past budget 10: a"
        assert budget.spend_items() == []
        outcome = chain.check(
            submit(ids=("a", "b", "a"), values=(1.0, 2.0, 3.0), loss=4.0)
        )
        assert outcome.verdict == "admitted"
        outcome.commit()
        assert budget.spend_items() == [("a", 8.0), ("b", 4.0)]

    def test_budget_charges_only_surviving_reports(self):
        chain = default_chain(device_budget=2.0)
        chain.check(submit(ids=("a",), values=(1.0,))).commit()
        # "a" is at its 1/epoch limit: the repair drops its report, so
        # its budget must not be charged for a report never folded.
        outcome = chain.check(submit(ids=("a", "b"), values=(9.0, 2.0)))
        assert outcome.verdict == "repaired"
        assert outcome.request["device_ids"] == ["b"]
        outcome.commit()
        # spent(a) is still 1.0, so a fresh-epoch report fits budget 2.0.
        assert chain.check(submit(epoch=1, ids=("a",), values=(1.0,))).verdict \
            == "admitted"

    def test_clean_admission_carries_no_delta(self):
        outcome = default_chain().check(submit())
        assert outcome.verdict == "admitted"
        assert outcome.delta == ()
        assert outcome.guard == "chain"

    def test_warnings_recorded_on_admission(self):
        chain = default_chain(max_claimed_loss=4.0)
        outcome = chain.check(submit(loss=3.0))
        assert outcome.verdict == "admitted"
        assert outcome.warnings and "warning level" in outcome.warnings[0]

    def test_repair_must_record_delta(self):
        from repro.service.guards import Guard

        class BadGuard(Guard):
            name = "bad"

            def check(self, request):
                return self.repair(dict(request), [])

        with pytest.raises(ConfigurationError):
            BadGuard().check(submit())
