"""The end-to-end benchmark's measurement helpers."""

import math
import statistics

import pytest

from _harness import (
    NullRecorder,
    SpanRecorder,
    TooFewSamples,
    quartiles,
    summarize,
    tail_percentile,
)


class TestTailPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 1001))  # 1..1000
        assert tail_percentile(samples, 50) == 500
        assert tail_percentile(samples, 99) == 990

    def test_refused_requests_count_as_infinite(self):
        samples = [1.0] * 980
        # 20 refusals are 2% of 1000 requests: p99 lands on one of them.
        assert tail_percentile(samples, 99, refused=20) == math.inf
        assert tail_percentile(samples, 50, refused=20) == 1.0
        # 5 refusals of 1000 stay beyond p99, which is still finite.
        assert tail_percentile([1.0] * 995, 99, refused=5) == 1.0

    def test_needs_ten_samples_beyond(self):
        tail_percentile(list(range(1000)), 99)  # ranks 991..1000 lie beyond
        with pytest.raises(TooFewSamples):
            tail_percentile(list(range(999)), 99)
        with pytest.raises(TooFewSamples):
            tail_percentile([], 50)

    def test_refusals_count_toward_the_samples_beyond(self):
        assert tail_percentile([2.0] * 991, 99, refused=10) == 2.0


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 3.2]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert summarize(values)["median"] == statistics.median(values)
    assert summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def _fake_clock(recorder, times):
    """Replace span timestamps by the given (start, end) pairs, in order."""
    for i, (start, end) in enumerate(times):
        recorder.starts[i] = start
        recorder.ends[i] = end


class TestSpanSelfTime:
    def build(self):
        rec = SpanRecorder()
        root = rec.begin("replay")
        for request in range(2):
            a = rec.begin("decode", request)
            rec.end(a)
            b = rec.begin("fold", request)
            c = rec.begin("inner", request)
            rec.end(c)
            rec.end(b)
        rec.end(root)
        # replay 0..100; per request: decode 10, fold 30 containing inner 5.
        _fake_clock(rec, [(0, 100),
                          (0, 10), (10, 40), (20, 25),
                          (40, 50), (50, 80), (60, 65)])
        return rec, root

    def test_rows_plus_residual_sum_to_wall(self):
        rec, root = self.build()
        table = rec.stage_table(root)
        rows = {row["stage"]: row for row in table["rows"]}
        assert rows["decode"]["self_ms"] == pytest.approx(20e-6)
        assert rows["fold"]["self_ms"] == pytest.approx(50e-6)
        assert rows["inner"]["self_ms"] == pytest.approx(10e-6)
        assert rows["residual"]["self_ms"] == pytest.approx(20e-6)
        assert sum(r["self_ms"] for r in table["rows"]) == pytest.approx(table["wall_ms"])
        assert sum(r["share"] for r in table["rows"]) == pytest.approx(1.0)
        assert table["coverage"] == pytest.approx(0.8)
        assert rows["decode"]["calls"] == 2

    def test_other_roots_stay_out_of_the_table(self):
        rec, root = self.build()
        other = rec.begin("setup")
        rec.end(other)
        assert rec.roots("setup") == [other]
        assert "setup" not in {r["stage"] for r in rec.stage_table(root)["rows"]}

    def test_spans_must_close_in_order(self):
        rec = SpanRecorder()
        outer = rec.begin("outer")
        rec.begin("inner")
        with pytest.raises(RuntimeError):
            rec.end(outer)

    def test_null_recorder_records_nothing(self):
        rec = NullRecorder()
        assert not rec.enabled
        with rec.span("anything"):
            rec.end(rec.begin("x"))
