"""compare.py's verdicts on synthetic result files."""

import json

import compare
from _harness import summarize


def _metric(samples, better="higher", bound=0.1):
    return {"samples": samples, "better": better, "bound": bound, "unit": "x",
            **summarize(samples)}


def _result(samples, better="higher", bound=0.1):
    return {"workloads": {"w": {"e2e": {"m": _metric(samples, better, bound)}}}}


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def _verdict(parent, change, **kw):
    (row,) = compare.compare(_result(parent, **kw), _result(change, **kw), {})
    return row["verdict"]


def test_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread():
    assert _verdict(PARENT, [s + 5 for s in PARENT]) == "gain"
    # Wins every pair but the gap is inside the parent's quartile spread.
    assert _verdict(PARENT, [s + 0.01 for s in PARENT]) == "unchanged"
    # Eight wins of ten is not enough.
    mixed = [s + 5 for s in PARENT[:8]] + [s - 5 for s in PARENT[8:]]
    assert _verdict(PARENT, mixed) == "unchanged"
    # Fewer than ten pairs never claims a gain.
    assert _verdict(PARENT[:5], [s + 5 for s in PARENT[:5]]) == "better"


def test_regression_is_a_median_worse_than_the_bound():
    assert _verdict(PARENT, [s * 0.85 for s in PARENT]) == "regression"
    assert _verdict(PARENT, [s * 0.95 for s in PARENT]) == "unchanged"
    lower = [1.0] * 10
    assert _verdict(lower, [1.2] * 10, better="lower") == "regression"
    assert _verdict(lower, [0.8] * 10, better="lower") == "gain"


def test_a_zero_bound_flags_any_increase_from_zero():
    assert _verdict([0.0] * 10, [0.0] * 9 + [0.1], better="lower", bound=0.0) == "unchanged"
    assert _verdict([0.0] * 10, [0.1] * 10, better="lower", bound=0.0) == "regression"


def test_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [70.0, 130.0, 85.0, 115.0, 100.0, 60.0, 140.0, 95.0, 105.0, 100.0]
    assert _verdict(PARENT, noisy) == "unresolved"
    # ...unless every run of the change beats every run of the parent.
    assert _verdict(noisy, [200.0 + s for s in noisy]) == "gain"
    assert _verdict(noisy[:5], [200.0 + s for s in noisy[:5]]) == "better"


def test_cli_exits_non_zero_on_regression_and_missing(tmp_path, capsys):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [{"name": "m", "bound": 0.5}]}))
    parent, change = tmp_path / "a.json", tmp_path / "b.json"
    parent.write_text(json.dumps(_result(PARENT)))
    change.write_text(json.dumps(_result([s * 0.85 for s in PARENT])))
    # BENCHMARK.json's bound (0.5) wins over the file's own (0.1).
    assert compare.main([str(parent), str(change), "--benchmark", str(bench)]) == 0
    assert compare.main([str(parent), str(change), "--benchmark",
                         str(tmp_path / "absent.json")]) == 1
    change.write_text(json.dumps({"workloads": {"w": {"e2e": {}}}}))
    assert compare.main([str(parent), str(change), "--benchmark", str(bench)]) == 1
    assert "missing" in capsys.readouterr().out
