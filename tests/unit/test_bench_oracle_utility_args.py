"""``bench_oracle_utility.py`` argument defaults (parsed only, no bench)."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "bench_oracle_utility.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_oracle_utility", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_run_writes_the_ignored_quick_file(bench):
    args = bench.parse_args(["--quick"])
    assert args.output == bench.QUICK_RESULTS_JSON
    assert args.output.name == "BENCH_oracles.quick.json"
    ignored = (SCRIPT.parents[1] / ".gitignore").read_text().split()
    assert args.output.name in ignored


def test_full_run_writes_the_committed_file(bench):
    assert bench.parse_args([]).output == bench.RESULTS_JSON
    assert bench.RESULTS_JSON.name == "BENCH_oracles.json"
