"""The end-to-end benchmark, run small: schema, metric names, checks."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalogue

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=300, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=timeout, cwd=cwd,
    )


def test_benchmark_json_matches_the_catalogue():
    assert [w["name"] for w in DECLARED["workloads"]] == list(catalogue.WORKLOADS)
    for metric in DECLARED["end_to_end"]:
        spec = catalogue.E2E[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (
            spec.unit, spec.better, spec.bound)
        assert spec.workloads == catalogue.ALL
    for metric in DECLARED["per_layer"]:
        assert metric["unit"] == catalogue.LAYERS[metric["name"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc = _run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return json.loads(out.read_text())


def test_smoke_passes_every_check(smoke):
    assert smoke["correct"]
    for name, workload in smoke["workloads"].items():
        failed = [k for k, c in workload["checks"].items() if not c["ok"]]
        assert not failed, (name, failed)
        assert workload["failed"] == 0


def test_smoke_reports_every_metric(smoke):
    assert set(smoke["workloads"]) == set(catalogue.WORKLOADS)
    assert len(smoke["host"]["calib_ms"]) == smoke["rounds"] == 1
    for name, workload in smoke["workloads"].items():
        expected = {m for m, spec in catalogue.E2E.items() if name in spec.workloads}
        assert set(workload["e2e"]) == expected, name
        for metric in workload["e2e"].values():
            assert {"median", "q1", "q3", "n", "samples", "unit", "bound"} <= set(metric)
        for metric in DECLARED["per_layer"]:
            value = workload["layers"][metric["name"]]["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value), metric


def test_smoke_stage_tables_sum_to_the_traced_wall(smoke):
    for workload in smoke["workloads"].values():
        stages = workload["stages"]
        assert stages["coverage"] >= 0.95
        total = sum(row["self_ms"] for row in stages["rows"])
        assert total == pytest.approx(stages["wall_ms"], rel=1e-9)
        assert stages["rows"][-1]["stage"] == "residual"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_run_prints_the_contract_line_last(tmp_path, trace):
    proc = _run("--workload", "ingest-jsonl-small", "--seed", "5", "--seconds", "2",
                "--trace", trace, "--smoke", "--detail", str(tmp_path / "run.json"))
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "ingest-jsonl-small", "--seed", "1", "--seconds", "2",
                "--trace", "0", cwd=tmp_path, timeout=60,
                script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
