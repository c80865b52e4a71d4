"""Smoke test of the benchmark itself, at the tiny sizes.

    python3 -m pytest bench

Each workload runs once untraced and once traced; the result line must
follow the schema and name exactly the metrics BENCHMARK.json lists.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from tracer import EXPECTED, PER_LAYER, expectation_errors  # noqa: E402


def bench(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_listed_metrics(workload, trace, tmp_path):
    out = tmp_path / "result.jsonl"
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    record = json.loads(out.read_text())
    assert {"python", "nproc", "git_revision", "loadavg"} <= set(record["env"])
    assert record["check_errors"] == []


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert WORKLOADS == ["pairs", "wall", "cli"]


def test_expectations_flag_missing_and_unexpected_calls():
    raw = {"spans": {"series.mul": [3, 0.1, 0.1]}}
    errors = expectation_errors("wall", raw)
    assert any("series.mul" in e for e in errors)
    assert any("modular.inv_delta" in e for e in errors)
    reached = {span: [1, 0.0, 0.0] for span, (want, _) in EXPECTED.items() if "cli" in want}
    assert expectation_errors("cli", {"spans": reached}) == []


def test_compare_prints_every_metric(tmp_path):
    out = tmp_path / "result.jsonl"
    for seed in ("1", "2"):
        assert bench("--workload", "wall", "--seed", seed, "--seconds", "1",
                     "--size", "tiny", "--out", str(out)).returncode == 0
    proc = bench("--compare", str(out), str(out))
    assert proc.returncode == 0, proc.stderr
    for m in SPEC["end_to_end"]:
        assert f"wall     {m['name']}" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "wall",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
