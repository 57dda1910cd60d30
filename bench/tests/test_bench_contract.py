"""The runner prints what BENCHMARK.json declares, and refuses to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workload_names_match():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert set(declared) <= set(run.WORKLOAD_NAMES)
    assert SPEC["run_seconds"] == run.RUN_SECONDS


def test_metric_names_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == {name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()}


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line(trace, declared):
    proc = run_bench(ROOT, "--workload", "calibrate_small", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[declared]}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cli_files", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
