"""BENCHMARK.json and the benchmark's output agree, and a bare copy refuses to run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.PER_LAYER


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
