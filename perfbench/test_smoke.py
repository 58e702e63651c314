"""Smoke test of the benchmark's own code at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Not part of the package's test suite (pytest's testpaths is ``tests``).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def _run(workload, trace, cwd=HERE.parent, runner=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=150)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert "fail_rate" in out.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("rank1", 0, cwd=tmp_path, runner=tmp_path / HERE.name / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""


def test_self_time_excludes_children():
    tracer = tracing.Tracer("t")
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    time.sleep(0.01)
    tracer.end(inner)
    tracer.end(outer)
    spans = tracer.summary()["spans"]
    total = spans[0][2] - spans[0][1]
    assert spans[1][3] == 0  # the inner span's parent is the outer one
    assert tracer.self_s["inner"] >= 0.01
    assert abs(tracer.self_s["outer"] + tracer.self_s["inner"] - total) < 1e-9
