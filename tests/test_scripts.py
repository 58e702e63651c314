"""The study scripts under scripts/ run end to end at tiny sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


CASES = [
    ("run_axiom_suite.py", ["--n-pairs", "5"]),
    ("run_rf_sweep.py", ["--alphas", "0.0"]),
    ("run_compactness_study.py", ["--n-per-class", "1", "--n-modes", "8"]),
    ("run_localization_study.py", ["--n-modes", "4", "--n-ops", "1", "--radii", "1.0", "2.0"]),
]


@pytest.mark.parametrize("script, args", CASES, ids=[script for script, _ in CASES])
def test_script_runs_and_writes_csv(script, args, tmp_path):
    out = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = out.read_text().splitlines()
    assert header and rows
