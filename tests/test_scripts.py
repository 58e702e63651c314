"""The study scripts under scripts/ run end to end at tiny sizes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from berglab.config import load_config

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


CASES = [
    ("run_axiom_suite.py", []),
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


@pytest.mark.parametrize("path", sorted((SCRIPTS / "configs").glob("*.json")),
                         ids=lambda path: path.name)
def test_committed_config_loads_and_its_kernel_file_exists(path):
    cfg = load_config(str(path))
    # a relative kernel file path is read against the config file's directory
    kernel = cfg.raw.get("schur_kernel_file")
    assert kernel is None or (not Path(kernel).is_absolute() and (path.parent / kernel).is_file())
    assert cfg.schur_kernel_file is None or Path(cfg.schur_kernel_file) == path.parent / kernel


def test_schur_reads_the_committed_kernel_file_from_any_working_directory(tmp_path):
    src = str(SCRIPTS.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "berglab.cli", "schur", "--config",
                           str(SCRIPTS / "configs" / "fock.json"), "--out", "out"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "schur.json").read_text())
    assert report["config"]["schur_kernel_file"] == "kernels/fock_schur.json"
    assert report["result"]["dominates"] is True


def test_axiom_suite_reports_vacuous_translation_check_as_nan(tmp_path):
    """A translation check that checked no point (no certified mode at any displacement
    radius) reads nan, never a perfect-looking 0."""
    out = tmp_path / "axioms.csv"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_axiom_suite.py"),
                           "--out", str(out)], capture_output=True, text=True, cwd=tmp_path,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    _, *rows = csv.reader(out.read_text().splitlines())
    value = {(space, n, check): v for space, n, check, v in rows}
    names = ("translation_unitarity_certified", "translation_involutivity_certified")
    translation = {key: v for key, v in value.items() if key[2] in names}
    assert {key[2] for key in translation} == set(names)
    assert all(translation[("bidisc", "4", name)] == "nan" for name in names)
    # at N=8 the smallest displacement certifies modes on every space
    eight = [v for (space, n, check), v in value.items() if n == "8"]
    assert eight and all(np.isfinite(float(v)) for v in eight)
    assert all(v == "nan" or float(v) > 0.0 for v in translation.values())


def test_diff_reports_names_the_file_and_key_of_an_edited_number(tmp_path):
    from berglab import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"space": {"kind": "bergman_disc", "d": 2}, "n_modes": 6,
                               "operator": None, "symbols": {}}))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["rkt", "--config", str(cfg), "--out", str(out)]) == 0

    def diff():
        return subprocess.run([sys.executable, str(SCRIPTS / "diff_reports.py"), str(a), str(b)],
                              capture_output=True, text=True, timeout=60)

    same = diff()
    assert same.returncode == 0, same.stdout + same.stderr
    report = json.loads((b / "rkt.json").read_text())
    assert report["timestamp"] != json.loads((a / "rkt.json").read_text())["timestamp"]
    report["result"]["boundedness"][1]["sup"] *= 1.0 + 1e-6
    (b / "rkt.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    edited = diff()
    assert edited.returncode == 1
    line, = [ln for ln in edited.stdout.splitlines() if ln.startswith("rkt.json:")]
    assert "result.boundedness[1].sup" in line and "1e-06" in line
    assert "rkt.csv" not in edited.stdout


def _diff_reports(a, b):
    return subprocess.run([sys.executable, str(SCRIPTS / "diff_reports.py"), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_diff_reports_exits_2_on_two_empty_directories(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    proc = _diff_reports(a, b)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and str(a) in proc.stderr


@pytest.mark.parametrize("bad", ["missing", "file"])
def test_diff_reports_exits_2_naming_a_path_that_is_no_directory(tmp_path, bad):
    a = tmp_path / "a"
    a.mkdir()
    (a / "r.json").write_text("{}")
    path = tmp_path / bad
    if bad == "file":
        path.write_text("{}")
    for args in ((a, path), (path, a)):
        proc = _diff_reports(*args)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()] and str(path) in proc.stderr
        assert "Traceback" not in proc.stderr


def test_diff_reports_scaled_ranking_names_the_change_that_matters(tmp_path):
    # a 1e-17 change to a value of about 1e-17 is the largest relative change, but scaled by
    # the file's largest magnitude it is noise next to a 1e-9 relative change of an O(1) value
    a, b = tmp_path / "a", tmp_path / "b"
    for out, noise, value in ((a, 1.0e-17, 0.75), (b, 2.0e-17, 0.75 * (1.0 + 1e-9))):
        out.mkdir()
        (out / "r.json").write_text(json.dumps({"result": {"noise": noise, "value": value}}))
    proc = subprocess.run([sys.executable, str(SCRIPTS / "diff_reports.py"), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    line, = [ln for ln in proc.stdout.splitlines() if ln.startswith("r.json:")]
    relative, scaled = line.split("; largest change scaled by")
    assert "at result.noise" in relative
    assert scaled.endswith("at result.value")
