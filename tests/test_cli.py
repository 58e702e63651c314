"""End-to-end CLI runs: exit codes, report envelopes, reproducibility."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from berglab import cli

BASE_CONFIG = {
    "space": {"kind": "bergman_disc", "alpha": 0.0, "d": 2},
    "n_modes": 8,
    "seed": 11,
    "p": 4.0,
    "symbols": {
        "drift": {"type": "poly", "entries": [
            {"i": 0, "k": 0, "terms": [{"a": 1, "b": 0, "c": 1.0}]},
            {"i": 1, "k": 1, "terms": [{"a": 0, "b": 0, "c": 0.5}]}]},
        "bump": {"type": "ball", "center": [0.1, 0.0], "radius": 0.3,
                 "matrix": [[1, 0], [0, 1]]},
    },
    "operator": {"type": "toeplitz", "symbol": "drift"},
    "covering_r": [1.0, 4.0],
    "rank1": {"n_pairs": 2, "degree": 2},
}

_BIDISC_NO_SYMBOLS = {"space": {"kind": "bidisc", "d": 2}, "symbols": {}, "operator": None}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def _run(command, config_path, out, extra=()):
    return cli.main([command, "--config", config_path, "--out", str(out), *extra])


def _load(out, command):
    stem = command.replace("-", "_")
    report = json.loads((out / f"{stem}.json").read_text())
    csv_text = (out / f"{stem}.csv").read_text()
    return report, csv_text


@pytest.mark.parametrize("command", [
    "kernel", "toeplitz", "berezin", "rkt", "essnorm", "rf",
    "covering", "localize", "rank1", "verify-axioms",
])
def test_commands_run_and_report(command, config_path, tmp_path):
    out = tmp_path / "out"
    assert _run(command, config_path, out) == 0
    report, csv_text = _load(out, command)
    assert report["tool"] == "berglab"
    assert report["command"] == command
    assert report["seed"] == 11
    assert report["claim"]["id"]
    assert report["claim"]["statement"]
    assert report["config"]["n_modes"] == 8
    assert csv_text.count("\n") >= 1


def test_schur_command(config_path, tmp_path):
    rng = np.random.default_rng(0)
    kern = tmp_path / "kern.json"
    kern.write_text(json.dumps({
        "values": np.abs(rng.standard_normal((5, 4, 2, 2))).tolist(),
        "mu": [0.2] * 5, "nu": [0.25] * 4, "p": 2.0}))
    cfg = dict(BASE_CONFIG, schur_kernel_file=str(kern))
    path = tmp_path / "cfg2.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert _run("schur", str(path), out) == 0
    report, _ = _load(out, "schur")
    res = report["result"]
    assert res["dominates"] is True
    assert res["bound"] >= res["discretized_norm"] - 1e-12


def test_verify_axioms_all_pass(config_path, tmp_path):
    out = tmp_path / "out"
    assert _run("verify-axioms", config_path, out) == 0
    report, _ = _load(out, "verify-axioms")
    assert report["result"]["all_pass"] is True
    assert all(c["pass"] for c in report["result"]["checks"])


@pytest.mark.parametrize("n_modes, points", [(8, 0), (32, 4)])
def test_verify_axioms_counts_the_translation_points_it_checks(n_modes, points, tmp_path):
    # the default grid's four non-origin points certify no U_z mode at n=8, so both
    # translation checks pass on nothing; at n=32 every one of them is checked
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, n_modes=n_modes)))
    out = tmp_path / "out"
    assert _run("verify-axioms", str(path), out) == 0
    report, csv_text = _load(out, "verify-axioms")
    checked = {c["name"]: c["points_checked"] for c in report["result"]["checks"]
               if "points_checked" in c}
    assert checked == {"translation_unitarity_certified": points,
                       "translation_involutivity_certified": points}
    assert csv_text.splitlines()[0] == "check,value,tol,pass"


@pytest.mark.parametrize("scale", ["0", "-1", "inf", "nan", "x"])
def test_bad_resolution_scale_exits_2_and_writes_nothing(scale, config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("rf", config_path, out, extra=[f"--resolution-scale={scale}"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert "--resolution-scale" in payload["error"]
    assert not out.exists()


def test_reports_byte_identical_modulo_timestamp(config_path, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert _run("essnorm", config_path, out) == 0
        assert _run("covering", config_path, out) == 0
    for command in ("essnorm", "covering"):
        texts = []
        for out in outs:
            report, csv_text = _load(out, command)
            raw = (out / f"{command}.json").read_text()
            texts.append((re.sub(r'^\s*"timestamp".*\n', "", raw, flags=re.M), csv_text))
        assert texts[0] == texts[1]


def test_essnorm_report_records_shell_certified_modes(config_path, tmp_path):
    out = tmp_path / "out"
    assert _run("essnorm", config_path, out) == 0
    report, _ = _load(out, "essnorm")
    modes = report["result"]["shell_certified_modes"]
    assert len(modes) == len(report["result"]["lower_profile"]) == 4
    assert all(isinstance(m, int) and 0 <= m <= 8 for m in modes)


@pytest.mark.parametrize("cfg", [BASE_CONFIG, {**BASE_CONFIG, **_BIDISC_NO_SYMBOLS}],
                         ids=["disc", "bidisc"])
def test_report_points_are_re_im(cfg, tmp_path):
    """Every point in the kernel and rkt reports is {re, im}; a bidisc point is a list
    of two of them."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert _run("kernel", str(path), out) == 0 and _run("rkt", str(path), out) == 0
    kernel, rkt = (_load(out, command)[0]["result"] for command in ("kernel", "rkt"))
    points = kernel["points"] + [row[k] for row in kernel["table"] for k in ("z", "w")]
    for entry in rkt.values():
        points += [z for rep in (entry if isinstance(entry, list) else [entry])
                   for z in rep["z_grid"]]

    def scalar(c):
        return isinstance(c, dict) and set(c) == {"re", "im"} and all(
            isinstance(v, float) for v in c.values())

    bidisc = cfg["space"]["kind"] == "bidisc"
    assert len(points) == 5 + 2 * 25 + 5 * (2 if bidisc else 5)
    for z in points:
        assert (isinstance(z, list) and len(z) == 2 and all(map(scalar, z))
                if bidisc else scalar(z)), z


def test_report_result_keys_are_pinned(tmp_path):
    """Result dataclasses are written field by field, so a new field lands in the report;
    these are the result keys of the commands that write them."""
    cfg = dict(BASE_CONFIG, operator={"type": "toeplitz_product", "symbols": ["drift", "drift"]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for command in ("rkt", "berezin", "rf", "essnorm"):
        assert _run(command, str(path), out) == 0
    rkt, berezin, rf, essnorm = (_load(out, command)[0]["result"]
                                 for command in ("rkt", "berezin", "rf", "essnorm"))
    assert set(rkt) == {"boundedness", "symbol", "hankel", "product"}
    for rep in [*rkt["boundedness"], *rkt["symbol"], rkt["hankel"], *rkt["product"]]:
        assert set(rep) == {"admissible", "kappa", "label", "p", "p_threshold", "sup",
                            "values", "z_grid"}
    assert set(berezin) == {"angles", "decaying", "final_value", "matrices", "profile",
                            "radii", "threshold"}
    assert set(rf) == {"I", "J", "r", "ratio", "s", "sup_I"}
    assert set(essnorm) == {"shell_metric", "lower_profile", "shell_certified_modes",
                            "estimate", "sv_proxy_index", "sv_proxy_value",
                            "top_singular_value", "last_two_decreasing", "threshold",
                            "below_threshold"}


def test_toeplitz_singular_values_below_the_cutoff_read_zero(tmp_path):
    # the README config on the Fock space of perfbench/configs/fock.json (n=24, d=2)
    cfg = dict(BASE_CONFIG, space={"kind": "fock", "d": 2}, n_modes=24, seed=7,
               operator={"type": "toeplitz_product", "symbols": ["drift", "bump"]})
    path = tmp_path / "fock.json"
    path.write_text(json.dumps(cfg))
    assert _run("toeplitz", str(path), tmp_path / "out") == 0
    result = _load(tmp_path / "out", "toeplitz")[0]["result"]
    svs, cutoff = np.array(result["singular_values"]), result["sv_cutoff"]
    assert cutoff == 48 * np.finfo(float).eps * svs[0]
    assert result["norm"] == svs[0]   # the 2-norm is the largest singular value
    # about 1e-31 and 1e-33 as SVD output: rounding noise far below the cutoff
    assert svs[32] == 0.0 and svs[34] == 0.0
    assert np.all((svs == 0.0) | (svs >= cutoff))
    assert np.all(np.diff(svs) <= 0.0) and 0 < np.count_nonzero(svs) < svs.size


def test_seed_flag_overrides_config(config_path, tmp_path):
    out = tmp_path / "out"
    assert _run("rank1", config_path, out, extra=["--seed", "99"]) == 0
    report, _ = _load(out, "rank1")
    assert report["seed"] == 99
    assert report["config"]["seed"] == 99


@pytest.mark.parametrize("command", ["kernel", "rank1"])
def test_negative_seed_flag_exits_2_and_writes_nothing(command, config_path, tmp_path, capsys):
    # the flag follows the config key's rule, an integer >= 0, and the error names the flag;
    # a value that is no integer at all gets the same error, not argparse's usage text
    out = tmp_path / "out"
    for seed in ("-1", "abc"):
        assert _run(command, config_path, out, extra=["--seed", seed]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["command"] == command
        assert "--seed" in payload["error"]
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["nosuch"], ["kernel", "--bogus", "1"], [], ["kernel", "--config"],
], ids=["unknown-command", "unknown-flag", "no-command", "flag-without-value"])
def test_bad_command_line_exits_2_with_a_json_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--out", str(tmp_path / "out")] if argv else argv) == 2
    captured = capsys.readouterr()
    assert "error" in json.loads(captured.err)
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: berglab")


@pytest.mark.parametrize("threads", ["0", "-1", "1.5"])
def test_thread_count_below_1_exits_2_before_writing_the_environment(threads, config_path,
                                                                     tmp_path, capsys,
                                                                     monkeypatch):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    for name in names:
        monkeypatch.setenv(name, "unchanged")
    out = tmp_path / "out"
    assert _run("kernel", config_path, out, extra=["--threads", threads]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["command"] == "kernel"
    assert "--threads" in payload["error"]
    assert all(os.environ[name] == "unchanged" for name in names)
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify-axioms", "rf"])
def test_verify_axioms_refuses_an_inadmissible_probe_grid(command, tmp_path, capsys):
    # 0.95 lies outside the disc's admissible region (r_max 0.9), as rkt and kernel refuse
    # it; 1.5 lies outside the disc itself, where rf's integrals are not finite
    for grid, radius in (([0.0, 0.95], "0.9500"), ([1.5], "1.5000")):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, z_grid=grid)))
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["command"] == command
        assert f"radius {radius} outside admissible region" in payload["error"]
        assert not out.exists()


@pytest.mark.parametrize("space", [{"kind": "bergman_disc", "alpha": 0.0, "d": 1, "r_max": 0.5},
                                   {"kind": "fock", "d": 1, "fock_probe_radius": 0.5},
                                   {"kind": "bergman_disc", "alpha": 0.0, "d": 1, "r_max": 0.3},
                                   {"kind": "fock", "d": 1, "fock_probe_radius": 0.8}],
                         ids=["disc", "fock", "disc-0.3", "fock-0.8"])
def test_default_probe_sets_admit_a_small_probe_radius(space, tmp_path, capsys):
    # every default probe set is cut to the admissible radius, so no command refuses a point
    # the user never gave (0.6 and 0.8 exited 2 here), and each report is strict JSON; where
    # the cut would merge radii they are respaced, so no two kernel points coincide and the
    # essnorm shells move out
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"space": space, "n_modes": 8, "seed": 7}))

    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")
    for command in ("kernel", "rkt", "rf", "essnorm", "berezin", "verify-axioms"):
        out = tmp_path / command
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code != 2, capsys.readouterr().err
        text = (out / f"{command.replace('-', '_')}.json").read_text()
        assert json.loads(text, parse_constant=refuse)["command"] == command
    points = _load(tmp_path / "kernel", "kernel")[0]["result"]["points"]
    points = [json.dumps(z, sort_keys=True) for z in points]
    assert len(set(points)) == len(points), points
    assert np.all(np.diff(_load(tmp_path / "essnorm", "essnorm")[0]["result"]["shell_metric"]) > 0)


def test_resolution_scale_changes_orders(config_path, tmp_path):
    # covering counts the nodes of its rule: 40 x 64 on the disc, and 60 x 96 at scale 1.5
    for scale, nodes in (("1", 40 * 64), ("1.5", 60 * 96)):
        out = tmp_path / scale
        assert _run("covering", config_path, out, extra=["--resolution-scale", scale]) == 0
        for cover in _load(out, "covering")[0]["result"]["coverings"]:
            assert sum(cover["multiplicity_histogram"].values()) == nodes


def test_commands_without_integrals_build_no_rule(config_path, tmp_path, monkeypatch):
    # config symbols (poly, const, ball) never read a rule, and rf is in closed form
    from berglab import quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("build_rule called")

    monkeypatch.setattr(quadrature, "build_rule", refuse)
    cfg = dict(BASE_CONFIG, operator={"type": "toeplitz_product", "symbols": ["drift", "bump"]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for command in ("toeplitz", "berezin", "essnorm", "rank1", "rf"):
        assert _run(command, str(path), tmp_path / "out") == 0, command
    with pytest.raises(AssertionError, match="build_rule called"):
        _run("covering", str(path), tmp_path / "out")


def test_rf_past_the_series_term_cap_exits_2_and_writes_nothing(tmp_path, capsys):
    # off the diagonal r = s, where the series is not the constant 1
    cfg = dict(BASE_CONFIG, space={**BASE_CONFIG["space"], "r_max": 0.999995}, z_grid=[0.99999],
               rf={"r": 2.0, "s": 1.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["rf", "--config", str(path), "--out", str(out)]) == 2
    assert "terms" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


def test_bad_config_exits_2_and_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_mode": 3}))
    out = tmp_path / "out"
    assert cli.main(["kernel", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["command"] == "kernel"
    assert "error" in payload
    assert not out.exists()


def _bump_radius(radius):
    return {"symbols": {**BASE_CONFIG["symbols"],
                        "bump": {**BASE_CONFIG["symbols"]["bump"], "radius": radius}}}


def _with_symbol(name, spec):
    return {"symbols": {**BASE_CONFIG["symbols"], name: spec}}


@pytest.mark.parametrize("changes, named", [
    ({"n_modes": 8.9}, "n_modes"),
    ({"n_modes": True}, "n_modes"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"rank1": {"n_pairs": 0}}, "rank1.n_pairs"),
    ({"rank1": {"n_pairs": 2.5}}, "rank1.n_pairs"),
    ({"rank1": {"degree": -1}}, "rank1.degree"),
    ({**_BIDISC_NO_SYMBOLS, "z_grid": [[0.1]]}, "point"),
    ({**_BIDISC_NO_SYMBOLS, "z_grid": [[0.1, 0.2, 0.3]]}, "point"),
    ({"rf": 5}, "rf"),
    ({"rf": {"r": "3"}}, "rf.r"),
    ({"rf": {"s": -1.0}}, "rf.s"),
    ({"rf": {"r": 3.0, "q": 1.0}}, "rf"),
    ({"rank1": {"n_pairs": 2, "degre": 1}}, "rank1"),
    ({"covering_r": 3}, "covering_r"),
    ({"covering_r": []}, "covering_r"),
    ({"covering_r": [True, 2.0]}, "covering_r[0]"),
    ({"covering_r": [1.0, 0.0]}, "covering_r[1]"),
    ({"essnorm_threshold": True}, "essnorm_threshold"),
    ({"berezin_threshold": "0.1"}, "berezin_threshold"),
    ({"p": "4"}, "p"),
    ({"operator": "identity"}, "operator"),
    ({"operator": []}, "operator"),
    ({"symbols": [1]}, "symbols"),
    ({"shells": []}, "shells"),
    ({"z_grid": []}, "z_grid"),
    ({"kernel_points": []}, "kernel_points"),
    ({"shells": [[0.5]]}, "shells[0]"),
    ({"radii": [[0.5]]}, "radii[0]"),
    ({"space": {"kind": "bergman_disc", "d": 2.5}}, "space.d"),
    ({"space": {"kind": "bergman_disc", "d": True}}, "space.d"),
    ({"space": {"kind": "fock", "d": 2, "alpha": 7.0, "alpha2": 3.0, "r_max": 0.5}}, "alpha"),
    (_bump_radius(-0.3), "radius"),
    (_bump_radius(0.0), "radius"),
    ({"schur_kernel_file": 3}, "schur_kernel_file"),
    (_with_symbol("bump", {**BASE_CONFIG["symbols"]["bump"], "metirc": "invariant"}), "metirc"),
    (_with_symbol("flat", {"type": "const", "matrix": [[1, 0], [0, 1]], "scale": 2.0}), "scale"),
    (_with_symbol("drift", {"type": "poly", "entries": [
        {"i": 0, "k": 0, "terms": [{"a": 1, "b": 0, "a2": 1, "c": 1.0}]}]}), "a2"),
    (_with_symbol("drift", {"type": "poly", "entries": [{"i": 0, "k": 0, "row": 1, "terms": []}]}),
     "row"),
    ({"operator": {"type": "toeplitz", "symbol": "drift", "weight": 2.0}}, "weight"),
    ({"operator": {"type": "toeplitz_product", "symbols": ["drift"], "symbol": "bump"}},
     "'symbol'"),
], ids=["n_modes-float", "n_modes-bool", "seed-negative", "seed-float", "n_pairs-zero",
        "n_pairs-float", "degree-negative", "bidisc-point-1", "bidisc-point-3",
        "rf-number", "rf-r-string", "rf-s-negative", "rf-unknown-key", "rank1-unknown-key",
        "covering_r-number", "covering_r-empty", "covering_r-bool", "covering_r-zero",
        "essnorm_threshold-bool", "berezin_threshold-string", "p-string",
        "operator-string", "operator-list", "symbols-list", "shells-empty", "z_grid-empty", "kernel_points-empty", "shells-nested",
        "radii-nested", "space-d-float", "space-d-bool", "space-fock-disc-fields", "ball-radius-negative",
        "ball-radius-zero", "schur_kernel_file-number", "ball-unknown-key", "const-unknown-key",
        "poly-term-unknown-key", "poly-entry-unknown-key", "operator-unknown-key",
        "operator-product-unknown-key"])
def test_bad_config_value_exits_2_and_writes_nothing(changes, named, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE_CONFIG, **changes}))
    out = tmp_path / "out"
    assert cli.main(["kernel", "--config", str(path), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["command"] == "kernel"
    assert named in payload["error"]
    assert not out.exists()


def test_schur_kernel_file_must_hold_an_object(tmp_path, capsys):
    kern = tmp_path / "kern.json"
    kern.write_text(json.dumps([[1.0, 2.0]]))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, schur_kernel_file=str(kern))))
    out = tmp_path / "out"
    assert cli.main(["schur", "--config", str(path), "--out", str(out)]) == 2
    assert "schur_kernel_file" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


def test_unreadable_symbol_reference_exits_2(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, operator={"type": "toeplitz", "symbol": "ghost"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["toeplitz", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    capsys.readouterr()


def _drift_with_term(**changes):
    """A poly symbol spec: BASE_CONFIG's drift with its first entry or term edited; None deletes."""
    entry = {"i": 0, "k": 0, "terms": [{"a": 1, "b": 0, "c": 1.0}]}
    for key, value in changes.items():
        target = entry["terms"][0] if key in ("a", "b", "c") else entry
        if value is None:
            del target[key]
        else:
            target[key] = value
    return {"type": "poly", "entries": [entry]}


def _assert_drift_rejected(drift, tmp_path, capsys):
    """toeplitz on BASE_CONFIG with the "drift" symbol replaced exits 2 and writes nothing."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, symbols={**BASE_CONFIG["symbols"],
                                                          "drift": drift})))
    out = tmp_path / "out"
    assert cli.main(["toeplitz", "--config", str(path), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["command"] == "toeplitz"
    assert "drift" in payload["error"]
    assert not out.exists()


@pytest.mark.parametrize("changes", [
    {"i": None}, {"k": None}, {"c": None}, {"a": None}, {"a": "one"},
], ids=["no-i", "no-k", "no-c", "no-a", "non-numeric-a"])
def test_malformed_poly_symbol_exits_2_and_writes_nothing(changes, tmp_path, capsys):
    _assert_drift_rejected(_drift_with_term(**changes), tmp_path, capsys)


def test_huge_poly_power_exits_2_before_any_allocation(tmp_path, capsys):
    # a power of 10^9 would ask for a normalizer table of about 48 GB; it is refused on reading
    tracemalloc.start()
    try:
        _assert_drift_rejected(_drift_with_term(a=10 ** 9, b=10 ** 9), tmp_path, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 22


def test_unknown_ball_metric_exits_2_and_writes_nothing(tmp_path, capsys):
    _assert_drift_rejected({**BASE_CONFIG["symbols"]["bump"], "metric": "invarient"},
                           tmp_path, capsys)


@pytest.mark.parametrize("command", ["kernel", "covering", "rf", "verify-axioms"])
def test_disc_ball_outside_the_disc_exits_2_and_writes_nothing(command, tmp_path, capsys):
    # these commands assemble no ball; the symbol is refused when the config is read
    cfg = dict(BASE_CONFIG, symbols={**BASE_CONFIG["symbols"],
                                     "bump": {**BASE_CONFIG["symbols"]["bump"], "center": [0.9, 0.0],
                                              "radius": 0.5}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert "bump" in error and "sticks out of the disc" in error
    assert not out.exists()


def test_nan_payload_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def runner(cfg, args):
        return "axioms", {"value": float("nan")}, ["value"], [[float("nan")]], 0

    monkeypatch.setitem(cli._RUNNERS, "kernel", runner)
    out = tmp_path / "out"
    assert cli.main(["kernel", "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["command"] == "kernel"
    assert "error" in payload
    assert not out.exists()


def test_cli_import_leaves_numpy_unloaded():
    """--threads must reach the environment before numpy first loads."""
    code = (
        "import sys\n"
        "import berglab.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by import berglab.cli'\n"
        "import berglab\n"
        "from berglab import cli\n"
        "assert cli.main is berglab.cli.main\n"
        "assert berglab.disc_space(0.0, d=2).d == 2\n"
        "assert all(hasattr(berglab, name) for name in berglab.__all__)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_commands_load_no_scipy(tmp_path):
    """Every command on a Fock and a bidisc config, and the kernel tails of those
    spaces, run without importing scipy, or numpy.ma (which a plain np.unique
    imports on its first call, a few ms per process)."""
    kern = tmp_path / "kern.json"
    kern.write_text(json.dumps({"values": np.ones((3, 2, 2, 2)).tolist(),
                                "mu": [0.3] * 3, "nu": [0.5] * 2}))
    fock = {**BASE_CONFIG, "space": {"kind": "fock", "d": 2}, "schur_kernel_file": str(kern)}
    bidisc = {**_BIDISC_NO_SYMBOLS, "n_modes": 3, "covering_r": [2.0, 4.0],
              "rank1": {"n_pairs": 1, "degree": 1}, "schur_kernel_file": str(kern),
              "symbols": {"drift": {"type": "poly", "entries": [
                  {"i": 0, "k": 1, "terms": [{"a1": 1, "b1": 0, "a2": 0, "b2": 1, "c": 0.5}]}]}},
              "operator": {"type": "toeplitz", "symbol": "drift"}}
    paths = []
    for name, cfg in (("fock", fock), ("bidisc", bidisc)):
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(cfg))
    code = (
        "import sys\n"
        "from berglab import cli\n"
        f"for i, path in enumerate({paths!r}):\n"
        f"    for command in {list(cli.COMMANDS)!r}:\n"
        f"        out = {str(tmp_path)!r} + f'/out{{i}}'\n"
        "        assert cli.main([command, '--config', path, '--out', out]) == 0, (path, command)\n"
        "from berglab import spaces\n"
        "for space, z in ((spaces.fock_space(), 1.5), (spaces.bidisc_space(0.0, 0.5), [0.5, 0.3j])):\n"
        "    norm2 = float(spaces.kernel_norm(space, z)) ** 2\n"
        "    tail = norm2 * float(spaces.relative_kernel_tail(space, z, 8))\n"
        "    assert 0.0 < tail < norm2\n"
        "loaded = sorted(m for m in sys.modules for p in ('scipy', 'numpy.ma')\n"
        "                if m == p or m.startswith(p + '.'))\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The launcher pip writes for a ``[project.scripts]`` entry ``module:func``.
CONSOLE_SCRIPT = """\
import re
import sys
from {module} import {func}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({func}())
"""


def test_console_script_installed(config_path, tmp_path):
    """The declared ``berglab`` console script runs a command in a fresh process.

    The launcher is the one an install would generate, run against the source
    tree this test imported, so the check needs no install and cannot pick up
    another ``berglab`` from PATH.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["berglab"]
    module, func = target.split(":")
    script = tmp_path / "bin" / "berglab"
    script.parent.mkdir()
    script.write_text(CONSOLE_SCRIPT.format(module=module, func=func))

    src_root = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_root), env.get("PYTHONPATH")) if p)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(script), "rf", "--config", config_path,
         "--out", str(out), "--threads", "1"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (out / "rf.json").exists()
    assert json.loads((out / "rf.json").read_text())["command"] == "rf"
