"""Config parsing/validation and report serialization."""

import json
import os

import numpy as np
import pytest

from berglab.coeffs import BasisSpec
from berglab.config import (ConfigError, config_from_dict, load_config,
                            parse_point, parse_symbol)
from berglab.operators import poly_symbol, toeplitz_matrix
from berglab.reporting import (CLAIMS, jsonable, report_envelope,
                               write_csv_atomic, write_json_atomic)
from berglab import spaces


def test_defaults_load():
    cfg = load_config(None)
    assert cfg.space.kind == "bergman_disc"
    assert cfg.n_modes == 24
    assert cfg.seed == 0
    assert cfg.echo()["n_modes"] == 24


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"n_mode": 8})
    assert "n_mode" in str(err.value)


def test_space_block_round_trip():
    cfg = config_from_dict({"space": {"kind": "fock", "d": 3}, "n_modes": 10})
    assert cfg.space.kind == "fock"
    assert cfg.space.d == 3


@pytest.mark.parametrize("block, field", [
    ({"kind": "bergman_disc", "alpha2": 0.5}, "alpha2"),
    ({"kind": "bergman_disc", "fock_probe_radius": 2.0}, "fock_probe_radius"),
    ({"kind": "fock", "alpha": 7.0}, "alpha"),
    ({"kind": "fock", "alpha2": 3.0}, "alpha2"),
    ({"kind": "fock", "r_max": 0.5}, "r_max"),
    ({"kind": "bidisc", "fock_probe_radius": 2.0}, "fock_probe_radius"),
    ({"kind": "bidisc", "alpha": 0.0, "alpha2": None, "d": 2, "r_max": 0.5, "radius": 1.0}, "radius"),
])
def test_space_field_its_kind_ignores_is_refused(block, field):
    with pytest.raises(ConfigError, match=f"'{field}'"):
        config_from_dict({"space": block})


def test_bad_values_rejected():
    for raw in ({"n_modes": 0}, {"p": 1.0}, {"p": 0.5},
                {"radial_order": 0}, {"angular_order": 0},
                {"radial_order": -3}, {"angular_order": 12.5}, {"radial_order": "40"},
                {"space": {"kind": "nope"}}, {"space": {"kind": ["fock"]}},
                {"space": {"kind": "bidisc", "alpha2": -1.0}},
                {"space": {"kind": "bidisc", "alpha2": -2.5}},
                {"space": {"kind": "fock", "fock_probe_radius": 0.0}},
                {"space": {"kind": "fock", "fock_probe_radius": -1.0}},
                {"operator": {"type": "warp"}},
                {"operator": {"type": "toeplitz", "symbol": "missing"}},
                {"operator": {"type": "toeplitz_product", "symbols": []}}):
        with pytest.raises((ConfigError, ValueError)):
            config_from_dict(raw)


def test_symbol_parsing_poly():
    sp = spaces.disc_space(0.0, d=2)
    sym = parse_symbol(sp, "s", {"type": "poly", "entries": [
        {"i": 0, "k": 1, "terms": [{"a": 1, "b": 0, "c": {"re": 2.0, "im": 1.0}},
                                   {"a": 0, "b": 2, "c": 0.5}]}]})
    pts = np.array([0.3 + 0.1j])
    v = sym.eval(pts)[0]
    assert v[0, 1] == pytest.approx((2 + 1j) * pts[0] + 0.5 * np.conj(pts[0]) ** 2)
    assert v[0, 0] == 0


def test_symbol_parsing_poly_keeps_every_term():
    # a repeated entry and a repeated power tuple add up: a symbol is the sum of its terms
    sp = spaces.disc_space(0.0, d=1)
    sym = parse_symbol(sp, "s", {"type": "poly", "entries": [
        {"i": 0, "k": 0, "terms": [{"a": 1, "b": 0, "c": 1.0}, {"a": 1, "b": 0, "c": 5.0}]},
        {"i": 0, "k": 0, "terms": [{"a": 2, "b": 0, "c": 2.0}]}]})
    assert sym.poly.rows.tolist() == [[0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 2, 0]]
    assert sym.poly.coef.tolist() == [1.0, 5.0, 2.0]
    basis = BasisSpec(sp, 8)
    expected = toeplitz_matrix(basis, None, poly_symbol(sp, {(0, 0): {(1, 0): 6.0, (2, 0): 2.0}})).mat
    assert np.allclose(toeplitz_matrix(basis, None, sym).mat, expected, rtol=0, atol=1e-15)


def test_symbol_parsing_ball_and_const():
    sp = spaces.disc_space(0.0, d=2)
    ball = parse_symbol(sp, "b", {"type": "ball", "center": [0.2, 0.0], "radius": 0.3,
                                  "matrix": [[1, 0], [0, 1]]})
    b = ball.balls[0]   # the metric ball whose Euclidean disc is D(0.2, 0.3)
    assert float(spaces.metric(sp, b.center, 0.5)) == pytest.approx(b.radius, rel=1e-14)
    assert float(spaces.metric(sp, b.center, -0.1)) == pytest.approx(b.radius, rel=1e-14)
    for radius in (-0.3, 0, "0.3", True):
        with pytest.raises(ConfigError, match="radius"):
            parse_symbol(sp, "b", {"type": "ball", "center": 0.2, "radius": radius,
                                   "matrix": [[1, 0], [0, 1]]})
    const = parse_symbol(sp, "c", {"type": "const", "matrix": [[1, 0], [0, [0.0, 2.0]]]})
    assert const.eval(np.array([0.1]))[0][1, 1] == 2j
    with pytest.raises(ConfigError):
        parse_symbol(sp, "x", {"type": "poly", "entries": [
            {"i": 0, "k": 0, "terms": [{"a": -1, "b": 0, "c": 1.0}]}]})
    with pytest.raises(ConfigError):
        parse_symbol(spaces.bidisc_space(0.0, 0.0, d=1), "x",
                     {"type": "ball", "center": 0.0, "radius": 0.1, "matrix": [[1]]})


def test_point_parsing():
    sp = spaces.disc_space(0.0, d=1)
    assert parse_point(sp, {"re": 0.1, "im": -0.2}) == 0.1 - 0.2j
    assert parse_point(sp, [0.3, 0.4]) == 0.3 + 0.4j
    assert parse_point(sp, 0.5) == 0.5
    for bad in ([0.3, [1]], [0.3, "0.4"], {"re": True}, float("nan")):
        with pytest.raises(ConfigError):
            parse_point(sp, bad)
    bd = spaces.bidisc_space(0.0, 0.0, d=1)
    z = parse_point(bd, [[0.1, 0.0], {"re": 0.0, "im": 0.2}])
    assert np.allclose(z, [0.1, 0.2j])
    with pytest.raises(ConfigError):
        parse_point(bd, 0.5)


def test_operator_block_resolved_upfront():
    cfg = config_from_dict({
        "symbols": {"m": {"type": "const", "matrix": [[1, 0], [0, 1]]}},
        "operator": {"type": "toeplitz", "symbol": "m"}})
    assert cfg.operator == ("m",)
    assert cfg.symbols["m"].poly.rows.tolist() == [[0, 0, 0, 0], [1, 1, 0, 0]]
    assert cfg.symbols["m"].poly.coef.tolist() == [1, 1]
    assert config_from_dict({}).operator is None
    assert config_from_dict({"operator": {"type": "identity"}}).operator == ()
    with pytest.raises(ConfigError):
        config_from_dict({"symbols": {"m": {"type": "const", "matrix": [[1, 0], [0, 1]]}},
                          "operator": {"type": "toeplitz", "symbol": "other"}})


def test_load_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


# ---------------------------------------------------------------------------
# reporting

def test_jsonable_handles_numpy_and_complex():
    data = {"a": np.arange(3), "b": 1 + 2j, "c": [np.float64(0.5), {"d": np.int64(4)}]}
    out = jsonable(data)
    assert out == {"a": [0, 1, 2], "b": {"re": 1.0, "im": 2.0}, "c": [0.5, {"d": 4}]}
    json.dumps(out)


def test_jsonable_writes_real_arrays_as_the_recursive_path_does():
    rng = np.random.default_rng(0)
    arrays = (rng.standard_normal((4, 3)), np.array([-0.0, 5e-324, 1e300]), rng.integers(-9, 9, (2, 3, 2)),
              rng.random(5) < 0.5, np.arange(3, dtype=np.uint8), rng.standard_normal((2, 2)) * (1 + 1j))
    for a in arrays:
        fast, nested = jsonable(a), jsonable(a.tolist())
        assert json.dumps(fast) == json.dumps(nested)
        assert [type(v) for v in np.ravel(fast)] == [type(v) for v in np.ravel(nested)]


def test_jsonable_writes_dataclasses_field_by_field():
    from dataclasses import dataclass, field

    @dataclass
    class Inner:
        z: complex

    @dataclass
    class Outer:
        values: np.ndarray
        inner: Inner
        total: float = field(init=False)

        def __post_init__(self):
            self.total = float(self.values.sum())

    out = jsonable(Outer(np.array([0.5, 1.5]), Inner(1j)))
    assert out == {"values": [0.5, 1.5], "inner": {"z": {"re": 0.0, "im": 1.0}}, "total": 2.0}


def test_atomic_json_and_csv(tmp_path):
    path = tmp_path / "sub" / "r.json"
    write_json_atomic(str(path), {"x": np.float64(1.5), "z": 2 + 0.5j})
    loaded = json.loads(path.read_text())
    assert loaded == {"x": 1.5, "z": {"re": 2.0, "im": 0.5}}
    assert not [f for f in os.listdir(path.parent) if f.startswith("tmp")]
    cpath = tmp_path / "r.csv"
    write_csv_atomic(str(cpath), ["a", "b"], [[1, "x"], [2.5, "y"]])
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "a,b" and lines[2] == "2.5,y"


def test_reports_get_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        write_json_atomic(str(tmp_path / "r.json"), {"x": 1})
        write_csv_atomic(str(tmp_path / "r.csv"), ["a"], [[1]])
    finally:
        os.umask(old)
    for name in ("r.json", "r.csv"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == 0o644


def test_json_rejects_nan_and_writes_nothing(tmp_path):
    for bad in (float("nan"), float("inf"), complex(1.0, float("-inf")), np.array([[0.5, np.nan]])):
        with pytest.raises(ValueError):
            write_json_atomic(str(tmp_path / "r.json"), {"x": bad})
    assert not list(tmp_path.iterdir())


def test_json_is_streamed_as_the_text_of_dumps(tmp_path):
    # the chunks add up to json.dumps's text; a NaN past the first written batch still leaves the
    # previous report in place and no temporary file
    payload = {"b": np.arange(6.0).reshape(2, 3), "a": [1 + 2j, {"k": None, "j": True}]}
    path = tmp_path / "r.json"
    write_json_atomic(str(path), payload)
    expected = json.dumps(jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert path.read_text() == expected
    with pytest.raises(ValueError):
        write_json_atomic(str(path), {**payload, "z": [0.5] * 10000 + [np.inf]})
    assert path.read_text() == expected and os.listdir(tmp_path) == ["r.json"]
    with pytest.raises(ValueError):   # the directories made for the report go too
        write_json_atomic(str(tmp_path / "new" / "sub" / "r.json"), {"x": np.nan})
    assert os.listdir(tmp_path) == ["r.json"]


def test_report_envelope_structure():
    env = report_envelope("kernel", "axioms", {"n_modes": 4}, 7, {"v": 1})
    assert env["tool"] == "berglab"
    assert env["claim"]["id"] == "axioms"
    assert env["claim"]["statement"] == CLAIMS["axioms"]
    assert env["seed"] == 7 and env["result"] == {"v": 1}
    assert "timestamp" in env
    with pytest.raises(KeyError):
        report_envelope("kernel", "not-a-claim", {}, 0, {})


def test_claim_registry_covers_commands():
    # exactly the ids the commands write: no claim without a report
    written = {"axioms", "schur-test", "kernel-power-integrals", "toeplitz-calculus",
               "rank-one-factorization", "berezin-transform", "boundedness-integrals",
               "essential-norm", "covering", "localization"}
    assert set(CLAIMS) == written
