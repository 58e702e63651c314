"""Batch command-line interface.

Heavy modules are imported inside the runners so that --threads can pin the
BLAS thread count before numpy first loads.  Every command reads one JSON
config, runs to completion, then writes a JSON and a CSV report atomically;
precondition violations exit with code 2 and a structured JSON error on
stderr, leaving no partial files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import reduce
from typing import Callable, Dict, Optional, Tuple

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berglab",
        description="numerical laboratory for vector-valued Bergman-type spaces",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="path to a JSON config")
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--seed", default=None, help="override config seed")
    parser.add_argument("--threads", default=None, help="BLAS/OpenMP thread count")
    parser.add_argument("--resolution-scale", default="1", help="multiplies quadrature orders")

    def usage_error(message: str):   # main's exit-2 JSON error, not argparse's usage text
        raise ValueError(message)

    parser.error = usage_error
    return parser


def _flag(name: str, text: str, kind, ok, rule: str):
    """A numeric flag's text as kind if ok holds for the value, else ValueError naming the flag."""
    try:
        if ok(value := kind(text)):
            return value
    except ValueError:
        pass
    raise ValueError(f"{name} must be {rule}, got {text!r}")


def _apply_threads(text: Optional[str]) -> None:
    if text is None:
        return
    n = _flag("--threads", text, int, lambda k: k >= 1, "an integer >= 1")   # before any variable is set
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


# ---------------------------------------------------------------------------
# shared helpers (imported lazily by runners)

def _basis(cfg):
    from .coeffs import BasisSpec

    return BasisSpec(cfg.space, cfg.n_modes)


def _rule(cfg, scale: float):
    """The config's rule, its orders times --resolution-scale.  Only the commands that
    integrate on a rule build one: rkt, covering, localize and verify-axioms."""
    import numpy as np

    from .quadrature import build_rule, rule_orders

    radial, angular = rule_orders(cfg.space, cfg.radial_order, cfg.angular_order)
    if scale != 1.0:
        radial, angular = max(2, int(np.ceil(radial * scale))), max(4, int(np.ceil(angular * scale)))
    return build_rule(cfg.space, radial, angular)


def _operator(cfg, basis, rule):
    """The product of the Toeplitz factors the operator block names (else the identity); config
    symbols (poly, const, ball) never read the rule, which may be None."""
    from .operators import identity_operator, toeplitz_matrix

    factors = [toeplitz_matrix(basis, rule, cfg.symbols[name]) for name in cfg.operator or ()]
    return reduce(lambda a, b: a @ b, factors) if factors else identity_operator(basis)


def _zgrid(cfg):
    from .analysis import default_probe_grid

    return default_probe_grid(cfg.space) if cfg.z_grid is None else cfg.z_grid


def _fmt_point(space, z):
    from . import spaces

    return ";".join(f"{float(c.real):.6g}{float(c.imag):+.6g}j" for c in spaces.coords(space, z))


# ---------------------------------------------------------------------------
# runners: each returns (claim_id, payload, csv_header, csv_rows, exit_code); the
# payload is a dict or a result dataclass, and reporting.jsonable writes either

def _run_kernel(cfg, args) -> Tuple[str, dict, list, list, int]:
    from . import spaces

    space = cfg.space
    pts = cfg.kernel_points or _zgrid(cfg)
    spaces.probe_points(space, pts, "kernel_points" if cfg.kernel_points else "z_grid")
    rows, table = [], []
    for z in pts:
        for w in pts:
            val = complex(spaces.kernel_eval(space, z, w))
            entry = {
                "z": z, "w": w, "kernel": val,
                "kernel_norm_z": float(spaces.kernel_norm(space, z)),
                "metric": float(spaces.metric(space, z, w)),
                "normalized_pairing": float(spaces.normalized_pairing(space, z, w)),
            }
            table.append(entry)
            rows.append([_fmt_point(space, z), _fmt_point(space, w), val.real, val.imag,
                         entry["kernel_norm_z"], entry["metric"], entry["normalized_pairing"]])
    payload = {"points": pts, "table": table}
    header = ["z", "w", "kernel_re", "kernel_im", "kernel_norm_z", "metric",
              "normalized_pairing"]
    return "axioms", payload, header, rows, 0


def _run_toeplitz(cfg, args):
    from .config import ConfigError

    if cfg.operator is None:
        raise ConfigError("toeplitz command needs an operator block")
    basis = _basis(cfg)
    T = _operator(cfg, basis, None)
    svs = T.singular_values()
    cutoff = T.dim * sys.float_info.epsilon * float(svs[0])    # below it, SVD rounding
    payload = {
        "dim": T.dim,
        "n_modes": basis.n_modes,
        "component_dim": basis.space.d,
        "norm": float(svs[0]),
        "singular_values": svs * (svs >= cutoff),
        "sv_cutoff": cutoff,
        "matrix": {"re": T.mat.real, "im": T.mat.imag},
    }
    rows = ([i, j, T.mat[i, j].real, T.mat[i, j].imag]
            for i in range(T.dim) for j in range(T.dim))
    return "toeplitz-calculus", payload, ["row", "col", "re", "im"], rows, 0


def _run_berezin(cfg, args):
    from .analysis import berezin_decay_profile

    T = _operator(cfg, _basis(cfg), None)
    prof = berezin_decay_profile(
        T, radii=cfg.radii, angles=cfg.angles, threshold=cfg.berezin_threshold)
    rows = [[r, th, i, k, v.real, v.imag]
            for a, r in enumerate(prof.radii) for b, th in enumerate(prof.angles)
            for i, row in enumerate(prof.matrices[a, b]) for k, v in enumerate(row)]
    header = ["radius", "angle", "i", "k", "re", "im"]
    return "berezin-transform", prof, header, rows, 0


def _run_rkt(cfg, args):
    from .analysis import (hankel_rkt_check, rkt_boundedness_check,
                           rkt_product_check, rkt_toeplitz_symbol_check)

    basis, rule = _basis(cfg), _rule(cfg, args.resolution_scale)
    zg = _zgrid(cfg)
    T = _operator(cfg, basis, rule)
    reports = {"boundedness": rkt_boundedness_check(basis, rule, T, p=cfg.p, z_grid=zg)}
    names = cfg.operator or ()
    if names:
        F = cfg.symbols[names[0]]
        reports["symbol"] = rkt_toeplitz_symbol_check(rule, F, p=cfg.p, z_grid=zg)
        reports["hankel"] = hankel_rkt_check(rule, F, p=cfg.p, z_grid=zg)
        if len(names) >= 2:
            try:
                reports["product"] = rkt_product_check(rule, F, cfg.symbols[names[1]],
                                                       p=cfg.p, z_grid=zg)
            except ValueError as exc:
                reports["product_skipped"] = str(exc)
    # pairs are tuples of reports, the Hankel check is one report
    rows = [[tag, rep.label, zi, ui, val]
            for tag, entry in reports.items() if tag != "product_skipped"
            for rep in (entry if isinstance(entry, tuple) else (entry,))
            for zi, per_z in enumerate(rep.values.tolist()) for ui, val in enumerate(per_z)]
    header = ["check", "side", "z_index", "unit_index", "value"]
    return "boundedness-integrals", reports, header, rows, 0


def _run_essnorm(cfg, args):
    from .analysis import boundary_shells, essential_norm_estimate
    from .reporting import jsonable

    T = _operator(cfg, _basis(cfg), None)
    shells = boundary_shells(cfg.space, radii=cfg.shells)
    rep = essential_norm_estimate(T, boundary_grid=shells, seed=cfg.seed)
    payload = {**jsonable(rep), "threshold": cfg.essnorm_threshold,
               "below_threshold": rep.estimate < cfg.essnorm_threshold}
    rows = [[i, m, v] for i, (m, v) in
            enumerate(zip(rep.shell_metric, rep.lower_profile))]
    return "essential-norm", payload, ["shell", "metric_distance", "lower_value"], rows, 0


def _run_rf(cfg, args):
    from .quadrature import rudin_forelli

    zg = _zgrid(cfg)
    rep = rudin_forelli(cfg.space, zg, cfg.rf["r"], cfg.rf["s"])
    rows = [[zi, float(rep.I[zi]), float(rep.J[zi]), float(rep.ratio[zi])]
            for zi in range(len(zg))]
    return "kernel-power-integrals", rep, ["z_index", "I", "J", "ratio"], rows, 0


def _run_schur(cfg, args):
    import numpy as np

    from .config import ConfigError
    from .quadrature import MatrixKernelSample, discretized_norm, schur_test

    if not cfg.schur_kernel_file:
        raise ConfigError("schur command needs schur_kernel_file in the config")
    try:
        with open(cfg.schur_kernel_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read kernel file: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"schur_kernel_file must hold a JSON object, got {type(data).__name__}")
    try:
        sample = MatrixKernelSample(*(np.asarray(data[key], dtype=float) for key in ("values", "mu", "nu")))
        h_x, h_y = (np.asarray(data[key], dtype=float) if key in data else None for key in ("h_x", "h_y"))
        p = float(data.get("p", 2.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad kernel file: {exc}")
    result = schur_test(sample, p=p, h_x=h_x, h_y=h_y)
    result["discretized_norm"] = discretized_norm(sample)
    result["dominates"] = bool(result["bound"] >= result["discretized_norm"] - 1e-12)
    rows = [[result["C1"], result["C2"], result["bound"],
             result["discretized_norm"], result["p"]]]
    header = ["C1", "C2", "bound", "discretized_norm", "p"]
    return "schur-test", result, header, rows, 0


def _run_covering(cfg, args):
    import numpy as np

    from .covering import build_covering

    rule = _rule(cfg, args.resolution_scale)
    summaries, rows = [], []
    for r in cfg.covering_r:
        c = build_covering(cfg.space, r, rule)
        diams = c.cell_diameters()
        counts = c.cell_node_counts()
        mults, nodes = np.unique(c.multiplicity_per_node(), return_counts=True)
        summaries.append({
            "r": r, "n_cells": c.n_cells, "multiplicity": c.multiplicity,
            "max_diameter": float(diams.max()), "diameter_bound": 4.0 * r,
            "diameter_ok": bool(diams.max() <= 4.0 * r + 1e-9),
            "multiplicity_histogram": dict(zip(mults.tolist(), nodes.tolist())),
        })
        for j, cell in enumerate(c.cells):
            rows.append([r, j, cell.get("kind"), json.dumps(cell, sort_keys=True),
                         int(counts[j]), float(diams[j])])
    ok = all(s["diameter_ok"] for s in summaries)
    payload = {"coverings": summaries, "all_diameters_ok": ok}
    header = ["r", "cell", "kind", "bounds", "node_count", "diameter"]
    return "covering", payload, header, rows, 0 if ok else 1


def _run_localize(cfg, args):
    from .covering import build_covering, localization_error

    basis, rule = _basis(cfg), _rule(cfg, args.resolution_scale)
    T = _operator(cfg, basis, rule)
    curve = []
    for r in cfg.covering_r:
        c = build_covering(cfg.space, r, rule)
        err = localization_error(T, c)
        curve.append({"r": r, "error": err, "n_cells": c.n_cells,
                      "multiplicity": c.multiplicity})
    errs = [pt["error"] for pt in curve]
    payload = {"curve": curve,
               "non_increasing": all(errs[i] >= errs[i + 1] - 1e-12
                                     for i in range(len(errs) - 1))}
    rows = [[pt["r"], pt["n_cells"], pt["multiplicity"], pt["error"]] for pt in curve]
    return "localization", payload, ["r", "n_cells", "multiplicity", "error"], rows, 0


def _run_rank1(cfg, args):
    import numpy as np

    from .coeffs import random_polynomial
    from .operators import rank_one, rank_one_toeplitz_sum

    basis = _basis(cfg)
    n_pairs, degree = cfg.rank1["n_pairs"], cfg.rank1["degree"]
    rng = np.random.default_rng(cfg.seed)
    devs = []
    for _ in range(n_pairs):
        f = random_polynomial(basis, rng, degree)
        g = random_polynomial(basis, rng, degree)
        S = rank_one_toeplitz_sum(basis, None, f, g)
        devs.append(float(np.linalg.norm((S - rank_one(f, g)).mat, "fro")))   # >= the spectral norm
    payload = {"n_pairs": n_pairs, "degree": degree, "norm": "frobenius",
               "max_deviation": max(devs), "deviations": devs}
    rows = [[i, v] for i, v in enumerate(devs)]
    return "rank-one-factorization", payload, ["pair", "deviation"], rows, 0


def _run_verify_axioms(cfg, args):
    from .analysis import axiom_checks

    checks = axiom_checks(_basis(cfg), _rule(cfg, args.resolution_scale), _zgrid(cfg), cfg.seed)
    all_pass = all(c["pass"] for c in checks)
    payload = {"checks": checks, "all_pass": all_pass}
    rows = [[c["name"], c["value"], c["tol"], c["pass"]] for c in checks]
    return "axioms", payload, ["check", "value", "tol", "pass"], rows, 0 if all_pass else 1


_RUNNERS: Dict[str, Callable] = {
    "kernel": _run_kernel,
    "toeplitz": _run_toeplitz,
    "berezin": _run_berezin,
    "rkt": _run_rkt,
    "essnorm": _run_essnorm,
    "rf": _run_rf,
    "schur": _run_schur,
    "covering": _run_covering,
    "localize": _run_localize,
    "rank1": _run_rank1,
    "verify-axioms": _run_verify_axioms,
}
COMMANDS = tuple(_RUNNERS)


def main(argv: Optional[list] = None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        _apply_threads(args.threads)
        from .config import load_config
        from .reporting import report_envelope, write_csv_atomic, write_json_atomic

        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = cfg.raw["seed"] = _flag("--seed", args.seed, int, lambda n: n >= 0, "an integer >= 0")
        args.resolution_scale = _flag("--resolution-scale", args.resolution_scale, float,
                                      lambda x: 0 < x < float("inf"), "finite and > 0")
        claim, payload, header, rows, code = _RUNNERS[args.command](cfg, args)
        envelope = report_envelope(args.command, claim, cfg.echo(), cfg.seed, payload)
        stem = args.command.replace("-", "_")
        json_path = os.path.join(args.out, f"{stem}.json")
        csv_path = os.path.join(args.out, f"{stem}.csv")
        # raises ValueError on NaN/infinity and leaves no file, so the CSV is never
        # left behind without its JSON
        write_json_atomic(json_path, envelope)
        write_csv_atomic(csv_path, header, rows)
    except ValueError as exc:                     # ConfigError is a ValueError
        details = getattr(exc, "details", {"error": str(exc)})
        json.dump({"command": getattr(args, "command", None), **details}, sys.stderr, indent=2,
                  sort_keys=True, default=str)
        sys.stderr.write("\n")
        return 2
    print(f"{args.command}: wrote {json_path} and {csv_path} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
