#!/usr/bin/env python3
"""Trace localization error against covering scale for several operators.

Builds invariant-metric coverings of the disc and the Fock plane at a range
of radii, checks the covering invariants (partition of the nodes, cell
diameter at most 4r, finite overlap of the enlarged cells), then measures
how well each generated Toeplitz operator is approximated by its sum of
cell-localized compressions.  The error curve should be non-increasing in r
and collapse once a single cell covers the support of the quadrature rule.

Usage:
    python3 scripts/run_localization_study.py --radii 0.5 1 2 4 8
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from berglab import (  # noqa: E402
    BasisSpec, ball_indicator_symbol, build_covering, build_rule, disc_space,
    fock_space, localization_error, poly_symbol, toeplitz_matrix,
)
from berglab.reporting import write_csv_atomic  # noqa: E402


def generated_operators(space, basis, rule, seed, n_ops):
    rng = np.random.default_rng(seed)
    d = space.d
    ops = []
    for j in range(n_ops):
        if j % 2 == 0:
            parts = []
            for _ in range(2):
                top = 0.3 if space.kind == "bergman_disc" else 0.6
                c = top * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                rad = 0.25 + 0.1 * rng.uniform()
                M = np.diag(rng.uniform(0.5, 1.0, d))
                parts.append(toeplitz_matrix(basis, rule,
                                             ball_indicator_symbol(space, c, rad, M)))
            ops.append((f"ball_product_{j}", parts[0] @ parts[1]))
        else:
            entries = {}
            for i in range(d):
                for k in range(d):
                    entries[(i, k)] = {(0, 0): rng.uniform(-0.5, 0.5),
                                       (1, 0): 0.3 * rng.uniform(-1, 1),
                                       (0, 1): 0.3 * rng.uniform(-1, 1)}
            ops.append((f"poly_{j}", toeplitz_matrix(basis, rule,
                                                     poly_symbol(space, entries))))
    return ops


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results/localization.csv")
    ap.add_argument("--radii", type=float, nargs="*", default=[0.5, 1.0, 2.0, 4.0])
    ap.add_argument("--n-modes", type=int, default=16)
    ap.add_argument("--n-ops", type=int, default=6)
    ap.add_argument("--seed", type=int, default=13)
    args = ap.parse_args()

    rows = []
    ok = True
    for label, space in (("disc", disc_space(0.0, d=2)), ("fock", fock_space(d=2))):
        basis = BasisSpec(space, args.n_modes)
        rule = build_rule(space)
        coverings = {}
        for r in args.radii:
            cov = build_covering(space, r, rule)
            coverings[r] = cov
            diam_ok = float(cov.cell_diameters().max()) <= 4.0 * r + 1e-9
            ok &= diam_ok
            print(f"{label:5s} r={r:<4g} cells={cov.n_cells:4d} "
                  f"multiplicity={cov.multiplicity} diam_ok={diam_ok}")
        for op_label, T in generated_operators(space, basis, rule,
                                               args.seed, args.n_ops):
            errs = [localization_error(T, coverings[r]) for r in args.radii]
            mono = all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))
            ok &= mono
            for r, e in zip(args.radii, errs):
                rows.append([label, op_label, r, f"{e:.6e}", mono])
            curve = "  ".join(f"{e:.2e}" for e in errs)
            print(f"  {op_label:16s} errors: {curve}  non-increasing={mono}")
    write_csv_atomic(args.out, ["space", "operator", "r", "error",
                                "curve_non_increasing"], rows)
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
