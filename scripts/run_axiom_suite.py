#!/usr/bin/env python3
"""Sweep the space-axiom residuals across models and truncation sizes.

For each model space and each truncation size N, run the axiom suite of
`berglab verify-axioms` (berglab.analysis.axiom_checks) with the diagonal
displacement radii below as its probe grid, and add the residual of the
reproducing pairing <f, K_z> = f(z) at eight seeded points.  Writes one CSV
row per (space, N, check), with the suite's check names; a translation row
that checked no point (no certified U_z mode at any radius) reads nan.

Usage:
    python3 scripts/run_axiom_suite.py --out results/axioms.csv [--seed 0]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from berglab import (  # noqa: E402
    BasisSpec, axiom_checks, bidisc_space, build_rule, disc_space, fock_space, kernel_eval,
    random_coeff_function,
)
from berglab.analysis import probe_radii  # noqa: E402
from berglab.coeffs import eval_coeffs, rule_samples  # noqa: E402
from berglab.reporting import write_csv_atomic  # noqa: E402
from berglab.spaces import point  # noqa: E402


def reproducing_residual(basis, rule, seed):
    """max |sum_u w_u f(u) conj(K_z(u)) - f(z)| over eight seeded points z within the reach
    of axiom_checks' seeded points, one product."""
    space = basis.space
    rng = np.random.default_rng(seed)
    f = random_coeff_function(basis, rng)
    lim, = probe_radii(space, "axiom")
    z = point(space, [lim * np.sqrt(rng.uniform(0, 1, 8)) * np.exp(2j * np.pi * rng.uniform(0, 1, 8))
                      for _ in space.factors])
    K = kernel_eval(space, z[:, None], rule.nodes[None])             # (point, node)
    quad = (np.conj(K) * rule.sigma_weights) @ rule_samples(basis, rule, f.coeffs)
    return float(np.max(np.abs(quad - eval_coeffs(f, z))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results/axioms.csv")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spaces = [
        ("disc_a0", disc_space(0.0, d=2)),
        ("disc_a1.5", disc_space(1.5, d=2)),
        ("fock", fock_space(d=2)),
        ("bidisc", bidisc_space(0.0, 0.5, d=2)),
    ]
    rows = []
    for label, space in spaces:
        radii = (0.05, 0.5, 1.0, 1.5) if space.kind == "fock" else (0.05, 0.15, 0.3, 0.45)
        z_grid = [point(space, [r * np.exp(0.9j)] * space.nfactors) for r in radii]
        rule = build_rule(space)
        for n in (4, 8) if space.kind == "bidisc" else (8, 16, 32):
            basis = BasisSpec(space, n)
            res = {c["name"]: c["value"] if c.get("points_checked", 1) else float("nan")
                   for c in axiom_checks(basis, rule, z_grid, args.seed)}
            res["reproducing"] = reproducing_residual(basis, rule, args.seed)
            for check, value in res.items():
                rows.append([label, n, check, f"{value:.3e}"])
                print(f"{label:10s} N={n:3d} {check:34s} {value:.3e}")
    write_csv_atomic(args.out, ["space", "n_modes", "check", "residual"], rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
