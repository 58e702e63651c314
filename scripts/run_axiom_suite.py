#!/usr/bin/env python3
"""Sweep the space-axiom residuals across models and truncation sizes.

For each model space and each truncation size N, measure the worst residual
of the core identities (quadrature mass, basis orthonormality, reproducing
pairing, involution/metric invariance, normalized-pairing identity) and the
certified translation identities at a few displacement radii.  Writes one CSV
row per (space, N, check).

Usage:
    python3 scripts/run_axiom_suite.py --out results/axioms.csv [--n-pairs 400]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from berglab import (  # noqa: E402
    BasisSpec, bidisc_space, build_rule, disc_space, fock_space, involution,
    kernel_eval, kernel_norm, metric, normalized_pairing, random_coeff_function,
    scalar_basis_matrix, translation_certificate, translation_matrix,
)
from berglab.spaces import point  # noqa: E402
from berglab.coeffs import eval_coeffs  # noqa: E402
from berglab.operators import certified_projector  # noqa: E402
from berglab.reporting import write_csv_atomic  # noqa: E402


def sample_points(space, n, seed):
    rng = np.random.default_rng(seed)
    if space.kind == "fock":
        top = space.fock_probe_radius
    else:
        top = 0.8 * space.r_max
    return point(space, [top * np.sqrt(rng.uniform(0.0, 1.0, n))
                         * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
                         for _ in space.factors])


def residuals(space, n_modes, n_pairs, seed):
    basis = BasisSpec(space, n_modes)
    rule = build_rule(space)
    out = {}
    out["sigma_mass"] = abs(rule.sigma_weights.sum() - 1.0)
    B = scalar_basis_matrix(basis, rule.nodes)
    gram = (B * rule.sigma_weights[None, :]) @ B.conj().T
    out["orthonormality"] = float(np.linalg.norm(gram - np.eye(basis.n_scalar), 2))

    rng = np.random.default_rng(seed)
    f = random_coeff_function(basis, rng)
    vals = eval_coeffs(f, rule.nodes)
    worst = 0.0
    for z in sample_points(space, 8, seed + 1):
        kz = kernel_eval(space, z, rule.nodes)
        quad = np.sum(rule.sigma_weights[:, None] * vals * np.conj(kz)[:, None], axis=0)
        worst = max(worst, float(np.max(np.abs(quad - eval_coeffs(f, [z])[0]))))
    out["reproducing"] = worst

    zs = sample_points(space, n_pairs, seed + 2)
    ws = sample_points(space, n_pairs, seed + 3)
    us = sample_points(space, n_pairs, seed + 4)
    inv = pairing = met = 0.0
    for z, w, u in zip(zs, ws, us):
        inv = max(inv, float(np.max(np.abs(
            involution(space, z, involution(space, z, w)) - w))))
        pairing = max(pairing, abs(abs(normalized_pairing(space, z, w))
                                   * kernel_norm(space, involution(space, z, w)) - 1.0))
        met = max(met, abs(metric(space, involution(space, u, z), involution(space, u, w))
                           - metric(space, z, w)))
    out["involution"] = inv
    out["pairing_identity"] = pairing
    out["metric_invariance"] = met

    # displacements on the diagonal of a product space
    radii = (0.05, 0.5, 1.0, 1.5) if space.kind == "fock" else (0.05, 0.15, 0.3, 0.45)
    worst = 0.0
    certified = []
    for r in radii:
        z = point(space, [r * np.exp(0.9j)] * space.nfactors)
        cert = translation_certificate(basis, z)
        certified.append(cert.certified_modes)
        if cert.certified_modes == 0:
            continue
        P = certified_projector(basis, cert).mat
        U = translation_matrix(basis, z).mat
        I = np.eye(basis.dim)
        worst = max(worst,
                    float(np.linalg.norm(P @ (U.conj().T @ U - I) @ P, 2)),
                    float(np.linalg.norm(P @ (U @ U - I) @ P, 2)))
    # no certified mode at any radius leaves nothing checked: nan, not a zero residual
    out["translation_certified"] = worst if max(certified) > 0 else float("nan")
    out["certified_modes_min"] = float(min(certified))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results/axioms.csv")
    ap.add_argument("--n-pairs", type=int, default=400)
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
        sizes = (4, 8) if space.kind == "bidisc" else (8, 16, 32)
        for n in sizes:
            res = residuals(space, n, args.n_pairs, args.seed)
            for check, value in sorted(res.items()):
                rows.append([label, n, check, f"{value:.3e}"])
                print(f"{label:10s} N={n:3d} {check:22s} {value:.3e}")
    write_csv_atomic(args.out, ["space", "n_modes", "check", "residual"], rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
