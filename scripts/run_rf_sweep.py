#!/usr/bin/env python3
"""Sweep the kernel-power integrals over exponent pairs and weights.

For each weight parameter and each exponent pair (r, s), evaluate the
kernel-power integral I over a probe grid, in closed form
(`berglab.quadrature.rudin_forelli`), and record the value at the origin, the
sup over the grid and its spread.  Its companion J equals I for every pair
(Euler's transformation of the disc series), so J/I = 1 everywhere and is not
recorded.  On the balanced diagonal r = s, I is constant in z; off it, I
drifts with the base point.

Usage:
    python3 scripts/run_rf_sweep.py --out results/rf_sweep.csv
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from berglab import disc_space, fock_space, rudin_forelli  # noqa: E402
from berglab.analysis import default_probe_grid  # noqa: E402
from berglab.reporting import write_csv_atomic  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results/rf_sweep.csv")
    ap.add_argument("--alphas", type=float, nargs="*", default=[0.0, 0.5, 1.5])
    args = ap.parse_args()

    pairs = [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0), (3.0, 2.0), (2.0, 3.0), (4.0, 2.5)]
    rows = []
    cases = [(f"disc_a{a:g}", disc_space(a, d=1)) for a in args.alphas]
    cases.append(("fock", fock_space(d=1)))
    for label, space in cases:
        grid = default_probe_grid(space)
        for r, s in pairs:
            rep = rudin_forelli(space, grid, r, s)
            i_spread = float(np.max(rep.I) - np.min(rep.I))
            rows.append([label, r, s, f"{rep.I[0]:.8f}", f"{rep.sup_I:.8f}", f"{i_spread:.3e}"])
            print(f"{label:10s} r={r:g} s={s:g}  I(0)={rep.I[0]:.6f} "
                  f"sup I={rep.sup_I:.6f}  spread(I)={i_spread:.2e}")
    write_csv_atomic(args.out, ["space", "r", "s", "I_origin", "sup_I", "I_spread"], rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
