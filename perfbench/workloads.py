"""The in-process workloads: seeded inputs, timed items and their checks.

``setup(name, seed, size)`` runs inside a fresh workload process after
``import berglab``.  It builds the rules, bases and every input from the seed,
and returns the items.  An item is a (label, callable) pair; the callable
does the item's work and returns whether the result passes the acceptance
suite's tolerance for it.  Items run one after another (a closed loop with
one client); a failing or raising item is counted and the run goes on.

Why each workload exists, and which layers it stresses, is recorded next to
its name in BENCHMARK.json and in README.md beside this file.
"""

from __future__ import annotations

import numpy as np

import berglab as B

# Sizes: "full" is what the benchmark measures; "tiny" exercises the same
# code paths in well under a second per process, for the smoke test.
# A full rank1 run is kept to about 5 s (the bidisc at n=6 alone takes 8-10 s)
# so that a 30 s window holds several runs and its median is not a pair's mean.
SIZES = {
    "compactness": {"full": {"alphas": (0.0, 1.5), "n_modes": 24, "n_each": 10},
                    "tiny": {"alphas": (0.0,), "n_modes": 8, "n_each": 1}},
    "rank1": {"full": {"disc_n": 24, "disc_pairs": 1, "bidisc_n": 5, "bidisc_pairs": 1},
              "tiny": {"disc_n": 6, "disc_pairs": 1, "bidisc_n": 2, "bidisc_pairs": 1}},
    "localize": {"full": {"n_modes": 16, "n_ops": 10, "radii": (0.5, 1.0, 2.0, 4.0)},
                 "tiny": {"n_modes": 4, "n_ops": 2, "radii": (1.0, 2.0)}},
}

# Acceptance-suite tolerances (tests/test_acceptance.py, criteria 06-08).
ESSNORM_CUT = 0.25
BEREZIN_CUT = 0.05
RANK1_TOL = 1e-6
GEOM_TOL = 1e-9


def _ball_product_params(rng):
    """Two ball-indicator symbols as in criterion 07: centres |c| <= 0.3."""
    parts = []
    for _ in range(2):
        c = 0.3 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        rad = 0.25 + 0.1 * rng.uniform()
        parts.append((c, rad, np.diag(rng.uniform(0.5, 1.0, 2))))
    return parts


def _ball_product(basis, rule, params):
    space = basis.space
    T = [B.toeplitz_matrix(basis, rule, B.ball_indicator_symbol(space, c, rad, M))
         for c, rad, M in params]
    return T[0] @ T[1]


def compactness(seed: int, size: str):
    """Ball-product (compact) and constant-symbol (not compact) Toeplitz families."""
    spec = SIZES["compactness"][size]
    rng = np.random.default_rng(seed)
    items = []
    for alpha in spec["alphas"]:
        space = B.disc_space(alpha, d=2)
        basis = B.BasisSpec(space, spec["n_modes"])
        rule = B.build_rule(space)
        cases = [("ball", _ball_product_params(rng)) for _ in range(spec["n_each"])]
        cases += [("const", np.diag(rng.uniform(0.5, 1.0, 2))) for _ in range(spec["n_each"])]
        for j, (kind, params) in enumerate(cases):
            def item(basis=basis, rule=rule, kind=kind, params=params):
                if kind == "ball":
                    T, compact = _ball_product(basis, rule, params), True
                else:
                    T = B.toeplitz_matrix(basis, rule, B.constant_symbol(basis.space, params))
                    compact = False
                ess = B.essential_norm_estimate(T).estimate
                ber = B.berezin_decay_profile(T).final_value
                return (ess <= ESSNORM_CUT) == compact and (ber <= BEREZIN_CUT) == compact
            items.append((f"alpha={alpha}/{kind}{j}", item))
    return items


def rank1(seed: int, size: str):
    """Degree-4 polynomial pairs f, g: sum of Toeplitz products against f (x) g."""
    spec = SIZES["rank1"][size]
    rng = np.random.default_rng(seed)
    cases = [(B.disc_space(0.0, d=3), spec["disc_n"], spec["disc_pairs"]),
             (B.bidisc_space(0.0, 0.5, d=2), spec["bidisc_n"], spec["bidisc_pairs"])]
    items = []
    for space, n_modes, n_pairs in cases:
        basis = B.BasisSpec(space, n_modes)
        rule = B.build_rule(space)
        for j in range(n_pairs):
            f = B.random_polynomial(basis, rng, 4)
            g = B.random_polynomial(basis, rng, 4)

            def item(basis=basis, rule=rule, f=f, g=g):
                dev = (B.rank_one(f, g) - B.rank_one_toeplitz_sum(basis, rule, f, g)).norm()
                return dev < RANK1_TOL
            items.append((f"{space.kind}/pair{j}", item))
    return items


def _covering_ok(cov, r: float) -> bool:
    """Partition of the nodes, cell diameter <= 4r, and exact multiplicity."""
    idx = cov.cell_index
    partition = (idx.shape[0] == cov.rule.n_nodes and idx.min() >= 0
                 and idx.max() < cov.n_cells and bool((cov.cell_node_counts() > 0).all()))
    diameter = float(np.max(cov.cell_diameters())) <= 4.0 * r + GEOM_TOL
    per_node = cov.multiplicity_per_node()
    multiplicity = per_node.min() >= 1 and per_node.max() == cov.multiplicity
    return bool(partition and diameter and multiplicity)


def _poly_entries(rng, powers):
    """Seeded 2x2 polynomial symbol: a constant plus two first-order terms."""
    (p0, p1, p2) = powers
    return {(i, k): {p0: rng.uniform(-0.5, 0.5), p1: 0.3 * rng.uniform(-1, 1),
                     p2: 0.3 * rng.uniform(-1, 1)}
            for i in range(2) for k in range(2)}


def localize(seed: int, size: str):
    """Coverings at several radii and the localization error of criterion 08's family.

    Plus one bidisc case on an explicit rule (radial 6 x angular 12) that is
    exact for n_modes = 6, at r = 1.
    """
    spec = SIZES["localize"][size]
    rng = np.random.default_rng(seed)
    space = B.disc_space(0.0, d=2)
    basis = B.BasisSpec(space, spec["n_modes"])
    rule = B.build_rule(space)
    radii = spec["radii"]
    n_ball = (6 * spec["n_ops"]) // 10
    op_params = [("ball", _ball_product_params(rng)) if j < n_ball
                 else ("poly", _poly_entries(rng, ((0, 0), (1, 0), (0, 1))))
                 for j in range(spec["n_ops"])]
    bspace = B.bidisc_space(0.0, 0.5, d=2)
    bbasis = B.BasisSpec(bspace, min(6, spec["n_modes"]))
    brule = B.build_rule(bspace, 6, 12)
    bentries = _poly_entries(rng, ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)))

    coverings, operators, errors = {}, {}, {}
    items = []
    for r in radii:
        def cover(r=r):
            coverings[r] = B.build_covering(space, r, rule)
            return _covering_ok(coverings[r], r)
        items.append((f"disc/covering r={r}", cover))
    for j, (kind, params) in enumerate(op_params):
        for pos, r in enumerate(radii):
            def loc(j=j, kind=kind, params=params, pos=pos, r=r):
                if pos == 0:
                    operators[j] = (
                        _ball_product(basis, rule, params) if kind == "ball"
                        else B.toeplitz_matrix(basis, rule, B.poly_symbol(space, params)))
                    errors[j] = []
                err = B.localization_error(operators[j], coverings[r])
                errors[j].append(err)
                prev = errors[j][-2] if pos > 0 else np.inf
                return bool(np.isfinite(err) and err <= prev + GEOM_TOL)
            items.append((f"disc/{kind}{j} r={r}", loc))

    def bidisc_cover():
        coverings["bidisc"] = B.build_covering(bspace, 1.0, brule)
        return _covering_ok(coverings["bidisc"], 1.0)

    def bidisc_loc():
        T = B.toeplitz_matrix(bbasis, brule, B.poly_symbol(bspace, bentries))
        err = B.localization_error(T, coverings["bidisc"])
        return bool(np.isfinite(err) and err >= 0.0)
    items += [("bidisc/covering r=1.0", bidisc_cover), ("bidisc/poly r=1.0", bidisc_loc)]
    return items


WORKLOADS = {"compactness": compactness, "rank1": rank1, "localize": localize}


def setup(name: str, seed: int, size: str):
    return WORKLOADS[name](seed, size)
