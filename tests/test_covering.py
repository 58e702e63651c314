"""Cell coverings at scale r and block localization of operators."""

import tracemalloc

import numpy as np
import pytest

from berglab import spaces
from berglab.covering import (_diameter, _disc_cells, _disc_grams, _localization_plan, build_covering,
                              localization_error)
from berglab.operators import (OperatorMatrix, ball_indicator_symbol, constant_symbol,
                               identity_operator, poly_symbol, toeplitz_matrix)
from berglab.coeffs import BasisSpec, _kron_rows, factor_samples, scalar_basis_matrix
from berglab.quadrature import QuadratureRule, ball_rule, build_rule
from conftest import enlargement, moment_disc_grams, per_cell_localization_error

RADII = (0.5, 1.0, 2.0, 4.0)


def _check_invariants(space, rule, r):
    c = build_covering(space, r, rule)
    # partition: every node sits in exactly one cell
    counts = c.cell_node_counts()
    assert counts.sum() == rule.n_nodes
    assert np.all(counts > 0)
    # bounded geometry: every cell has invariant diameter at most 4r
    assert np.all(c.cell_diameters() <= 4.0 * r + 1e-9)
    # each enlargement contains its own cell's nodes
    member = enlargement(c)
    for j in range(c.n_cells):
        assert np.all(member[j, c.cell_index == j])
    # every node is covered by at least one enlargement, at most multiplicity
    per_node = c.multiplicity_per_node()
    assert np.array_equal(per_node, member.sum(axis=0))
    assert np.all(per_node >= 1)
    assert per_node.max() == c.multiplicity
    return c


def test_disc_covering_invariants(disc, disc_rule):
    mults = [_check_invariants(disc, disc_rule, r).multiplicity for r in RADII]
    # multiplicity stays uniformly small and does not grow as cells coarsen
    assert all(m <= 16 for m in mults)
    assert mults[-1] <= mults[0]


def test_cell_diameters_exact_in_bounded_memory(disc, disc_rule):
    # at r = 4 a single cell holds every node of the default disc rule; the
    # full pairwise metric matrix of 2560 nodes alone would take 100 MiB
    c = build_covering(disc, 4.0, disc_rule)
    assert c.cell_node_counts().max() == disc_rule.n_nodes
    tracemalloc.start()
    try:
        diams = c.cell_diameters()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    for j in range(c.n_cells):
        sel = disc_rule.nodes[c.cell_index == j]
        # the full pairwise max, one row at a time
        assert diams[j] == max(float(np.max(spaces.metric(disc, z, sel))) for z in sel)


def _ref_diameter(space1, pts):
    """All-pairs max metric distance: each 128-row block meets the points from its first
    row on, and the pairs within 1e-14 of the block's max in tanh are also taken the
    other way round (the disc metric is symmetric, which this does not assume)."""
    best = 0.0
    for i in range(0, pts.shape[0], 128):
        s = spaces.metric(space1, pts[i:i + 128, None], pts[None, i:])
        a, b = np.nonzero(s >= np.arctanh(max(np.tanh(s.max()) - 1e-14, 0.0)))
        best = max(best, s.max(), np.max(spaces.metric(space1, pts[i + b], pts[i + a])))
    return float(best)


def test_cell_diameters_match_all_pairs_oracle(disc, disc_rule, disc_weighted, fock,
                                               fock_rule, bidisc, bidisc_rule):
    cases = [(disc, disc_rule), (disc, build_rule(disc, 10, 20)), (disc, build_rule(disc, 17, 33)),
             (disc_weighted, build_rule(disc_weighted)),
             (disc_weighted, build_rule(disc_weighted, 10, 20)), (fock, fock_rule),
             (bidisc, bidisc_rule), (bidisc, build_rule(bidisc, 6, 12))]
    for space, rule in cases:
        factor_nodes = spaces.coords(space, rule.nodes)
        seen = {}       # product cells share factor coordinate sets: each is swept once

        def ref(f, z):
            key = (f, z.tobytes())
            if key not in seen:
                seen[key] = _ref_diameter(f, z)
            return seen[key]

        for r in (0.2, 0.3) + RADII + (16.0,):
            c = build_covering(space, r, rule)
            cell_nodes = np.split(np.argsort(c.cell_index, kind="stable"),
                                  np.cumsum(c.cell_node_counts())[:-1])
            # the all-pairs max over each cell's nodes, factor by factor
            want = [max(ref(f, np.unique(z[nodes])) for f, z in zip(space.factors, factor_nodes))
                    for nodes in cell_nodes]
            assert np.array_equal(c.cell_diameters(), want)


def test_diameter_matches_all_pairs_off_the_mesh(disc, fock):
    rng = np.random.default_rng(5)

    def scatter(n, radius):
        return radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))

    z = 0.6 + 0.3j
    point_sets = [(disc, scatter(n, 0.999)) for n in (2, 127, 300, 700)] + [
        (disc, np.array([z])), (disc, np.full(200, z)),
        (disc, np.concatenate([np.full(130, z), scatter(50, 0.999), np.full(3, -z)])),
        (fock, rng.uniform(-3, 3, 400) + 1j * rng.uniform(-3, 3, 400))]
    # p and q (the farthest pair) lie near a line through the pivot 0, and 130 points
    # sit between them in distance from 0, so q falls in a later 128-row block than p;
    # _diameter takes the pair in one order only, which the metric's symmetry allows
    for phase in rng.uniform(0, 2 * np.pi, 16):
        p, q = np.tanh(3.65) * np.exp(1j * phase), -np.tanh(2.65) * np.exp(1j * (phase + 0.005))
        assert spaces.metric(disc, q, p) == spaces.metric(disc, p, q)
        side = np.tanh(2.75) * np.exp(1j * (phase + np.pi / 2 + np.linspace(-0.01, 0.01, 65)))
        point_sets.append((disc, np.concatenate([[0.0, q, p], side, -side])))
    for space, pts in point_sets:
        assert _diameter(space, pts) == _ref_diameter(space, pts)
    assert _diameter(disc, np.full(200, z)) == 0.0


def test_fock_covering_constant_multiplicity(fock, fock_rule):
    mults = [_check_invariants(fock, fock_rule, r).multiplicity for r in (1.0, 2.0, 4.0)]
    # square cells of side proportional to r: the corner overlap count is
    # scale-free, so the multiplicity is the same at every r
    assert mults[0] == mults[1] == mults[2] == 4


def test_bidisc_covering_invariants(bidisc, bidisc_rule):
    for r in (1.0, 2.0):
        _check_invariants(bidisc, bidisc_rule, r)


def test_covering_rejects_bad_scale(disc, disc_rule, fock, fock_rule, bidisc, bidisc_rule):
    for space, rule in ((disc, disc_rule), (fock, fock_rule), (bidisc, bidisc_rule)):
        for r in (0.0, -1.0, np.nan, np.inf, 1e308):
            with pytest.raises(ValueError):
                build_covering(space, r, rule)


def test_covering_rejects_a_rule_from_another_space(disc, disc_rule, disc_weighted, fock,
                                                    fock_rule, bidisc_rule):
    for space, rule in ((fock, disc_rule), (disc, bidisc_rule),
                        (disc, build_rule(disc_weighted, 10, 20)), (disc, fock_rule)):
        with pytest.raises(ValueError, match="different spaces"):
            build_covering(space, 1.0, rule)


def test_cells_are_numbered_by_their_first_node(disc, disc_rule, fock, fock_rule,
                                               bidisc, bidisc_rule):
    for space, rule in ((disc, disc_rule), (fock, fock_rule), (bidisc, bidisc_rule)):
        for r in RADII:
            c = build_covering(space, r, rule)
            first = np.unique(c.cell_index, return_index=True)[1]
            assert np.all(np.diff(first) > 0)


def test_product_cells_pair_each_node_with_its_factor_cells(bidisc, bidisc_rule):
    # every product of factor cells is a cell, once, in lexicographic (= first-node) order
    for r in RADII:
        c = build_covering(bidisc, r, bidisc_rule)
        node_cells = np.stack(np.meshgrid(*c.factor_index, indexing="ij"), axis=-1).reshape(-1, 2)
        assert np.array_equal(c.pick[c.cell_index], node_cells)
        assert np.array_equal(np.unique(c.pick, axis=0), c.pick)
        assert c.n_cells == np.prod([len(m) for m in c.factor_enlargement]) == len(c.cells)


def _ref_halfwidth(step, rho):
    if rho <= 1e-12:
        return np.pi
    arg = np.sinh(step) * (1.0 - rho * rho) / (2.0 * rho)
    return np.pi if arg >= 1.0 else float(np.arcsin(arg))


def _ref_disc_cells(rule, r):
    """Disc cells by a loop over the nodes, keyed through a dict in first-seen order; a node's
    sector comes from its angle index u % angular_order, its rapidity and enlargement
    membership from its own coordinates."""
    pts, na = rule.nodes, rule.angular_order
    s = spaces.metric(rule.space, 0.0, pts)
    theta = np.mod(np.angle(pts), 2.0 * np.pi)
    n_sec = []
    for k in range(max(1, int(np.ceil((float(s.max()) + 1e-9) / (2.0 * r))))):
        half = np.pi if k == 0 else _ref_halfwidth(2.0 * r, np.tanh(2.0 * r * (k + 1)))
        n_sec.append(1 if half >= np.pi else int(np.ceil(np.pi / half)))
    annulus = np.minimum((s / (2.0 * r)).astype(int), len(n_sec) - 1)
    cells, keys, index = [], {}, np.zeros(pts.shape[0], dtype=int)
    for u in range(pts.shape[0]):
        k = annulus[u]
        width = 2.0 * np.pi / n_sec[k]
        j = (u % na) * n_sec[k] // na
        if (k, j) not in keys:
            keys[(k, j)] = len(cells)
            cells.append({"kind": "annulus_sector", "s_lo": 2.0 * r * k, "s_hi": 2.0 * r * (k + 1),
                          "theta_lo": j * width, "theta_hi": (j + 1) * width})
        index[u] = keys[(k, j)]
    member = np.zeros((len(cells), pts.shape[0]), dtype=bool)
    for j, c in enumerate(cells):
        s_lo, s_hi = max(c["s_lo"] - r, 0.0), c["s_hi"] + r
        radial = (s >= s_lo - 1e-12) & (s <= s_hi + 1e-12)
        center = 0.5 * (c["theta_lo"] + c["theta_hi"])
        halfw = 0.5 * (c["theta_hi"] - c["theta_lo"]) + _ref_halfwidth(r, np.tanh(s_lo))
        wrapped = np.abs(np.mod(theta - center + np.pi, 2.0 * np.pi) - np.pi)
        member[j] = radial & (halfw >= np.pi or wrapped <= halfw + 1e-12)
    return cells, index, member


def _ref_fock_cells(r, pts):
    """Fock squares by a loop over the points, keyed through a dict in first-seen order."""
    side = 2.0 * np.sqrt(2.0) * r
    extent = float(np.max(np.abs(np.concatenate([pts.real, pts.imag])))) + 1e-9
    n_side = max(1, int(np.ceil(2.0 * extent / side)))
    lo = -0.5 * n_side * side
    ix = np.minimum(((pts.real - lo) / side).astype(int), n_side - 1)
    iy = np.minimum(((pts.imag - lo) / side).astype(int), n_side - 1)
    cells, keys, index = [], {}, np.zeros(pts.shape[0], dtype=int)
    for u in range(pts.shape[0]):
        if (ix[u], iy[u]) not in keys:
            keys[(ix[u], iy[u])] = len(cells)
            cells.append({"kind": "square",
                          "x_lo": lo + ix[u] * side, "x_hi": lo + (ix[u] + 1) * side,
                          "y_lo": lo + iy[u] * side, "y_hi": lo + (iy[u] + 1) * side})
        index[u] = keys[(ix[u], iy[u])]
    member = np.zeros((len(cells), pts.shape[0]), dtype=bool)
    for j, c in enumerate(cells):
        member[j] = ((pts.real >= c["x_lo"] - r - 1e-12) & (pts.real <= c["x_hi"] + r + 1e-12)
                     & (pts.imag >= c["y_lo"] - r - 1e-12) & (pts.imag <= c["y_hi"] + r + 1e-12))
    return cells, index, member


def test_cells_match_per_node_loop(disc, disc_rule, disc_weighted, fock, fock_rule, bidisc):
    cases = [(disc, disc_rule), (disc, build_rule(disc, 17, 33)),
             (disc_weighted, build_rule(disc_weighted)), (fock, fock_rule)]
    for space, rule in cases:
        for r in (0.3,) + RADII + (16.0,):
            c = build_covering(space, r, rule)
            cells, index, member = (_ref_fock_cells(r, rule.nodes) if space is fock
                                    else _ref_disc_cells(rule, r))
            assert c.cells == cells
            assert np.array_equal(c.cell_index, index)
            assert np.array_equal(enlargement(c), member)
    # the factor rules of a product rule
    for fr in build_rule(bidisc, 6, 12).factors:
        for r in (0.3, 1.0):
            got, want = _disc_cells(fr, r), _ref_disc_cells(fr, r)
            assert got[0] == want[0]
            assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))


def _ref_localization_error(T, covering):
    """The full-grid form: samples A, their localization L, the 2-norm of weighted A - L."""
    rule, d = covering.rule, T.basis.space.d
    E = scalar_basis_matrix(T.basis, rule.nodes)
    Ew = E.conj() * rule.sigma_weights[None, :]
    A = np.kron(E.T, np.eye(d)) @ T.mat
    L = np.zeros_like(A)
    member = enlargement(covering)
    for j in range(covering.n_cells):
        gmask = member[j]
        scalar_g = Ew[:, gmask] @ E[:, gmask].T
        rows = np.where(covering.cell_index == j)[0]
        row_idx = (rows[:, None] * d + np.arange(d)[None, :]).ravel()
        L[row_idx, :] = A[row_idx] @ np.kron(scalar_g, np.eye(d))
    w = np.repeat(np.sqrt(rule.sigma_weights), d)
    return float(np.linalg.norm(w[:, None] * (A - L), 2))


def test_localization_error_matches_full_grid_oracle(disc, disc_rule, disc_weighted, fock,
                                                     fock_rule, bidisc, bidisc_rule):
    cases = []
    for sp, rule, one_cell in ((disc, disc_rule, 16.0), (fock, fock_rule, 16.0)):
        s = ball_indicator_symbol(sp, 0.1, 0.3 if sp is disc else 0.8, np.eye(2))
        T = toeplitz_matrix(BasisSpec(sp, 8), rule, s)
        cases.append((T @ T, rule, one_cell))
    rule = build_rule(bidisc, 6, 12)
    sym = poly_symbol(bidisc, {(0, 0): {(1, 0, 0, 1): 1.0}, (1, 1): {(0, 0, 0, 0): 0.5}})
    cases.append((toeplitz_matrix(BasisSpec(bidisc, 4), rule, sym), rule, 2.0))
    # its factor cores hold both fewer and more distinct factor nodes than n_modes,
    # so both shapes of a factor core's QR factor occur
    for index in build_covering(bidisc, 1.0, rule).factor_index:
        counts = np.bincount(index)
        assert counts.min() < 4 < counts.max()
    # three components: the (mode, component) interleaving of rows and columns
    disc3 = spaces.disc_space(0.0, d=3)
    sym = poly_symbol(disc3, {(0, 2): {(1, 0): 1.0}, (2, 1): {(0, 1): 0.7}, (1, 1): {(0, 0): 0.4}})
    rule3 = build_rule(disc3)      # disc_rule's nodes and weights, on the d=3 space
    cases.append((toeplitz_matrix(BasisSpec(disc3, 6), rule3, sym), rule3, 16.0))
    # a random non-normal operator; at r=1 its cells hold both fewer and more
    # nodes than n_scalar, so both shapes of the core's QR factor occur
    basis = BasisSpec(disc, 8)
    shape, rng = (basis.dim, basis.dim), np.random.default_rng(7)
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cases.append((OperatorMatrix(basis, mat), disc_rule, 16.0))
    counts = build_covering(disc, 1.0, disc_rule).cell_node_counts()
    assert counts.min() < basis.n_scalar < counts.max()
    # a weighted disc, and the default bidisc rule
    wrule = build_rule(disc_weighted)
    sym = ball_indicator_symbol(disc_weighted, 0.2, 0.4, np.diag([1.0, 0.5]))
    cases.append((toeplitz_matrix(BasisSpec(disc_weighted, 8), wrule, sym), wrule, 16.0))
    sym = poly_symbol(bidisc, {(0, 0): {(1, 0, 0, 1): 1.0, (0, 0, 0, 0): 0.3},
                               (0, 1): {(0, 1, 0, 0): 0.2}, (1, 1): {(0, 0, 0, 0): 0.5}})
    cases.append((toeplitz_matrix(BasisSpec(bidisc, 4), bidisc_rule, sym), bidisc_rule, 2.0))
    for T, rule, one_cell in cases:
        assert build_covering(T.basis.space, one_cell, rule).n_cells == 1
        for r in RADII + (one_cell,):
            c = build_covering(T.basis.space, r, rule)
            err, ref = localization_error(T, c), _ref_localization_error(T, c)
            assert abs(err - ref) <= max(1e-12 * ref, 1e-14)


def _random_operator(space, n_modes, seed):
    basis = BasisSpec(space, n_modes)
    rng = np.random.default_rng(seed)
    shape = (basis.dim, basis.dim)
    return OperatorMatrix(basis, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_stacked_localization_matches_per_cell_oracle(disc_weighted, fock, fock_rule, bidisc,
                                                      bidisc_rule):
    disc1, disc3 = spaces.disc_space(0.0, d=1), spaces.disc_space(0.0, d=3)
    sym = poly_symbol(disc3, {(0, 2): {(1, 0): 1.0}, (2, 1): {(0, 1): 0.7}, (1, 1): {(0, 0): 0.4}})
    cases = [
        (_random_operator(disc1, 16, 1), build_rule(disc1), (0.5, 1.0, 16.0)),
        (toeplitz_matrix(BasisSpec(disc3, 8), build_rule(disc3), sym), build_rule(disc3), (0.5, 2.0)),
        (_random_operator(disc3, 8, 2), build_rule(disc3), (1.0,)),
        (_random_operator(fock, 16, 3), fock_rule, (0.5, 1.0, 16.0)),
        (_random_operator(disc_weighted, 12, 4), build_rule(disc_weighted), (0.5, 1.0)),
        (_random_operator(bidisc, 8, 5), bidisc_rule, (0.5,)),
        (_random_operator(bidisc, 4, 6), bidisc_rule, (1.0, 2.0)),
    ]
    for T, rule, radii in cases:
        for r in radii:
            c = build_covering(T.basis.space, r, rule)
            err, ref = localization_error(T, c), per_cell_localization_error(T, c)
            assert abs(err - ref) <= 1e-13 * ref
    # one-cell coverings
    assert build_covering(disc1, 16.0, cases[0][1]).n_cells == 1
    assert build_covering(fock, 16.0, fock_rule).n_cells == 1
    assert build_covering(bidisc, 2.0, bidisc_rule).n_cells == 1
    # bidisc n=8, r=0.5: several row-shape groups, each of the larger ones split into
    # chunks whose cells share first-factor cells
    T = cases[5][0]
    c = build_covering(bidisc, 0.5, bidisc_rule)
    assert c.n_cells == 1617
    rows = [q[a]                                 # each cell's core factor row counts
            for (_, q, _), a in zip(_localization_plan(c, T.basis)[0], c.pick.T)]
    shapes, counts = np.unique(np.stack(rows, axis=1), axis=0, return_counts=True)
    assert len(shapes) >= 3
    # a group's first products: q_1 * dim / n rows of dim entries per cell
    assert (counts * shapes[:, 0] * T.dim // T.basis.n_modes).max() > max(256, 4 * T.dim)
    # fewer first-factor cells than cells: chunks share first-factor products
    assert len(np.unique(c.pick[:, 0])) < c.n_cells


def test_localization_chunks_follow_the_operator_dimension(disc, disc_rule, bidisc, bidisc_rule,
                                                           monkeypatch):
    # every chunk's first product, as handed to _kron_rows, holds at most max(256, 4 dim)
    # rows of dim entries, and one call (plan already built) peaks at a few such products
    for space, rule, n, n_cells in ((disc, disc_rule, 16, 257), (bidisc, bidisc_rule, 8, 1617)):
        c = build_covering(space, 0.5, rule)
        assert c.n_cells == n_cells
        T = _random_operator(space, n, 7)
        budget = max(256, 4 * T.dim)
        ref = localization_error(T, c)
        tracemalloc.start()
        try:
            assert localization_error(T, c) == ref
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * budget * T.dim * 16
        seen = []

        def kron_rows(mats, Y):
            seen.append(Y.size // T.dim)
            return _kron_rows(mats, Y)
        monkeypatch.setattr("berglab.covering._kron_rows", kron_rows)
        assert localization_error(T, c) == ref
        monkeypatch.undo()
        assert budget // 2 < max(seen) <= budget
        q = _localization_plan(c, T.basis)[0][0][1]      # first-factor core rows, per factor cell
        assert sum(seen) == q[c.pick[:, 0]].sum() * T.dim // n     # each cell in one chunk


def test_localization_error_one_cell_bidisc_holds_no_grid_samples(bidisc, bidisc_rule):
    T = identity_operator(BasisSpec(bidisc, 4))
    c = build_covering(bidisc, 2.0, bidisc_rule)
    assert c.n_cells == 1
    tracemalloc.start()
    try:
        err = localization_error(T, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err < 1e-12
    # the (nodes * d) x dim grid samples alone would take this many bytes
    assert peak < bidisc_rule.n_nodes * bidisc.d * T.dim * 16


def test_localization_blocks_are_reused_bit_for_bit(disc, disc_rule, disc_weighted, fock, fock_rule,
                                                    bidisc, bidisc_rule):
    # operators of two bases interleaved over the radii, as the localize workload calls
    # them: the call that builds a basis's plan, a repeated call and a call on a freshly
    # built covering agree bit for bit, on one-factor coverings and on the bidisc's
    # chunks that share first-factor cells
    cases = [(disc, disc_rule, (6, 8)), (fock, fock_rule, (6, 8)), (bidisc, bidisc_rule, (3, 4))]
    held = {}
    for space, rule, modes in cases:
        coverings = held[space] = {r: build_covering(space, r, rule) for r in (0.5, 1.0, 2.0)}
        for seed, n in enumerate(modes + modes):
            T = _random_operator(space, n, seed)
            for r, c in coverings.items():
                first = localization_error(T, c)
                assert localization_error(T, c) == first
                assert localization_error(T, build_covering(space, r, rule)) == first
        assert set(coverings[1.0].blocks) == {BasisSpec(space, n) for n in modes}
    # a disc covering holding a plan for n_modes 8 does not admit an operator on another space
    with pytest.raises(ValueError):
        localization_error(identity_operator(BasisSpec(disc_weighted, 8)), held[disc][1.0])


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_disc_grams_from_the_factor_samples_match_the_ring_moment_oracle(alpha):
    # the plan's disc Grams read the basis only through its factor samples (ring Grams of the
    # samples at angle 0), and agree with the ring-moment formula c_m c_k H[m + k] A[k - m]
    space = spaces.disc_space(alpha, d=1)
    rule = build_rule(space)
    for n, r in ((8, 0.5), (16, 0.5), (16, 1.0), (16, 2.0), (64, 0.5)):
        c = build_covering(space, r, rule)
        member = c.factor_enlargement[0]
        order = np.argsort(np.minimum(np.bincount(c.factor_index[0]), n), kind="stable")
        S = factor_samples(BasisSpec(space, n), rule)[0] * np.sqrt(rule.sigma_weights)
        G, ref = _disc_grams(rule, S, member, order), moment_disc_grams(rule, member, n, order)
        assert G.shape == ref.shape == (len(member), n, n)
        assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max(), (n, r)


def test_localization_plan_holds_each_factor_cells_blocks(disc, disc_rule, fock, fock_rule, bidisc,
                                                         bidisc_rule):
    # each factor cell's blocks, read from the plan's stacks at its place, against the same
    # blocks built from that cell's own nodes: the enlargement Gram conj(S) S^T directly
    # (on the disc the plan builds it from ring moments and angle sums), and the core
    # factor through R^H R = conj(S_core) S_core^T, whichever QR convention holds
    for space, rule, n, r in ((disc, disc_rule, 8, 0.5), (fock, fock_rule, 8, 0.5),
                              (bidisc, bidisc_rule, 4, 1.0)):
        c = build_covering(space, r, rule)
        factors, _ = _localization_plan(c, BasisSpec(space, n))
        samples = factor_samples(BasisSpec(space, n), rule)
        for (stacks, q, pos), S, fr, index, member in zip(factors, samples, rule.factors,
                                                        c.factor_index, c.factor_enlargement):
            S = S * np.sqrt(fr.sigma_weights)
            assert sorted(stacks) == sorted(set(q.tolist()))
            assert all(len(stacks[v][0]) == np.sum(q == v) for v in stacks)
            assert any(q < n) and any(np.bincount(index) > n)      # both kinds of core factor
            for a in range(len(member)):
                G, R = stacks[q[a]][0][pos[a]], stacks[q[a]][1][pos[a]]
                e, core = S[:, member[a]], S[:, index == a]
                np.testing.assert_allclose(G, e.conj() @ e.T, rtol=0, atol=1e-13)
                assert R.shape == (min(core.shape[1], n), n)
                if core.shape[1] <= n:
                    assert np.array_equal(R, core.T)
                np.testing.assert_allclose(R.conj().T @ R, core.conj() @ core.T, rtol=0, atol=1e-13)


def test_localization_blocks_follow_factor_cells(bidisc, bidisc_rule, disc, disc_rule):
    for space, rule, n, n_cells in ((bidisc, bidisc_rule, 8, 1617), (disc, disc_rule, 16, 257)):
        c = build_covering(space, 0.5, rule)
        assert c.n_cells == n_cells
        ops = [identity_operator(BasisSpec(space, n)), _random_operator(space, n, 0)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for T in ops:           # the plan, built by the first call, is held after both
                localization_error(T, c)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a Gram and a core factor of at most n_modes^2 complex entries per factor cell;
        # the same per product cell would take about 212 MB on the bidisc
        n_factor_cells = sum(len(member) for member in c.factor_enlargement)
        assert retained <= 2 * n_factor_cells * n ** 2 * 16


def test_localization_error_rejects_an_operator_from_another_space(disc, fock, fock_rule):
    with pytest.raises(ValueError):
        localization_error(identity_operator(BasisSpec(disc, 8)),
                           build_covering(fock, 1.0, fock_rule))
    weighted = spaces.disc_space(1.5, d=2)
    one_cell = build_covering(weighted, 16.0)
    assert one_cell.n_cells == 1
    with pytest.raises(ValueError):
        localization_error(identity_operator(BasisSpec(disc, 8)), one_cell)


def test_localization_error_rejects_a_rule_off_the_factor_mesh(bidisc, disc, disc_rule):
    # the factor blocks need the rule to be the product of the factors' own rules
    rule = build_rule(bidisc, 6, 12)
    p = np.random.default_rng(0).permutation(rule.n_nodes)
    shuffled = QuadratureRule(bidisc, rule.nodes[p], rule.sigma_weights[p], 6, 12)
    with pytest.raises(ValueError):
        localization_error(identity_operator(BasisSpec(bidisc, 4)),
                           build_covering(bidisc, 1.0, shuffled))
    # and a disc factor's cells and Grams need its rule to be its own polar grid: not its
    # nodes permuted, nor its weights varying around a ring, nor another polar grid's nodes
    p = np.random.default_rng(0).permutation(disc_rule.n_nodes)
    off_grid = (QuadratureRule(disc, disc_rule.nodes[p], disc_rule.sigma_weights[p], 40, 64),
                QuadratureRule(disc, disc_rule.nodes, disc_rule.sigma_weights[p], 40, 64),
                ball_rule(disc, 0.2 + 0.1j, 0.5, 10, 20))
    for rule in off_grid:
        with pytest.raises(ValueError, match="polar grid"):
            localization_error(identity_operator(BasisSpec(disc, 4)),
                               build_covering(disc, 1.0, rule))


def test_single_cell_localization_is_exact(disc, disc_rule):
    basis = BasisSpec(disc, 12)
    sym = poly_symbol(disc, {(0, 0): {(1, 0): 1.0}, (1, 1): {(0, 0): 0.5}})
    T = toeplitz_matrix(basis, disc_rule, sym)
    big = build_covering(disc, 16.0, disc_rule)
    # at huge scale everything lands in one cell and truncation is lossless
    assert big.n_cells == 1
    assert localization_error(T, big) < 1e-12


def test_localization_error_decreases_with_scale(disc, disc_rule, fock, fock_rule):
    for sp, rule in ((disc, disc_rule), (fock, fock_rule)):
        basis = BasisSpec(sp, 16)
        s = ball_indicator_symbol(sp, 0.1, 0.3 if sp.kind == "bergman_disc" else 0.8,
                                  np.eye(2))
        T = toeplitz_matrix(basis, rule, s) @ toeplitz_matrix(basis, rule, s)
        errs = [localization_error(T, build_covering(sp, r, rule)) for r in RADII]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.5 * max(errs[0], 1e-12) + 1e-12


def test_localization_of_identity_is_small_at_large_scale(disc, disc_rule):
    basis = BasisSpec(disc, 12)
    T = identity_operator(basis)
    errs = [localization_error(T, build_covering(disc, r, disc_rule)) for r in (2.0, 16.0)]
    assert errs[1] < 1e-12
    assert errs[0] >= errs[1]


def test_localization_error_bounded_by_norm(disc, disc_rule):
    basis = BasisSpec(disc, 12)
    M = np.diag([0.8, 0.4])
    T = toeplitz_matrix(basis, disc_rule, constant_symbol(disc, M))
    for r in (0.5, 1.0):
        err = localization_error(T, build_covering(disc, r, disc_rule))
        # the block-diagonal truncation of a bounded operator differs from it
        # by at most twice the norm on the sampled grid
        assert err <= 2.0 * T.norm() + 1e-12
