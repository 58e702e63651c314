"""Cell coverings at scale r and block localization of operators."""

import tracemalloc

import numpy as np
import pytest

from berglab import spaces
from berglab.covering import build_covering, localization_error
from berglab.operators import (ball_indicator_symbol, constant_symbol,
                               identity_operator, poly_symbol, toeplitz_matrix)
from berglab.coeffs import BasisSpec
from berglab.quadrature import build_rule

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
    for j in range(c.n_cells):
        assert np.all(c.enlargement[j, c.cell_index == j])
    # every node is covered by at least one enlargement, at most multiplicity
    per_node = c.multiplicity_per_node()
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


def test_fock_covering_constant_multiplicity(fock, fock_rule):
    mults = [_check_invariants(fock, fock_rule, r).multiplicity for r in (1.0, 2.0, 4.0)]
    # square cells of side proportional to r: the corner overlap count is
    # scale-free, so the multiplicity is the same at every r
    assert mults[0] == mults[1] == mults[2] == 4


def test_bidisc_covering_invariants(bidisc, bidisc_rule):
    for r in (1.0, 2.0):
        _check_invariants(bidisc, bidisc_rule, r)


def test_covering_rejects_bad_scale(disc, disc_rule):
    with pytest.raises(ValueError):
        build_covering(disc, 0.0, disc_rule)


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
