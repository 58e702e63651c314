"""Product-space folds against the explicit two-factor formulas they replace.

Each reference below is the bidisc written out by hand for exactly two disc
factors.  The fold over ``space.factors`` runs the same floating-point
operations in the same order, so it must reproduce them bit for bit.
"""

import numpy as np

from berglab import spaces
from berglab.coeffs import BasisSpec, _factor_basis_matrix, basis_normalizer, scalar_basis_matrix
from berglab.covering import _disc_cells, build_covering
from berglab.operators import _scalar_translation, translation_certificate, translation_matrix
from berglab.quadrature import _polar_grid, _radial_rule, build_rule
from conftest import certified_projector, enlargement, sample_points


def _ref_relative_kernel_tail(space, z, n_modes):
    q1 = spaces.relative_kernel_tail(space.factors[0], z[..., 0], n_modes)
    q2 = spaces.relative_kernel_tail(space.factors[1], z[..., 1], n_modes)
    return q1 + q2 - q1 * q2


def _ref_basis_normalizer(basis):
    c1, c2 = (basis_normalizer(BasisSpec(basis.space.factors[i], basis.n_modes)) for i in range(2))
    return np.outer(c1, c2).ravel()


def _ref_scalar_basis_matrix(basis, points):
    pts = np.asarray(points, dtype=complex).reshape(-1, 2)
    e1, e2 = (_factor_basis_matrix(basis.space.factors[i], basis.n_modes, pts[:, i])
              for i in range(2))
    return (e1[:, None, :] * e2[None, :, :]).reshape(basis.n_scalar, pts.shape[0])


def _ref_rule(space, radial_order, angular_order):
    (n1, w1), (n2, w2) = (_polar_grid(*_radial_rule(spaces.KIND_DISC, a, radial_order),
                                      angular_order) for a in space.alphas)
    nodes = np.stack([np.repeat(n1, n2.size), np.tile(n2, n1.size)], axis=-1)
    return nodes, np.repeat(w1, w2.size) * np.tile(w2, w1.size)


def _ref_translation(basis, z):
    scalar = np.kron(_scalar_translation(basis.space.factors[0], basis.n_modes, complex(z[0])),
                     _scalar_translation(basis.space.factors[1], basis.n_modes, complex(z[1])))
    return np.kron(scalar, np.eye(basis.space.d))


def _ref_certificate(basis, z, tau):
    """(tails, certified modes): per-factor leakage, tails added, prefixes intersected."""
    tails, certified = [], []
    for i in range(2):
        scalar = _scalar_translation(basis.space.factors[i], basis.n_modes, complex(z[i]))
        t = np.clip(1.0 - np.sum(np.abs(scalar) ** 2, axis=0), 0.0, 1.0)
        m = 0
        while m < basis.n_modes and t[m] <= tau:
            m += 1
        tails.append(t)
        certified.append(m)
    return np.minimum(np.add.outer(*tails).ravel(), 1.0), min(certified)


def _ref_projector(basis, m):
    grid = np.zeros((basis.n_modes, basis.n_modes))
    grid[:m, :m] = 1.0
    return np.kron(np.diag(grid.ravel()), np.eye(basis.space.d))


def _ref_covering(space, r, rule):
    """(cells, cell_index, enlargement) of the product covering, keys i1 * (max(i2)+1) + i2,
    from the two factor rules' cells lifted to the product nodes (first factor slowest)."""
    (c1, i1, m1), (c2, i2, m2) = (_disc_cells(fr, r) for fr in rule.factors)
    n1, n2 = i1.size, i2.size
    i1, m1 = np.repeat(i1, n2), np.repeat(m1, n2, axis=1)
    i2, m2 = np.tile(i2, n1), np.tile(m2, (1, n1))
    uniq, index = np.unique(i1 * (max(i2) + 1) + i2, return_inverse=True)
    cells, member = [], np.zeros((len(uniq), rule.n_nodes), dtype=bool)
    for j, key in enumerate(uniq):
        a, b = divmod(int(key), max(i2) + 1)
        cells.append({"kind": "product", "factor1": c1[a], "factor2": c2[b]})
        member[j] = m1[a] & m2[b]
    return cells, index, member


def test_product_fold_matches_two_factor_formulas():
    space = spaces.bidisc_space(0.0, 0.5, d=2)
    basis = BasisSpec(space, 8)
    z = sample_points(space, 40, seed=7)
    for n_modes in (1, 4, 12):
        assert np.array_equal(spaces.relative_kernel_tail(space, z, n_modes),
                              _ref_relative_kernel_tail(space, z, n_modes))
    assert np.array_equal(basis_normalizer(basis), _ref_basis_normalizer(basis))
    assert np.array_equal(scalar_basis_matrix(basis, z), _ref_scalar_basis_matrix(basis, z))

    for orders in ((6, 12), (12, 16)):
        rule = build_rule(space, *orders)
        nodes, weights = _ref_rule(space, *orders)
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.sigma_weights, weights)

    for p in (np.array([0.2, 0.3j]), np.array([0.6 * np.exp(1j), -0.45])):
        assert np.array_equal(translation_matrix(basis, p).mat, _ref_translation(basis, p))
        for tau in (1e-12, 1e-6):
            cert = translation_certificate(basis, p, tau)
            tails, m = _ref_certificate(basis, p, tau)
            assert np.array_equal(cert.tails, tails)
            assert cert.certified_modes == m
            assert np.array_equal(certified_projector(basis, cert).mat, _ref_projector(basis, m))
    assert translation_certificate(basis, np.array([0.2, 0.3j]), 1e-6).certified_modes > 0

    rule = build_rule(space, 6, 12)
    for r in (0.5, 1.0, 2.0):
        cov = build_covering(space, r, rule)
        cells, index, member = _ref_covering(space, r, rule)
        assert cov.cells == cells
        assert np.array_equal(cov.cell_index, index)
        assert np.array_equal(enlargement(cov), member)
