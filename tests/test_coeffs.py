"""Orthonormal coefficient bases and truncated kernel vectors."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab import spaces
from berglab.coeffs import (BasisSpec, CoeffFunction, _factor_basis_matrix,
                            _factor_log_normalizers, eval_coeffs,
                            kernel_coeff_vector, random_coeff_function,
                            random_polynomial, rule_gram, rule_samples, scalar_basis_matrix)
from berglab.quadrature import build_rule
from conftest import (broadcast_last_rule_gram, dense_rule_gram, project_grid_function, sample_points,
                      stepwise_rule_gram)


@pytest.mark.parametrize("n", [1, 2, 24, 64, 128])
def test_basis_powers_match_complex_power(n):
    space = spaces.disc_space(0.0, d=1)
    pts = np.concatenate(([0.0], 0.99956 * np.exp(2j * np.pi * np.arange(64) / 64)))
    ref = np.exp(_factor_log_normalizers(space, n))[:, None] * pts[None, :] ** np.arange(n)[:, None]
    got = _factor_basis_matrix(space, n, pts)
    assert np.array_equal(got[:, 0], ref[:, 0])
    assert np.max(np.abs(got[:, 1:] - ref[:, 1:]) / np.abs(ref[:, 1:])) <= 1e-13


def test_scalar_basis_orthonormal(all_spaces):
    for sp in all_spaces:
        n = 6 if sp.kind == spaces.KIND_BIDISC else 16
        basis = BasisSpec(sp, n)
        G = dense_rule_gram(basis, build_rule(sp))
        assert np.abs(G - np.eye(basis.n_scalar)).max() < 1e-10


def test_factor_wise_rule_sums_match_the_product_node_oracle(all_spaces):
    # the Gram from factor Grams and node values applied one factor axis at a time agree
    # with the basis matrix on every node; on one factor the Gram is the same GEMM, bit for bit
    rng = np.random.default_rng(5)
    for sp in all_spaces:
        basis = BasisSpec(sp, 6 if sp.kind == spaces.KIND_BIDISC else 16)
        rule = build_rule(sp)
        G, ref = rule_gram(basis, rule, np.ones(rule.n_nodes)), dense_rule_gram(basis, rule)
        assert np.abs(G - ref).max() <= 1e-13 * np.abs(ref).max()
        if sp.nfactors == 1:
            assert np.array_equal(G, ref)
        C = rng.standard_normal((3, basis.n_scalar, 4)) + 1j * rng.standard_normal((3, basis.n_scalar, 4))
        E = scalar_basis_matrix(basis, rule.nodes)
        got, want = rule_samples(basis, rule, C), np.einsum("mu,pmc->puc", E, C)
        assert got.shape == (3, rule.n_nodes, 4)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.abs(rule_samples(basis, rule, C[1]) - want[1]).max() <= 1e-13 * np.abs(want).max()


def test_bidisc_rule_gram_of_a_weight_stack_matches_the_stepwise_oracle_in_bounded_memory(bidisc,
                                                                                          bidisc_rule):
    # the earlier factor is one GEMM against its pair products: no (e, N, N, N, n_1) product
    # (50 MB here), so the peak is the last factor's (e, n_1, N, n_2) step and its output
    basis, rule = BasisSpec(bidisc, 16), bidisc_rule
    rng = np.random.default_rng(9)
    W = rng.standard_normal((4, rule.n_nodes)) + 1j * rng.standard_normal((4, rule.n_nodes))
    tracemalloc.start()
    try:
        G = rule_gram(basis, rule, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref = stepwise_rule_gram(basis, rule, W)
    assert G.shape == ref.shape == (4, basis.n_scalar, basis.n_scalar)
    assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()
    n_1, n_2 = (fr.n_nodes for fr in rule.factors)
    assert peak <= 1.25 * len(W) * n_1 * basis.n_modes * n_2 * 16


@pytest.mark.parametrize("n_modes", [8, 16])
def test_product_rule_gram_contracts_every_factor_by_its_pair_products(bidisc, bidisc_rule, disc,
                                                                     disc_rule, n_modes):
    # no step on a product rule forms the (e, n_1, N, n_2) broadcast product of the last factor
    # (37.7 MB at N=16): the peak is the first GEMM's output, its contiguous copy, the second
    # GEMM's output and the pair products
    basis, rule = BasisSpec(bidisc, n_modes), bidisc_rule
    rng = np.random.default_rng(9)
    W = rng.standard_normal((4, rule.n_nodes)) + 1j * rng.standard_normal((4, rule.n_nodes))
    tracemalloc.start()
    try:
        G = rule_gram(basis, rule, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref = broadcast_last_rule_gram(basis, rule, W)
    assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()
    (n_1, n_2), N, e = (fr.n_nodes for fr in rule.factors), n_modes, len(W)
    assert peak <= 1.25 * 16 * (2 * e * n_1 * N ** 2 + e * N ** 4 + N ** 2 * n_2)
    assert peak <= 16 * e * n_1 * N * n_2 / 3
    # a one-factor rule keeps the broadcast form bit for bit
    W1 = rng.standard_normal((3, disc_rule.n_nodes))
    assert np.array_equal(rule_gram(BasisSpec(disc, n_modes), disc_rule, W1),
                          stepwise_rule_gram(BasisSpec(disc, n_modes), disc_rule, W1))


def test_basis_dimensions(disc, bidisc):
    b = BasisSpec(disc, 10)
    assert (b.n_scalar, b.dim) == (10, 20)
    b2 = BasisSpec(bidisc, 4)
    assert (b2.n_scalar, b2.dim) == (16, 32)


def test_flat_layout_round_trip(disc_basis):
    rng = np.random.default_rng(0)
    c = rng.standard_normal((disc_basis.n_scalar, 2)) + 1j * rng.standard_normal((disc_basis.n_scalar, 2))
    f = CoeffFunction(disc_basis, c)
    assert f.flat.shape == (disc_basis.dim,)
    # row-major: scalar mode index is the slow axis
    assert f.flat[3] == c[1, 1]
    g = CoeffFunction(disc_basis, f.flat.reshape(disc_basis.n_scalar, 2))
    assert np.array_equal(g.coeffs, c)


def test_parseval(disc_basis, disc_rule):
    f = random_coeff_function(disc_basis, np.random.default_rng(1))
    vals = eval_coeffs(f, disc_rule.nodes)
    quad_sq = np.sum(disc_rule.sigma_weights[:, None] * np.abs(vals) ** 2)
    assert quad_sq == pytest.approx(np.sum(np.abs(f.coeffs) ** 2), rel=1e-10)
    assert f.norm() == pytest.approx(np.sqrt(quad_sq), rel=1e-10)


def test_inner_matches_quadrature(disc_basis, disc_rule):
    rng = np.random.default_rng(2)
    f = random_coeff_function(disc_basis, rng)
    g = random_coeff_function(disc_basis, rng)
    fv, gv = eval_coeffs(f, disc_rule.nodes), eval_coeffs(g, disc_rule.nodes)
    quad = np.sum(disc_rule.sigma_weights[:, None] * fv * np.conj(gv))
    assert complex(np.vdot(g.coeffs, f.coeffs)) == pytest.approx(complex(quad), abs=1e-10)


def test_projection_recovers_band_limited(disc_basis, disc_rule):
    f = random_coeff_function(disc_basis, np.random.default_rng(3))
    back = project_grid_function(disc_basis, disc_rule, eval_coeffs(f, disc_rule.nodes))
    assert np.abs(back.coeffs - f.coeffs).max() < 1e-10


def test_projection_is_contractive(disc_basis, disc_rule):
    # projecting a non-band-limited grid function cannot increase the norm
    w = disc_rule.nodes
    vals = np.stack([np.conj(w), np.abs(w) ** 2], axis=-1)
    proj = project_grid_function(disc_basis, disc_rule, vals)
    grid_sq = float(np.sum(disc_rule.sigma_weights[:, None] * np.abs(vals) ** 2))
    assert proj.norm() ** 2 <= grid_sq + 1e-12


def test_kernel_coeff_vector_reproduces(all_spaces):
    for sp in all_spaces:
        n = 8 if sp.kind == spaces.KIND_BIDISC else 24
        basis = BasisSpec(sp, n)
        z = sample_points(sp, 1, seed=4, scale=0.45)[0]
        v = kernel_coeff_vector(basis, z)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        # pairing scalar coefficients against the raw vector is evaluation at z
        raw = np.conj(scalar_basis_matrix(basis, z)[:, 0])
        rng = np.random.default_rng(40)
        c = rng.standard_normal(basis.n_scalar) + 1j * rng.standard_normal(basis.n_scalar)
        fz = complex(c @ scalar_basis_matrix(basis, z)[:, 0])
        assert complex(np.sum(c * np.conj(raw))) == pytest.approx(fz, abs=1e-12)
        # normalized vectors at two points recover the normalized pairing
        w = sample_points(sp, 1, seed=5, scale=0.4)[0]
        vw = kernel_coeff_vector(basis, w)
        exact = float(spaces.normalized_pairing(sp, z, w))
        assert abs(np.vdot(vw, v)) == pytest.approx(exact, abs=5e-6)


def test_kernel_as_coeffs_evaluates_kernel(disc):
    # K_z e_1 has the coefficients conj(e_m(z)) in component 1
    basis = BasisSpec(disc, 40)
    z = 0.35 * np.exp(0.9j)
    coeffs = np.zeros((basis.n_scalar, 2), dtype=complex)
    coeffs[:, 1] = np.conj(scalar_basis_matrix(basis, z)[:, 0])
    k = CoeffFunction(basis, coeffs)
    w = np.array([0.2 + 0.3j, -0.4, 0.1j])
    vals = eval_coeffs(k, w)
    assert np.allclose(vals[:, 0], 0.0)
    assert np.allclose(vals[:, 1], spaces.kernel_eval(disc, z, w), atol=1e-10)


def test_kernel_vector_gate(disc):
    basis = BasisSpec(disc, 8)
    with pytest.raises(ValueError):
        kernel_coeff_vector(basis, 0.97)


def test_kernel_tail_certificate(disc):
    cert = float(spaces.relative_kernel_tail(disc, 0.5, 10))
    assert 0.0 < cert < 1e-3
    # relative truncation residual of ||K_z||^2 computed by direct series
    partial = sum((m + 1) * 0.25 ** m for m in range(10))
    full = 1.0 / (1 - 0.25) ** 2
    assert cert == pytest.approx((full - partial) / full, rel=1e-10)


def test_random_polynomial_degree_support(disc, bidisc):
    rng = np.random.default_rng(6)
    f = random_polynomial(BasisSpec(disc, 16), rng, 4)
    assert np.linalg.norm(f.flat) == pytest.approx(1.0)
    assert np.all(f.coeffs[5:, :] == 0)
    assert np.any(f.coeffs[:5, :] != 0)
    g = random_polynomial(BasisSpec(bidisc, 5), rng, 2)
    c = g.coeffs.reshape(5, 5, -1)
    assert np.all(c[3:, :, :] == 0) and np.all(c[:, 3:, :] == 0)
    assert np.any(c[:3, :3, :] != 0)


def test_eval_matches_manual_series(disc):
    basis = BasisSpec(disc, 6)
    c = np.zeros((6, 2), dtype=complex)
    c[0, 0] = 1.0
    c[2, 1] = 2.0 - 1.0j
    f = CoeffFunction(basis, c)
    z = np.array([0.3 + 0.2j, -0.5j])
    vals = eval_coeffs(f, z)
    # alpha = 0 basis: e_m(z) = sqrt(m + 1) z^m
    manual = np.stack([np.ones(2), (2.0 - 1.0j) * np.sqrt(3) * z ** 2], axis=-1)
    assert np.allclose(vals, manual, atol=1e-13)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10 ** 6))
def test_parseval_property(seed):
    sp = spaces.disc_space(0.0, d=2)
    basis = BasisSpec(sp, 10)
    rule = build_rule(sp)
    f = random_coeff_function(basis, np.random.default_rng(seed))
    vals = eval_coeffs(f, rule.nodes)
    quad_sq = float(np.sum(rule.sigma_weights[:, None] * np.abs(vals) ** 2))
    assert quad_sq == pytest.approx(float(np.sum(np.abs(f.coeffs) ** 2)), rel=1e-9)
