"""Toeplitz, Hankel, translation, and rank-one operator assembly."""

import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab import coeffs, operators, spaces
from berglab.analysis import axiom_checks
from berglab.coeffs import (BasisSpec, CoeffFunction, _factor_log_normalizers, eval_coeffs,
                            kernel_coeff_vector, rule_gram,
                            random_coeff_function, random_polynomial,
                            scalar_basis_matrix)
from berglab.operators import (POLY_POWER_CAP, MatrixSymbol, PointMassMeasure,
                               ball_indicator_symbol,
                               conjugate_operator,
                               constant_symbol,
                               identity_operator, poly_symbol,
                               pullback_symbol, rank_one,
                               rank_one_toeplitz_sum, toeplitz_matrix,
                               toeplitz_measure_matrix,
                               translation_certificate, translation_matrix)
from berglab.operators import _scalar_translation
from berglab.quadrature import QuadratureRule, ball_rule, build_rule
from conftest import (certified_projector, compile_poly, dense_poly_toeplitz, dense_rank_one_toeplitz_sum,
                      dense_rule_gram, fft_disc_translation, hankel_apply, kron_rule_gram,
                      loop_smooth_toeplitz, metric_ball_euclidean, sample_points, sup_norm)


# ---------------------------------------------------------------------------
# symbols

def test_poly_symbol_eval(disc):
    sym = poly_symbol(disc, {(0, 1): {(1, 0): 2.0, (0, 2): 1.0j}})
    pts = np.array([0.5, 0.2 + 0.1j])
    vals = sym.eval(pts)
    expect = 2.0 * pts + 1.0j * np.conj(pts) ** 2
    assert np.allclose(vals[:, 0, 1], expect)
    assert np.allclose(np.delete(vals.reshape(2, -1), 1, axis=1), 0.0)


@pytest.mark.parametrize("space_name, entries", [
    ("disc", {(0, 0): {(-1, 0): 1.0}}),
    ("disc", {(0, 0): {(1,): 1.0}}),
    ("disc", {(0, 0): {(1, 0, 0, 0): 1.0}}),
    ("disc", {(0, 0): {(1.0, 0): 1.0}}),
    ("disc", {(0, 0): {(True, 0): 1.0}}),
    ("disc", {(0, 0): {("1", 0): 1.0}}),
    ("bidisc", {(0, 0): {(1, 0): 1.0}}),
    ("bidisc", {(0, 0): {(1, 0, -2, 0): 1.0}}),
    ("disc", {(2, 0): {(0, 0): 1.0}}),
    ("disc", {(0, -1): {(0, 0): 1.0}}),
    ("disc", {(0,): {(0, 0): 1.0}}),
    ("disc", {(0, 0): {(1, 0): float("nan")}}),
    ("disc", {(0, 0): {(1, 0): None}}),
    ("disc", {(0, 0): {(1, 0): "abc"}}),
], ids=["negative", "short", "bidisc-powers-on-disc", "float", "bool", "str",
        "disc-powers-on-bidisc", "negative-bidisc", "i-outside-d", "k-negative", "short-key",
        "nan-coefficient", "none-coefficient", "str-coefficient"])
def test_poly_symbol_rejects_bad_keys(space_name, entries, disc, bidisc):
    with pytest.raises(ValueError):
        poly_symbol({"disc": disc, "bidisc": bidisc}[space_name], entries)


def test_bad_coefficient_error_names_the_entry(disc):
    for c in (float("inf"), complex(0.0, float("nan")), "1", True):
        with pytest.raises(ValueError, match=r"entry \(1, 0\)"):
            poly_symbol(disc, {(0, 0): {(1, 0): 1.0}, (1, 0): {(0, 2): 0.5, (1, 1): c}})
        with pytest.raises(ValueError, match=r"entry \(1, 0\)"):
            constant_symbol(disc, [[1.0, 0.0], [c, 2.0]])


def test_poly_symbol_table_holds_the_terms_in_dict_order(bidisc):
    entries = {(1, 0): {(np.int64(2), 0, 1, np.int32(3)): 0.5j, (0, 0, 0, 0): 2},
               (0, 1): {(1, 1, 0, 0): -1.5}, (0, 0): {},
               (np.uint8(1), 1): {(0, np.uint16(4), 2, 0): 1, (3, 0, 0, 0): 0.25}}
    table = poly_symbol(bidisc, entries).poly
    assert table.rows.tolist() == [[1, 0, 2, 0, 1, 3], [1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0],
                                   [1, 1, 0, 4, 2, 0], [1, 1, 3, 0, 0, 0]]
    assert table.coef.tolist() == [0.5j, 2, -1.5, 1, 0.25]
    assert table.rows.dtype.kind == "i" and table.coef.dtype == complex


def test_constant_symbol_matches_matrix(fock):
    M = np.array([[1.0, 2.0j], [0.0, -0.5]])
    sym = constant_symbol(fock, M)
    vals = sym.eval(np.array([0.0, 1.0 + 1.0j]))
    assert np.allclose(vals, M[None])


def test_ball_symbol_indicator(disc):
    sym = ball_indicator_symbol(disc, 0.2, 0.3, np.eye(2))
    vals = sym.eval(np.array([0.2, 0.2 + 0.29j, 0.2 + 0.31j, -0.5]))
    inside = np.linalg.norm(vals, axis=(1, 2))
    assert np.allclose(inside[:2], np.sqrt(2) * np.array([1.0, 1.0]))
    assert np.allclose(inside[2:], 0.0)


@pytest.mark.parametrize("radius", [-0.3, 0.0])
def test_ball_symbol_rejects_a_radius_that_is_not_positive(disc, radius):
    # -0.3 would assemble the radius-0.3 ball while eval saw no node inside it
    with pytest.raises(ValueError, match="radius"):
        ball_indicator_symbol(disc, 0.2, radius, np.eye(2))


def test_invariant_ball_symbol_converts_radius(disc):
    sym = ball_indicator_symbol(disc, 0.5, 0.4, np.eye(2), ball_metric="invariant")
    ball = sym.balls[0]
    assert (ball.center, ball.radius) == (0.5, 0.4)   # kept as the metric ball it is
    # membership must agree with the Euclidean disc of that invariant ball
    center, radius = metric_ball_euclidean(disc, 0.5, 0.4)
    pts = sample_points(disc, 300, seed=17)
    in_euclid = np.abs(pts - center) <= radius
    in_metric = sym.eval(pts)[:, 0, 0].real == 1.0
    assert np.array_equal(in_euclid, in_metric)


# ---------------------------------------------------------------------------
# Toeplitz assembly

def test_identity_symbol_gives_identity(disc_basis, disc_rule):
    T = toeplitz_matrix(disc_basis, disc_rule, constant_symbol(disc_basis.space, np.eye(2)))
    assert np.abs(T.mat - np.eye(disc_basis.dim)).max() < 1e-13


def test_constant_symbol_block_structure(disc_basis, disc_rule):
    M = np.array([[0.3, 1.0 - 0.5j], [0.0, 2.0]])
    T = toeplitz_matrix(disc_basis, disc_rule, constant_symbol(disc_basis.space, M))
    assert np.abs(T.mat - np.kron(np.eye(disc_basis.n_scalar), M)).max() < 1e-12


def test_shift_symbol_moment_entries(disc_basis, disc_rule, fock_basis, fock_rule):
    # alpha = 0: <w e_m, e_{m+1}> = sqrt((m+1)/(m+2)); first entry sqrt(1/2)
    sym = poly_symbol(disc_basis.space, {(0, 0): {(1, 0): 1.0}})
    T = toeplitz_matrix(disc_basis, disc_rule, sym).mat.reshape(16, 2, 16, 2)
    assert T[1, 0, 0, 0] == pytest.approx(np.sqrt(0.5), abs=1e-8)
    for m in range(10):
        assert T[m + 1, 0, m, 0] == pytest.approx(np.sqrt((m + 1.0) / (m + 2.0)), abs=1e-8)
    # gaussian plane: <w e_m, e_{m+1}> = sqrt(m+1)
    sym = poly_symbol(fock_basis.space, {(0, 0): {(1, 0): 1.0}})
    T = toeplitz_matrix(fock_basis, fock_rule, sym).mat.reshape(16, 2, 16, 2)
    for m in range(8):
        assert T[m + 1, 0, m, 0] == pytest.approx(np.sqrt(m + 1.0), rel=1e-10)


def test_adjoint_symbol_gives_adjoint_operator(disc_basis, disc_rule):
    entries = {(0, 0): {(1, 0): 1.0, (0, 1): 0.5j}, (0, 1): {(2, 0): 0.7}, (1, 1): {(0, 0): 2.0}}
    sym = poly_symbol(disc_basis.space, entries)
    adj_entries = {}
    for (i, k), terms in entries.items():
        adj_entries[(k, i)] = {(b, a): np.conj(c) for (a, b), c in terms.items()}
    T = toeplitz_matrix(disc_basis, disc_rule, sym)
    Tadj = toeplitz_matrix(disc_basis, disc_rule, poly_symbol(disc_basis.space, adj_entries))
    assert np.abs(Tadj.mat - T.adjoint().mat).max() < 1e-10


def test_toeplitz_contraction(disc_basis, disc_rule):
    rng = np.random.default_rng(8)
    for _ in range(20):
        M0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        M1 = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        sym = poly_symbol(disc_basis.space, {
            (i, k): {(0, 0): M0[i, k], (1, 0): M1[i, k], (0, 1): np.conj(M1[k, i])}
            for i in range(2) for k in range(2)})
        T = toeplitz_matrix(disc_basis, disc_rule, sym)
        assert T.norm() <= sup_norm(sym, disc_rule) + 1e-8


def test_ball_toeplitz_origin_entry(disc_basis, disc_rule):
    # for the centered ball, <T 1, 1> is the sigma-mass rho^2 (alpha = 0)
    T = toeplitz_matrix(disc_basis, disc_rule,
                        ball_indicator_symbol(disc_basis.space, 0.0, 0.4, np.eye(2)))
    T4 = T.mat.reshape(16, 2, 16, 2)
    assert T4[0, 0, 0, 0] == pytest.approx(0.16, abs=1e-12)
    assert T4[0, 1, 0, 1] == pytest.approx(0.16, abs=1e-12)
    assert abs(T4[0, 0, 0, 1]) < 1e-14


def test_ball_toeplitz_singular_value_decay(disc_basis, disc_rule):
    T = toeplitz_matrix(disc_basis, disc_rule,
                        ball_indicator_symbol(disc_basis.space, 0.1, 0.35, np.eye(2)))
    svs = T.singular_values()
    assert svs[0] < 1.0 + 1e-9
    assert svs[disc_basis.dim // 4] < 1e-3 * svs[0]


def _criterion_07_balls(count):
    """The first (centre, Euclidean radius) pairs of criterion 07's seed-21 draw."""
    rng = np.random.default_rng(21)
    balls = []
    for _ in range(count):
        balls.append((0.3 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
                      0.25 + 0.1 * rng.uniform()))
        rng.uniform(0.5, 1.0, 2)   # the draw's diagonal matrix
    return balls


_FOCK_BALLS = [(c, r) for c in (0.0, 1.0 - 0.5j, 2.0 + 1.0j, -2.1j, 3.0) for r in (0.3, 0.9, 2.5)]


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_ball_shares_match_the_regularized_incomplete_beta(alpha):
    # D_j = I_{s^2}(j + 1, alpha + 1): the share of mode j's mass inside D(0, s)
    space = spaces.disc_space(alpha, d=1)
    for s in (0.05, 0.5, 0.9, 0.99, 0.999):
        D = operators._ball_shares(space, np.arctanh(s))
        js = np.unique(np.concatenate((np.geomspace(1, D.size + 1, 40), np.linspace(
            1, min(D.size, 1000), 150))).astype(int)) - 1   # the bulk, and the tail up to K = D.size
        with mpmath.workdps(30):
            ref = [float(mpmath.betainc(j + 1, alpha + 1, 0, mpmath.mpf(s) ** 2, regularized=True))
                   for j in js]
        assert np.abs(D[js[:-1]] - ref[:-1]).max() <= 1e-14
        assert D[-1] >= 1e-17 > ref[-1]   # K is the first j with D_j < 1e-17


def test_ball_shares_match_the_regularized_lower_incomplete_gamma():
    space = spaces.fock_space(d=1)
    for rho in (0.1, 0.9, 2.5, 5.0):
        D = operators._ball_shares(space, rho)
        with mpmath.workdps(30):
            ref = [float(mpmath.gammainc(j + 1, 0, mpmath.mpf(rho) ** 2, regularized=True))
                   for j in range(D.size + 1)]
        assert np.abs(D - ref[:-1]).max() <= 1e-14
        assert D[-1] >= 1e-17 > ref[-1]


def _region_rule_oracle(basis, ball):
    """T[1_ball] for a Euclidean disc (center, radius), integrated on its own region rule at the
    orders toeplitz_matrix once used; exact only where sigma's density is constant (alpha = 0)."""
    N = basis.n_modes
    rule = ball_rule(basis.space, *ball, radial_order=max(40, N + 8), angular_order=max(64, 2 * N + 8))
    return rule_gram(basis, rule, np.ones(rule.n_nodes))


@pytest.mark.parametrize("n_modes", [8, 24, 96])
@pytest.mark.parametrize("space", [spaces.disc_space(0.0, d=2), spaces.disc_space(1.5, d=2),
                                   spaces.fock_space(d=2)], ids=["disc", "disc1.5", "fock"])
def test_ball_toeplitz_matches_the_region_rule_oracle(space, n_modes):
    basis = BasisSpec(space, n_modes)
    M = np.array([[0.9, 0.1], [0.0, 0.6]])
    balls = _FOCK_BALLS if space.kind == spaces.KIND_FOCK else _criterion_07_balls(4)
    for ball in balls[:: 1 if n_modes < 96 else 3]:
        T = toeplitz_matrix(basis, None, ball_indicator_symbol(space, *ball, M)).mat
        assert np.abs(T - np.kron(_region_rule_oracle(basis, ball), M)).max() <= 1e-13


def test_centred_ball_toeplitz_is_the_diagonal_of_its_shares():
    # the region rule is off by 5e-8 here, as (1 - |w|^2)^1.5 is no polynomial
    space, s = spaces.disc_space(1.5, d=1), 0.999
    T = toeplitz_matrix(BasisSpec(space, 24), None, ball_indicator_symbol(space, 0.0, s, [[1.0]])).mat
    with mpmath.workdps(30):
        D = [float(mpmath.betainc(j + 1, 2.5, 0, mpmath.mpf(s) ** 2, regularized=True)) for j in range(24)]
    assert np.abs(T - np.diag(D)).max() <= 1e-14


def test_ball_past_the_mode_cap_raises():
    for space, radius in ((spaces.disc_space(0.0, d=1), 6.0), (spaces.fock_space(d=1), 200.0)):
        with pytest.raises(ValueError, match=f"ball of radius {radius}"):
            toeplitz_matrix(BasisSpec(space, 8), None,
                            ball_indicator_symbol(space, 0.0, radius, [[1.0]], ball_metric="invariant"))


def test_fock_ball_and_translation_stay_finite_past_factorial_underflow():
    # 1/sqrt(b!) underflows and 3^b overflows for b in the hundreds; their product does not
    space, N = spaces.fock_space(d=1), 700
    U = _scalar_translation(space, N, 3.0)
    assert np.isfinite(U).all()
    assert np.abs(np.linalg.norm(U[:, :400], axis=0) - 1.0).max() <= 1e-12
    T = toeplitz_matrix(BasisSpec(space, N), None, ball_indicator_symbol(space, 3.0, 2.5, [[1.0]])).mat
    assert np.isfinite(T).all()
    assert np.abs(T[:96, :96] - _region_rule_oracle(BasisSpec(space, 96), (3.0, 2.5))).max() <= 1e-13


@pytest.mark.parametrize("center, radius", [(0.9, 0.5), (0.6, 0.4), (-0.3j, 0.7)])
def test_euclidean_disc_ball_must_lie_inside_the_disc(disc, center, radius):
    with pytest.raises(ValueError, match="sticks out of the disc"):
        ball_indicator_symbol(disc, center, radius, np.eye(2))


def test_euclidean_ball_converts_without_cancellation():
    # a centre of 1e-8: the quadratic-formula root loses 1e-10 there
    disc = spaces.disc_space(0.0, d=1)
    ball = ball_indicator_symbol(disc, 1e-8, 0.3, [[1.0]]).balls[0]
    with mpmath.workdps(40):
        c, r = mpmath.mpf(1e-8), mpmath.mpf(0.3)
        p1, p2 = c - r, c + r
        g = 1 + p1 * p2
        a = (g - mpmath.sqrt(g * g - (p1 + p2) ** 2)) / (p1 + p2)
        rho = mpmath.atanh((a - p1) / (1 - a * p1))
        assert abs(ball.center - float(a)) <= 1e-17
        assert ball.radius == pytest.approx(float(rho), rel=1e-15)


def test_measure_toeplitz_recovers_rule(disc_basis, disc_rule):
    # feeding the sigma-rule itself as a matrix point-mass measure gives the
    # identity-symbol operator
    M = np.array([[1.0, 0.25], [0.25, 0.5]])
    mats = disc_rule.sigma_weights[:, None, None] * M[None]
    T = toeplitz_measure_matrix(disc_basis, PointMassMeasure(disc_rule.nodes, mats))
    assert np.abs(T.mat - np.kron(np.eye(disc_basis.n_scalar), M)).max() < 1e-10


def test_bidisc_constant_and_shift(bidisc_basis, bidisc_rule):
    M = np.array([[1.0, 0.0], [0.0, 0.25]])
    T = toeplitz_matrix(bidisc_basis, bidisc_rule, constant_symbol(bidisc_basis.space, M))
    assert np.abs(T.mat - np.kron(np.eye(bidisc_basis.n_scalar), M)).max() < 1e-11
    # first-factor shift moves (m1, m2) to (m1 + 1, m2)
    sym = poly_symbol(bidisc_basis.space, {(0, 0): {(1, 0, 0, 0): 1.0}})
    n = bidisc_basis.n_modes
    T4 = toeplitz_matrix(bidisc_basis, bidisc_rule, sym).mat.reshape(
        n, n, 2, n, n, 2)
    a1 = bidisc_basis.space.alphas[0]
    expect = np.sqrt((0 + 1.0) / (0 + 2.0 + a1))
    assert T4[1, 0, 0, 0, 0, 0] == pytest.approx(expect, rel=1e-8)
    assert abs(T4[0, 1, 0, 0, 0, 0]) < 1e-10


# Reference for the exact polynomial path and the smooth path: every symbol
# sampled on the rule and contracted in one 4-index einsum.

def _einsum_toeplitz(basis, rule, symbol):
    vals = symbol.eval(rule.nodes)
    E = scalar_basis_matrix(basis, rule.nodes)
    Ew = E.conj() * rule.sigma_weights[None, :]
    return np.einsum("an,nik,bn->aibk", Ew, vals, E,
                     optimize=True).reshape(basis.dim, basis.dim)


def _random_poly_entries(space, rng, n_terms=3, max_power=3):
    n_powers = 2 * space.nfactors
    return {(i, k): {tuple(int(p) for p in rng.integers(0, max_power + 1, n_powers)):
                     complex(*rng.standard_normal(2)) for _ in range(n_terms)}
            for i in range(space.d) for k in range(space.d)}


_POLY_SPACES = {
    "disc": (spaces.disc_space(0.0, d=2), (8, 16, 32)),
    "disc1.5": (spaces.disc_space(1.5, d=2), (8, 16, 32)),
    "fock": (spaces.fock_space(d=2), (8, 16, 32)),
    "bidisc": (spaces.bidisc_space(0.0, 0.5, d=2), (4, 6)),
}


@pytest.mark.parametrize("label, n_modes", [
    (label, n) for label, (_, sizes) in _POLY_SPACES.items() for n in sizes])
def test_poly_toeplitz_matches_einsum_oracle(label, n_modes):
    space = _POLY_SPACES[label][0]
    basis = BasisSpec(space, n_modes)
    rule = build_rule(space)
    rng = np.random.default_rng(n_modes)
    for _ in range(2):
        sym = poly_symbol(space, _random_poly_entries(space, rng))
        ref = _einsum_toeplitz(basis, rule, sym)
        T = toeplitz_matrix(basis, rule, sym).mat
        assert np.abs(T - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("label", list(_POLY_SPACES))
def test_poly_toeplitz_does_not_depend_on_the_rule(label):
    space, sizes = _POLY_SPACES[label]
    basis = BasisSpec(space, sizes[0])
    sym = poly_symbol(space, _random_poly_entries(space, np.random.default_rng(5)))
    coarse = toeplitz_matrix(basis, build_rule(space, 4, 8), sym).mat
    fine = toeplitz_matrix(basis, build_rule(space), sym).mat
    assert np.array_equal(coarse, fine)


def test_poly_power_above_the_cap_is_refused_before_any_allocation():
    disc = spaces.disc_space(0.0, d=1)
    poly_symbol(disc, {(0, 0): {(POLY_POWER_CAP, POLY_POWER_CAP): 1.0}})   # at the cap: accepted
    tracemalloc.start()
    try:
        for power in (POLY_POWER_CAP + 1, 10 ** 9):
            with pytest.raises(ValueError, match=f"up to {POLY_POWER_CAP}"):
                poly_symbol(disc, {(0, 0): {(power, power): 1.0}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_symbol_parts_add_up(disc_basis, disc_rule):
    # poly, smooth and ball parts of one symbol assemble to the sum of their operators
    space = disc_basis.space
    poly = constant_symbol(space, np.eye(2)).poly

    def identity(pts):   # the constant I_2 once more, as a smooth part
        return np.ones((np.size(pts), 1, 1)) * np.eye(2)

    ball = ball_indicator_symbol(space, 0.2, 0.3, [[1.0, 0.5], [0.0, 2.0]]).balls
    parts = [MatrixSymbol(space, poly=poly), MatrixSymbol(space, smooth=identity),
             MatrixSymbol(space, balls=ball)]
    T = toeplitz_matrix(disc_basis, disc_rule, MatrixSymbol(space, smooth=identity, balls=ball, poly=poly))
    assert np.array_equal(T.mat, sum(toeplitz_matrix(disc_basis, disc_rule, p).mat for p in parts))
    both = MatrixSymbol(space, smooth=identity, poly=poly)
    assert np.array_equal(both.eval([0.3])[0], 2.0 * np.eye(2))
    assert np.allclose(toeplitz_matrix(disc_basis, disc_rule, both).mat, 2.0 * np.eye(disc_basis.dim),
                       atol=1e-12)
    with pytest.raises(ValueError, match="smooth symbol needs a rule"):
        toeplitz_matrix(disc_basis, None, both)


def test_poly_term_outside_the_window_builds_no_table():
    # z^a with a = 10^6 + 7 writes no entry at n = 8; its normalizer table alone would take
    # 8 MB and the (terms, N) index arrays more (a power no earlier call cached)
    disc = spaces.disc_space(0.0, d=1)
    sym = poly_symbol(disc, {(0, 0): {(10 ** 6 + 7, 0): 1.0, (1, 0): 1.0}})
    tracemalloc.start()
    try:
        T = toeplitz_matrix(BasisSpec(disc, 8), None, sym).mat
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert np.array_equal(T, toeplitz_matrix(BasisSpec(disc, 8), None, poly_symbol(
        disc, {(0, 0): {(1, 0): 1.0}})).mat)


@pytest.mark.parametrize("label", list(_POLY_SPACES))
def test_poly_toeplitz_matches_the_dense_kron_oracle_bit_for_bit(label):
    # one power tuple shared by three (i, k) entries, and terms whose diagonal
    # m = n + a - b leaves the window on some factor (|a - b| >= n_modes)
    space, sizes = _POLY_SPACES[label]
    N, nf = sizes[0], space.nfactors
    entries = _random_poly_entries(space, np.random.default_rng(7))
    shared = (1, 2) * nf
    for key, c in (((0, 0), 0.5), ((0, 1), -1.25j), ((1, 1), 2.0)):
        entries[key][shared] = c
    outside = {(N, 0) * nf: 1.0, (0, N + 1) + (1, 0) * (nf - 1): 0.5j}
    entries[(1, 0)].update(outside)
    entries[(0, 1)][(1, 1) * (nf - 1) + (N + 2, 2)] = -0.75
    # four terms on the main diagonal: their sum's rounding depends on the term order
    entries[(1, 1)].update({(j, j) * nf: c for j, c in ((0, 0.1), (1, 0.7j + 1e-3), (2, -0.3), (3, 1 / 3))})
    real = {key: {p: c.real for p, c in terms.items()} for key, terms in entries.items()}
    # with no term at all, or no term inside the window, the matrix is zero
    zero = [constant_symbol(space, np.zeros((2, 2))), poly_symbol(space, {(0, 1): {}}),
            poly_symbol(space, {(1, 0): outside, (1, 1): {(0, N) * nf: -2.0}})]
    basis = BasisSpec(space, N)
    for j, sym in enumerate([poly_symbol(space, entries), poly_symbol(space, real)] + zero):
        T, ref = toeplitz_matrix(basis, None, sym).mat, dense_poly_toeplitz(basis, sym)
        assert np.array_equal(T, ref)
        assert np.array_equal(np.signbit(T.view(float)), np.signbit(ref.view(float)))
        assert T.any() == (j < 2)


@pytest.mark.parametrize("label, z", [
    ("disc", 0.4 * np.exp(0.7j)), ("disc1.5", -0.3j), ("fock", 1.2 - 0.5j),
    ("bidisc", np.array([0.3, 0.2j]))])
def test_pullback_toeplitz_matches_einsum_oracle(label, z):
    space, sizes = _POLY_SPACES[label]
    basis = BasisSpec(space, sizes[0])
    rule = build_rule(space)
    sym = pullback_symbol(poly_symbol(space, _random_poly_entries(
        space, np.random.default_rng(6), max_power=2)), z)
    assert sym.poly is None
    ref = _einsum_toeplitz(basis, rule, sym)
    T = toeplitz_matrix(basis, rule, sym).mat
    assert np.abs(T - ref).max() <= 1e-13 * np.abs(ref).max()


def _sparse_pullback(space, seed, z):
    """A pullback whose entries (0, 1) and, for d > 2, (2, 0) and (1, 2) are identically zero."""
    entries = _random_poly_entries(space, np.random.default_rng(seed), max_power=2)
    for key in ((0, 1), (2, 0), (1, 2)):
        entries.pop(key, None)
    return pullback_symbol(poly_symbol(space, entries), z)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("space, z", [(spaces.disc_space(0.0), 0.4 * np.exp(0.7j)),
                                      (spaces.disc_space(1.5), -0.3j), (spaces.fock_space(), 1.2 - 0.5j)],
                         ids=["disc", "disc1.5", "fock"])
def test_one_factor_smooth_part_and_gram_match_the_loop_oracles_bit_for_bit(space, z, d):
    space = replace(space, d=d)
    basis, rule = BasisSpec(space, 12), build_rule(space)
    sym = _sparse_pullback(space, 3 + d, z)
    T = toeplitz_matrix(basis, rule, sym).mat
    assert np.array_equal(T, loop_smooth_toeplitz(basis, rule, sym.smooth))
    if d > 1:   # the zero entries stay zero
        assert not T.reshape(12, d, 12, d)[:, 0, :, 1].any()
    assert np.array_equal(rule_gram(basis, rule, np.ones(rule.n_nodes)), kron_rule_gram(basis, rule))


@pytest.mark.parametrize("n_modes", [4, 6, 8])
def test_bidisc_smooth_part_and_gram_match_the_product_node_oracles(n_modes):
    space = spaces.bidisc_space(0.0, 0.5, d=2)
    basis, rule = BasisSpec(space, n_modes), build_rule(space, 8, 12)   # 96 nodes per factor
    sym = _sparse_pullback(space, n_modes, np.array([0.3, -0.2j]))
    T, ref = toeplitz_matrix(basis, rule, sym).mat, _einsum_toeplitz(basis, rule, sym)
    assert np.abs(T - ref).max() <= 1e-13 * np.abs(ref).max()
    assert not T.reshape(basis.n_scalar, 2, basis.n_scalar, 2)[:, 0, :, 1].any()
    G, W = rule_gram(basis, rule, np.ones(rule.n_nodes)), dense_rule_gram(basis, rule)
    assert np.abs(G - W).max() <= 1e-13 * np.abs(W).max()
    assert np.abs(G - kron_rule_gram(basis, rule)).max() <= 1e-13


def test_assembly_and_axiom_checks_form_no_basis_matrix_on_the_rule(monkeypatch):
    # the basis meets a rule only through rule_gram's factor samples
    def refuse(*args):
        raise AssertionError("a basis matrix on the rule")
    monkeypatch.setattr(coeffs, "scalar_basis_matrix", refuse)
    monkeypatch.setattr(operators, "scalar_basis_matrix", refuse)
    for space, z in ((spaces.disc_space(0.5, d=2), 0.3j), (spaces.fock_space(d=2), 0.8),
                     (spaces.bidisc_space(0.0, 0.5, d=2), np.array([0.3, 0.2j]))):
        basis, rule = BasisSpec(space, 4 if space.nfactors > 1 else 10), build_rule(space)
        poly = poly_symbol(space, _random_poly_entries(space, np.random.default_rng(1)))
        symbols = [poly, pullback_symbol(poly, z)]
        if space.nfactors == 1:
            symbols.append(ball_indicator_symbol(space, 0.2, 0.3, np.eye(2)))
        for sym in symbols:
            assert np.all(np.isfinite(toeplitz_matrix(basis, rule, sym).mat))
        assert all(c["pass"] for c in axiom_checks(basis, rule, [z], seed=0))


def test_smooth_assembly_forms_no_product_node_basis_matrix():
    # at bidisc n = 8 that matrix alone (n_nodes x n_scalar complex) takes 37.7 MB
    space = spaces.bidisc_space(0.0, 0.5, d=2)
    basis, rule = BasisSpec(space, 8), build_rule(space)
    sym = pullback_symbol(poly_symbol(space, _random_poly_entries(space, np.random.default_rng(2))),
                          np.array([0.3, 0.2j]))
    toeplitz_matrix(basis, rule, sym)   # warm: normalizer tables
    tracemalloc.start()
    try:
        toeplitz_matrix(basis, rule, sym)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rule.n_nodes * basis.n_scalar * 16


def test_normalizer_tables_keep_one_per_measure(monkeypatch):
    # (a, a) terms near the power cap on discs of d = 1, 2, 3 ask for ever longer alpha = 0
    # tables; each replaces the last, and shorter requests read its prefix
    monkeypatch.setattr(coeffs, "_log_normalizers", {})
    table = 8 * (8 + POLY_POWER_CAP)   # bytes of the longest
    tracemalloc.start()
    try:
        for d, a in ((1, POLY_POWER_CAP - 2), (2, POLY_POWER_CAP - 1), (3, POLY_POWER_CAP)):
            space = spaces.disc_space(0.0, d=d)
            toeplitz_matrix(BasisSpec(space, 8), None, poly_symbol(space, {(0, 0): {(a, a): 1.0}}))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table <= retained < 1.25 * table
    assert len(coeffs._log_normalizers) == 1
    short = _factor_log_normalizers(spaces.disc_space(0.0, d=2), 100)
    monkeypatch.setattr(coeffs, "_log_normalizers", {})
    assert np.array_equal(short, _factor_log_normalizers(spaces.disc_space(0.0), 100))
    assert not short.flags.writeable


@pytest.mark.parametrize("label", list(_POLY_SPACES))
def test_poly_eval_matches_the_compiled_oracle_bit_for_bit(label):
    # several terms in each entry, four of them on the main diagonal of one entry, conjugate
    # powers, and int, real and complex coefficients; then the same symbol pulled back
    space = _POLY_SPACES[label][0]
    nf = space.nfactors
    entries = _random_poly_entries(space, np.random.default_rng(11), n_terms=4)
    entries[(0, 0)].update({(j, j) * nf: c for j, c in ((0, 3), (1, -0.5), (2, 0.25 - 2j), (4, 7))})
    entries[(1, 0)] = {(0, 3) * nf: -2, (1, 0) + (0, 2) * (nf - 1): 1e-3, (2, 1) * nf: 1.5}
    sym = poly_symbol(space, entries)
    oracle = compile_poly(space, entries)
    pts = sample_points(space, 40, seed=3)
    z = sample_points(space, 1, seed=4)[0]
    for got, ref in ((sym.eval(pts), oracle(pts)),
                     (pullback_symbol(sym, z).eval(pts), oracle(spaces.involution(space, z, pts)))):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(ref.view(float)))


def test_smooth_toeplitz_rejects_a_rule_for_another_measure(disc, disc_weighted, fock, bidisc):
    # sampled on the disc rule, a Fock pullback Toeplitz matrix is off by O(1)
    for space, other in ((fock, disc), (disc, disc_weighted), (disc, bidisc), (bidisc, fock)):
        basis = BasisSpec(space, 8 if space.nfactors == 1 else 4)
        z = spaces.point(space, [0.3] * space.nfactors)
        sym = pullback_symbol(constant_symbol(space, np.eye(2)), z)
        T = toeplitz_matrix(basis, build_rule(space, 6, 12), sym)
        assert np.abs(T.mat - np.eye(basis.dim)).max() < 1e-12
        with pytest.raises(ValueError):
            toeplitz_matrix(basis, build_rule(other, 6, 12), sym)
    # a product rule without its one-factor rules cannot be read factor by factor
    rule = build_rule(bidisc, 6, 12)
    bare = QuadratureRule(bidisc, rule.nodes, rule.sigma_weights, 6, 12)
    with pytest.raises(ValueError, match="one-factor rules"):
        toeplitz_matrix(BasisSpec(bidisc, 4), bare, pullback_symbol(constant_symbol(bidisc, np.eye(2)),
                                                                    np.array([0.3, 0.3])))
    # polynomial symbols use no rule, so any rule passes, even one of another d
    disc3 = spaces.disc_space(0.0, d=3)
    T = toeplitz_matrix(BasisSpec(disc3, 6), build_rule(fock, 6, 12),
                        constant_symbol(disc3, np.eye(3)))
    assert np.array_equal(T.mat, np.eye(18))


# ---------------------------------------------------------------------------
# operator container algebra

def test_operator_algebra(disc_basis):
    rng = np.random.default_rng(9)
    A = rng.standard_normal((disc_basis.dim, disc_basis.dim)) \
        + 1j * rng.standard_normal((disc_basis.dim, disc_basis.dim))
    from berglab.operators import OperatorMatrix
    OA = OperatorMatrix(disc_basis, A)
    assert np.allclose((OA @ OA).mat, A @ A)
    assert np.allclose((OA + OA).mat, 2 * A)
    assert np.allclose((OA - 0.5 * OA).mat, 0.5 * A)
    assert np.allclose(OA.adjoint().mat, A.conj().T)
    assert OA.norm() == pytest.approx(np.linalg.norm(A, 2))
    f = random_coeff_function(disc_basis, rng)
    assert np.allclose(OA.mat @ f.flat, A @ f.flat)


@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(np.inf, 0), complex(-np.inf, 0),
                                 complex(0, np.nan), complex(0, np.inf), complex(0, -np.inf)])
def test_operator_matrix_refuses_non_finite_entries(disc_basis, bad):
    # one gate at construction, before any SVD, eigensolver or Berezin transform sees it
    from berglab.operators import OperatorMatrix
    mat = np.eye(disc_basis.dim, dtype=complex)
    mat[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        OperatorMatrix(disc_basis, mat)
    with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
        bad * identity_operator(disc_basis)


# ---------------------------------------------------------------------------
# translations

def test_translation_at_origin_is_parity(disc_basis, fock_basis):
    # exactly: phi_0(w) = -w, so the recurrence and the Laguerre matrix round nothing
    for basis in (disc_basis, BasisSpec(spaces.disc_space(1.5, d=1), 24), fock_basis):
        U = translation_matrix(basis, 0.0)
        signs = np.repeat((-1.0) ** np.arange(basis.n_modes), basis.space.d)
        assert np.array_equal(U.mat, np.diag(signs))


@pytest.mark.parametrize("space", [spaces.disc_space(a, d=1) for a in (-0.5, 0.0, 1.5, 3.0)]
                         + [spaces.fock_space(d=1)], ids=["disc-0.5", "disc0", "disc1.5", "disc3", "fock"])
def test_scalar_translation_at_origin_is_parity(space):
    # every block shape and a point stack: N x K windows of diag((-1)^m), bit for bit
    for n_modes, n_cols in ((1, 1), (24, 24), (24, 14), (14, 40)):
        parity = np.eye(n_modes, n_cols) * (-1.0) ** np.arange(n_modes)[:, None]
        assert np.array_equal(_scalar_translation(space, n_modes, 0.0, n_cols), parity)
        assert np.array_equal(_scalar_translation(space, n_modes, np.zeros(3), n_cols), [parity] * 3)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5, 3.0])
def test_disc_translation_matches_fft_oracle(alpha):
    space = spaces.disc_space(alpha, d=1, r_max=0.995)
    for n_modes in (1, 2, 24, 64, 96):
        basis = BasisSpec(space, n_modes)
        for r in (0.0, 0.5, 0.9, 0.99):
            z = r * np.exp(0.7j)
            U = translation_matrix(basis, z).mat
            assert np.abs(U - fft_disc_translation(space, n_modes, z)).max() <= 1e-12


def _ring(radii, n_angles=5):
    return np.concatenate([r * np.exp(2j * np.pi * (np.arange(n_angles) + 0.3) / n_angles)
                           for r in radii])


@pytest.mark.parametrize("space, radii", [
    *[(spaces.disc_space(a, d=1, r_max=0.995), (0.0, 0.3, 0.6, 0.9, 0.99))
      for a in (-0.5, 0.0, 1.5, 3.0)],
    (spaces.fock_space(d=1), (0.0, 0.5, 1.5, 2.5, 3.0)),
], ids=["disc-0.5", "disc0", "disc1.5", "disc3", "fock"])
def test_batched_scalar_translation_matches_per_point(space, radii):
    z = _ring(radii)
    for n_modes in (1, 2, 24, 96):
        stack = _scalar_translation(space, n_modes, z)
        assert stack.shape == (z.size, n_modes, n_modes)
        for U, p in zip(stack, z):
            assert np.abs(U - _scalar_translation(space, n_modes, p)).max() <= 1e-13


def test_batched_bidisc_translation_matches_per_point():
    basis = BasisSpec(spaces.bidisc_space(0.0, 0.5, d=2), 8)
    z = sample_points(basis.space, 7, seed=3, scale=1.0)
    stacks = [_scalar_translation(f, 8, c)
              for f, c in zip(basis.space.factors, spaces.coords(basis.space, z))]
    for p, U1, U2 in zip(z, *stacks):
        U = np.kron(np.kron(U1, U2), np.eye(2))
        assert np.abs(U - translation_matrix(basis, p).mat).max() <= 1e-13


def _mpmath_disc_translation(alpha, n_modes, z):
    """<U_z e_k, e_m> at 40 digits: the Taylor coefficients of c_k phi_z^k k_z over c_m,
    multiplying by phi_z one coefficient at a time (running sum of conj(z)^j tails)."""
    with mpmath.workdps(40):
        a, zz = mpmath.mpf(alpha), mpmath.mpc(z.real, z.imag)
        zc, t = mpmath.conj(zz), abs(zz) ** 2
        c = [mpmath.sqrt(mpmath.gamma(m + 2 + a) / (mpmath.gamma(2 + a) * mpmath.factorial(m)))
             for m in range(n_modes)]
        x = [c[m] ** 2 * zc ** m * (1 - t) ** ((2 + a) / 2) for m in range(n_modes)]
        U = np.zeros((n_modes, n_modes), dtype=complex)
        for k in range(n_modes):
            U[:, k] = [complex(c[k] * x[m] / c[m]) for m in range(n_modes)]
            s, y = mpmath.mpc(0), []
            for m in range(n_modes):
                y.append(zz * x[m] - (1 - t) * s)
                s = zc * s + x[m]
            x = y
    return U


@pytest.mark.parametrize("alpha, n_modes, r", [(3.0, 128, 0.9), (1.5, 256, 0.99)])
def test_disc_translation_matches_mpmath_at_high_order(alpha, n_modes, r):
    z = r * np.exp(0.7j)
    U = translation_matrix(BasisSpec(spaces.disc_space(alpha, d=1, r_max=0.995), n_modes), z).mat
    assert np.abs(U - _mpmath_disc_translation(alpha, n_modes, z)).max() <= 1e-14


# Reference for the exact translation paths: the compression <U_z e_k, e_m>
# integrated on a tensor rule sized from the modal spread of phi_z, so that
# the angular grid resolves every coefficient the truncation can see.

def _modal_spread(space, r, n_modes):
    """Upper estimate of the Taylor support of U_z applied to the top mode."""
    if space.kind == spaces.KIND_DISC:
        growth = (1.0 + r) / max(1.0 - r, 1e-3)
        return int(np.ceil((n_modes + 3) * growth)) + 16
    # fock: displaced mode m spreads by O(|z| sqrt(m)) around m + |z|^2
    return int(np.ceil(n_modes + r * r + 10.0 * r * np.sqrt(n_modes) + 16))


def _translation_rule(space, r, n_modes):
    spread = _modal_spread(space, r, n_modes)
    na = int(min(2048, 2 ** np.ceil(np.log2(2 * (spread + n_modes) + 8))))
    nr = int(max(40, (spread + n_modes) // 4 + 8))
    return build_rule(space, nr, na)


def _quadrature_translation(space, n_modes, z):
    basis1 = BasisSpec(space, n_modes)
    rule = _translation_rule(space, abs(z), n_modes)
    phi = spaces.involution(space, z, rule.nodes)
    kz = spaces.normalized_kernel_eval(space, z, rule.nodes)
    E_out = scalar_basis_matrix(basis1, rule.nodes)
    E_in = scalar_basis_matrix(basis1, phi)
    return (E_out.conj() * rule.sigma_weights[None, :]) @ (E_in * kz[None, :]).T


def _oracle_cases():
    """Disc (alpha 0, 1.5) and Fock points at three angles, one bidisc pair."""
    cases = []
    for label, space, radii in (
            ("disc", spaces.disc_space(0.0, d=1), (0.0, 0.3, 0.6, 0.9)),
            ("disc1.5", spaces.disc_space(1.5, d=1), (0.0, 0.3, 0.6, 0.9)),
            ("fock", spaces.fock_space(d=1), (0.0, 1.0, 2.0, 3.0))):
        for r in radii:
            for th in ((0.0,) if r == 0 else (0.0, 2.1, -0.7)):
                cases.append(pytest.param(space, r * np.exp(1j * th), 24,
                                          id=f"{label}-r{r}-th{th}"))
    cases.append(pytest.param(spaces.bidisc_space(0.0, 0.5, d=1), np.array([0.6, 0.9j]), 12,
                              id="bidisc-0.6-0.9j"))
    return cases


@pytest.mark.parametrize("space, z, n_modes", _oracle_cases())
def test_translation_matches_quadrature_oracle(space, z, n_modes):
    U = translation_matrix(BasisSpec(space, n_modes), z).mat
    if space.kind == spaces.KIND_BIDISC:
        ref = np.kron(_quadrature_translation(space.factors[0], n_modes, z[0]),
                      _quadrature_translation(space.factors[1], n_modes, z[1]))
    else:
        ref = _quadrature_translation(space, n_modes, z)
    assert np.abs(U - ref).max() <= 1e-12


def test_translation_certificate_frozen_profile():
    disc = spaces.disc_space(0.0, d=2)
    b40 = BasisSpec(disc, 40)
    got = [translation_certificate(b40, z).certified_modes for z in (0.15, 0.3, 0.45, 0.6)]
    assert got == [20, 12, 6, 2]
    fock = spaces.fock_space(d=2)
    f40 = BasisSpec(fock, 40)
    got = [translation_certificate(f40, z).certified_modes for z in (0.5, 1.0, 1.5, 2.0)]
    assert got == [25, 18, 12, 8]


def test_translation_identities_on_certified_block():
    disc = spaces.disc_space(0.0, d=2)
    b40 = BasisSpec(disc, 40)
    I = np.eye(b40.dim)
    for z in (0.15 * np.exp(0.3j), 0.45, 0.6 * np.exp(-1.0j)):
        cert = translation_certificate(b40, z)
        assert cert.certified_modes >= 2
        P = certified_projector(b40, cert).mat
        U = translation_matrix(b40, z).mat
        assert np.linalg.norm(P @ (U.conj().T @ U - I) @ P, 2) < 1e-9
        assert np.linalg.norm(P @ (U @ U - I) @ P, 2) < 1e-9


def test_translation_moves_kernel_direction():
    # ||U_z^* (ktilde_w x e)|| = ||ktilde_{phi_z(w)} x e|| holds exactly at
    # truncation because columns of U_z are coefficient expansions
    disc = spaces.disc_space(0.0, d=2)
    basis = BasisSpec(disc, 32)
    e0 = np.array([1.0, 0.0])
    for z, w in ((0.2 * np.exp(0.4j), 0.15), (0.3, 0.25 * np.exp(-1.1j))):
        U = translation_matrix(basis, z).mat
        lhs = np.linalg.norm(U.conj().T @ np.kron(kernel_coeff_vector(basis, w), e0))
        rhs = np.linalg.norm(np.kron(
            kernel_coeff_vector(basis, spaces.involution(disc, z, w)), e0))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_translation_gate_rejects_far_centers(disc_basis):
    # 0.95 lies outside the disc's admissible region (r_max 0.9), and 1.2 outside the disc
    # itself, where an ungated certificate reads every mode as certified
    for z in (0.95, 1.2):
        for call in (lambda: translation_matrix(disc_basis, z),
                     lambda: translation_certificate(disc_basis, z),
                     lambda: conjugate_operator(identity_operator(disc_basis), z)):
            with pytest.raises(ValueError, match="outside admissible region"):
                call()
    with pytest.raises(ValueError, match="radius 1.2000"):
        translation_certificate(BasisSpec(spaces.disc_space(0.0, d=1), 8), 1.2)


def test_bidisc_translation_certified_block():
    # joint-mode tails combine both factors, so small windows certify little;
    # at N=12 a tau = 1e-6 budget certifies the first three joint modes
    basis = BasisSpec(spaces.bidisc_space(0.0, 0.5, d=2), 12)
    z = np.array([0.2, 0.3j])
    cert = translation_certificate(basis, z, tau=1e-6)
    assert np.array_equal(cert.z, z)
    assert cert.certified_modes >= 3
    U = translation_matrix(basis, z)
    P = certified_projector(basis, cert).mat
    I = np.eye(basis.dim)
    assert np.linalg.norm(P @ (U.mat @ U.mat - I) @ P, 2) < 1e-5
    assert np.linalg.norm(P @ (U.mat.conj().T @ U.mat - I) @ P, 2) < 1e-5


def test_covariance_on_certified_block(disc_rule):
    disc = spaces.disc_space(0.0, d=2)
    basis = BasisSpec(disc, 32)
    sym = poly_symbol(disc, {(0, 0): {(1, 0): 1.0, (0, 1): 0.25},
                             (1, 1): {(0, 0): 0.5}, (0, 1): {(1, 1): 0.3}})
    T = toeplitz_matrix(basis, disc_rule, sym)
    for zr in (0.15, 0.3, 0.45, 0.6):
        z = zr * np.exp(0.9j)
        Tz = conjugate_operator(T, z)
        Tp = toeplitz_matrix(basis, disc_rule, pullback_symbol(sym, z))
        P = certified_projector(basis, translation_certificate(basis, z)).mat
        assert np.linalg.norm(P @ (Tz.mat - Tp.mat) @ P, 2) < 1e-9


def test_covariance_block_residual_shrinks_with_truncation(disc_rule):
    # fixed low-mode block of the covariance defect dies as the window grows
    disc = spaces.disc_space(0.0, d=2)
    sym = poly_symbol(disc, {(0, 0): {(1, 0): 1.0}, (1, 1): {(0, 0): 0.5}})
    errs = []
    for N in (32, 48):
        basis = BasisSpec(disc, N)
        T = toeplitz_matrix(basis, disc_rule, sym)
        D = (conjugate_operator(T, 0.6).mat
             - toeplitz_matrix(basis, disc_rule, pullback_symbol(sym, 0.6)).mat)
        block = D.reshape(N, 2, N, 2)[:6, :, :6, :].reshape(12, 12)
        errs.append(np.linalg.norm(block, 2))
    assert errs[0] < 5e-3
    assert errs[1] < 1e-6
    assert errs[1] < 1e-3 * errs[0]


def test_pullback_ball_is_exact_region_match(disc, fock):
    for sp, center, rad, z in ((disc, 0.3 + 0.1j, 0.25, 0.4 * np.exp(0.7j)),
                               (fock, 1.0 - 0.5j, 0.6, 0.8j)):
        sym = ball_indicator_symbol(sp, center, rad, np.eye(2))
        pulled = pullback_symbol(sym, z)
        pts = sample_points(sp, 500, seed=18)
        direct = sym.eval(spaces.involution(sp, z, pts))
        assert np.allclose(pulled.eval(pts), direct, atol=1e-12)


def test_pullback_smooth_matches_composition(disc):
    sym = poly_symbol(disc, {(0, 0): {(1, 0): 1.0, (0, 2): 0.5}})
    z = 0.35 * np.exp(1.2j)
    pulled = pullback_symbol(sym, z)
    pts = sample_points(disc, 50, seed=19)
    assert np.allclose(pulled.eval(pts), sym.eval(spaces.involution(disc, z, pts)), atol=1e-12)


def test_analytic_symbol_duality(disc_rule):
    # adjoint Toeplitz of an analytic symbol acts on kernel directions through
    # the symbol value: T_G^* (v_z x e) = v_z x G(z)^* e
    disc = spaces.disc_space(0.0, d=2)
    basis = BasisSpec(disc, 32)
    G = poly_symbol(disc, {(0, 0): {(0, 0): 0.4, (1, 0): 0.8},
                           (1, 0): {(2, 0): 0.5}, (1, 1): {(0, 0): 1.0}})
    TG = toeplitz_matrix(basis, disc_rule, G)
    for z in (0.2 * np.exp(1.3j), 0.4):
        v = kernel_coeff_vector(basis, z)
        Gz = G.eval(np.atleast_1d(z))[0]
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            lhs = TG.mat.conj().T @ np.kron(v, e)
            rhs = np.kron(v, Gz.conj().T @ e)
            assert np.linalg.norm(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# Hankel

def test_hankel_of_analytic_symbol_vanishes(disc_basis, disc_rule):
    sym = poly_symbol(disc_basis.space, {(0, 0): {(2, 0): 1.0}, (1, 1): {(1, 0): 0.5}})
    f = random_polynomial(disc_basis, np.random.default_rng(11), 5)
    res = hankel_apply(disc_basis, disc_rule, sym, f)
    assert res.norm < 1e-9


def test_hankel_conjugate_shift_norm(disc_basis, disc_rule):
    # H_{conj(w)} 1 = conj(w); its squared norm is the first radial moment 1/2
    sym = poly_symbol(disc_basis.space, {(0, 0): {(0, 1): 1.0}, (1, 1): {(0, 1): 1.0}})
    one = np.zeros((disc_basis.n_scalar, 2), dtype=complex)
    one[0, 0] = 1.0
    res = hankel_apply(disc_basis, disc_rule, sym, CoeffFunction(disc_basis, one))
    assert res.norm ** 2 == pytest.approx(0.5, abs=1e-8)
    # the projected part is zero: conj(w) is orthogonal to every mode
    assert res.projected.norm() < 1e-10


def test_hankel_mixed_symbol_splits(disc_basis, disc_rule):
    # for u = w + conj(w), only the conjugate part survives the projection
    sym_mixed = poly_symbol(disc_basis.space, {(0, 0): {(1, 0): 1.0, (0, 1): 1.0}})
    sym_conj = poly_symbol(disc_basis.space, {(0, 0): {(0, 1): 1.0}})
    f = random_polynomial(disc_basis, np.random.default_rng(12), 6)
    r1 = hankel_apply(disc_basis, disc_rule, sym_mixed, f)
    r2 = hankel_apply(disc_basis, disc_rule, sym_conj, f)
    assert np.allclose(r1.residual_samples, r2.residual_samples, atol=1e-9)


# ---------------------------------------------------------------------------
# rank-one factorization

def test_rank_one_matrix(disc_basis):
    rng = np.random.default_rng(13)
    f = random_coeff_function(disc_basis, rng)
    g = random_coeff_function(disc_basis, rng)
    R = rank_one(f, g)
    h = random_coeff_function(disc_basis, rng)
    expect = complex(np.vdot(g.flat, h.flat)) * f.flat
    assert np.allclose(R.mat @ h.flat, expect, atol=1e-12)


def test_rank_one_toeplitz_sum_exact(disc_rule):
    disc3 = spaces.disc_space(0.0, d=3)
    basis = BasisSpec(disc3, 12)
    rng = np.random.default_rng(14)
    for _ in range(3):
        f = random_polynomial(basis, rng, 3)
        g = random_polynomial(basis, rng, 3)
        S = rank_one_toeplitz_sum(basis, disc_rule, f, g)
        assert (S - rank_one(f, g)).norm() < 1e-10


def test_rank_one_toeplitz_sum_fock(fock_rule):
    fock = spaces.fock_space(d=2)
    basis = BasisSpec(fock, 12)
    rng = np.random.default_rng(15)
    f = random_polynomial(basis, rng, 3)
    g = random_polynomial(basis, rng, 3)
    S = rank_one_toeplitz_sum(basis, fock_rule, f, g)
    assert (S - rank_one(f, g)).norm() < 1e-9


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10 ** 6), st.integers(0, 4))
def test_rank_one_identity_property(seed, degree):
    disc = spaces.disc_space(0.0, d=2)
    basis = BasisSpec(disc, 12)
    rule = build_rule(disc)
    rng = np.random.default_rng(seed)
    f = random_polynomial(basis, rng, degree)
    g = random_polynomial(basis, rng, degree)
    S = rank_one_toeplitz_sum(basis, rule, f, g)
    assert (S - rank_one(f, g)).norm() < 1e-9


_RANK1_SPACES = {
    "disc": (lambda d: spaces.disc_space(0.0, d=d), 12),
    "disc1.5": (lambda d: spaces.disc_space(1.5, d=d), 12),
    "fock": (lambda d: spaces.fock_space(d=d), 12),
    "bidisc": (lambda d: spaces.bidisc_space(0.0, 0.5, d=d), 5),
}


@pytest.mark.parametrize("label, d", [(label, d) for label in _RANK1_SPACES for d in (1, 2, 3)])
def test_rank_one_toeplitz_sum_matches_the_dense_triple_product_oracle(label, d):
    make, n_modes = _RANK1_SPACES[label]
    basis = BasisSpec(make(d), n_modes)
    rng = np.random.default_rng(16 + d)
    for degree in (0, 4):
        f = random_polynomial(basis, rng, degree)
        g = random_polynomial(basis, rng, degree)
        S = rank_one_toeplitz_sum(basis, None, f, g).mat
        assert np.abs(S - dense_rank_one_toeplitz_sum(basis, f, g)).max() <= 1e-15


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rank_one_toeplitz_sum_assembles_1_plus_d_toeplitz_matrices(monkeypatch, d):
    calls = {"toeplitz_matrix": 0, "toeplitz_measure_matrix": 0}

    def counted(name):
        fn = getattr(operators, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(operators, name, counted(name))
    basis = BasisSpec(spaces.bidisc_space(0.0, 0.5, d=d), 4)
    rng = np.random.default_rng(d)
    f, g = random_polynomial(basis, rng, 3), random_polynomial(basis, rng, 3)
    operators.rank_one_toeplitz_sum(basis, None, f, g)
    assert calls == {"toeplitz_matrix": 1 + d, "toeplitz_measure_matrix": 1}
