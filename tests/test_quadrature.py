"""Quadrature rules, Schur bounds, and kernel-power integrals."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln, roots_jacobi, roots_laguerre

from berglab import spaces
from berglab.coeffs import _factor_log_normalizers
from berglab.operators import _scalar_translation
from berglab.analysis import default_probe_grid
from berglab.quadrature import (RF_TERM_CAP, MatrixKernelSample, QuadratureRule, _radial_rule, ball_rule,
                                build_rule, discretized_norm, integrate_lambda,
                                integrate_sigma, rudin_forelli, rule_orders, schur_test)
from conftest import euclidean_ball, metric_ball_euclidean, rule_kernel_power_integrals


def test_sigma_is_probability(all_spaces):
    for sp in all_spaces:
        rule = build_rule(sp)
        mass = integrate_sigma(rule, np.ones(rule.n_nodes))
        assert complex(mass).real == pytest.approx(1.0, abs=1e-12)
        assert np.all(rule.sigma_weights > 0)


@pytest.mark.parametrize("orders", [
    {"radial_order": 0}, {"angular_order": 0}, {"radial_order": -2},
    {"angular_order": 8.0}, {"radial_order": "40"}, {"angular_order": True},
])
def test_build_rule_rejects_empty_or_non_integer_orders(all_spaces, orders):
    for sp in all_spaces:
        with pytest.raises(ValueError):
            build_rule(sp, **orders)


def test_rule_is_the_tensor_mesh_of_its_factor_rules(disc, fock, bidisc):
    # the covering reads a rule's factor rules as its tensor layout, bit for bit
    for rule in (build_rule(disc), build_rule(fock), build_rule(bidisc), build_rule(bidisc, 6, 12)):
        factors = rule.factors
        assert [f.space for f in factors] == list(rule.space.factors)
        assert rule.space.nfactors > 1 or factors[0] is rule
        mesh = np.meshgrid(*[f.nodes for f in factors], indexing="ij")
        assert np.array_equal(spaces.point(rule.space, [m.ravel() for m in mesh]), rule.nodes)
        assert np.array_equal(spaces.kron([f.sigma_weights for f in factors]), rule.sigma_weights)
    bare = build_rule(bidisc, 6, 12)
    with pytest.raises(ValueError):
        QuadratureRule(bidisc, bare.nodes, bare.sigma_weights, 6, 12).factors


def test_rules_compare_and_hash_by_identity(disc, bidisc):
    for space in (disc, bidisc):
        a, b = build_rule(space), build_rule(space)
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_disc_radial_moments(disc, disc_weighted):
    # int |w|^(2m) dsigma = m! Gamma(a+2) / Gamma(m+a+2)
    for sp in (disc, disc_weighted):
        rule = build_rule(sp)
        for m in (0, 1, 2, 5, 11, 25):
            exact = np.exp(gammaln(m + 1) + gammaln(sp.alpha + 2) - gammaln(m + sp.alpha + 2))
            got = complex(integrate_sigma(rule, np.abs(rule.nodes) ** (2 * m))).real
            assert got == pytest.approx(exact, rel=1e-12)


def test_fock_radial_moments(fock):
    rule = build_rule(fock)
    for m in (0, 1, 2, 5, 11):
        got = complex(integrate_sigma(rule, np.abs(rule.nodes) ** (2 * m))).real
        assert got == pytest.approx(float(np.exp(gammaln(m + 1))), rel=1e-10)


def test_angular_moments_vanish(disc):
    rule = build_rule(disc)
    for k in (1, 2, 5):
        got = integrate_sigma(rule, rule.nodes ** k)
        assert abs(got) < 1e-14


def test_bidisc_moments_factor(bidisc):
    rule = build_rule(bidisc)
    a1, a2 = bidisc.alphas
    for m1, m2 in ((0, 0), (1, 2), (3, 1)):
        exact = (np.exp(gammaln(m1 + 1) + gammaln(a1 + 2) - gammaln(m1 + a1 + 2))
                 * np.exp(gammaln(m2 + 1) + gammaln(a2 + 2) - gammaln(m2 + a2 + 2)))
        vals = np.abs(rule.nodes[:, 0]) ** (2 * m1) * np.abs(rule.nodes[:, 1]) ** (2 * m2)
        assert complex(integrate_sigma(rule, vals)).real == pytest.approx(exact, rel=1e-11)


def test_invariant_measure_under_involution(disc, fock):
    # integrals against the kernel-weighted measure are unchanged by the
    # point involutions
    for sp, probe in ((disc, 0.3 * np.exp(0.8j)), (fock, 0.7 - 0.4j)):
        rule = build_rule(sp)
        if sp.kind == "bergman_disc":
            f = lambda w: (1 - np.abs(w) ** 2) ** 3
        else:
            f = lambda w: np.exp(-np.abs(w) ** 2)
        base = complex(integrate_lambda(rule, f(rule.nodes))).real
        moved = complex(integrate_lambda(rule, f(spaces.involution(sp, probe, rule.nodes)))).real
        assert moved == pytest.approx(base, rel=1e-9)


def _sigma_ball_mass(space, center, radius, ball_metric="euclidean"):
    """sigma-mass of a ball, integrated by its own ball rule."""
    center, radius = euclidean_ball(space, center, radius, ball_metric)
    rule = ball_rule(space, center, radius)
    return float(np.real(integrate_sigma(rule, np.ones(rule.n_nodes))))


def test_centered_ball_sigma_mass(disc):
    # alpha = 0: sigma-mass of |w| < rho is rho^2
    assert _sigma_ball_mass(disc, 0.0, 0.4) == pytest.approx(0.16, abs=1e-12)
    assert _sigma_ball_mass(disc, 0.0, 0.5) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError, match="unknown ball metric"):
        _sigma_ball_mass(disc, 0.0, 0.4, ball_metric="invarient")


def test_ball_rule_integrates_constants(disc, fock):
    for sp, center, rad in ((disc, 0.2 + 0.1j, 0.3), (fock, 1.0 - 0.5j, 0.8)):
        rule = ball_rule(sp, center, rad)
        mass = complex(integrate_sigma(rule, np.ones(rule.n_nodes))).real
        assert mass == pytest.approx(_sigma_ball_mass(sp, center, rad), rel=1e-10)
        assert np.all(np.abs(rule.nodes - center) <= rad + 1e-12)


def test_metric_ball_euclidean_matches_metric(disc, fock):
    for sp, center, r in ((disc, 0.4 * np.exp(0.5j), 0.6), (fock, 1.0 + 0.2j, 0.7)):
        c, rho = metric_ball_euclidean(sp, center, r)
        # points on the euclidean boundary sit at invariant distance r
        for th in np.linspace(0, 2 * np.pi, 9):
            p = c + rho * np.exp(1j * th)
            assert float(spaces.metric(sp, center, p)) == pytest.approx(r, abs=1e-10)


def test_schur_bound_dominates_random_samples():
    rng = np.random.default_rng(3)
    for _ in range(40):
        nx, ny, d = rng.integers(3, 20), rng.integers(3, 20), rng.integers(1, 4)
        s = MatrixKernelSample(np.abs(rng.standard_normal((nx, ny, d, d))),
                               rng.uniform(0.1, 1, nx), rng.uniform(0.1, 1, ny))
        res = schur_test(s, p=2.0)
        assert res["bound"] >= discretized_norm(s) - 1e-12


def test_schur_constant_kernel_equality():
    for c in (1.0, 2.5, 0.3):
        s = MatrixKernelSample(np.full((8, 6, 1, 1), c),
                               np.full(8, 1.0 / 8), np.full(6, 1.0 / 6))
        res = schur_test(s, p=2.0)
        assert res["bound"] == pytest.approx(discretized_norm(s), abs=1e-10)
        assert res["bound"] == pytest.approx(c, abs=1e-12)


def test_schur_rejects_bad_input():
    s = MatrixKernelSample(np.ones((3, 3, 1, 1)), np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        schur_test(s, p=1.0)
    with pytest.raises(ValueError):
        schur_test(s, p=2.0, h_x=np.array([1.0, -1.0, 1.0]))


def test_schur_weight_can_tighten_bound():
    # Hilbert-type kernel: the fourth-root power weight roughly halves the
    # bound (row sums alone grow like log n) while still dominating the norm
    n = 64
    x = np.arange(n, dtype=float)
    vals = (1.0 / (x[:, None] + x[None, :] + 1.0))[:, :, None, None]
    s = MatrixKernelSample(vals, np.ones(n), np.ones(n))
    plain = schur_test(s, p=2.0)["bound"]
    h = (x + 0.5) ** -0.25
    weighted = schur_test(s, p=2.0, h_x=h, h_y=h)["bound"]
    assert weighted < 0.6 * plain
    assert weighted >= discretized_norm(s) - 1e-12


def test_kernel_power_integral_origin_value(disc):
    # r = s = 3, alpha = 0: the value at the base point is exactly 1/2
    rep = rudin_forelli(disc, [0.0], 3.0, 3.0)
    assert rep.I[0] == pytest.approx(0.5, abs=1e-10)
    assert rep.J[0] == pytest.approx(0.5, abs=1e-10)


def test_kernel_power_integral_invariance(disc):
    # for r = s the integral is invariant in z: the ratio J/I stays at 1
    zg = [0.0, 0.3, 0.5 * np.exp(1.1j), 0.65]
    rep = rudin_forelli(disc, zg, 3.0, 3.0)
    assert np.allclose(rep.I, rep.I[0], rtol=1e-10)
    assert np.allclose(rep.ratio, 1.0, atol=1e-10)


def test_kernel_power_integral_fock(fock):
    rep = rudin_forelli(fock, [0.0, 0.8, 1.5], 2.0, 2.0)
    assert np.all(rep.I > 0)
    assert np.allclose(rep.I, rep.I[0], rtol=1e-8)


def test_kernel_power_rejects_nonintegrable(disc):
    with pytest.raises(ValueError):
        rudin_forelli(disc, [0.0], 0.5, 0.5)
    with pytest.raises(ValueError):
        rudin_forelli(disc, [0.0], -1.0, 2.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5, 3.0])
def test_kernel_power_series_matches_mpmath(alpha):
    # both hypergeometric forms at 30 digits: J's 2F1(A, A; b; x), which the series sums, and
    # I's (1-x)^(g s/2) 2F1(c, c; b; x), which Euler's transformation makes the same function
    space = spaces.disc_space(alpha, d=1, r_max=0.9995)
    x = np.array([0.0, 0.1, 0.3, 0.5, 0.81, 0.9, 0.95, 0.99, 0.998])
    z = np.sqrt(x) * np.exp(0.7j)
    g = 2.0 + alpha
    for r, s in [(3.0, 3.0), (2.0, 1.0), (1.6, 0.5), (1.2, 3.0)]:
        rep = rudin_forelli(space, z, r, s)
        A, c, b = g * (r - s) / 4.0, g * (r + s) / 4.0, g * r / 2.0
        with mpmath.workdps(30):
            t = [mpmath.mpf(float(v)) for v in np.abs(z) ** 2]
            J = [float((alpha + 1) * mpmath.hyp2f1(A, A, b, v) / (b - 1)) for v in t]
            I = [float((alpha + 1) * (1 - v) ** (g * s / 2) * mpmath.hyp2f1(c, c, b, v) / (b - 1)) for v in t]
        for ref in (J, I):
            assert np.max(np.abs(rep.I / np.array(ref) - 1.0)) < 1e-14, (r, s)
        assert rep.J is rep.I and np.array_equal(rep.ratio, np.ones(len(x)))


def test_kernel_power_series_refuses_past_its_term_cap():
    # at |z|^2 = 0.99998 the series needs about 2e6 terms: refused, never cut short
    space = spaces.disc_space(0.0, d=1, r_max=0.999995)
    assert rudin_forelli(space, [0.99], 2.0, 1.0).I[0] > 0
    with pytest.raises(ValueError, match=f"more than {RF_TERM_CAP} terms"):
        rudin_forelli(space, [0.0, 0.99999], 2.0, 1.0)


@pytest.mark.parametrize("space, scales", [
    (spaces.disc_space(0.0, d=1), (1, 2, 4)),
    (spaces.disc_space(1.5, d=1), (1, 2, 4)),
    (spaces.fock_space(d=1), (1, 2, 4)),
    (spaces.bidisc_space(0.0, 0.5, d=1), (1, 2)),
], ids=["disc", "disc-alpha1.5", "fock", "bidisc"])
def test_rule_sum_converges_to_the_closed_form(space, scales):
    # the rule-sum oracle on the default rule refined by each scale: its error at least halves
    # with each refinement until rounding (1e-13); (1.6, 0.5) has a singular boundary factor
    # (1 - |w|^2)^(-0.4) on the disc, so its error falls only algebraically
    grid = default_probe_grid(space)
    radial, angular = rule_orders(space)
    for r, s in [(3.0, 3.0), (1.6, 0.5)]:
        exact = rudin_forelli(space, grid, r, s).I
        errors = np.array([[np.max(np.abs(v / exact - 1.0)) for v in rule_kernel_power_integrals(
            space, build_rule(space, radial * k, angular * k), grid, r, s)] for k in scales])
        assert np.all(errors[1:] <= np.maximum(errors[:-1] / 2.0, 1e-13)), (r, s, errors)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_schur_domination_property(nx, ny, d, seed):
    rng = np.random.default_rng(seed)
    s = MatrixKernelSample(np.abs(rng.standard_normal((nx, ny, d, d))),
                           rng.uniform(0.1, 1, nx), rng.uniform(0.1, 1, ny))
    assert schur_test(s, p=2.0)["bound"] >= discretized_norm(s) - 1e-12


# ---------------------------------------------------------------------------
# scipy.special is the oracle for the numpy Gauss rules, normalizers and
# Laguerre values that replaced it on the run path

GAUSS_ORDERS = (1, 2, 12, 16, 40, 64, 128)


@pytest.mark.parametrize("order", GAUSS_ORDERS)
def test_disc_radial_rule_matches_gauss_jacobi(order):
    """Gauss-Jacobi(alpha, 0) mapped from [-1, 1] to t in [0, 1], weights summing to 1."""
    for alpha in (0.0, 0.5, 1.5, 3.0):
        t, w = _radial_rule(spaces.KIND_DISC, alpha, order)
        xs, ws = roots_jacobi(order, alpha, 0.0)
        assert np.max(np.abs(t - (xs + 1.0) / 2.0)) <= 1e-13
        assert np.max(np.abs(w / (ws * (alpha + 1.0) * 0.5 ** (alpha + 1.0)) - 1.0)) <= 1e-10


@pytest.mark.parametrize("order", GAUSS_ORDERS)
def test_fock_radial_rule_matches_gauss_laguerre(order):
    t, w = _radial_rule(spaces.KIND_FOCK, 0.0, order)
    xs, ws = roots_laguerre(order)
    assert np.max(np.abs(t / xs - 1.0)) <= 1e-13
    assert np.max(np.abs(w / ws - 1.0)) <= 1e-10


def test_radial_rules_are_shared_and_read_only():
    t, w = _radial_rule(spaces.KIND_DISC, 0.0, 40)
    assert _radial_rule(spaces.KIND_DISC, 0.0, 40)[0] is t
    assert not t.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("alpha", [0.0, 1.5, None], ids=["disc-0", "disc-1.5", "fock"])
def test_log_normalizers_match_gammaln(alpha):
    m = np.arange(128.0)
    if alpha is None:
        space, ref = spaces.fock_space(), -0.5 * gammaln(m + 1.0)
    else:
        space = spaces.disc_space(alpha)
        ref = 0.5 * (gammaln(m + 2.0 + alpha) - gammaln(m + 1.0) - gammaln(2.0 + alpha))
    for n in (1, 2, 24, 128):
        assert np.max(np.abs(_factor_log_normalizers(space, n) - ref[:n])) <= 1e-13
        # a shorter table is a prefix of a longer one, bit for bit
        assert np.array_equal(_factor_log_normalizers(space, n), _factor_log_normalizers(space, 128)[:n])


@pytest.mark.parametrize("n_modes", [1, 8, 24, 64])
def test_fock_laguerre_recurrence_matches_eval_genlaguerre(n_modes):
    """The closed-form Fock U_z against the same formula on scipy's gammaln and
    eval_genlaguerre, over the whole (lo, hi - lo) table it reads."""
    m = np.arange(n_modes)
    lo, hi = np.minimum.outer(m, m), np.maximum.outer(m, m)
    diff = m[:, None] - m[None, :]
    for z in (0.0, 0.3 + 0.1j, 1.5 - 0.7j, 3.0j):
        t = abs(z) ** 2
        magnitude = np.exp(0.5 * (gammaln(lo + 1.0) - gammaln(hi + 1.0)) - t / 2.0) \
            * eval_genlaguerre(lo, hi - lo, t)
        ref = magnitude * np.where(diff >= 0, np.conj(z), -z) ** np.abs(diff) * (-1.0) ** m
        assert np.max(np.abs(_scalar_translation(spaces.fock_space(), n_modes, z) - ref)) <= 1e-13
