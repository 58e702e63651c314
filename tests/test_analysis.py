"""Berezin transform, displacement integrals, essential-norm and injectivity."""

from dataclasses import replace

import numpy as np
import pytest

from berglab import analysis, operators, spaces
from berglab.analysis import (axiom_checks, berezin, berezin_decay_profile,
                              berezin_injectivity_probe, boundary_shells,
                              default_probe_grid, essential_norm_estimate,
                              hankel_rkt_check, probe_radii, rkt_boundedness_check,
                              rkt_product_check, rkt_toeplitz_symbol_check)
from berglab.coeffs import BasisSpec, kernel_coeff_vector, random_polynomial
from berglab.operators import (OperatorMatrix, ball_indicator_symbol, constant_symbol,
                               conjugate_operator, identity_operator, poly_symbol, rank_one,
                               toeplitz_matrix, translation_certificate, translation_matrix)
from berglab.quadrature import build_rule, rudin_forelli
from berglab.reporting import jsonable
from conftest import (per_point_essential_profile, per_point_hankel_check, per_point_product_check,
                      per_point_rkt, per_point_symbol_check, per_point_translation_residuals)


@pytest.fixture(scope="module")
def disc2():
    return spaces.disc_space(0.0, d=2)


@pytest.fixture(scope="module")
def basis24(disc2):
    return BasisSpec(disc2, 24)


@pytest.fixture(scope="module")
def rule24(disc2):
    return build_rule(disc2)


# ---------------------------------------------------------------------------
# Berezin transform

def test_berezin_of_identity(basis24):
    for z in (0.0, 0.4 * np.exp(0.8j), 0.7):
        B = berezin(identity_operator(basis24), z)
        assert np.abs(B - np.eye(2)).max() < 1e-12


def test_berezin_hermitian_and_bounded(basis24, rule24):
    sym = poly_symbol(basis24.space, {(0, 0): {(1, 0): 1.0, (0, 1): 1.0},
                                      (1, 1): {(0, 0): 0.5}})
    T = toeplitz_matrix(basis24, rule24, sym)
    assert np.abs(T.mat - T.adjoint().mat).max() < 1e-10
    for z in (0.2, 0.5 * np.exp(1.9j)):
        B = berezin(T, z)
        assert np.abs(B - B.conj().T).max() < 1e-10
        assert np.abs(B).max() <= T.norm() + 1e-10


def test_berezin_of_kernel_projector(basis24):
    # T = (ktilde_0 x e_0) (x) itself: entry (0,0) at z is |<v_z, v_0>|^2,
    # which is the truncated ||K_z||^-2 = (1 - |z|^2)^2 for alpha = 0
    v0 = np.zeros((basis24.n_scalar, 2), dtype=complex)
    v0[0, 0] = 1.0
    from berglab.coeffs import CoeffFunction
    k0 = CoeffFunction(basis24, v0)
    R = rank_one(k0, k0)
    for z in (0.3, 0.5 * np.exp(2.0j)):
        B = berezin(R, z)
        assert B[0, 0].real == pytest.approx((1 - abs(z) ** 2) ** 2, abs=1e-10)
        assert abs(B[1, 1]) < 1e-14


def test_berezin_ball_value_at_origin(basis24, rule24):
    T = toeplitz_matrix(basis24, rule24,
                        ball_indicator_symbol(basis24.space, 0.0, 0.5, np.eye(2)))
    B = berezin(T, 0.0)
    assert B[0, 0].real == pytest.approx(0.25, abs=1e-12)


def test_berezin_profile_ball_decays(basis24, rule24):
    T = toeplitz_matrix(basis24, rule24,
                        ball_indicator_symbol(basis24.space, 0.0, 0.35, np.eye(2)))
    prof = berezin_decay_profile(T)
    assert prof.decaying
    assert prof.final_value < 0.01
    assert np.all(np.diff(prof.profile) < 0)


def test_berezin_profile_constant_flat(basis24, rule24):
    M = np.diag([0.8, 0.6])
    T = toeplitz_matrix(basis24, rule24, constant_symbol(basis24.space, M))
    prof = berezin_decay_profile(T)
    assert not prof.decaying
    assert np.allclose(prof.profile, 0.8, atol=1e-8)
    d = jsonable(prof)
    assert d["decaying"] is False and d["final_value"] == pytest.approx(0.8, abs=1e-8)


def _pointwise_berezin(T, z):
    """<k_z e_i, T k_z e_k> from the full kernel probe columns, one point at a time."""
    d = T.basis.space.d
    X = np.kron(kernel_coeff_vector(T.basis, z)[:, None], np.eye(d))
    return X.conj().T @ T.mat @ X


@pytest.mark.parametrize("space", [spaces.disc_space(1.5, d=2), spaces.fock_space(d=2),
                                   spaces.bidisc_space(0.0, 0.5, d=2)],
                         ids=["disc", "fock", "bidisc"])
def test_berezin_profile_matches_pointwise_expectations(space):
    basis = BasisSpec(space, 12 if space.nfactors == 1 else 5)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((basis.dim, basis.dim)) + 1j * rng.standard_normal((basis.dim, basis.dim))
    T = OperatorMatrix(basis, A / np.linalg.norm(A, 2))
    top = spaces.probe_radius_max(space)
    for radii, angles in ((None, None), ([0.1 * top, 0.5 * top, top], [0.3, -2.0])):
        prof = berezin_decay_profile(T, radii, angles)
        for a, r in enumerate(prof.radii):
            for b, th in enumerate(prof.angles):
                z = spaces.point(space, [r * np.exp(1j * th)] * space.nfactors)
                assert np.abs(prof.matrices[a, b] - _pointwise_berezin(T, z)).max() <= 1e-13
    with pytest.raises(ValueError, match="outside admissible region"):
        berezin_decay_profile(T, radii=[0.5 * top, 1.01 * top])


# ---------------------------------------------------------------------------
# displacement boundedness integrals

def test_boundedness_identity_is_one(basis24, rule24):
    a, b = rkt_boundedness_check(basis24, rule24, identity_operator(basis24),
                                 p=4.0, z_grid=[0.0, 0.3])
    for rep in (a, b):
        assert np.allclose(rep.values, 1.0, atol=1e-8)
        assert rep.admissible
        assert rep.p_threshold == pytest.approx(3.0)


def test_boundedness_scales_linearly(basis24, rule24):
    one = rkt_boundedness_check(basis24, rule24, identity_operator(basis24),
                                p=4.0, z_grid=[0.2])[1]
    T = identity_operator(basis24)
    scaled = rkt_boundedness_check(basis24, rule24, 0.3 * T, p=4.0, z_grid=[0.2])[1]
    assert np.allclose(scaled.values, 0.3 * one.values, atol=1e-10)


def test_boundedness_rejects_bad_p(basis24, rule24):
    with pytest.raises(ValueError):
        rkt_boundedness_check(basis24, rule24, identity_operator(basis24), p=1.0)


def test_rkt_checks_reject_an_empty_probe_grid(basis24):
    # an empty grid would report sup 0.0 and admissible (or, in the axiom suite, the
    # essential norm and the kernel-power integrals, a numpy reduction error), and 0.95 lies
    # outside the disc's admissible region (r_max 0.9); every check refuses the whole grid
    # before any compute, so the rule (None here) is never read.  The essential norm gets
    # each point as a shell of its own.
    I2 = constant_symbol(basis24.space, np.eye(2))
    I = identity_operator(basis24)
    checks = [(lambda z: rkt_boundedness_check(basis24, None, I, z_grid=z), "z_grid"),
              (lambda z: rkt_toeplitz_symbol_check(None, I2, z_grid=z), "z_grid"),
              (lambda z: rkt_product_check(None, I2, I2, z_grid=z), "z_grid"),
              (lambda z: hankel_rkt_check(None, I2, z_grid=z), "z_grid"),
              (lambda z: axiom_checks(basis24, None, z, 0), "z_grid"),
              (lambda z: rudin_forelli(basis24.space, z, 3.0, 3.0), "z_grid"),
              (lambda z: essential_norm_estimate(I, [[p] for p in z]), "boundary_grid")]
    grids = [([], "{} is empty"), ((), "{} is empty"), (np.zeros(0, dtype=complex), "{} is empty"),
             ([0.0, 0.3, 0.95], "outside admissible region")]
    for check, name in checks:
        for grid, match in grids:
            with pytest.raises(ValueError, match=match.format(name)):
                check(grid)
    # an empty shell among non-empty ones is named by its index
    with pytest.raises(ValueError, match="shell 1 of the probe grid boundary_grid is empty"):
        essential_norm_estimate(I, [[0.5], []])
    with pytest.raises(ValueError):
        analysis.RktReport("direct_side", 4.0, [], np.zeros((0, 2)), basis24.space.kappa)


def test_symbol_check_oracle(basis24, rule24):
    # F = w E_00 at z = 0, p = 4: the only nonzero row/column norm is
    # (int |w|^4 dsigma)^(1/4) = (1/3)^(1/4)
    F = poly_symbol(basis24.space, {(0, 0): {(1, 0): 1.0}})
    row, col = rkt_toeplitz_symbol_check(rule24, F, p=4.0, z_grid=[0.0])
    oracle = (1.0 / 3.0) ** 0.25
    assert row.values[0, 0] == pytest.approx(oracle, abs=1e-8)
    assert col.values[0, 0] == pytest.approx(oracle, abs=1e-8)
    assert row.values[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert row.sup == pytest.approx(oracle, abs=1e-8)


def test_symbol_check_constant_invariant_in_z(basis24, rule24):
    M = np.array([[1.0, 0.5], [0.0, 2.0]])
    F = constant_symbol(basis24.space, M)
    row, col = rkt_toeplitz_symbol_check(rule24, F, p=4.0, z_grid=[0.0, 0.4, 0.6j])
    # row sums of |M|, identical at every z
    assert np.allclose(row.values, np.abs(M).sum(axis=1)[None, :], atol=1e-10)
    assert np.allclose(col.values, np.abs(M).sum(axis=0)[None, :], atol=1e-10)


def test_product_check_identity(basis24, rule24):
    I2 = constant_symbol(basis24.space, np.eye(2))
    first, second = rkt_product_check(rule24, I2, I2, p=4.0, z_grid=[0.0, 0.3])
    assert np.allclose(first.values, 1.0, atol=1e-10)
    assert np.allclose(second.values, 1.0, atol=1e-10)


def test_product_check_vanishing_pair(basis24, rule24):
    # G(z) = z E_00 vanishes at the base point, so the product integrand is 0
    F = constant_symbol(basis24.space, np.eye(2))
    G = poly_symbol(basis24.space, {(0, 0): {(1, 0): 1.0}})
    first, _ = rkt_product_check(rule24, G, G, p=4.0, z_grid=[0.0])
    assert np.allclose(first.values, 0.0, atol=1e-12)


def test_product_check_requires_analytic(basis24, rule24):
    F = poly_symbol(basis24.space, {(0, 0): {(0, 1): 1.0}})
    with pytest.raises(ValueError):
        rkt_product_check(rule24, F, F, p=4.0, z_grid=[0.0])
    B = ball_indicator_symbol(basis24.space, 0.0, 0.3, np.eye(2))
    with pytest.raises(ValueError):
        rkt_product_check(rule24, B, B, p=4.0, z_grid=[0.0])


def test_hankel_check_oracle(basis24, rule24):
    # F = conj(w) I: at z = 0 the oscillation integrand is |u| per component
    F = poly_symbol(basis24.space, {(0, 0): {(0, 1): 1.0}, (1, 1): {(0, 1): 1.0}})
    rep = hankel_rkt_check(rule24, F, p=4.0, z_grid=[0.0])
    assert np.allclose(rep.values, (1.0 / 3.0) ** 0.25, atol=1e-8)
    # analytic-plus-constant symbols still oscillate unless constant
    C = constant_symbol(basis24.space, np.diag([2.0, 3.0]))
    rep = hankel_rkt_check(rule24, C, p=4.0, z_grid=[0.0, 0.4])
    assert np.allclose(rep.values, 0.0, atol=1e-10)


def _check_symbols(space):
    """A poly symbol with conjugate powers, an analytic one, a constant and (one factor only)
    a ball symbol, each 2 x 2; poly terms on the last factor too."""
    first = lambda a, b: (a, b) + (0, 0) * (space.nfactors - 1)     # noqa: E731
    last = lambda a, b: (0, 0) * (space.nfactors - 1) + (a, b)      # noqa: E731
    symbols = {
        "poly": poly_symbol(space, {(0, 0): {first(1, 0): 0.7, first(0, 2): 0.3j, first(0, 0): 0.2},
                                    (0, 1): {first(2, 1): -0.4, last(0, 1): 0.5},
                                    (1, 1): {first(0, 0): 0.5, first(1, 1): 0.25}}),
        "analytic": poly_symbol(space, {(0, 0): {first(1, 0): 0.6, first(0, 0): 0.3},
                                        (1, 0): {last(1, 0): 0.4}, (1, 1): {first(2, 0): -0.5}}),
        "const": constant_symbol(space, [[1.0, 0.5j], [0.2, 0.8]]),
    }
    if space.nfactors == 1:
        radius = 0.3 if space.kind == spaces.KIND_DISC else 1.0
        symbols["ball"] = ball_indicator_symbol(space, 0.1 + 0.2j, radius, [[0.9, 0.1], [0.0, 0.6]])
    return symbols


_SYMBOL_CHECK_SPACES = {"disc": spaces.disc_space(0.0, d=2), "disc-1.5": spaces.disc_space(1.5, d=2),
                        "fock": spaces.fock_space(d=2), "bidisc": spaces.bidisc_space(0.0, 0.5, d=2)}


@pytest.mark.parametrize("space_name, kind", [
    (name, kind) for name in _SYMBOL_CHECK_SPACES for kind in ("poly", "analytic", "const", "ball")
    if kind != "ball" or name != "bidisc"])
def test_symbol_checks_match_per_point_loops_bit_for_bit(space_name, kind):
    # the three symbol checks sample every pulled-back node of every point at once; the
    # per-point loops they replaced are the oracle, on the default grid plus a point near
    # the edge of the admissible region
    space = _SYMBOL_CHECK_SPACES[space_name]
    symbols = _check_symbols(space)
    F, rule = symbols[kind], build_rule(space)
    edge = 0.999 * spaces.probe_radius_max(space) * np.exp(0.4j)
    grid = default_probe_grid(space) + [spaces.point(space, [edge] * space.nfactors)]
    reports = rkt_toeplitz_symbol_check(rule, F, p=3.0, z_grid=grid)
    refs = per_point_symbol_check(rule, F, 3.0, grid)
    reports += (hankel_rkt_check(rule, F, p=3.0, z_grid=grid),)
    refs += (per_point_hankel_check(rule, F, 3.0, grid),)
    if kind in ("analytic", "const"):          # the product check takes analytic pairs only
        reports += rkt_product_check(rule, F, symbols["analytic"], p=3.0, z_grid=grid)
        refs += per_point_product_check(rule, F, symbols["analytic"], 3.0, grid)
    for rep, ref in zip(reports, refs):
        assert rep.values.shape == (len(grid), space.d)
        assert np.array_equal(rep.values, ref)
    assert len(reports) == (5 if kind in ("analytic", "const") else 3)


def test_fock_admissibility_threshold():
    fock = spaces.fock_space(d=1)
    basis = BasisSpec(fock, 12)
    rule = build_rule(fock)
    rep = rkt_boundedness_check(basis, rule, identity_operator(basis),
                                p=2.5, z_grid=[0.0])[0]
    assert rep.kappa == 0.0
    assert rep.p_threshold == pytest.approx(2.0)
    assert rep.admissible


# ---------------------------------------------------------------------------
# essential norm

def test_essential_norm_constant_symbol(basis24, rule24):
    T = toeplitz_matrix(basis24, rule24, constant_symbol(basis24.space, 0.7 * np.eye(2)))
    rep = essential_norm_estimate(T, seed=0)
    assert rep.estimate == pytest.approx(0.7, abs=0.05)
    assert rep.top_singular_value == pytest.approx(0.7, abs=1e-6)
    assert rep.sv_proxy_value == pytest.approx(0.7, abs=1e-6)


def test_essential_norm_compact_class_small(basis24, rule24):
    s = ball_indicator_symbol(basis24.space, 0.1, 0.3, np.eye(2))
    T = toeplitz_matrix(basis24, rule24, s) @ toeplitz_matrix(basis24, rule24, s)
    rep = essential_norm_estimate(T, seed=0)
    assert rep.estimate < 0.02
    assert rep.sv_proxy_value < 1e-4
    assert rep.last_two_decreasing


def test_essential_norm_finite_rank_profile(basis24):
    # a rank-one operator: the shell profile declines monotonically, and the
    # singular-value proxy vanishes identically (rank 1 < proxy index)
    rng = np.random.default_rng(31)
    f = random_polynomial(basis24, rng, 3)
    g = random_polynomial(basis24, rng, 3)
    R = rank_one(f, g)
    rep = essential_norm_estimate(R, seed=1)
    assert np.all(np.diff(rep.lower_profile) < 0)
    assert rep.last_two_decreasing
    assert rep.sv_proxy_value == 0.0
    assert rep.estimate < 0.5 * R.norm()


def test_essential_norm_custom_shells(basis24, rule24):
    T = toeplitz_matrix(basis24, rule24, constant_symbol(basis24.space, np.eye(2)))
    shells = boundary_shells(basis24.space, radii=[0.3, 0.6, 0.8])
    rep = essential_norm_estimate(T, boundary_grid=shells, seed=0)
    assert len(rep.lower_profile) == 3
    assert rep.shell_metric[0] < rep.shell_metric[1] < rep.shell_metric[2]
    assert rep.estimate == pytest.approx(1.0, abs=0.05)


def _random_operator(space, n_modes, d, seed):
    basis = BasisSpec(replace(space, d=d), n_modes)
    rng = np.random.default_rng(seed)
    return OperatorMatrix(basis, rng.standard_normal((basis.dim,) * 2)
                          + 1j * rng.standard_normal((basis.dim,) * 2))


_ORACLE_SPACES = [(spaces.disc_space(0.0), 16), (spaces.disc_space(1.5), 12),
                  (spaces.fock_space(), 16), (spaces.bidisc_space(0.0, 0.5), 6)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("space, n_modes", _ORACLE_SPACES, ids=["disc", "disc-1.5", "fock", "bidisc"])
def test_essential_norm_matches_per_point_oracle(space, n_modes, d):
    T = _random_operator(space, n_modes, d, seed=d)
    shells = boundary_shells(T.basis.space)
    rep = essential_norm_estimate(T, seed=4)
    ref = per_point_essential_profile(T, shells, seed=4)
    assert np.max(np.abs(rep.lower_profile - ref) / ref) <= 1e-12
    z = shells[-1][1]
    U = translation_matrix(T.basis, z).mat
    dense = U @ T.mat @ U.conj().T
    assert np.abs(conjugate_operator(T, z).mat - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("space, n_modes", _ORACLE_SPACES, ids=["disc", "disc-1.5", "fock", "bidisc"])
def test_boundedness_matches_per_point_oracle(space, n_modes):
    # all points at once through the factor samples, against one dense U_z (x) I_d per point
    # and the basis matrix on every rule node
    T = _random_operator(space, n_modes, 2, seed=7)
    rule = build_rule(T.basis.space)
    reports = rkt_boundedness_check(T.basis, rule, T)
    for rep, ref in zip(reports, per_point_rkt(T.basis, rule, T)):
        assert rep.values.shape == ref.shape
        assert np.max(np.abs(rep.values - ref) / ref) <= 1e-13


def test_rule_sums_on_the_bidisc_stay_within_a_memory_budget():
    # a basis matrix on the 36,864 product nodes at n=16 is 151 MB per copy; the factor
    # samples keep the axiom suite and the boundedness integrals well below one such copy
    import tracemalloc

    basis = BasisSpec(spaces.bidisc_space(0.0, 0.5, d=2), 16)
    rule = build_rule(basis.space)
    T = _random_operator(basis.space, 16, 2, seed=3)
    peaks = []
    tracemalloc.start()
    try:
        for run in (lambda: axiom_checks(basis, rule, default_probe_grid(basis.space), 0),
                    lambda: rkt_boundedness_check(basis, rule, T)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2 ** 20)
    finally:
        tracemalloc.stop()
    assert max(peaks) < 100.0, peaks


@pytest.mark.parametrize("space, n_modes", _ORACLE_SPACES, ids=["disc", "disc-1.5", "fock", "bidisc"])
def test_shell_certified_modes_match_translation_certificate(space, n_modes):
    T = identity_operator(BasisSpec(space, n_modes))
    # the default shells, then shells of unequal sizes whose points differ in radius
    top = spaces.probe_radius_max(space)
    mixed = [[spaces.point(space, [r * np.exp(1j * a)] * space.nfactors) for r, a in shell]
             for shell in ([(0.05 * top, 0.0), (0.3 * top, 1.0), (0.02 * top, 2.0)],
                           [(0.1 * top, 0.5)], [(0.01 * top, 3.0), (0.6 * top, 4.0)])]
    for shells in (boundary_shells(space), mixed):
        rep = essential_norm_estimate(T, boundary_grid=shells)
        ref = [min(translation_certificate(T.basis, z).certified_modes for z in shell)
               for shell in shells]
        assert rep.shell_certified_modes.tolist() == ref
        assert rep.lower_profile.size == len(shells)


def test_shell_certified_modes_disc_24(basis24):
    # only the first default shell certifies a mode at n=24 (ROADMAP item 3)
    rep = essential_norm_estimate(identity_operator(basis24))
    assert rep.shell_certified_modes.tolist() == [1, 0, 0, 0]


@pytest.fixture
def translation_calls(monkeypatch):
    """The point-stack shapes passed to operators._scalar_translation, with an empty memo."""
    calls = []
    original = operators._scalar_translation

    def counted(space1, n_modes, z):
        calls.append(np.shape(z))
        return original(space1, n_modes, z)

    monkeypatch.setattr(operators, "_scalar_translation", counted)
    operators._translated.clear()
    yield calls
    operators._translated.clear()


def test_essential_norm_translates_once_per_factor(translation_calls):
    # every U_z comes from the one fold, operators._translations: the essential norm stacks
    # its 12 shell points, translation_matrix and conjugate_operator a stack of one
    for space, n_modes in _ORACLE_SPACES:
        basis = BasisSpec(space, n_modes)
        z = spaces.point(space, [0.3 * spaces.probe_radius_max(space)] * space.nfactors)
        for run, shape in ((lambda: essential_norm_estimate(identity_operator(basis)), (12,)),
                           (lambda: translation_matrix(basis, z), (1,)),
                           (lambda: conjugate_operator(identity_operator(basis), z), (1,))):
            operators._translated.clear()   # conjugate_operator repeats translation_matrix's z
            translation_calls.clear()
            run()
            assert translation_calls == [shape] * space.nfactors


def _reports_identical(a, b) -> bool:
    return all(np.asarray(getattr(a, f)).tobytes() == np.asarray(getattr(b, f)).tobytes()
               for f in a.__dataclass_fields__)


@pytest.mark.parametrize("space, n_modes", _ORACLE_SPACES, ids=["disc", "disc-1.5", "fock", "bidisc"])
def test_essential_norm_repeats_its_grid_from_the_memo(translation_calls, space, n_modes):
    # operators on one basis share the shells' U_z stack: the second estimate translates
    # nothing and is the same report, bit for bit
    basis = BasisSpec(space, n_modes)
    rng = np.random.default_rng(5)
    T = OperatorMatrix(basis, rng.standard_normal((basis.dim,) * 2) + 1j * rng.standard_normal((basis.dim,) * 2))
    first = essential_norm_estimate(T)
    assert len(translation_calls) == space.nfactors
    translation_calls.clear()
    assert _reports_identical(essential_norm_estimate(T), first)
    assert translation_calls == []


def test_translation_memo_key_is_basis_and_grid(translation_calls):
    # a different alpha, n_modes, d or grid translates again; the last one is held
    space = spaces.disc_space(0.0, d=2)
    shells = boundary_shells(space)
    runs = [(BasisSpec(space, 8), shells), (BasisSpec(spaces.disc_space(0.5, d=2), 8), shells),
            (BasisSpec(space, 9), shells), (BasisSpec(spaces.disc_space(0.0, d=3), 8), shells),
            (BasisSpec(space, 8), shells[:3]), (BasisSpec(space, 8), shells[:3])]
    counts = []
    for basis, grid in runs:
        translation_calls.clear()
        essential_norm_estimate(identity_operator(basis), boundary_grid=grid)
        counts.append(len(translation_calls))
    assert counts == [1, 1, 1, 1, 1, 0]
    assert len(operators._translated) == 1


def test_translation_memo_arrays_are_read_only(translation_calls):
    basis = BasisSpec(spaces.bidisc_space(0.0, 0.5, d=2), 4)
    grid = np.array([[0.3, 0.2j], [0.1, -0.4]], dtype=complex)
    for _ in range(2):   # a miss, then a hit
        points, U, modes = operators._translations(basis, grid)
        assert not any(a.flags.writeable for a in (points, U, modes))
        with pytest.raises(ValueError):
            U[0, 0, 0] = 0.0
    assert len(translation_calls) == 2 and grid.flags.writeable
    grid[0, 0] = 0.5                               # the memo holds a copy of the points
    assert points[0, 0] == 0.3
    assert operators._translations(basis, grid)[0][0, 0] == 0.5


# ---------------------------------------------------------------------------
# axiom suite

@pytest.mark.parametrize("space, n_modes, inner", [
    (spaces.disc_space(0.0, d=2), 32, True), (spaces.disc_space(1.5, d=3), 24, True),
    (spaces.fock_space(d=2), 24, True), (spaces.bidisc_space(0.0, 0.5, d=2), 12, True),
    (spaces.disc_space(0.0, d=2), 8, False),
], ids=["disc", "disc-1.5-d3", "fock", "bidisc", "disc-none-checked"])
def test_axiom_translation_checks_match_per_point_oracle(space, n_modes, inner):
    # the default grid, plus two inner points that certify modes on every space; without
    # them, the disc at n=8 certifies no mode at any point
    basis = BasisSpec(space, n_modes)
    top = spaces.probe_radius_max(space)
    grid = default_probe_grid(space) + [spaces.point(space, [r * np.exp(0.9j)] * space.nfactors)
                                        for r in (0.05 * top, 0.15 * top) if inner]
    checks = {c["name"]: c for c in axiom_checks(basis, build_rule(space), grid, seed=0)}
    worst_u, worst_i, checked = per_point_translation_residuals(basis, grid)
    assert (checked > 0) == inner
    for name, ref in (("translation_unitarity_certified", worst_u),
                      ("translation_involutivity_certified", worst_i)):
        assert checks[name]["points_checked"] == checked
        assert abs(checks[name]["value"] - ref) <= 1e-15
        assert (checks[name]["value"] > 0.0) == inner


def test_axiom_checks_refuse_an_inadmissible_grid_first(basis24):
    # 0.95 lies outside the disc's admissible region (r_max 0.9): the whole grid is refused
    # before any check runs, so the rule (None here) is never read
    with pytest.raises(ValueError, match="radius 0.9500 outside admissible region"):
        axiom_checks(basis24, None, [0.0, 0.95], seed=0)


# ---------------------------------------------------------------------------
# injectivity probe

def test_injectivity_full_rank_instances():
    cases = [
        (spaces.disc_space(0.0, d=1), 1, 2),
        (spaces.disc_space(0.0, d=2), 2, 2),
        (spaces.fock_space(d=1), 2, 3),
        (spaces.bidisc_space(0.0, 0.5, d=1), 1, 2),
    ]
    for sp, d, n in cases:
        rep = berezin_injectivity_probe(sp, d, n)
        assert rep.full_rank
        assert rep.rank == rep.n_parameters


def test_injectivity_gate_and_small_grid():
    with pytest.raises(ValueError):
        berezin_injectivity_probe(spaces.disc_space(0.0, d=4), 4, 3)
    with pytest.raises(ValueError):
        berezin_injectivity_probe(spaces.disc_space(0.0, d=1), 1, 3, grid=[0.1, 0.2])


def test_injectivity_detects_degenerate_grid():
    # all samples on one circle leave |z|^2 indistinguishable from a constant
    grid = [0.4 * np.exp(2j * np.pi * k / 7) for k in range(7)]
    rep = berezin_injectivity_probe(spaces.disc_space(0.0, d=1), 1, 2, grid=grid)
    assert not rep.full_rank
    assert rep.rank == rep.n_parameters - 1


# ---------------------------------------------------------------------------
# grids

def _written_radii(sp):
    """Each role's default radii as written, before the cut to the admissible radius."""
    top = spaces.probe_radius_max(sp)
    if sp.kind == spaces.KIND_FOCK:
        return {"grid": [0.8, 1.8], "shells": [f * top for f in (0.4, 0.6, 0.8, 1.0)],
                "berezin": np.linspace(0.15 * top, top, 6), "spiral": [2.0], "axiom": [0.8 * top]}
    bidisc = sp.kind == spaces.KIND_BIDISC
    reach = min(0.85 if bidisc else 0.9, top)
    shells = [f * min(0.8, top) for f in (0.5, 0.7, 0.85, 1.0)] if bidisc else [0.5, 0.65, 0.8, 0.9]
    return {"grid": [0.35, 0.6], "shells": shells, "berezin": np.linspace(0.15 * reach, reach, 6),
            "spiral": [0.7 * sp.r_max], "axiom": [0.8 * top]}


@pytest.mark.parametrize("sp", [spaces.disc_space(0.0, d=1, r_max=r) for r in (0.3, 0.5, 0.7, 0.85, 0.9)]
                         + [spaces.bidisc_space(0.0, 0.5, d=1, r_max=r) for r in (0.3, 0.5, 0.7, 0.85, 0.9)]
                         + [spaces.fock_space(d=1, fock_probe_radius=r) for r in (0.5, 0.8, 1.0, 3.0)],
                         ids=lambda sp: f"{sp.kind}-{spaces.probe_radius_max(sp)}")
def test_default_probe_sets_pass_the_gate_on_every_admissible_radius(sp):
    # every role's default radii rise strictly and pass the one gate however small r_max or
    # fock_probe_radius is: cut to the admissible radius top, or, where the cut would make two
    # equal, radius k of n at invariant distance (k/n) beta(top), the last at top itself
    top = spaces.probe_radius_max(sp)
    beta, radius = (lambda r: r, lambda b: b) if sp.kind == spaces.KIND_FOCK else (np.arctanh, np.tanh)
    for role, written in _written_radii(sp).items():
        radii, cut = probe_radii(sp, role), [min(r, top) for r in written]
        assert np.all(np.diff(radii) > 0) and radii[-1] <= top, role
        spaces.probe_points(sp, [spaces.point(sp, [r] * sp.nfactors) for r in radii])
        if len(set(cut)) == len(cut):
            assert radii == cut, role
        else:
            n = len(radii)
            np.testing.assert_allclose(radii[:-1], [radius(k / n * beta(top)) for k in range(1, n)],
                                       rtol=0, atol=1e-15, err_msg=role)
            assert radii[-1] == top, role
    # the default sets are built at those radii, and pass the gate as built
    grid = default_probe_grid(sp)
    assert [spaces.coords(sp, z)[0].real for z in grid[1::2]] == probe_radii(sp, "grid")
    shells = boundary_shells(sp)
    assert [spaces.coords(sp, shell[0])[0].real for shell in shells] == probe_radii(sp, "shells")
    for points in [grid, *shells, analysis._spiral_grid(sp, 9)]:
        assert np.max(spaces.point_radius(sp, spaces.probe_points(sp, points))) <= top
    prof = berezin_decay_profile(identity_operator(BasisSpec(sp, 4)))
    assert prof.radii.tolist() == probe_radii(sp, "berezin")
    np.testing.assert_allclose(prof.matrices, np.ones_like(prof.matrices), atol=1e-12)   # d = 1


def test_default_probe_radii_are_unchanged_where_admissible(disc2):
    # the cut leaves every default radius inside the admissible region as it was written
    third = np.exp(2j * np.pi / 3)
    cases = ((disc2, (0.35, 0.6), (0.5, 0.65, 0.8, 0.9), 0.9),
             (spaces.disc_space(0.0, d=2, r_max=0.85), (0.35, 0.6), (0.5, 0.65, 0.8, 0.85), 0.85),
             (spaces.fock_space(d=2), (0.8, 1.8), (0.4 * 3.0, 0.6 * 3.0, 0.8 * 3.0, 3.0), 3.0),
             (spaces.bidisc_space(0.0, 0.5, d=2), (0.35, 0.6),
              (0.5 * 0.8, 0.7 * 0.8, 0.85 * 0.8, 0.8), 0.85))
    for sp, rings, shells, top in cases:
        first = [spaces.coords(sp, z)[0] for z in default_probe_grid(sp)]
        assert np.array_equal(first, [0.0] + [r * a for r in rings for a in (1.0, third)])
        assert [spaces.coords(sp, shell[0])[0].real for shell in boundary_shells(sp)] == list(shells)
        prof = berezin_decay_profile(identity_operator(BasisSpec(sp, 2)))
        assert np.array_equal(prof.radii, np.linspace(0.15 * top, top, 6))
