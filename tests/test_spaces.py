"""Model-space primitives: kernels, involutions, metric, densities, tails."""

import dataclasses
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab import spaces
from berglab.coeffs import BasisSpec, kernel_coeff_vector
from berglab.config import config_from_dict
from berglab.quadrature import build_rule
from conftest import sample_points


def test_space_constructors_validate():
    with pytest.raises(ValueError):
        spaces.disc_space(-1.5)
    with pytest.raises(ValueError):
        spaces.SpaceSpec(kind="unknown")
    assert spaces.disc_space(0.0).nfactors == 1
    assert spaces.bidisc_space(0.0, 1.0).nfactors == 2


def test_kernel_frozen_values():
    d = spaces.disc_space(0.5, d=2)
    assert complex(spaces.kernel_eval(d, 0.3, 0.5j)) == pytest.approx(
        0.9059688534018252 + 0.35371284434639877j, abs=1e-14)
    assert float(spaces.kernel_norm(d, 0.6)) == pytest.approx(1.7469281074217107, abs=1e-14)
    assert float(spaces.metric(d, 0.2, 0.5)) == pytest.approx(0.34657359027997264, abs=1e-14)
    assert complex(spaces.involution(d, 0.3, 0.5j)) == pytest.approx(
        0.36674816625916873 - 0.44498777506112475j, abs=1e-14)

    f = spaces.fock_space(d=2)
    assert complex(spaces.kernel_eval(f, 1 + 0.5j, 0.8 - 0.2j)) == pytest.approx(
        1.6620218290961752 - 1.1370503095520792j, abs=1e-13)
    assert float(spaces.kernel_norm(f, 1.2)) == pytest.approx(2.0544332106438876, abs=1e-14)
    assert float(spaces.metric(f, 1.0, 0.25j)) == pytest.approx(abs(1.0 - 0.25j), abs=1e-14)

    b = spaces.bidisc_space(0.0, 1.0, d=2)
    z = np.array([0.3, 0.2j])
    w = np.array([0.1 + 0.1j, -0.4])
    assert complex(spaces.kernel_eval(b, z, w)) == pytest.approx(
        1.0042993733326167 + 0.31212583900934504j, abs=1e-13)
    assert float(spaces.metric(b, z, w)) == pytest.approx(0.47943292608546034, abs=1e-14)


def test_kernel_at_origin_is_one(all_spaces):
    for sp in all_spaces:
        origin = spaces.point(sp, [0.0] * sp.nfactors)
        pts = sample_points(sp, 20, seed=1)
        assert np.allclose(spaces.kernel_eval(sp, origin, pts), 1.0)
        assert float(spaces.kernel_norm(sp, origin)) == pytest.approx(1.0)


def test_kernel_hermitian_symmetry(all_spaces):
    for sp in all_spaces:
        z = sample_points(sp, 15, seed=2)
        w = sample_points(sp, 15, seed=3)
        assert np.allclose(spaces.kernel_eval(sp, z, w),
                           np.conj(spaces.kernel_eval(sp, w, z)), atol=1e-12)


def test_norm_squares_match_diagonal(all_spaces):
    for sp in all_spaces:
        z = sample_points(sp, 15, seed=4)
        diag = spaces.kernel_eval(sp, z, z)
        assert np.allclose(np.real(diag), spaces.kernel_norm(sp, z) ** 2, rtol=1e-12)
        assert np.allclose(np.imag(diag), 0.0, atol=1e-12)


def test_involution_swaps_origin_and_base(all_spaces):
    for sp in all_spaces:
        z = sample_points(sp, 10, seed=5)
        origin = np.zeros_like(z)
        assert np.allclose(spaces.involution(sp, z, origin), z, atol=1e-13)
        assert np.allclose(spaces.involution(sp, z, z), 0.0, atol=1e-13)


def test_involution_is_an_involution(all_spaces):
    for sp in all_spaces:
        z = sample_points(sp, 25, seed=6)
        w = sample_points(sp, 25, seed=7)
        back = spaces.involution(sp, z, spaces.involution(sp, z, w))
        assert np.allclose(back, w, atol=1e-12)


def test_metric_axioms(all_spaces):
    for sp in all_spaces:
        z = sample_points(sp, 20, seed=8)
        w = sample_points(sp, 20, seed=9)
        u = sample_points(sp, 20, seed=10)
        dzw = spaces.metric(sp, z, w)
        assert np.all(dzw >= 0)
        assert np.allclose(spaces.metric(sp, z, z), 0.0, atol=1e-13)
        assert np.allclose(dzw, spaces.metric(sp, w, z), atol=1e-13)
        assert np.all(dzw <= spaces.metric(sp, z, u) + spaces.metric(sp, u, w) + 1e-10)


def test_metric_invariant_under_involutions(all_spaces):
    for sp in all_spaces:
        a = sample_points(sp, 20, seed=11, scale=0.6)
        z = sample_points(sp, 20, seed=12)
        w = sample_points(sp, 20, seed=13)
        moved = spaces.metric(sp, spaces.involution(sp, a, z), spaces.involution(sp, a, w))
        assert np.allclose(moved, spaces.metric(sp, z, w), atol=1e-10)


def test_normalized_pairing_bounded_and_exact_identity(all_spaces):
    for sp in all_spaces:
        z = sample_points(sp, 30, seed=14)
        w = sample_points(sp, 30, seed=15)
        pairing = spaces.normalized_pairing(sp, z, w)
        assert np.all(pairing <= 1.0 + 1e-12)
        # |<k_z, k_w>| * ||K_{phi_z(w)}|| = 1 for the strong model spaces
        ident = pairing * spaces.kernel_norm(sp, spaces.involution(sp, z, w))
        assert np.allclose(ident, 1.0, atol=1e-10)


def test_pairing_decays_along_separating_shells(disc, fock):
    w = 0.3 * np.exp(0.7j)
    vals = [float(spaces.normalized_pairing(disc, s * np.exp(1.7j), w))
            for s in (0.5, 0.65, 0.8, 0.9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    vals = [float(spaces.normalized_pairing(fock, s * np.exp(1.7j), 0.5))
            for s in (0.8, 1.4, 2.0, 2.6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_kernel_tail_matches_series(disc, fock):
    from scipy.special import betainc, gammainc, gammaln
    # brute-force partial sums of sum_{m >= n} |e_m(z)|^2
    z = 0.55
    for sp in (disc, fock):
        for n in (8, 16):
            if sp.kind == "bergman_disc":
                terms = np.array([(m + 1) * abs(z) ** (2 * m) for m in range(800)])
            else:
                m = np.arange(400)
                terms = np.exp(2 * m * np.log(abs(z)) - gammaln(m + 1))
            tail = spaces.kernel_norm(sp, z) ** 2 * spaces.relative_kernel_tail(sp, z, n)
            assert float(tail) == pytest.approx(
                terms[n:].sum(), rel=1e-9, abs=1e-15)
            assert float(spaces.relative_kernel_tail(sp, z, n)) == pytest.approx(
                terms[n:].sum() / terms.sum(), rel=1e-9, abs=1e-15)
    # scipy's regularized incomplete beta and gamma functions: the relative tail at
    # t = |z|^2 is I_t(n, 2 + alpha) on the disc and P(n, t) on the Fock space
    r_disc = np.sqrt(np.concatenate([np.linspace(0.0, 0.98, 99), 1.0 - np.logspace(-6, -2, 41)]))
    r_fock = np.sqrt(np.linspace(0.0, 16.0, 161))
    cases = [(spaces.disc_space(alpha, d=1), r_disc, lambda n, t, a=alpha: betainc(n, 2 + a, t))
             for alpha in (-0.5, 0.0, 1.5, 3.0)] + [(fock, r_fock, gammainc)]
    for sp, r, oracle in cases:
        for n in (1, 2, 8, 24, 64, 128):
            q, want = spaces.relative_kernel_tail(sp, r, n), oracle(n, r ** 2)
            assert np.all(np.isfinite(q))
            big = want > 1e-300
            assert np.all(np.abs(q[big] - want[big]) <= 1e-12 * want[big]), (sp, n)
    start = time.perf_counter()
    spaces.relative_kernel_tail(disc, 0.99999, 128)
    assert time.perf_counter() - start < 0.1


def test_probe_gate_rejects_far_points(disc, fock, bidisc):
    spaces.probe_points(disc, 0.85)
    with pytest.raises(ValueError):
        spaces.probe_points(disc, 0.95)
    spaces.probe_points(fock, 2.9)
    with pytest.raises(ValueError):
        spaces.probe_points(fock, 3.5)
    with pytest.raises(ValueError):
        spaces.probe_points(bidisc, np.array([0.5, 0.95]))


def test_probe_gate_admits_a_single_point_and_refuses_an_empty_input(disc, bidisc):
    # one gate for grids and single points: a scalar passes as itself, an empty input is
    # refused by name, as are points out of reach, by their radius
    for z in (0.3, 0.3 + 0.1j, np.complex128(-0.2j)):
        got = spaces.probe_points(disc, z)
        assert got.shape == () and got == complex(z)
    assert spaces.probe_points(bidisc, np.array([0.5, 0.2j])).shape == (2,)
    for sp, empty in ((disc, []), (disc, np.zeros(0)), (bidisc, np.zeros((0, 2)))):
        with pytest.raises(ValueError, match="the probe grid z_grid is empty"):
            spaces.probe_points(sp, empty)
    with pytest.raises(ValueError, match="radius 0.9500 outside admissible region"):
        spaces.probe_points(disc, [0.1, 0.95j])
    basis = BasisSpec(disc, 8)
    with pytest.raises(ValueError, match="the probe grid z is empty"):
        kernel_coeff_vector(basis, np.zeros(0, dtype=complex))
    with pytest.raises(ValueError, match="radius 0.9500 outside admissible region"):
        kernel_coeff_vector(basis, 0.95)
    assert np.array_equal(kernel_coeff_vector(basis, 0.3),
                          kernel_coeff_vector(basis, np.array([0.3]))[:, 0])


def test_space_dict_round_trip(all_spaces):
    for sp in all_spaces:
        echo = config_from_dict({"space": dataclasses.asdict(sp)}).echo()["space"]
        assert config_from_dict({"space": echo}).space == sp
        assert echo == dataclasses.asdict(sp)


def _outermost_ring_pairs():
    """Ordered pairs of distinct nodes on the outermost ring of the default disc rule."""
    nodes = build_rule(spaces.disc_space(0.0)).nodes
    ring = nodes[np.argsort(np.abs(nodes))[-64:]]
    i, j = np.nonzero(~np.eye(ring.size, dtype=bool))
    return ring[i], ring[j]


def test_disc_metric_matches_mpmath_on_the_outermost_ring():
    z, w = _outermost_ring_pairs()
    got = spaces.metric(spaces.disc_space(0.0), z, w)
    with mpmath.workdps(40):
        want = [float(mpmath.atanh(abs((a - b) / (1 - mpmath.conj(a) * b))))
                for a, b in zip(map(mpmath.mpc, z), map(mpmath.mpc, w))]
    assert np.abs(got - want).max() <= 1e-12


def test_disc_metric_is_symmetric():
    z, w = _outermost_ring_pairs()
    sp = spaces.disc_space(1.5)
    assert np.array_equal(spaces.metric(sp, z, w), spaces.metric(sp, w, z))
    z, w = sample_points(sp, 500, seed=3), sample_points(sp, 500, seed=4)
    assert np.array_equal(spaces.metric(sp, z, w), spaces.metric(sp, w, z))
    assert np.all(spaces.metric(sp, z, z) == 0.0)


@settings(deadline=None, max_examples=30)
@given(st.floats(-0.75, 0.75), st.floats(-0.75, 0.75),
       st.floats(-0.75, 0.75), st.floats(-0.75, 0.75))
def test_disc_involution_property(zr, zi, wr, wi):
    sp = spaces.disc_space(0.0)
    z, w = complex(zr, zi), complex(wr, wi)
    if abs(z) >= 0.95 or abs(w) >= 0.95:
        return
    back = spaces.involution(sp, z, spaces.involution(sp, z, w))
    assert abs(back - w) < 1e-11


@settings(deadline=None, max_examples=30)
@given(st.floats(-1.8, 1.8), st.floats(-1.8, 1.8),
       st.floats(-1.8, 1.8), st.floats(-1.8, 1.8))
def test_fock_metric_invariance_property(zr, zi, wr, wi):
    sp = spaces.fock_space()
    z, w = complex(zr, zi), complex(wr, wi)
    a = 0.5 - 0.25j
    moved = spaces.metric(sp, spaces.involution(sp, a, z), spaces.involution(sp, a, w))
    assert abs(float(moved) - float(spaces.metric(sp, z, w))) < 1e-11
