from dataclasses import dataclass

import numpy as np
import pytest

from berglab import spaces
from berglab.analysis import _lp_norm, _probe_grid
from berglab.coeffs import (BasisSpec, CoeffFunction, _factor_log_normalizers, basis_normalizer,
                            eval_coeffs, factor_samples, kernel_coeff_vector, scalar_basis_matrix)
from berglab.covering import _localization_plan
from berglab.operators import (OperatorMatrix, PointMassMeasure, poly_symbol,
                               translation_certificate, translation_matrix)
from berglab.quadrature import build_rule


@pytest.fixture(scope="session")
def disc():
    return spaces.disc_space(0.0, d=2)


@pytest.fixture(scope="session")
def disc_weighted():
    return spaces.disc_space(1.5, d=2)


@pytest.fixture(scope="session")
def fock():
    return spaces.fock_space(d=2)


@pytest.fixture(scope="session")
def bidisc():
    return spaces.bidisc_space(0.0, 0.5, d=2)


@pytest.fixture(scope="session")
def all_spaces(disc, disc_weighted, fock, bidisc):
    return [disc, disc_weighted, fock, bidisc]


@pytest.fixture(scope="session")
def disc_rule(disc):
    return build_rule(disc)


@pytest.fixture(scope="session")
def fock_rule(fock):
    return build_rule(fock)


@pytest.fixture(scope="session")
def bidisc_rule(bidisc):
    return build_rule(bidisc)


@pytest.fixture(scope="session")
def disc_basis(disc):
    return BasisSpec(disc, 16)


@pytest.fixture(scope="session")
def fock_basis(fock):
    return BasisSpec(fock, 16)


@pytest.fixture(scope="session")
def bidisc_basis(bidisc):
    return BasisSpec(bidisc, 6)


def metric_ball_euclidean(space, center, rho):
    """Euclidean center/radius of the invariant-metric ball (single factor): the oracle for
    the metric balls that ball symbols are kept as."""
    if space.kind == spaces.KIND_FOCK:
        return complex(center), float(rho)
    if space.kind == spaces.KIND_DISC:
        s = np.tanh(rho)
        a = complex(center)
        denom = 1.0 - s**2 * abs(a) ** 2
        return a * (1.0 - s**2) / denom, s * (1.0 - abs(a) ** 2) / denom
    raise ValueError("per-factor geometry only")


def euclidean_ball(space, center, radius, ball_metric):
    """Euclidean center/radius of a ball given in the "euclidean" or "invariant" metric."""
    if ball_metric not in ("euclidean", "invariant"):
        raise ValueError(f"unknown ball metric {ball_metric!r}")
    if ball_metric == "invariant":
        return metric_ball_euclidean(space, center, radius)
    return center, radius


def rule_for(space):
    return build_rule(space)


def sample_points(space, n, seed=0, scale=0.8):
    """Deterministic scatter of admissible points for a space."""
    rng = np.random.default_rng(seed)
    lim = scale * spaces.probe_radius_max(space)

    def draw():
        return lim * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))

    return spaces.point(space, [draw() for _ in space.factors])


def enlargement(covering):
    """(n_cells, n_nodes) bool membership of the cell enlargements: each row is the AND
    of the cell's factor enlargements, lifted to the nodes of the tensor mesh."""
    shape = [m.shape[1] for m in covering.factor_enlargement]
    at = np.unravel_index(np.arange(covering.rule.n_nodes), shape)   # each node's factor nodes
    lifted = [m[:, i] for m, i in zip(covering.factor_enlargement, at)]
    member = np.empty((covering.n_cells, covering.rule.n_nodes), dtype=bool)
    for j, pick in enumerate(covering.pick.tolist()):
        member[j] = np.logical_and.reduce([m[a] for m, a in zip(lifted, pick)])
    return member


def fft_disc_translation(space, n_modes, z):
    """Oracle for the disc translation: Taylor coefficients of U_z e_k from one FFT.

    U_z e_k = c_k phi_z^k k_z is analytic on |w| < 1/|z|, so the trapezoidal
    rule at M equispaced points of the circle |w| = rho converges
    exponentially (it aliases only coefficients m >= M, damped by rho^M).  M
    covers the modal spread of phi_z, a bound growing like (1+r)/(1-r), with a
    factor-two margin, capped at 2048.  The circle is rho = 10^(-1/n_modes),
    not the unit circle, where |phi_z^k| = 1 right at the peak of k_z and the
    rounding of those samples costs digits; dividing row m by rho^m costs at
    most a factor 10.
    """
    r = abs(z)
    spread = int(np.ceil((n_modes + 3) * (1.0 + r) / max(1.0 - r, 1e-3))) + 16
    M = int(min(2048, 2 ** np.ceil(np.log2(2 * (spread + n_modes) + 8))))
    rho = 10.0 ** (-1.0 / n_modes)
    w = rho * np.exp(2j * np.pi * np.arange(M) / M)
    modes = np.arange(n_modes)
    samples = spaces.involution(space, z, w) ** modes[:, None] \
        * spaces.normalized_kernel_eval(space, z, w)
    taylor = np.fft.fft(samples, axis=1)[:, :n_modes].T / (M * rho ** modes[:, None])
    c = np.exp(_factor_log_normalizers(space, n_modes))
    return taylor * c[None, :] / c[:, None]


def per_point_essential_profile(T, boundary_grid, seed):
    """Oracle for essential_norm_estimate's lower profile: one point at a time, with
    the dense U_z (x) I_d of translation_matrix and two dense products per point."""
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((T.dim, 8)) + 1j * rng.standard_normal((T.dim, 8))
    R = R / np.linalg.norm(R, axis=0, keepdims=True)
    profile = []
    for shell in boundary_grid:
        best = 0.0
        for z in shell:
            U = translation_matrix(T.basis, z).mat
            Tz = U @ T.mat @ U.conj().T
            best = max(best, float(np.linalg.norm(Tz, axis=0).max()),
                       float(np.linalg.norm(Tz @ R, axis=0).max()))
        profile.append(best)
    return np.array(profile)


def certified_projector(basis, cert):
    """Orthogonal projection onto the certified scalar-mode prefix (all components)."""
    prefix = (np.arange(basis.n_modes) < cert.certified_modes).astype(float)
    mask = spaces.kron([prefix] * basis.space.nfactors)
    return OperatorMatrix(basis, np.kron(np.diag(mask), np.eye(basis.space.d)))


def per_point_translation_residuals(basis, z_grid):
    """Oracle for the translation entries of axiom_checks: one non-origin point at a time,
    the dense U_z (x) I_d of translation_matrix on the projector of its own certificate.
    Returns the worst unitarity and involutivity residuals and the points checked."""
    space = basis.space
    origin = spaces.point(space, [0.0] * space.nfactors)
    I = np.eye(basis.dim)
    worst_u, worst_i, checked = 0.0, 0.0, 0
    for z in z_grid:
        cert = translation_certificate(basis, z)
        if spaces.metric(space, origin, z) == 0 or cert.certified_modes == 0:
            continue
        checked += 1
        U = translation_matrix(basis, z).mat
        P = certified_projector(basis, cert).mat
        worst_u = max(worst_u, np.linalg.norm(P @ (U.conj().T @ U - I) @ P, 2))
        worst_i = max(worst_i, np.linalg.norm(P @ (U @ U - I) @ P, 2))
    return worst_u, worst_i, checked


def sup_norm(symbol, rule):
    """Largest operator 2-norm of a matrix symbol's values at the rule's nodes."""
    vals = symbol.eval(rule.nodes)
    return float(np.max(np.linalg.norm(vals, 2, axis=(1, 2))))


def per_cell_localization_error(T, covering):
    """Oracle for localization_error: the same factor blocks applied one cell at a time,
    each cell's residual Gram added on its own in complex arithmetic."""
    n, d, dim = T.basis.n_scalar, T.basis.space.d, T.dim
    factors, _ = _localization_plan(covering, T.basis)

    def blocks(pick):                # each factor cell's (G, R), from the stack of its row count
        return zip(*((s[q[a]][0][pos[a]], s[q[a]][1][pos[a]]) for (s, q, pos), a in zip(factors, pick)))

    def kron_rows(mats, Y):          # kron(*mats) @ Y, one factor axis at a time
        c = Y.shape[1]
        for A in mats:
            Y = (A @ Y.reshape(A.shape[1], -1)).reshape(A.shape[0], -1, c).transpose(1, 0, 2)
        return Y.reshape(-1, c)

    def kron_cols(X, mats):          # X @ kron(*mats), one factor axis at a time
        rows = X.shape[0]
        for G in reversed(mats):
            X = (X.reshape(-1, G.shape[0]) @ G).reshape(rows, -1, G.shape[1]).transpose(0, 2, 1)
        return X.reshape(rows, -1)

    Tp = T.mat.reshape(n, d, n, d).transpose(0, 1, 3, 2).reshape(n, d * dim)
    M = np.zeros((dim, dim), dtype=complex)
    for pick in covering.pick:
        G, R = blocks(pick)
        X = kron_rows(R, Tp).reshape(-1, n)
        res = (X - kron_cols(X, G)).reshape(-1, dim)
        M += res.conj().T @ res
    return float(np.sqrt(max(np.linalg.eigvalsh(M)[-1], 0.0)))


def moment_disc_grams(rule, member, n, order):
    """Oracle for covering._disc_grams: c_m c_k H_a[m + k] A_a[k - m] for the cells a in `order`,
    from ring moments H_a[p] = sum of w rho^p (w a ring node's weight) and angle sums
    A_a[q] = sum of e^(iq theta) = conj(A_a[-q])."""
    na = rule.angular_order
    on = member.reshape(len(member), rule.radial_order, na)
    p = np.arange(2 * n - 1)
    H = on.any(axis=2)[order] @ (rule.sigma_weights[::na, None] * rule.nodes[::na, None].real ** p)
    A = on.any(axis=1)[order] @ np.exp(2j * np.pi * (np.outer(np.arange(na), p[:n]) % na) / na)
    A = np.concatenate([A[:, :0:-1].conj(), A], axis=1)       # q = 1 - n .. n - 1
    c, mode = np.exp(_factor_log_normalizers(rule.space, n)), np.arange(n)
    plus, minus = mode[:, None] + mode, mode - mode[:, None] + n - 1    # m + k and k - m + n - 1
    return np.outer(c, c) * H.take(plus, axis=1) * A.take(minus, axis=1)


def rule_kernel_power_integrals(space, rule, z_grid, r, s):
    """Oracle for rudin_forelli: I(z) and J(z) summed over the rule's nodes against lambda,
    one probe point at a time, as arrays (I, J)."""
    lam = rule.lambda_weights
    nw_log = np.log(spaces.kernel_norm(space, rule.nodes))
    I, J = [], []
    with np.errstate(under="ignore"):
        for z in z_grid:
            pair_log = np.log(np.abs(spaces.kernel_eval(space, z, rule.nodes)))
            nz_log = np.log(spaces.kernel_norm(space, z))
            I.append(np.sum(lam * np.exp((r + s) / 2.0 * pair_log - s * nz_log - r * nw_log)))
            J.append(np.sum(lam * np.exp((r - s) / 2.0 * pair_log - r * nw_log)))
    return np.array(I), np.array(J)


def dense_rule_inner(basis, rule, samples):
    """Oracle for rule sums: sum_u conj(e_m(u)) w_u samples[u, ...] over the rule's nodes, with
    the basis matrix on all of them (on a product rule, its product nodes)."""
    E = scalar_basis_matrix(basis, rule.nodes)
    return (E.conj() * rule.sigma_weights[None, :]) @ samples


def dense_rule_gram(basis, rule):
    """Oracle for rule_gram: the Gram <e_n, e_m> of the basis summed over every rule node."""
    return dense_rule_inner(basis, rule, scalar_basis_matrix(basis, rule.nodes).T)


def kron_rule_gram(basis, rule):
    """Oracle for the unit-weight rule_gram: the Kronecker product of the factor Grams
    sum_u conj(e_m(u)) w_u e_n(u), as a product rule is the tensor mesh of its factors."""
    return spaces.kron([(E.conj() * fr.sigma_weights) @ E.T
                        for E, fr in zip(factor_samples(basis, rule), rule.factors)])


def stepwise_rule_gram(basis, rule, W):
    """Oracle for rule_gram on a weight stack: every factor as its first step, (conj(E) w) * X @ E.T
    batched over the other axes, which on the bidisc holds an (e, N, N, N, n_1) product."""
    X = np.asarray(W).reshape((-1,) + tuple(fr.n_nodes for fr in rule.factors))
    for j, (E, fr) in enumerate(zip(factor_samples(basis, rule)[::-1], rule.factors[::-1]), 1):
        X = np.moveaxis((E.conj() * fr.sigma_weights * X[..., None, :]) @ E.T, (-2, -1), (1, 1 + j))
    return X.reshape(np.shape(W)[:-1] + (basis.n_scalar,) * 2)


def broadcast_last_rule_gram(basis, rule, W):
    """Oracle for rule_gram on a product rule: the last factor as (conj(E) w) * X @ E.T, batched
    over the other axes, which holds an (e, n_1, N, n_2) product, and each earlier factor in one
    GEMM against its pair products conj(E[m, u]) w_u E[k, u]."""
    X = np.asarray(W).reshape((-1,) + tuple(fr.n_nodes for fr in rule.factors))
    for j, (E, fr) in enumerate(zip(factor_samples(basis, rule)[::-1], rule.factors[::-1]), 1):
        if j == 1:
            X = (E.conj() * fr.sigma_weights * X[..., None, :]) @ E.T
        else:
            pairs = (E.conj()[:, None] * fr.sigma_weights * E).reshape(-1, fr.n_nodes)
            X = (X.reshape(-1, fr.n_nodes) @ pairs.T).reshape(X.shape[:-1] + (len(E),) * 2)
        X = np.moveaxis(X, (-2, -1), (1, 1 + j))
    return X.reshape(np.shape(W)[:-1] + (basis.n_scalar,) * 2)


def loop_smooth_toeplitz(basis, rule, smooth):
    """Oracle for a smooth part's Toeplitz matrix: the basis matrix on every rule node (on a
    product rule, its product nodes) and one GEMM per (i, k) entry not identically zero."""
    d, n = basis.space.d, basis.n_scalar
    T4 = np.zeros((n, d, n, d), dtype=complex)
    vals = smooth(rule.nodes)
    E = scalar_basis_matrix(basis, rule.nodes)
    Ew = E.conj() * rule.sigma_weights[None, :]
    for i in range(d):
        for k in range(d):
            if np.any(vals[:, i, k]):
                T4[:, i, :, k] += (Ew * vals[None, :, i, k]) @ E.T
    return T4.reshape(basis.dim, basis.dim)


def project_grid_function(basis, rule, samples):
    """Orthogonal projection of grid samples onto the truncated analytic space.

    samples: (n_nodes, d), or (n_nodes,) scalar samples, which land in component 0.
    """
    s = np.asarray(samples, dtype=complex)
    if s.ndim == 1:
        s = np.pad(s[:, None], ((0, 0), (0, basis.space.d - 1)))
    if s.shape != (rule.n_nodes, basis.space.d):
        raise ValueError("samples must be (n_nodes,) or (n_nodes, d)")
    return CoeffFunction(basis, dense_rule_inner(basis, rule, s))


@dataclass
class HankelResult:
    residual_samples: np.ndarray  # (n_nodes, d)
    norm: float
    projected: CoeffFunction


def hankel_apply(basis, rule, symbol, f):
    """H_F f = (I - P)(F f), realized on the quadrature grid.

    Ball parts are sampled pointwise here, so indicator symbols carry the
    grid's discontinuity error; polynomial symbols are clean.
    """
    fvals = eval_coeffs(f, rule.nodes)                      # (n, d)
    Fvals = symbol.eval(rule.nodes)                         # (n, d, d)
    prod = np.einsum("nik,nk->ni", Fvals, fvals)
    proj = project_grid_function(basis, rule, prod)
    resid = prod - eval_coeffs(proj, rule.nodes)
    nrm = float(np.sqrt(np.real(np.sum(rule.sigma_weights[:, None] * np.abs(resid) ** 2))))
    return HankelResult(resid, nrm, proj)


def per_point_rkt(basis, rule, T, p=4.0, z_grid=None):
    """Oracle for rkt_boundedness_check's values (adjoint side, direct side): one point at a
    time, the dense U_z (x) I_d of translation_matrix and the basis matrix on every rule node."""
    d = basis.space.d
    z_grid = _probe_grid(basis.space, p, z_grid)
    E = scalar_basis_matrix(basis, rule.nodes)
    vals = {"adjoint": [], "direct": []}
    for z in z_grid:
        v = kernel_coeff_vector(basis, z)
        X = np.einsum("m,ik->mik", v, np.eye(d)).reshape(basis.dim, d)  # columns k_z e_i
        U = translation_matrix(basis, z)
        for side, A in (("adjoint", T.adjoint()), ("direct", T)):
            C = (U.mat @ (A.mat @ X)).reshape(basis.n_scalar, d, d)   # (mode, component, i)
            S = np.einsum("mu,mki->uki", E, C)                        # (node, component, i)
            vals[side].append(_lp_norm(rule, np.sum(np.abs(S), axis=1), p))
    return np.array(vals["adjoint"]), np.array(vals["direct"])


def per_point_symbol_check(rule, F, p, z_grid):
    """Oracle for rkt_toeplitz_symbol_check's values (row side, column side): one point at a
    time, the symbol sampled on that point's pulled-back nodes."""
    rows, cols = [], []
    for z in z_grid:
        moved = spaces.involution(F.space, z, rule.nodes)
        entry_norms = _lp_norm(rule, F.eval(moved), p)   # (d, d)
        rows.append(entry_norms.sum(axis=1))              # over k for each i
        cols.append(entry_norms.sum(axis=0))              # over i for each k
    return np.array(rows), np.array(cols)


def per_point_product_check(rule, F, G, p, z_grid):
    """Oracle for rkt_product_check's values (first side, second side): one point at a time."""
    first, second = [], []
    for z in z_grid:
        moved = spaces.involution(F.space, z, rule.nodes)
        for out, A, B in ((first, F, G), (second, G, F)):
            S = np.einsum("uij,kj->uki", A.eval(moved), np.conj(B.eval(z)[0]))
            out.append(_lp_norm(rule, S, p).sum(axis=1))  # over i, per k
    return np.array(first), np.array(second)


def per_point_hankel_check(rule, F, p, z_grid):
    """Oracle for hankel_rkt_check's values: one point at a time."""
    out = []
    for z in z_grid:
        delta = F.eval(z)[0][None, :, :] - F.eval(spaces.involution(F.space, z, rule.nodes))
        out.append(_lp_norm(rule, np.sum(np.abs(delta), axis=2), p))
    return np.array(out)


def compile_poly(space, entries):
    """Oracle for MatrixSymbol.eval of a polynomial symbol: the entries dict summed entry by
    entry, term by term in dict order, into a function of points."""
    d = space.d

    def smooth(pts: np.ndarray) -> np.ndarray:
        p = [c.reshape(-1) for c in spaces.coords(space, pts)]
        out = np.zeros((p[0].size, d, d), dtype=complex)
        for (i, k), terms in entries.items():
            acc = np.zeros(p[0].size, dtype=complex)
            for powers, c in terms.items():
                term = c
                for pj, a, b in zip(p, powers[::2], powers[1::2]):   # (a, b) per factor
                    term = term * pj ** a * np.conj(pj) ** b
                acc += term
            out[:, i, k] = acc
        return out

    return smooth


def dense_poly_toeplitz(basis, symbol):
    """Oracle for the polynomial branch of toeplitz_matrix: each monomial term as the dense
    Kronecker product of dense factor blocks, added to all of its (i, k) block."""
    n, d, N = basis.n_scalar, basis.space.d, basis.n_modes

    def factor_block(space1, a, b):   # <z^a conj(z)^b e_n, e_m> = c_n c_m / c_{n+a}^2 at m = n + a - b
        logc = _factor_log_normalizers(space1, N + a)
        cols = np.arange(max(0, b - a), min(N, N + b - a))
        rows = cols + a - b
        out = np.zeros((N, N))
        out[rows, cols] = np.exp(logc[cols] + logc[rows] - 2.0 * logc[cols + a])
        return out

    T4 = np.zeros((n, d, n, d), dtype=complex)
    for (i, k, *powers), c in zip(symbol.poly.rows.tolist(), symbol.poly.coef):
        T4[:, i, :, k] += c * spaces.kron([factor_block(f, a, b) for f, a, b in zip(
            basis.space.factors, powers[::2], powers[1::2])])
    return T4.reshape(basis.dim, basis.dim)


def einsum_measure_toeplitz(basis, measure):
    """Oracle for toeplitz_measure_matrix: sum_a conj(e_m'(p_a)) M_a e_m(p_a) as one 4-index einsum."""
    E = scalar_basis_matrix(basis, measure.points)  # (n_scalar, n_atoms)
    return np.einsum("aj,jik,bj->aibk", E.conj(), measure.matrices, E).reshape(basis.dim, basis.dim)


def _analytic_component_entry(basis, scalar_coeffs, conjugate):
    """Monomial power dict for an analytic polynomial given by basis coefficients."""
    c = basis_normalizer(basis)
    nz = np.flatnonzero(scalar_coeffs)
    modes = zip(*np.unravel_index(nz, (basis.n_modes,) * basis.space.nfactors))
    mono = scalar_coeffs[nz] * c[nz]
    return {sum(((0, int(m)) if conjugate else (int(m), 0) for m in ms), ()): v   # ms: mode per factor
            for v, ms in zip(np.conj(mono) if conjugate else mono, modes)}


def dense_rank_one_toeplitz_sum(basis, f, g):
    """Oracle for rank_one_toeplitz_sum: d + d^2 Toeplitz assemblies, each of one (i, i) entry,
    d einsum point masses and the dense product
    T[f_i E_ii] T[delta_0 E_ii / ||K_0||] T[conj(g_k) E_ii] (I (x) E_ik) for every component pair (i, k)."""
    space, d = basis.space, basis.space.d
    origin = spaces.point(space, [np.zeros(1)] * space.nfactors)
    k0 = float(spaces.kernel_norm(space, origin)[0])

    def entry_toeplitz(i, h, conjugate):
        return dense_poly_toeplitz(basis, poly_symbol(
            space, {(i, i): _analytic_component_entry(basis, h, conjugate)}))

    total = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i in range(d):
        Eii = np.zeros((d, d))
        Eii[i, i] = 1.0
        T_fi = entry_toeplitz(i, f.coeffs[:, i], False)
        T_delta = einsum_measure_toeplitz(basis, PointMassMeasure(origin, Eii[None, :, :] / k0))
        for k in range(d):
            Eik = np.zeros((d, d))
            Eik[i, k] = 1.0
            total += T_fi @ T_delta @ entry_toeplitz(i, g.coeffs[:, k], True) \
                @ np.kron(np.eye(basis.n_scalar), Eik)
    return total
