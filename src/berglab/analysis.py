"""Diagnostic functionals on assembled operators.

The axiom suite checks the identities of the model spaces; boundedness
integrals probe sup_z of kernel-displaced L^p(sigma) quantities; the Berezin
transform and conjugated-operator shells diagnose compactness at truncation.
Every probe point passes one gate, `spaces.probe_points` (non-empty, inside the
admissible region), and every default probe radius comes from `probe_radii`; a grid's
U_z stack comes from the one fold of factor blocks, `operators._translations`, and the
symbol checks sample all its pulled-back nodes at once.  All randomness is seeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import spaces
from .coeffs import BasisSpec, kernel_coeff_vector, rule_gram, rule_samples
from .operators import OperatorMatrix, _conjugate_blocks, _translations
from .quadrature import QuadratureRule, integrate_lambda, integrate_sigma
from .spaces import KIND_BIDISC, KIND_FOCK, SpaceSpec


# ---------------------------------------------------------------------------
# probe grids

def probe_radii(space: SpaceSpec, role: str) -> List[float]:
    """The increasing default radii of a probe role ("grid", "shells", "berezin", "spiral" or
    "axiom"), each cut to top = `spaces.probe_radius_max`; where the cut makes two equal, radius
    k of n sits instead at invariant distance (k/n) beta(top), beta = arctanh r on disc factors
    and r on the plane, and the last at top itself."""
    top = spaces.probe_radius_max(space)
    fock, bidisc = space.kind == KIND_FOCK, space.kind == KIND_BIDISC
    reach = min(top if fock else 0.85 if bidisc else 0.9, top)     # of the Berezin radii
    written = np.linspace(0.15 * reach, reach, 6) if role == "berezin" else {
        "grid": (0.8, 1.8) if fock else (0.35, 0.6),
        "shells": ([f * top for f in (0.4, 0.6, 0.8, 1.0)] if fock else
                   [f * min(0.8, top) for f in (0.5, 0.7, 0.85, 1.0)] if bidisc else
                   (0.5, 0.65, 0.8, 0.9)),
        "spiral": [2.0 if fock else 0.7 * space.r_max], "axiom": [0.8 * top]}[role]
    radii = [float(min(r, top)) for r in written]
    if len(set(radii)) < len(radii):
        n = len(radii)
        beta, radius = (float, float) if fock else (np.arctanh, np.tanh)   # beta = r on the plane
        radii = [float(radius(k / n * beta(top))) for k in range(1, n)] + [top]
    return radii


def default_probe_grid(space: SpaceSpec) -> List:
    """The origin and two rings at `probe_radii(space, "grid")`, on the diagonal of products."""
    ang = [1.0 + 0.0j, np.exp(2j * np.pi / 3)]
    grid: List = [0.0 + 0.0j]
    for r in probe_radii(space, "grid"):
        grid.extend(r * a for a in ang)
    return [spaces.point(space, [z] * space.nfactors) for z in grid]


def boundary_shells(space: SpaceSpec, radii: Optional[Sequence[float]] = None) -> List[List]:
    """Shells of three z values each, of increasing invariant distance from the origin
    (diagonal on products), by default at `probe_radii(space, "shells")`."""
    if radii is None:
        radii = probe_radii(space, "shells")
    angles = np.exp(2j * np.pi * np.arange(3) / 3)
    return [[spaces.point(space, [r * a] * space.nfactors) for a in angles] for r in radii]


# ---------------------------------------------------------------------------
# axiom suite

def axiom_checks(basis: BasisSpec, rule: QuadratureRule, z_grid: Sequence,
                 seed: int) -> List[dict]:
    """Residuals of the identities of the model space, each {name, value, tol, pass}.

    The sigma mass and the basis Gram on the rule; involutivity, the kernel-involution
    identity, metric invariance and Cauchy-Schwarz on seeded points within the reach of
    `probe_radii(space, "axiom")`; kernel-norm growth along a ray; invariance of the lambda
    measure (no test function on the bidisc); and unitarity and involutivity of U_z on its
    certified modes at the non-origin points of z_grid, on the scalar block (U (x) I_d has the
    same norms), with points_checked: the points with a certified mode, 0 if none.  The whole
    grid must be admissible (ValueError), and is checked before any work.
    """
    space = basis.space
    top = spaces.probe_radius_max(space)
    reach, = probe_radii(space, "axiom")
    points, U, modes = _translations(basis, z_grid)
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, value, tol, **extra):
        checks.append({"name": name, "value": float(value), "tol": tol,
                       "pass": bool(value <= tol), **extra})

    def rand_points(n):
        return spaces.point(space, [reach * np.sqrt(rng.uniform(0, 1, n))
                                    * np.exp(2j * np.pi * rng.uniform(0, 1, n))
                                    for _ in space.factors])

    record("sigma_probability", abs(integrate_sigma(rule, np.ones(rule.n_nodes)) - 1.0), 1e-12)
    record("basis_orthonormality",
           np.abs(rule_gram(basis, rule, np.ones(rule.n_nodes)) - np.eye(basis.n_scalar)).max(), 1e-10)
    z, w = rand_points(400), rand_points(400)
    zw = spaces.involution(space, z, w)
    record("involutivity", np.max(np.abs(spaces.involution(space, z, zw) - w)), 1e-12)
    record("kernel_involution_identity",
           np.max(np.abs(spaces.normalized_pairing(space, z, w)
                         * spaces.kernel_norm(space, zw) - 1.0)), 1e-10)
    a, u, v = rand_points(200), rand_points(200), rand_points(200)
    record("metric_invariance",
           np.max(np.abs(spaces.metric(space, spaces.involution(space, a, u),
                                       spaces.involution(space, a, v))
                         - spaces.metric(space, u, v))), 1e-10)
    record("cauchy_schwarz_pairing",
           max(0.0, float(np.max(spaces.normalized_pairing(space, z, w))) - 1.0), 1e-12)
    # the kernel norm grows along a ray toward the boundary of the region
    ray = np.linspace(0.2, 1.0, 8) * top
    norms = spaces.kernel_norm(space, spaces.point(space, [ray] * space.nfactors))
    record("kernel_norm_growth", max(0.0, float(np.max(norms[:-1] - norms[1:]))), 0.0)
    test = {spaces.KIND_DISC: lambda p: (1.0 - np.abs(p) ** 2) ** 3,
            spaces.KIND_FOCK: lambda p: np.exp(-np.abs(p) ** 2)}.get(space.kind)
    if test is not None:
        base = integrate_lambda(rule, test(rule.nodes))
        moved = [spaces.involution(space, zz * top, rule.nodes) for zz in (0.2, 0.35 * np.exp(1j))]
        record("lambda_invariance",
               max(abs(integrate_lambda(rule, test(m)) - base) for m in moved), 1e-6)
    away = np.flatnonzero(spaces.point_radius(space, points) > 0)
    high = np.indices((basis.n_modes,) * space.nfactors).reshape(space.nfactors, -1).max(axis=0)
    I, worst = np.eye(basis.n_scalar), [0.0, 0.0]   # unitarity, involutivity
    for j in away:   # point by point: U is the memoized stack, so no stack-sized copy of it
        keep = high < modes[j]               # a scalar mode is certified if all its factor modes are
        P = keep[:, None] & keep[None, :]
        for i, R in enumerate((np.conj(U[j].T) @ U[j], U[j] @ U[j])):
            worst[i] = max(worst[i], float(np.linalg.norm(P * (R - I), 2)))
    for name, value in zip(("translation_unitarity_certified", "translation_involutivity_certified"), worst):
        record(name, value, 1e-6, points_checked=int(np.count_nonzero(modes[away])))
    return checks


# ---------------------------------------------------------------------------
# RKT reports

@dataclass
class RktReport:
    """Per-(z, unit-index) values of one boundedness integral, with its sup."""

    label: str
    p: float
    z_grid: list
    values: np.ndarray  # (n_z, d)
    kappa: float
    sup: float = field(init=False)
    p_threshold: float = field(init=False)
    admissible: bool = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < 0):
            raise ValueError("integral values must be nonnegative")
        self.sup = float(self.values.max())
        self.p_threshold = (4.0 - self.kappa) / (2.0 - self.kappa)
        self.admissible = self.p > self.p_threshold


def _probe_grid(space: SpaceSpec, p: float, z_grid: Optional[Sequence]) -> np.ndarray:
    """The gated probe points of an RKT check (an empty grid would read sup 0.0), the space's
    default grid for None, after checking that p exceeds 1."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    return spaces.probe_points(space, default_probe_grid(space) if z_grid is None else z_grid)


def _lp_norm(rule: QuadratureRule, samples: np.ndarray, p: float) -> np.ndarray:
    """L^p(sigma) norms along axis 0 of samples (n_nodes, ...)."""
    w = rule.sigma_weights.reshape((-1,) + (1,) * (samples.ndim - 1))
    return np.sum(w * np.abs(samples) ** p, axis=0) ** (1.0 / p)


def _pulled_back(rule: QuadratureRule, F, points: np.ndarray) -> np.ndarray:
    """The symbol F at phi_z(u) for every rule node u and probe point z, all at once,
    node-major: (n_nodes, n_points, d, d)."""
    moved = spaces.involution(F.space, points[None], rule.nodes[:, None])
    return F.eval(moved).reshape(rule.n_nodes, len(points), F.space.d, F.space.d)


def rkt_boundedness_check(basis: BasisSpec, rule: QuadratureRule, T: OperatorMatrix,
                          p: float = 4.0,
                          z_grid: Optional[Sequence] = None) -> Tuple[RktReport, RktReport]:
    """Kernel-displacement boundedness integrals for T* (first) and T (second).

    Per z and unit index i: apply the operator to the normalized truncated kernel k_z in
    component i, move it back with U_z, and take the L^p(sigma) norm of the pointwise l1
    component sum.  All points at once: one batched U_z per factor, and node values from
    the factor samples of the basis (`rule_samples`), never a basis matrix on product nodes.
    """
    space = basis.space
    n, d = basis.n_scalar, space.d
    points, U, _ = _translations(basis, _probe_grid(space, p, z_grid))
    V = kernel_coeff_vector(basis, points)                           # (mode, point)
    reports = []
    for side, A in (("adjoint_side", T.adjoint()), ("direct_side", T)):
        AV = A.mat.reshape(n, d, n, d).transpose(0, 1, 3, 2).reshape(-1, n) @ V
        H = U @ AV.reshape(n, d * d, -1).transpose(2, 0, 1)          # (point, mode, (k, i))
        S = rule_samples(basis, rule, H).reshape(len(points), -1, d, d)
        values = _lp_norm(rule, np.abs(S).sum(axis=2).transpose(1, 0, 2), p)   # (point, i)
        reports.append(RktReport(side, p, list(points), values, space.kappa))
    return tuple(reports)


def rkt_toeplitz_symbol_check(rule: QuadratureRule, F, p: float = 4.0,
                              z_grid: Optional[Sequence] = None) -> Tuple[RktReport, RktReport]:
    """Row/column sums of L^p(sigma) norms of phi_z-pulled-back symbol entries."""
    points = _probe_grid(F.space, p, z_grid)
    entry_norms = _lp_norm(rule, _pulled_back(rule, F, points), p)     # (point, i, k)
    kap = F.space.kappa
    return (RktReport("row_side", p, list(points), entry_norms.sum(axis=2), kap),      # over k
            RktReport("column_side", p, list(points), entry_norms.sum(axis=1), kap))  # over i


def _require_analytic(F) -> None:
    if F.poly is None or F.balls or F.poly.rows[:, 3::2].any():   # a conjugate power b_j
        raise ValueError("analytic polynomial symbol required")


def rkt_product_check(rule: QuadratureRule, F, G, p: float = 4.0,
                      z_grid: Optional[Sequence] = None) -> Tuple[RktReport, RktReport]:
    """Boundedness quantities for the product of an analytic Toeplitz pair.

    Per z and unit index k: sum over i of the L^p(sigma) norm of
    u -> <G(z)* e_k, (F* o phi_z)(u) e_i>; plus the mirrored quantity.
    """
    points = _probe_grid(F.space, p, z_grid)
    _require_analytic(F)
    _require_analytic(G)
    sides = []
    for label, A, B in (("first_side", F, G), ("second_side", G, F)):   # sums over i, per k
        S = np.einsum("upij,pkj->upki", _pulled_back(rule, A, points), np.conj(B.eval(points)))
        sides.append(RktReport(label, p, list(points), _lp_norm(rule, S, p).sum(axis=2), F.space.kappa))
    return tuple(sides)


def hankel_rkt_check(rule: QuadratureRule, F, p: float = 4.0,
                     z_grid: Optional[Sequence] = None) -> RktReport:
    """Oscillation integrals sup_i {int (sum_k |F(z)-F(phi_z(u))|_ik)^p dsigma}^{1/p}."""
    points = _probe_grid(F.space, p, z_grid)
    delta = np.abs(F.eval(points)[None] - _pulled_back(rule, F, points)).sum(axis=3)   # (node, point, i)
    return RktReport("oscillation", p, list(points), _lp_norm(rule, delta, p), F.space.kappa)


# ---------------------------------------------------------------------------
# Berezin transform

def berezin(T: OperatorMatrix, z) -> np.ndarray:
    """d x d matrix of kernel-state expectations of T at z; shape (..., d, d) for
    an array of points z.

    Uses truncated kernels renormalized to unit norm, so the identity operator
    maps to the identity matrix exactly at truncation.
    """
    basis = T.basis
    d = basis.space.d
    n = basis.n_scalar
    V = kernel_coeff_vector(basis, z).reshape(n, -1)                  # (mode, point)
    TV = (T.mat.reshape(n, d, n, d).transpose(0, 1, 3, 2).reshape(-1, n) @ V).reshape(n, d, d, -1)
    B = np.einsum("ap,aikp->pik", V.conj(), TV)
    return B.reshape(np.shape(spaces.coords(basis.space, z)[0]) + (d, d))


@dataclass
class BerezinProfile:
    radii: np.ndarray
    angles: np.ndarray
    matrices: np.ndarray      # (n_radii, n_angles, d, d)
    profile: np.ndarray       # per-radius max |entry|
    threshold: float
    decaying: bool = field(init=False)
    final_value: float = field(init=False)

    def __post_init__(self):
        tail = self.profile[-3:]
        strictly_down = len(tail) == 3 and tail[0] > tail[1] > tail[2]
        self.decaying = bool(strictly_down and self.profile[-1] < self.threshold)
        self.final_value = float(self.profile[-1])


def berezin_decay_profile(T: OperatorMatrix, radii: Optional[Sequence[float]] = None,
                          angles: Optional[Sequence[float]] = None,
                          threshold: float = 0.05) -> BerezinProfile:
    """The Berezin matrices of T at r e^(i theta), on the diagonal of products, and per radius
    their largest entry modulus, by default at `probe_radii(space, "berezin")` and eight evenly
    spaced angles; `decaying` when the last three fall strictly and the last is below threshold."""
    space = T.basis.space
    if radii is None:
        radii = probe_radii(space, "berezin")
    if angles is None:
        angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    radii = np.asarray(radii, dtype=float)
    angles = np.asarray(angles, dtype=float)
    z = np.outer(radii, np.exp(1j * angles))
    mats = berezin(T, spaces.point(space, [z] * space.nfactors))
    profile = np.max(np.abs(mats), axis=(1, 2, 3))
    return BerezinProfile(radii, angles, mats, profile, threshold)


# ---------------------------------------------------------------------------
# essential norm estimate

@dataclass
class EssentialNormReport:
    shell_metric: np.ndarray        # invariant distance of each shell from 0
    lower_profile: np.ndarray       # per-shell max_f ||T^z f||
    shell_certified_modes: np.ndarray   # per-shell least certified U_z modes (tau 1e-12)
    estimate: float                 # value at the outermost shell
    sv_proxy_index: int
    sv_proxy_value: float
    top_singular_value: float
    last_two_decreasing: bool


def essential_norm_estimate(T: OperatorMatrix, boundary_grid: Optional[Sequence[Sequence]] = None,
                            seed: int = 0) -> EssentialNormReport:
    """Lower profile sup_{probes} ||U_z T U_z^* f|| over boundary shells.

    The probes f are all basis vectors plus eight seeded random unit vectors.
    One batched call per factor translates all shell points; each shell applies
    its U_z as U_z (x) I_d on the scalar block and records the least certified
    modes of its U_z (tau = 1e-12).  The limit toward the boundary is realized
    as the value at the outermost admissible shell; the singular-value proxy
    reports the spectrum tail of T at index dim // 4 as a finite-rank indicator
    (truncated compact operators are exactly the ones whose tail has died).
    """
    basis = T.basis
    space = basis.space
    if boundary_grid is None:
        boundary_grid = boundary_shells(space)
    sizes = [len(shell) for shell in boundary_grid]
    if 0 in sizes:
        raise ValueError(f"shell {sizes.index(0)} of the probe grid boundary_grid is empty")
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((basis.dim, 8)) + 1j * rng.standard_normal((basis.dim, 8))
    R = R / np.linalg.norm(R, axis=0, keepdims=True)
    origin = spaces.point(space, [0.0] * space.nfactors)
    points, U, modes = _translations(basis, [z for shell in boundary_grid for z in shell],
                                     "boundary_grid")
    starts = np.cumsum([0] + sizes)
    profile = []
    for a, b in zip(starts[:-1], starts[1:]):
        Tz = _conjugate_blocks(T.mat, U[a:b], space.d)
        profile.append(max(float(np.linalg.norm(Tz, axis=-2).max()),
                           float(np.linalg.norm(Tz @ R, axis=-2).max())))
    profile = np.array(profile)
    svs = T.singular_values()
    idx = max(1, basis.dim // 4)
    return EssentialNormReport(
        shell_metric=spaces.metric(space, origin, points[starts[:-1]]),
        lower_profile=profile,
        shell_certified_modes=np.minimum.reduceat(modes, starts[:-1]),
        estimate=float(profile[-1]),
        sv_proxy_index=idx,
        sv_proxy_value=float(svs[idx]) if idx < svs.size else 0.0,
        top_singular_value=float(svs[0]),
        last_two_decreasing=bool(profile[-1] < profile[-2]) if profile.size >= 2 else False,
    )


# ---------------------------------------------------------------------------
# Berezin injectivity probe

@dataclass
class InjectivityReport:
    n_modes: int
    d: int
    n_parameters: int
    n_samples: int
    rank: int
    full_rank: bool
    grid: list


def _spiral_grid(space: SpaceSpec, n_points: int):
    golden = np.pi * (3.0 - np.sqrt(5.0))
    top, = probe_radii(space, "spiral")
    # further factors use a seeded scatter: coordinates tied to the same
    # spiral parameter satisfy algebraic relations (constant |z1|^2 + |z2|^2,
    # swapped mode pairs) that cost sample rank
    rng = np.random.default_rng(987654321)
    pts = []
    for j in range(n_points):
        r = top * np.sqrt((j + 0.5) / n_points)
        scatter = [top * np.sqrt(rng.uniform(0.05, 1.0)) * np.exp(2j * np.pi * rng.uniform())
                   for _ in space.factors[1:]]
        pts.append(spaces.point(space, [r * np.exp(1j * golden * j)] + scatter))
    return pts


def berezin_injectivity_probe(space: SpaceSpec, d: int, n_small: int,
                              grid: Optional[Sequence] = None) -> InjectivityReport:
    """Rank of the linear map (truncated operator) -> (Berezin samples).

    Full rank certifies that no nonzero truncated operator has identically
    vanishing Berezin transform on the grid.
    """
    if n_small * d > 8:
        raise ValueError("small-instance probe requires n_small * d <= 8")
    basis = BasisSpec(replace(space, d=d), n_small)
    if grid is None:
        grid = _spiral_grid(basis.space, max(9, basis.n_scalar ** 2 + 1))
    if len(grid) < basis.n_scalar ** 2:
        raise ValueError("grid too small to resolve all mode pairs")
    dim, I_d = basis.dim, np.eye(d)
    V = np.array([kernel_coeff_vector(basis, z) for z in grid])      # (point, mode)
    # row (point, i, k) samples <T k_z e_k, k_z e_i>: entry conj(v_a) v_b at T[(a, i), (b, k)]
    A = np.einsum("pa,pb,ij,kl->pikajbl", V.conj(), V, I_d, I_d).reshape(-1, dim * dim)
    svs = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(svs > max(A.shape) * np.finfo(float).eps * svs[0]))
    return InjectivityReport(n_small, d, dim * dim, A.shape[0], rank,
                             rank == dim * dim, list(grid))
