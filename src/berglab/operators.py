"""Operator assembly on the truncated basis.

All operators are dense matrices on the flattened index (mode m, component k)
-> m * d + k.  Scalar constructions tensor with I_d via np.kron, which matches
that ordering; conjugation by U_z instead applies the scalar block to the mode
index of a reshaped matrix, so no dense U_z (x) I_d is formed.

Toeplitz assembly T_F = P M_F is exact for polynomial symbols: the term
z^a conj(z)^b maps e_n to c_n c_m / c_{n+a}^2 e_m with m = n + a - b (a
monomial moment), so one scatter writes every term on its one nonzero
diagonal, with no quadrature rule and no dense block.  So is a ball part: a
ball is phi_a(D(0, s)), and T[F o phi_a] = U_a T[F] U_a (Zhu, Operator Theory
in Function Spaces, 2nd ed., 2007, 7.1) gives T[1_ball] = U_a diag(D) U_a, D_j
the share of mode j's mass inside D(0, s).  Other smooth symbols (pullbacks,
user-supplied functions) weight the basis Gram on a rule (`coeffs.rule_gram`).

Translation operators U_z f = (f o phi_z) k_z are compressions of unitaries
with closed-form entries, so no quadrature rule enters: on each factor,
<U_z e_k, e_m> is a phase times a normalized Jacobi polynomial (disc: the
holomorphic discrete series of SU(1, 1), Perelomov 1986) or Laguerre
polynomial (Fock: the displacement operator, Cahill & Glauber 1969) in |z|^2
of degree min(m, k).  One three-term recurrence in that degree gives every
band |m - k| at once, for one point or a stack of points, and one phase step,
shared by both kinds, places the bands.  A product space takes the Kronecker
product of its factors' matrices, written once, in `_translations`: it gates
a probe grid (`spaces.probe_points`), translates all its points with one call
per factor and memoizes the last grid, keyed by the basis and the gated
points' shape and bytes, with read-only arrays: a study that runs many
operators on one basis and grid translates it once.  `analysis` takes its
stacks whole; `translation_matrix` and `conjugate_operator` take entry 0 of a
one-point stack.  Top basis modes unavoidably leak outside any fixed
truncation window for z != 0, which is why every U_z comes with a per-column
leakage certificate (1 - retained column mass) from which identity-quality
statements are scoped.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import spaces
from .coeffs import (BasisSpec, CoeffFunction, _factor_log_normalizers,
                     basis_normalizer, rule_gram, scalar_basis_matrix)
from .quadrature import QuadratureRule
from .spaces import KIND_DISC, KIND_FOCK, SpaceSpec


# ---------------------------------------------------------------------------
# symbols

@dataclass(frozen=True)
class BallPart:
    """value * indicator of the metric ball {w : spaces.metric(center, w) <= radius}, one factor only."""
    center: complex
    radius: float
    value: np.ndarray  # (d, d)


class PolyTerms(NamedTuple):
    """A polynomial symbol's term table, one row per term in entry order: rows[t] =
    (i, k, a_1, b_1, a_2, b_2, ...) puts coef[t] z_1^a_1 conj(z_1)^b_1 ... in entry (i, k)."""
    rows: np.ndarray   # (terms, 2 + 2 * nfactors) int
    coef: np.ndarray   # (terms,) complex


@dataclass
class MatrixSymbol:
    """d x d matrix symbol: the sum of its polynomial terms, smooth part and ball-indicator parts."""

    space: SpaceSpec
    smooth: Optional[Callable[[np.ndarray], np.ndarray]] = None  # points -> (n, d, d)
    balls: List[BallPart] = field(default_factory=list)
    poly: Optional[PolyTerms] = None

    def eval(self, points) -> np.ndarray:
        pts = spaces.as_points(self.space, points)
        p = [c.reshape(-1) for c in spaces.coords(self.space, pts)]
        out = np.zeros((p[0].size, self.space.d, self.space.d), dtype=complex)
        if self.poly is not None:   # Python ints: numpy's fast paths for small powers
            for (i, k, *powers), c in zip(self.poly.rows.tolist(), self.poly.coef.tolist()):
                term = c
                for pj, a, b in zip(p, powers[::2], powers[1::2]):   # (a, b) per factor
                    term = term * pj ** a * np.conj(pj) ** b
                out[:, i, k] += term
        if self.smooth is not None:
            out += self.smooth(pts)
        for b in self.balls:
            inside = (spaces.metric(self.space, b.center, pts) <= b.radius).reshape(-1)
            out += inside[:, None, None] * b.value[None, :, :]
        return out


_INDEX_TYPES = frozenset({int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})
_NUMBER_TYPES = _INDEX_TYPES | {float, complex, *(np.dtype(c).type for c in np.typecodes["AllFloat"])}
POLY_POWER_CAP = 2 ** 20   # a term's largest power: assembly's normalizer table costs ~48 B per unit


def _poly_terms(space: SpaceSpec, names: list, values: list) -> PolyTerms:
    """The term table of names[t] = ((i, k), powers) with coefficients values[t], checked in one
    pass: (i, k) must index a d x d matrix, powers be 2 * nfactors non-negative integers (not
    bools) up to POLY_POWER_CAP and the coefficient a finite number, else ValueError naming it."""
    d, width = space.d, 2 + 2 * space.nfactors
    for (key, powers), c in zip(names, values):
        row = key + powers if isinstance(key, tuple) and isinstance(powers, tuple) else ()
        if not (len(row) == width and len(key) == 2 and set(map(type, row)) <= _INDEX_TYPES and min(row) >= 0
                and max(key) < d and max(powers) <= POLY_POWER_CAP and type(c) in _NUMBER_TYPES
                and cmath.isfinite(c)):
            raise ValueError(f"entry {key!r}, term {powers!r}: {c!r}: a term needs (i, k) below d={d}, "
                             f"{width - 2} non-negative integer powers up to {POLY_POWER_CAP} "
                             "and a finite coefficient")
    table = np.array([key + powers for key, powers in names], dtype=int).reshape(-1, width)
    return PolyTerms(table, np.array(values, dtype=complex))


def poly_symbol(space: SpaceSpec, entries: Dict[Tuple[int, int], Dict[tuple, complex]]) -> MatrixSymbol:
    """Polynomial symbol: entries[(i, k)] maps power tuples, one (a, b) pair per factor for
    z_j^a conj(z_j)^b, to coefficients.  The dict is flattened once, in its order, into the
    symbol's term table; an (i, k) outside a d x d matrix, a power that is no non-negative
    integer or a coefficient that is no finite number raises ValueError."""
    return MatrixSymbol(space, poly=_poly_terms(
        space, [(key, powers) for key, terms in entries.items() for powers in terms],
        [c for terms in entries.values() for c in terms.values()]))


def constant_symbol(space: SpaceSpec, matrix) -> MatrixSymbol:
    """The constant d x d matrix as one degree-0 term per nonzero entry; ValueError names an
    entry that is no finite number."""
    m = np.asarray(matrix, dtype=object)   # its entries as given, or as Python numbers
    if m.shape != (space.d, space.d):
        raise ValueError("constant symbol needs a d x d matrix")
    rows, coef = _poly_terms(space, [(ik, (0, 0) * space.nfactors) for ik in np.ndindex(m.shape)],
                             m.ravel().tolist())
    return MatrixSymbol(space, poly=PolyTerms(rows[coef != 0], coef[coef != 0]))


def ball_indicator_symbol(space: SpaceSpec, center: complex, radius: float, matrix,
                          ball_metric: str = "euclidean") -> MatrixSymbol:
    """matrix times the indicator of a ball on one factor, kept as the space's metric ball
    (`BallPart`), as an "invariant" ball is given.  A "euclidean" D(c, r) on the disc must lie
    inside it (ValueError) and converts once, free of cancellation: with p1, p2 = |c| -+ r, the
    centre a = 2c / [1 + p1 p2 + sqrt((1 - p1^2)(1 - p2^2))] and the radius arctanh |phi_a(p1)|."""
    if space.nfactors > 1:
        raise ValueError("ball symbols are single-factor")
    if ball_metric not in ("euclidean", "invariant"):
        raise ValueError(f"unknown ball metric {ball_metric!r}")
    if not radius > 0:
        raise ValueError(f"ball radius must be positive, got {radius!r}")
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (space.d, space.d):
        raise ValueError("ball symbol needs a d x d matrix")
    center, radius = complex(center), float(radius)
    if space.kind == KIND_DISC and abs(center) + (radius if ball_metric == "euclidean" else 0.0) >= 1.0:
        raise ValueError(f"ball D({center}, {radius}) sticks out of the disc")
    if space.kind == KIND_DISC and ball_metric == "euclidean":
        p1, p2 = abs(center) - radius, abs(center) + radius
        center = 2.0 * center / (1.0 + p1 * p2 + np.sqrt((1.0 - p1) * (1.0 + p1) * (1.0 - p2) * (1.0 + p2)))
        radius = float(np.arctanh((abs(center) - p1) / (1.0 - abs(center) * p1)))
    return MatrixSymbol(space, balls=[BallPart(center, radius, m)])


def pullback_symbol(symbol: MatrixSymbol, z) -> MatrixSymbol:
    """Symbol composed with phi_z, an isometry: a ball part keeps its radius about phi_z(center)."""
    space = symbol.space
    balls = [replace(b, center=complex(spaces.involution(space, z, b.center))) for b in symbol.balls]
    base = MatrixSymbol(space, smooth=symbol.smooth, poly=symbol.poly)   # the non-ball part
    return MatrixSymbol(space, balls=balls, smooth=None if base.smooth is None and base.poly is None
                        else lambda pts: base.eval(spaces.involution(space, z, pts)))


# ---------------------------------------------------------------------------
# operator matrices

@dataclass
class OperatorMatrix:
    basis: BasisSpec
    mat: np.ndarray

    def __post_init__(self):
        n = self.basis.dim
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.shape != (n, n) or not np.isfinite(self.mat).all():
            raise ValueError(f"an operator needs a finite ({n}, {n}) matrix, got shape {self.mat.shape}")

    @property
    def dim(self) -> int:
        return self.basis.dim

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.basis, self.mat @ other.mat)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.basis, self.mat + other.mat)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.basis, self.mat - other.mat)

    def __rmul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, scalar * self.mat)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, self.mat.conj().T)

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat, 2))

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.mat, compute_uv=False)


def identity_operator(basis: BasisSpec) -> OperatorMatrix:
    return OperatorMatrix(basis, np.eye(basis.dim))


# ---------------------------------------------------------------------------
# Toeplitz operators

def _poly_scatter(basis: BasisSpec, poly: PolyTerms):
    """Index (rows, i, cols, k) into T.reshape(n, d, n, d) and values of every monomial term of
    a polynomial symbol, in its table's order.  On each factor z^a conj(z)^b maps e_n to
    c_n c_m / c_{n+a}^2 e_m, m = n + a - b (NaN where m leaves the window), folded first
    factor slowest: |z|^(2k) integrates to 1/c_k^2 against sigma on the disc (any alpha) and
    on the Fock space, so no quadrature enters.  A term with |a - b| >= N on some factor writes
    nothing and is dropped before any normalizer table is built."""
    N, nf = basis.n_modes, basis.space.nfactors
    keep = np.all(np.abs(poly.rows[:, 2::2] - poly.rows[:, 3::2]) < N, axis=1)   # else no entry
    ikp, coef = poly.rows[keep], poly.coef[keep]
    n, digits = np.arange(N), np.indices((N,) * nf).reshape(nf, -1)   # each scalar mode's n per factor
    rows, vals = np.arange(N ** nf), 1.0
    for j, (f, a, b) in enumerate(zip(basis.space.factors, ikp.T[2::2, :, None], ikp.T[3::2, :, None])):
        logc, m = _factor_log_normalizers(f, N + int(a.max(initial=0))), n + a - b   # m: (terms, N)
        vals = vals * np.exp(np.where((m >= 0) & (m < N), logc[n] + logc[m % N] - 2.0 * logc[n + a],
                                      np.nan))[:, digits[j]]
        rows = rows + (a - b) * N ** (nf - 1 - j)
    term, cols = np.nonzero(~np.isnan(vals))
    return (rows[term, cols], ikp[term, 0], cols, ikp[term, 1]), coef[term] * vals[term, cols]


BALL_MODE_CAP = 25000   # K, the columns of a ball's U_a block: 38 MB of complex at N = 96


def _ball_shares(space: SpaceSpec, radius: float) -> np.ndarray:
    """D_j = P(X > j), j < K: mode j's share of its mass inside the centred metric ball, X negative
    binomial of order alpha + 1 at x = tanh(radius)^2 (disc) or Poisson(radius^2).  log P(X = i) =
    log p_0 + i log x + 2 log c_i (- log(1 + i/(alpha + 1)) on the disc), 1 - x kept exact, up to a
    length doubled until the geometric tail bound past it is < 1e-20; summed from the far end over
    the total (1 but for i log x's rounding).  K is the first j with D_j < 1e-17 (a row of U_a has
    norm <= 1, so the cut costs <= D_K); ValueError past BALL_MODE_CAP."""
    disc, e, order = space.kind == KIND_DISC, np.exp(-2.0 * radius), space.alpha + 1.0
    logx = 2.0 * (np.log1p(-e) - np.log1p(e)) if disc else 2.0 * np.log(radius)   # tanh = (1-e)/(1+e)
    head = -2.0 * order * (radius + np.log1p(e) - np.log(2.0)) if disc else -radius ** 2
    for L in (2 ** k for k in range(6, 17)):   # up to 65536, past any K under the cap
        i = np.arange(L)   # the disc's last term is 0 on the Fock space (disc = False)
        logp = head + i * logx + 2.0 * _factor_log_normalizers(space, L) - disc * np.log1p(i / order)
        q = np.exp(logx) * ((L + max(space.alpha, 0.0)) if disc else 1.0) / L   # >= every later ratio
        if q < 1.0 and logp[-1] + np.log(q / (1.0 - q)) < np.log(1e-20):
            D = np.append(np.cumsum(np.exp(logp[:0:-1]))[::-1], 0.0) / np.exp(logp).sum()
            if np.argmax(D < 1e-17) <= BALL_MODE_CAP:
                return D[:np.argmax(D < 1e-17)]
    raise ValueError(f"the ball of radius {radius} needs more than {BALL_MODE_CAP} modes")


def toeplitz_matrix(basis: BasisSpec, rule: QuadratureRule, symbol: MatrixSymbol) -> OperatorMatrix:
    """T_F = P M_F on the truncated space.

    The parts of a symbol add up.  Polynomial terms (symbol.poly) are assembled exactly
    from monomial moments, and each ball part B(a, radius) as (U diag(D) U^H) (x) value,
    U the N x K block of U_a and D the shares of `_ball_shares`; neither reads the rule,
    which may then be None.  A smooth part's nonzero (i, k) entries, sampled on the rule, weight one
    `rule_gram` stack; it is exact whenever radial exactness (degree in t up to 2*radial_order - 1) and
    angular separation (frequency spread less than angular_order) hold, and needs a rule for the basis's
    measure on every factor (ValueError on None, another one or a product rule without its factor rules).
    """
    d = basis.space.d
    n = basis.n_scalar
    T = np.zeros((basis.dim, basis.dim), dtype=complex)
    T4 = T.reshape(n, d, n, d)
    if symbol.poly is not None:
        np.add.at(T4, *_poly_scatter(basis, symbol.poly))   # unbuffered: terms add up in order
    if symbol.smooth is not None:
        if rule is None or [(fr.space.kind, fr.space.alpha) for fr in rule.factors] != [
                (f.kind, f.alpha) for f in basis.space.factors]:
            raise ValueError("a smooth symbol needs a rule for the basis's measure")
        vals = symbol.smooth(rule.nodes)
        i, k = np.nonzero(np.any(vals, axis=0))   # identically zero entries add nothing
        T4[:, i, :, k] += rule_gram(basis, rule, vals[:, i, k].T)
    for b in symbol.balls:
        D = _ball_shares(basis.space, b.radius)
        W = _scalar_translation(basis.space, basis.n_modes, b.center, D.size) * np.sqrt(D)  # W W^H = U D U^H
        T4 += np.einsum("ab,ik->aibk", W @ W.conj().T, b.value)
    return OperatorMatrix(basis, T)


@dataclass
class PointMassMeasure:
    """Finite sum of matrix-weighted point masses sum_a M_a delta_{p_a}."""

    points: np.ndarray
    matrices: np.ndarray  # (n_atoms, d, d)

    def __post_init__(self):
        self.points = np.atleast_1d(np.asarray(self.points, dtype=complex))
        self.matrices = np.asarray(self.matrices, dtype=complex)
        if self.matrices.ndim == 2:
            self.matrices = self.matrices[None, :, :]
        if self.matrices.shape[0] != self.points.shape[0]:
            raise ValueError("one weight matrix per atom")


def toeplitz_measure_matrix(basis: BasisSpec, measure: PointMassMeasure) -> OperatorMatrix:
    """Toeplitz operator of a matrix-valued point-mass measure.

    (T_mu f)(z) = int <K_w(z) . , .> f(w) d mu(w) collapses to
    sum_a conj(e_m'(p_a)) M_a e_m(p_a) on basis elements: one GEMM of E^H, E the basis at
    the atoms, against the rows M_a (x) e(p_a)^T, one per atom.
    """
    E = scalar_basis_matrix(basis, measure.points)  # (n_scalar, n_atoms)
    rows = measure.matrices[:, :, None, :] * E.T[:, None, :, None]   # [a, i, m, k] = M_a[i, k] e_m(p_a)
    return OperatorMatrix(basis, (E.conj() @ rows.reshape(E.shape[1], -1)).reshape(basis.dim, basis.dim))


# ---------------------------------------------------------------------------
# translation operators

def _band_magnitudes(space: SpaceSpec, r: np.ndarray, J: int, B: int) -> np.ndarray:
    """s[j] = (-1)^j ell[j, b] of `_scalar_translation` at |z| = r[..., 0], j < J, in rows 1..J of a
    (J + 1, ..., bands) table whose row 0 is s[-1] = 0: the orthonormal Laguerre (Fock) or Jacobi
    (disc: p = 2j+b+g, coefficients halved) recurrence s[j+1] = (X s[j] + Y s[j-1]) / D, D < 0, for
    every band from s[0] = head prod_(i<=b) |z| sqrt(w_i).  A band that starts at 0 (z = 0,
    underflow) stays 0, so the bands stop at the last nonzero start (at most B)."""
    t, i = r ** 2, np.arange(1.0, B)
    disc, g = space.kind != KIND_FOCK, space.alpha + 2.0
    head, w = ((1.0 - t) ** (g / 2.0), (i + (g - 1.0)) / i) if disc else (np.exp(-t / 2.0), 1.0 / i)
    start = np.cumprod(np.concatenate((head, r * np.sqrt(w)), -1), -1)
    b = np.arange(np.count_nonzero(start.reshape(-1, B).max(0, initial=0.0)))
    jq = np.arange(float(J)).reshape((-1,) + (1,) * r.ndim)   # the degree, ahead of the point axes
    j, s = jq[:-1], jq + b
    if disc:
        p = s[:-1] + (j + g)
        X = p * ((p * p - 1.0) * (0.5 - t) + 0.5 * (b * b - (g - 1.0) ** 2))
        Q = np.sqrt(jq * (jq + (g - 1.0)) * (s * (s + (g - 1.0))))
        Y, D = (p + 1.0) * Q[:-1], (1.0 - p) * Q[1:]
    else:
        Q = np.sqrt(jq * s)
        X, Y, D = (s[:-1] + (j + 1.0)) - t, Q[:-1], -Q[1:]
    ell = np.zeros((J + 1,) + r.shape[:-1] + (b.size,))
    ell[1] = start[..., :b.size]
    for r0, r1, r2, x, y, d in zip(ell, ell[1:], ell[2:], X, Y, D):
        np.divide(x * r1 + y * r0, d, out=r2)
    return ell


def _scalar_translation(space: SpaceSpec, n_modes: int, z, n_cols: Optional[int] = None) -> np.ndarray:
    """<U_z e_k, e_m> on one factor, m < n_modes, k < n_cols (default n_modes); points stack first.

    Entry [m, k] is (-1)^lo ell[lo, b] u^m conj(u)^k, lo = min(m, k), b = |m - k|, u = conj(z)/|z|
    (1 at z = 0), with real band magnitudes in t = |z|^2 and g = alpha + 2 (`_band_magnitudes`):
      Fock: e^(-t/2) t^(b/2) sqrt(lo!/(lo+b)!) L_lo^(b)(t) (Cahill & Glauber, Phys. Rev. 177, 1969);
      disc: (1-t)^(g/2) t^(b/2) sqrt(lo! Gamma(lo+b+g)/((lo+b)! Gamma(lo+g))) P_lo^(b, g-1)(1-2t), the
            holomorphic discrete series of SU(1, 1) (Perelomov, Generalized Coherent States, 1986).
    The phase step is shared: row m from column m on is (-1)^m ell[m] conj(u)^b, and column k from
    row k down its conjugate, both read through one strided view, with no index arrays.  At z = 0
    nothing rounds for dyadic alpha (such as 1.5), so U_0 = diag((-1)^m) exactly."""
    N, K = n_modes, n_modes if n_cols is None else n_cols
    J, B = min(N, K), max(N, K)
    z = np.asarray(z, dtype=complex)
    ell = _band_magnitudes(space, np.abs(z)[..., None], J, B)
    E = np.zeros(ell.shape[:-1] + (B,), dtype=complex)
    np.multiply(ell, np.exp(1j * np.angle(z)[..., None] * np.arange(ell.shape[-1])), E[..., :ell.shape[-1]])
    # V[..., m, c] = E[m + 1, ..., c - m], read where c >= m; inside E, as B >= N, K
    V = np.ndarray(z.shape + (J, B), E.dtype, E, E.strides[0],
                   E.strides[1:-1] + (E.strides[0] - E.itemsize, E.itemsize))
    m, k = np.arange(N), np.arange(K)
    U, lower = np.empty(z.shape + (N, K), dtype=complex), m[:, None] > k[:J]
    np.copyto(U[..., :J, :], V[..., :K], where=k >= m[:J, None])            # lo = m
    np.copyto(U[..., :J], np.swapaxes(V[..., :N], -1, -2), where=lower)     # lo = k
    np.conjugate(U[..., :J], out=U[..., :J], where=lower)
    return U


_translated: dict = {}   # the last grid translated: (basis, shape, bytes) -> (points, U, modes)


def _translations(basis: BasisSpec, grid, name: str = "z_grid") -> Tuple[np.ndarray, ...]:
    """The gated points of a probe grid (`spaces.probe_points`), their scalar U_z blocks
    (p, N, N) and least certified modes (tau 1e-12): one call per factor for all points,
    folded by a Kronecker product per point.  The only code that folds factor U_z blocks.

    Every grid is gated; the last one translated is memoized, keyed by the basis and the
    gated points' shape and bytes, so repeating it (one basis, many operators) translates
    nothing.  The memo holds one entry, and its three arrays (the points a copy) are
    read-only."""
    space = basis.space
    points = spaces.probe_points(space, grid, name)
    key = (basis, points.shape, points.tobytes())
    stack = _translated.get(key)
    if stack is None:
        _translated.clear()   # the old stack goes before the new one is built
        blocks = [_scalar_translation(f, basis.n_modes, c)
                  for f, c in zip(space.factors, spaces.coords(space, points))]
        U = reduce(lambda A, B: (A[:, :, None, :, None] * B[:, None, :, None, :]).reshape(
            len(A), A.shape[1] * B.shape[1], -1), blocks)    # kron per point, first factor slowest
        stack = (points.copy(), U, _certified_modes([_factor_tails(B) for B in blocks], 1e-12))
        for a in stack:
            a.setflags(write=False)
        _translated[key] = stack
    return stack


def _conjugate_blocks(mat: np.ndarray, U: np.ndarray, d: int) -> np.ndarray:
    """(U (x) I_d) mat (U (x) I_d)^* for a scalar block U, or for each U of a (p, N, N) stack.

    No dense U (x) I_d is formed: it acts on the rows of mat viewed as (N, d * dim).
    Applied to mat^*, the product's adjoint is mat (U (x) I_d)^*; applied once more, the result.
    """
    N = U.shape[-1]
    lead = U.shape[:-2] + (N * d, N * d)
    X = (U @ np.conj(mat.T, order="C").reshape(N, -1)).reshape(lead)
    X = np.conj(np.swapaxes(X, -1, -2), order="C").reshape(U.shape[:-2] + (N, -1))
    return (U @ X).reshape(lead)


def translation_matrix(basis: BasisSpec, z) -> OperatorMatrix:
    """Compression of U_z f = (f o phi_z) k_z, block diagonal over components: the scalar
    block, entry 0 of the one-point stack of `_translations`, tensored with I_d."""
    return OperatorMatrix(basis, np.kron(_translations(basis, [z])[1][0], np.eye(basis.space.d)))


@dataclass
class TranslationCertificate:
    """Per-column leakage of the compressed U_z on scalar modes.

    tails[m] = 1 - retained mass of U_z e_m inside the truncation window; the
    certified prefix keeps every tail below tau (on a product space: the
    modes whose every factor index lies below certified_modes).
    Identity-quality statements (unitarity, involutivity, covariance) hold on
    the certified prefix up to ~sqrt(tau) and are vacuous outside it: the
    modal spread of phi_z pushes top modes out of any fixed window.
    """

    z: object  # the whole point: complex, or an array with one entry per factor
    tau: float
    tails: np.ndarray
    certified_modes: int


def _factor_tails(U: np.ndarray) -> np.ndarray:
    """1 - retained mass of each column of a factor's (..., n, n) U_z block, in [0, 1]."""
    return np.clip(1.0 - np.sum(np.abs(U) ** 2, axis=-2), 0.0, 1.0)


def _certified_modes(tails, tau: float) -> np.ndarray:
    """Least certified prefix over the factors' tails (per point for stacked tails)."""
    return np.min([np.cumprod(t <= tau, axis=-1).sum(axis=-1) for t in tails], axis=0)


def translation_certificate(basis: BasisSpec, z, tau: float = 1e-12) -> TranslationCertificate:
    """Column leakage of U_z at an admissible z; on a product the factor tails add (capped at 1)."""
    space = basis.space
    zs = [complex(c) for c in spaces.coords(space, spaces.probe_points(space, [z])[0])]
    tails = [_factor_tails(_scalar_translation(f, basis.n_modes, c))
             for f, c in zip(space.factors, zs)]
    certified = int(_certified_modes(tails, tau))
    tails = np.minimum(reduce(lambda t, ti: np.add.outer(t, ti).ravel(), tails), 1.0)
    return TranslationCertificate(spaces.point(space, zs), tau, tails, certified)


def conjugate_operator(T: OperatorMatrix, z) -> OperatorMatrix:
    """T^z = U_z T U_z^*, applied as U (x) I_d on the scalar block (a one-point stack)."""
    U = _translations(T.basis, [z])[1][0]
    return OperatorMatrix(T.basis, _conjugate_blocks(T.mat, U, T.basis.space.d))


# ---------------------------------------------------------------------------
# rank-one

def rank_one(f: CoeffFunction, g: CoeffFunction) -> OperatorMatrix:
    """f (x) g: h -> <h, g> f."""
    if f.basis.dim != g.basis.dim:
        raise ValueError("mismatched bases")
    return OperatorMatrix(f.basis, np.outer(f.flat, np.conj(g.flat)))


def _diagonal_analytic_symbol(basis: BasisSpec, coeffs: np.ndarray, conjugate: bool) -> MatrixSymbol:
    """The diagonal polynomial symbol whose entry (i, i) is the analytic function with basis
    coefficients coeffs[:, i] (its conjugate when asked): one term per nonzero mode, whose
    monomial coefficient is the mode's coefficient times c_m."""
    i, m = np.nonzero(coeffs.T)                        # per component, its modes in order
    mono = coeffs[m, i] * basis_normalizer(basis)[m]
    modes = np.unravel_index(m, (basis.n_modes,) * basis.space.nfactors)   # mode per factor
    rows = np.zeros((m.size, 2 + 2 * len(modes)), dtype=int)
    rows[:, 0] = rows[:, 1] = i
    rows[:, (3 if conjugate else 2)::2] = np.transpose(modes)
    return MatrixSymbol(basis.space, poly=PolyTerms(rows, np.conj(mono) if conjugate else mono))


def rank_one_toeplitz_sum(basis: BasisSpec, rule: QuadratureRule,
                          f: CoeffFunction, g: CoeffFunction) -> OperatorMatrix:
    """Factorization of f (x) g through Toeplitz operators and a point mass.

    sum_{i,k} T[f_i E_ii] T[||K_0||^-1 delta_0 E_ii] T[conj(g_k) E_ii] T[E_ik] applied to h
    evaluates the analytic pairing <h, g> and reinstates f.  Its block (i, k) is F_i D G_k: F_i =
    T[f_i] and G_k = T[conj(g_k)] are diagonal views of T[diag(f_1, ..., f_d)] and T[diag(conj g_1,
    ..., conj g_d)], and D = T[||K_0||^-1 delta_0] is assembled once on the scalar basis.  D lives on
    the modes s where the basis is nonzero at the origin (the constant mode), so one broadcast
    product forms every F_i[:, s] D[s, s] G_k[s, :].  The symbols are polynomial: `rule` is not read.
    """
    space, d, n = basis.space, basis.space.d, basis.n_scalar
    origin = spaces.point(space, [np.zeros(1)] * space.nfactors)   # one point
    k0 = float(spaces.kernel_norm(space, origin)[0])
    def diagonal_views(h: CoeffFunction, conjugate: bool) -> np.ndarray:   # (d, n, n): block i at [i]
        T = toeplitz_matrix(basis, rule, _diagonal_analytic_symbol(basis, h.coeffs, conjugate))
        return np.moveaxis(np.diagonal(T.mat.reshape(n, d, n, d), axis1=1, axis2=3), -1, 0)
    F, G = diagonal_views(f, False), diagonal_views(g, True)
    D = toeplitz_measure_matrix(BasisSpec(replace(space, d=1), basis.n_modes),
                                PointMassMeasure(origin, [[1.0 / k0]])).mat
    s = np.flatnonzero(np.any(D != 0, axis=0))                      # D's support: the constant mode
    blocks = F[:, None, :, s] @ D[np.ix_(s, s)] @ G[None, :, s]     # (d, d, n, n): block (i, k) at [i, k]
    return OperatorMatrix(basis, blocks.transpose(2, 0, 3, 1).reshape(basis.dim, basis.dim))
