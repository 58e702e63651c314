"""Truncated orthonormal-basis representation of space elements.

Scalar basis functions are normalized monomials e_m(z) = c_m z^m (per factor;
tensor products over the factors of a product space), truncated to
m < n_modes per complex variable.
A C^d-valued element is stored as a coefficient array of shape (n_scalar, d);
flattening is row-major, so the full index of (mode m, component k) is
m * d + k, matching the operator-matrix convention.

Truncation honesty is tracked through the kernel tails from `spaces`; kernel
probe vectors are renormalized to unit length after truncation so that
sandwiching the identity operator gives the identity exactly at any
admissible probe point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import spaces
from .spaces import KIND_DISC, KIND_FOCK, SpaceSpec
from .quadrature import QuadratureRule


@dataclass(frozen=True)
class BasisSpec:
    space: SpaceSpec
    n_modes: int  # per complex variable

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one mode")

    @property
    def n_scalar(self) -> int:
        return self.n_modes ** self.space.nfactors

    @property
    def dim(self) -> int:
        return self.n_scalar * self.space.d


_log_normalizers: dict = {}   # (kind, alpha) -> the longest table built yet, read-only


def _factor_log_normalizers(space1: SpaceSpec, n: int) -> np.ndarray:
    """Read-only log c_m, m < n, on one factor: half the cumulative sum of the log ratios c_k^2 / c_{k-1}^2
    = 1 + (1+alpha)/k on a disc, 1/k on the Fock space.  A prefix of the one table kept per (kind, alpha),
    rebuilt only for a longer n (a prefix is the shorter table bit for bit): every assembly asks for one."""
    if space1.kind not in (KIND_DISC, KIND_FOCK):
        raise ValueError(space1.kind)
    if len(logc := _log_normalizers.get((space1.kind, space1.alpha), ())) < n:
        k = np.arange(1.0, n)
        steps = np.log1p((1.0 + space1.alpha) / k) if space1.kind == KIND_DISC else -np.log(k)
        total = np.cumsum(steps)
        # TwoSum: add back each partial sum's rounding error (log m! ~ 500 at m = 128)
        added = total[1:] - total[:-1]
        total[1:] += np.cumsum((total[:-1] - (total[1:] - added)) + (steps[1:] - added))
        logc = np.concatenate(([0.0], 0.5 * total))
        logc.setflags(write=False)
        _log_normalizers[space1.kind, space1.alpha] = logc
    return logc[:n]


def basis_normalizer(basis: BasisSpec) -> np.ndarray:
    """c_m for every scalar mode, ordered as the flattened mode list."""
    return spaces.kron([np.exp(_factor_log_normalizers(f, basis.n_modes))
                        for f in basis.space.factors])


def _factor_basis_matrix(space1: SpaceSpec, n: int, pts: np.ndarray) -> np.ndarray:
    """e_m(p) = c_m p^m on one factor: shape (n, n_points), the powers by repeated products."""
    out = np.empty((n, pts.size), dtype=complex)
    out[0] = 1.0
    for m in range(1, n):
        np.multiply(out[m - 1], pts, out=out[m])
    out *= np.exp(_factor_log_normalizers(space1, n))[:, None]
    return out


def scalar_basis_matrix(basis: BasisSpec, points) -> np.ndarray:
    """Evaluations e_m(p): shape (n_scalar, n_points); a product over the factors."""
    sp = basis.space
    parts = [_factor_basis_matrix(f, basis.n_modes, c.reshape(-1))
             for f, c in zip(sp.factors, spaces.coords(sp, points))]
    return reduce(lambda e, ei: (e[:, None, :] * ei[None, :, :]).reshape(-1, e.shape[1]), parts)


@dataclass
class CoeffFunction:
    """Element of the truncated space: coefficients against the e_m x e_k basis."""

    basis: BasisSpec
    coeffs: np.ndarray  # (n_scalar, d) complex

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.basis.n_scalar, self.basis.space.d):
            raise ValueError(
                f"coefficient shape {c.shape} does not match basis "
                f"({self.basis.n_scalar}, {self.basis.space.d})"
            )
        self.coeffs = c

    @property
    def flat(self) -> np.ndarray:
        return self.coeffs.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def eval_coeffs(f: CoeffFunction, points) -> np.ndarray:
    """Pointwise values, shape (n_points, d)."""
    E = scalar_basis_matrix(f.basis, points)
    return E.T @ f.coeffs


def factor_samples(basis: BasisSpec, rule: QuadratureRule) -> list:
    """e_m on each factor rule: (n_modes, n_factor_nodes) per pair of basis.space.factors and rule.factors.
    The one place the basis meets a rule (`rule_gram`, `rule_samples`, the localization plan's cores)."""
    return [_factor_basis_matrix(f, basis.n_modes, fr.nodes)
            for f, fr in zip(basis.space.factors, rule.factors)]


def rule_gram(basis: BasisSpec, rule: QuadratureRule, W) -> np.ndarray:
    """Grams sum_u w_u W[..., u] conj(e_m(u)) e_k(u), (..., n_nodes) -> (..., m, k); W = 1 gives <e_k, e_m>.
    One factor of the tensor mesh at a time, last first: (conj(E) w) * W @ E.T, E its `factor_samples`;
    each earlier one in one GEMM against its pair products conj(E[m, u]) w_u E[k, u], whose output is
    the only temporary it needs (the first step's product is the larger one)."""
    X = np.asarray(W).reshape((-1,) + tuple(fr.n_nodes for fr in rule.factors))
    for j, (E, fr) in enumerate(zip(factor_samples(basis, rule)[::-1], rule.factors[::-1]), 1):
        if j == 1:
            X = (E.conj() * fr.sigma_weights * X[..., None, :]) @ E.T
        else:
            pairs = (E.conj()[:, None] * fr.sigma_weights * E).reshape(-1, fr.n_nodes)
            X = (X.reshape(-1, fr.n_nodes) @ pairs.T).reshape(X.shape[:-1] + (len(E),) * 2)
        X = np.moveaxis(X, (-2, -1), (1, 1 + j))
    return X.reshape(np.shape(W)[:-1] + (basis.n_scalar,) * 2)   # X: (e, m_1, .., m_F, k_1, .., k_F)


def _kron_rows(mats, Y: np.ndarray) -> np.ndarray:
    """Stacked kron(*mats) @ Y for (cells or 1, q, n) factor stacks and Y (cells, N, c): each step
    multiplies every cell's leading mode axis at once and moves it behind the other mode axes."""
    cells, c = len(Y), Y.shape[-1]
    for A in mats:
        Y = (A @ Y.reshape(cells, A.shape[2], -1)).reshape(cells, A.shape[1], -1, c).transpose(0, 2, 1, 3)
    return Y.reshape(cells, -1, c)


def rule_samples(basis: BasisSpec, rule: QuadratureRule, C) -> np.ndarray:
    """Node values sum_m C[..., m, :] e_m(u) of a coefficient stack, (..., n_scalar, c) ->
    (..., n_nodes, c): the factor samples applied one mode axis at a time."""
    Y = _kron_rows([E.T[None] for E in factor_samples(basis, rule)],
                   C.reshape(-1, basis.n_scalar, C.shape[-1]))
    return Y.reshape(C.shape[:-2] + Y.shape[1:])


def kernel_coeff_vector(basis: BasisSpec, z) -> np.ndarray:
    """Scalar coefficients of the normalized kernel direction at z: shape (n_scalar,)
    for one point, (n_scalar, n_points) for an array of points.

    <K_z, e_m> = conj(e_m(z)).  The truncated vector is scaled to unit length,
    so identity sandwiches stay exact regardless of the truncation slack at z;
    the slack itself is available from spaces.relative_kernel_tail.
    """
    spaces.check_probe_point(basis.space, z)
    v = np.conj(scalar_basis_matrix(basis, z))
    v = v / np.linalg.norm(v, axis=0)
    return v[:, 0] if np.ndim(spaces.coords(basis.space, z)[0]) == 0 else v


def random_coeff_function(basis: BasisSpec, rng: np.random.Generator) -> CoeffFunction:
    """Seeded random unit vector of the truncated space."""
    c = rng.standard_normal((basis.n_scalar, basis.space.d)) \
        + 1j * rng.standard_normal((basis.n_scalar, basis.space.d))
    return CoeffFunction(basis, c / np.linalg.norm(c))


def random_polynomial(basis: BasisSpec, rng: np.random.Generator, degree: int) -> CoeffFunction:
    """Random unit analytic polynomial with per-factor degree at most `degree`."""
    deg = min(degree, basis.n_modes - 1)
    c = np.zeros((basis.n_scalar, basis.space.d), dtype=complex)
    rows = np.flatnonzero(spaces.kron([np.arange(basis.n_modes) <= deg] * basis.space.nfactors))
    c[rows, :] = rng.standard_normal((len(rows), basis.space.d)) \
        + 1j * rng.standard_normal((len(rows), basis.space.d))
    c /= np.linalg.norm(c)
    return CoeffFunction(basis, c)
