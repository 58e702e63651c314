"""Quadrature rules on the model domains and the integral tests built on them.

Rules are tensor products of a radial Gauss rule in t = |z|^2, built in numpy
by the Golub-Welsch method (Math. Comp. 23, 1969), and a uniform angular grid.
The radial family is matched to the sigma-density so that monomial moments
are integrated exactly up to degree 2*radial_order - 1 in t:

* disc factors: Gauss-Jacobi with weight (1-t)^alpha on [0, 1]
  (alpha = 0 reduces to Gauss-Legendre on [0, 1]);
* fock: Gauss-Laguerre with weight e^(-t) on [0, inf), so no radial cutoff
  is imposed and sum(weights) = sigma(domain) = 1 holds exactly.

No operator reads a rule for a ball: `operators.toeplitz_matrix` assembles
indicator symbols in closed form.  The region-aligned rule below (a Gauss
grid mapped onto a disc) is the tests' oracle for them.  Nor do the
kernel-power integrals of `rudin_forelli` read a rule: they are series in
|z|^2, summed to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import spaces
from .spaces import (
    KIND_BIDISC,
    KIND_DISC,
    KIND_FOCK,
    SpaceSpec,
    kernel_norm,
    sigma_density,
)

DEFAULT_RADIAL_ORDER = 40
DEFAULT_ANGULAR_ORDER = 64
BIDISC_RADIAL_ORDER = 12
BIDISC_ANGULAR_ORDER = 16


@dataclass(frozen=True, eq=False)   # identity equality and hash: the fields are arrays
class QuadratureRule:
    space: SpaceSpec
    nodes: np.ndarray          # (n,) complex, or (n, nfactors) on a product space
    sigma_weights: np.ndarray  # (n,) real, sums to sigma of the covered region
    radial_order: int
    angular_order: int
    factor_rules: tuple = ()   # a product rule's one-factor rules, see `factors`

    @property
    def factors(self) -> tuple:
        """The one-factor rules of this tensor mesh, first factor slowest; (self,) on one factor."""
        if self.space.nfactors == 1:
            return (self,)
        if len(self.factor_rules) != self.space.nfactors:
            raise ValueError("a product rule needs the one-factor rules of its tensor mesh")
        return self.factor_rules

    @property
    def n_nodes(self) -> int:
        return self.sigma_weights.shape[0]

    @property
    def lambda_weights(self) -> np.ndarray:
        return self.sigma_weights * kernel_norm(self.space, self.nodes) ** 2


def _orthonormal_sweep(x, a, sb):
    """q_n(x), q_n'(x) and sum_{k<n} q_k(x)^2 for the orthonormal recurrence
    sb[k+1] q_{k+1} = (x - a[k]) q_k - sb[k] q_{k-1}, q_0 = 1 (sb[0] = 0)."""
    q0, q1, d0, d1, total = 0.0, np.ones_like(x), 0.0, 0.0, 0.0
    for k in range(len(a)):
        total = total + q1 ** 2
        q0, q1 = q1, ((x - a[k]) * q1 - sb[k] * q0) / sb[k + 1]
        d0, d1 = d1, ((x - a[k]) * d1 + q0 - sb[k] * d0) / sb[k + 1]
    return q1, d1, total


@lru_cache(maxsize=None)
def _radial_rule(kind: str, alpha: float, order: int):
    """Read-only Gauss rule (t, weights) for a factor's radial sigma-density in t = |z|^2.

    Disc: weight (alpha+1)(1-t)^alpha on [0, 1], Gauss-Jacobi(alpha, 0) mapped
    from [-1, 1] (Gauss-Legendre at alpha = 0); Fock: Gauss-Laguerre, weight
    e^(-t) on [0, inf).  The nodes are the eigenvalues of the Jacobi matrix of
    the monic recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1}, polished by one
    Newton step; the weights are the Christoffel numbers mu0 / sum_k q_k(x)^2,
    q_k orthonormal for the weight / mu0 (so q_0 = 1).
    """
    k = np.arange(1.0, order + 1.0)
    if kind == KIND_FOCK:
        a, b, mu0 = 2.0 * k - 1.0, k ** 2, 1.0
    else:
        s = 2.0 * k + alpha
        a = np.concatenate(([-alpha / (alpha + 2.0)], -alpha ** 2 / (s[:-1] * (s[:-1] + 2.0))))
        b = 4.0 * k ** 2 * (k + alpha) ** 2 / (s ** 2 * (s ** 2 - 1.0))
        mu0 = 2.0 ** (alpha + 1.0) / (alpha + 1.0)
    sb = np.sqrt(np.concatenate(([0.0], b)))
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(sb[1:-1], -1))
    q, dq, _ = _orthonormal_sweep(x, a, sb)
    x = x - q / dq
    w = mu0 / _orthonormal_sweep(x, a, sb)[2]
    if kind != KIND_FOCK:
        x, w = (x + 1.0) / 2.0, w * (alpha + 1.0) * 0.5 ** (alpha + 1.0)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _polar_grid(t, wt, angular_order: int):
    th = 2.0 * np.pi * np.arange(angular_order) / angular_order
    T, TH = np.meshgrid(t, th, indexing="ij")
    nodes = np.sqrt(T) * np.exp(1j * TH)
    W = np.repeat((wt / angular_order)[:, None], angular_order, axis=1)
    return nodes.ravel(), W.ravel()


def rule_orders(space: SpaceSpec, radial_order=None, angular_order=None):
    """(radial, angular) orders of the space's rule; None takes the space's default."""
    if space.kind == KIND_BIDISC:
        defaults = (BIDISC_RADIAL_ORDER, BIDISC_ANGULAR_ORDER)
    else:
        defaults = (DEFAULT_RADIAL_ORDER, DEFAULT_ANGULAR_ORDER)
    return tuple(d if o is None else o for d, o in zip(defaults, (radial_order, angular_order)))


def build_rule(
    space: SpaceSpec,
    radial_order: Optional[int] = None,
    angular_order: Optional[int] = None,
) -> QuadratureRule:
    """Tensor sigma-rule on the full domain.

    On a product space it is the product of the factor rules, the first
    factor's nodes varying slowest, and keeps them as `factors`.  Orders left
    as None take the space's defaults; any other value must be a positive
    integer (ValueError otherwise), since zero nodes make no rule.
    """
    for name, order in (("radial_order", radial_order), ("angular_order", angular_order)):
        if order is not None and (isinstance(order, bool)
                                  or not isinstance(order, (int, np.integer)) or order < 1):
            raise ValueError(f"{name} must be a positive integer, got {order!r}")
    nr, na = rule_orders(space, radial_order, angular_order)
    factors = tuple(QuadratureRule(f, *_polar_grid(*_radial_rule(f.kind, f.alpha, nr), na), nr, na)
                    for f in space.factors)
    if len(factors) == 1:
        return factors[0]
    mesh = np.meshgrid(*[fr.nodes for fr in factors], indexing="ij")
    return QuadratureRule(space, spaces.point(space, [m.ravel() for m in mesh]),
                          spaces.kron([fr.sigma_weights for fr in factors]), nr, na, factors)


def integrate_sigma(rule: QuadratureRule, values) -> complex:
    return np.sum(rule.sigma_weights * np.asarray(values))


def integrate_lambda(rule: QuadratureRule, values) -> complex:
    return np.sum(rule.lambda_weights * np.asarray(values))


# ---------------------------------------------------------------------------
# region-aligned rules for balls (the tests' indicator oracle)

def ball_rule(
    space: SpaceSpec,
    center: complex,
    radius: float,
    radial_order: int = 40,
    angular_order: int = 64,
) -> QuadratureRule:
    """Sigma-rule supported on the Euclidean disc D(center, radius).

    The integrand picks up the sigma-density explicitly, so the rule is
    spectrally accurate for smooth functions.  It is exact for polynomials only
    where that density is constant (the disc at alpha = 0); (1-|w|^2)^alpha and
    the Fock Gaussian are smooth but not polynomial factors.  No run path calls it: the
    tests' oracle for ball Toeplitz operators, kept while the benchmark traces it.
    """
    if space.nfactors > 1:
        raise ValueError("ball rules are per-factor")
    if space.kind == KIND_DISC and abs(center) + radius >= 1.0:
        raise ValueError("ball sticks out of the disc")
    s, gw = _radial_rule(KIND_DISC, 0.0, radial_order)   # |w - c| = radius * sqrt(s)
    th = 2.0 * np.pi * np.arange(angular_order) / angular_order
    S, TH = np.meshgrid(s, th, indexing="ij")
    nodes = (center + radius * np.sqrt(S) * np.exp(1j * TH)).ravel()
    # dA = (radius^2/2) ds dtheta in these coordinates
    area_w = np.repeat((gw * np.pi * radius**2 / angular_order)[:, None], angular_order, axis=1).ravel()
    weights = area_w * sigma_density(space, nodes)
    return QuadratureRule(space, nodes, weights, radial_order, angular_order)


# ---------------------------------------------------------------------------
# matrix-valued Schur test

@dataclass
class MatrixKernelSample:
    """Nonnegative matrix kernel sampled on node pairs with measure weights.

    values[x, y, i, k] >= 0; mu_weights weight the x-nodes, nu_weights the
    y-nodes.  The associated discrete operator maps L^2(nu) x C^d to
    L^2(mu) x C^d via (Tf)(x, i) = sum_{y,k} nu_y values[x,y,i,k] f(y,k).
    """

    values: np.ndarray
    mu_weights: np.ndarray
    nu_weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 4 or v.shape[2] != v.shape[3]:
            raise ValueError("values must have shape (nx, ny, d, d)")
        if np.any(v < -1e-15):
            raise ValueError("Schur test requires a nonnegative kernel")
        self.values = np.maximum(v, 0.0)
        self.mu_weights = np.asarray(self.mu_weights, dtype=float)
        self.nu_weights = np.asarray(self.nu_weights, dtype=float)


def schur_test(sample: MatrixKernelSample, p: float = 2.0, h_x=None, h_y=None) -> dict:
    """Two-sided Schur bound for the discrete operator of `sample`.

    With q the conjugate exponent, a positive test weight h and

        C1 = max_{x,i} h(x)^-q sum_y nu_y h(y)^q sum_k M[x,y,i,k]
        C2 = max_{y,k} h(y)^-p sum_x mu_x h(x)^p sum_i M[x,y,i,k]

    the operator norm is at most C1^(1/q) * C2^(1/p).
    """
    if p <= 1:
        raise ValueError("Schur test needs p > 1")
    q = p / (p - 1.0)
    nx, ny, d, _ = sample.values.shape
    hx = np.ones(nx) if h_x is None else np.asarray(h_x, dtype=float)
    hy = np.ones(ny) if h_y is None else np.asarray(h_y, dtype=float)
    if np.any(hx <= 0) or np.any(hy <= 0):
        raise ValueError("test weight must be positive")
    row = np.einsum("y,xyik->xi", sample.nu_weights * hy**q, sample.values)
    c1 = float(np.max(row / hx[:, None] ** q))
    col = np.einsum("x,xyik->yk", sample.mu_weights * hx**p, sample.values)
    c2 = float(np.max(col / hy[:, None] ** p))
    return {"C1": c1, "C2": c2, "bound": c1 ** (1.0 / q) * c2 ** (1.0 / p), "p": p, "q": q}


def discretized_norm(sample: MatrixKernelSample) -> float:
    """Largest singular value of the weighted flattening of the sample."""
    nx, ny, d, _ = sample.values.shape
    a = sample.values * np.sqrt(sample.mu_weights)[:, None, None, None]
    a = a * sample.nu_weights[None, :, None, None] / np.sqrt(sample.nu_weights)[None, :, None, None]
    flat = a.transpose(0, 2, 1, 3).reshape(nx * d, ny * d)
    return float(np.linalg.norm(flat, 2))


# ---------------------------------------------------------------------------
# normalized kernel-power integrals, in closed form

RF_TERM_CAP = 2 ** 16   # terms of the disc series; |z|^2 = 0.998 needs 16384


def _hyp2f1_aa(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """2F1(a, a; b; x) = sum_k (a)_k^2 x^k / ((b)_k k!) for x in [0, 1), b > 2a: non-negative
    terms, with t_{k+1} <= x t_k from k0 = (a^2 - b) / (b + 1 - 2a) on.  One log-space table
    for all x, summed by np.sum, doubles from 64 terms until the rest's geometric bound
    t_last x / (1 - x) at the largest x (the largest share) is below 1e-17 of its sum;
    ValueError past RF_TERM_CAP terms, never a silent cut."""
    top, k0 = float(np.max(x)), (a * a - b) / (b + 1.0 - 2.0 * a)
    with np.errstate(divide="ignore"):   # log 0 = -inf: x = 0, or (a)_k = 0 from some k on
        for L in (2 ** k for k in range(6, RF_TERM_CAP.bit_length())):
            k = np.arange(1.0, L)   # logt: log t_k - k log x, k >= 1; top_t: log t_k at the largest x
            logt = np.cumsum(2.0 * np.log(np.abs(a + k - 1.0)) - np.log(b + k - 1.0) - np.log(k))
            top_t = logt + k * np.log(top)
            rest = top_t[-1] + np.log(top / (1.0 - top)) - np.log(1.0 + np.exp(top_t).sum())
            if L - 1 >= k0 and rest < np.log(1e-17):
                return 1.0 + np.sum(np.exp(logt + np.multiply.outer(np.log(x), k)), axis=-1)
    raise ValueError(f"the kernel-power series at |z|^2 = {top} needs more than {RF_TERM_CAP} terms")


@dataclass
class RudinForelliReport:
    r: float
    s: float
    I: np.ndarray
    J: np.ndarray
    ratio: np.ndarray
    sup_I: float


def rudin_forelli(space: SpaceSpec, z_grid, r: float, s: float) -> RudinForelliReport:
    """I(z) = int |<K_z, K_w>|^((r+s)/2) / (||K_z||^s ||K_w||^r) d lambda(w) and its companion
    J(z) = int |<K_z, K_w>|^((r-s)/2) / ||K_w||^r d lambda(w) over a z-grid, in closed form.

    The kernel's power series integrates term by term (the Forelli-Rudin integrals: Zhu,
    Spaces of Holomorphic Functions in the Unit Ball, GTM 226, 1.4).  On a disc factor, with
    g = 2 + alpha, x = |z|^2, A = g(r-s)/4, c = g(r+s)/4 and b = g r/2, J = (alpha+1)
    2F1(A, A; b; x) / (b-1) and I = (alpha+1) (1-x)^(g s/2) 2F1(c, c; b; x) / (b-1), which
    Euler's transformation (DLMF 15.8.1) makes equal; the series converges up to x = 1, as
    b - 2A = g s/2 > 0.  On the Fock space I = J = (2/r) exp((r-s)^2 x / (8r)), and on a
    product both are the product of the factor values: J/I = 1 for every pair (r, s).
    Non-integrable pairs (s <= 0, or b <= 1: a radial boundary exponent <= -1) and empty or
    inadmissible grids are rejected up front."""
    least_r = max(0.0 if f.kind == KIND_FOCK else 2.0 / (2.0 + f.alpha) for f in space.factors)
    if not (s > 0 and r > least_r):
        raise ValueError(f"non-integrable kernel-power integrand for r={r}, s={s} on {space.kind}: "
                         "the exponents must be positive and the radial boundary exponent > -1")
    I = 1.0
    for f, c in zip(space.factors, spaces.coords(space, spaces.probe_points(space, z_grid))):
        x, g = np.abs(c.reshape(-1)) ** 2, 2.0 + f.alpha
        I = I * ((2.0 / r) * np.exp((r - s) ** 2 * x / (8.0 * r)) if f.kind == KIND_FOCK else
                 (f.alpha + 1.0) * _hyp2f1_aa(g * (r - s) / 4.0, g * r / 2.0, x) / (g * r / 2.0 - 1.0))
    return RudinForelliReport(r, s, I, I, np.ones_like(I), float(np.max(I)))
