"""Concrete model spaces for the vector-valued reproducing-kernel laboratory.

Three models are supported, each a space of analytic functions with values in
C^d, square-integrable against a probability measure sigma on the domain:

``bergman_disc``
    weighted Bergman space on the unit disc, weight parameter alpha > -1,
    d sigma = ((alpha+1)/pi) (1-|z|^2)^alpha dA,
    K_z(w) = (1 - w conj(z))^(-(2+alpha)) (scalar kernel, tensored with I_d).

``fock``
    Gaussian (Fock) space on the plane,
    d sigma = (1/pi) exp(-|z|^2) dA,  K_z(w) = exp(w conj(z)).

``bidisc``
    product of two disc factors (weights alpha and alpha2).

A space is a tuple of one-factor spaces, ``space.factors``: ``(space,)`` for
the disc and the Fock space, two discs for the bidisc.  Every formula here is
written once per factor and folded over that tuple: the kernel, its norm and
sigma are products, the involution acts coordinatewise and the invariant
metric is the max over factors.  Points are complex scalars/arrays on one
factor; on a product space they carry a trailing axis with one coordinate
per factor (`coords` splits a point, `point` joins it again).

All three are "strong" in the sense that the structural identities relating
the kernel, the point involution phi_z and the metric hold with equality,
not just two-sided bounds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import Optional

import numpy as np

KIND_DISC = "bergman_disc"
KIND_FOCK = "fock"
KIND_BIDISC = "bidisc"

_KINDS = (KIND_DISC, KIND_FOCK, KIND_BIDISC)


@dataclass(frozen=True)
class SpaceSpec:
    """Parameters of one model space.

    d is the dimension of the coefficient space C^d.  r_max bounds the
    modulus of admissible probe points on the disc (per factor for the
    bidisc); fock_probe_radius plays the same role on the plane.
    """

    kind: str
    alpha: float = 0.0
    alpha2: Optional[float] = None   # second bidisc factor; defaults to alpha
    d: int = 4
    r_max: float = 0.9
    fock_probe_radius: float = 3.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if min(self.alphas) <= -1:
            raise ValueError("disc weights must satisfy alpha > -1 and alpha2 > -1")
        if self.d < 1:
            raise ValueError("component dimension d must be >= 1")
        if not (0 < self.r_max < 1):
            raise ValueError("r_max must lie in (0, 1)")
        if not self.fock_probe_radius > 0:
            raise ValueError("fock_probe_radius must be positive")

    @cached_property
    def factors(self) -> tuple:
        """One-factor spaces whose product is this space; (self,) unless a bidisc."""
        if self.kind != KIND_BIDISC:
            return (self,)
        return tuple(replace(self, kind=KIND_DISC, alpha=a, alpha2=None) for a in self.alphas)

    @cached_property
    def nfactors(self) -> int:
        return len(self.factors)

    @property
    def alphas(self):
        a2 = self.alpha if self.alpha2 is None else self.alpha2
        return (self.alpha, a2)

    @property
    def kappa(self) -> float:
        """Size parameter of the RKT integral tests: it sets their exponent threshold
        `analysis.RktReport.p_threshold` = (4 - kappa)/(2 - kappa), which a report's p must
        exceed to be admissible.

        Disc: 2(1+alpha)/(2+alpha), so the threshold is 3 + alpha.  Fock: 0 (the
        off-diagonal kernel decay is Gaussian), so the threshold is 2.  On a product, the
        largest over the factors.
        """
        return max(0.0 if f.kind == KIND_FOCK else 2.0 * (1.0 + f.alpha) / (2.0 + f.alpha)
                   for f in self.factors)


def disc_space(alpha: float = 0.0, d: int = 4, **kw) -> SpaceSpec:
    return SpaceSpec(KIND_DISC, alpha=alpha, d=d, **kw)


def fock_space(d: int = 4, **kw) -> SpaceSpec:
    return SpaceSpec(KIND_FOCK, d=d, **kw)


def bidisc_space(alpha: float = 0.0, alpha2: Optional[float] = None, d: int = 4, **kw) -> SpaceSpec:
    return SpaceSpec(KIND_BIDISC, alpha=alpha, alpha2=alpha2, d=d, **kw)


def as_points(space: SpaceSpec, z) -> np.ndarray:
    """Normalize point input to a complex ndarray; product spaces get a trailing factor axis."""
    z = np.asarray(z, dtype=complex)
    k = space.nfactors
    if k > 1 and (z.shape == () or z.shape[-1] != k):
        raise ValueError(f"{space.kind} points need a trailing axis of length {k}")
    return z


def coords(space: SpaceSpec, z) -> list:
    """Per-factor coordinate arrays of the point(s) z, one entry per space.factors."""
    z = as_points(space, z)
    k = space.nfactors
    return [z] if k == 1 else [z[..., i] for i in range(k)]


def point(space: SpaceSpec, parts):
    """Inverse of coords: the coordinate itself on one factor, else stacked on a trailing axis."""
    if space.nfactors == 1:
        return parts[0]
    return np.stack(parts, axis=-1)


def kron(parts):
    """Kronecker product of per-factor arrays, first factor slowest (the flattened mode order)."""
    return reduce(np.kron, parts)


def _on_factors(fn, space: SpaceSpec, *points) -> list:
    """[fn(factor, that factor's coordinates of each point) for each factor of a product].

    Callers fold the list left to right, so the bidisc runs the operations of
    the two-factor formulas.  Products fold with operator.mul, not
    np.multiply: on numpy scalars the two may round differently.
    """
    return [fn(*part) for part in zip(space.factors, *[coords(space, p) for p in points])]


def point_radius(space: SpaceSpec, z) -> np.ndarray:
    """Modulus used by the admissibility gate (max over factors)."""
    if space.nfactors > 1:
        return reduce(np.maximum, _on_factors(point_radius, space, z))
    return np.abs(as_points(space, z))


def probe_radius_max(space: SpaceSpec) -> float:
    return space.fock_probe_radius if space.kind == KIND_FOCK else space.r_max


def probe_points(space: SpaceSpec, grid, name: str = "z_grid") -> np.ndarray:
    """The one gate of every probe point, a grid or a single point: the input as one point
    array, after refusing (ValueError) an empty input, by name, and any point of radius above
    `probe_radius_max`, by that radius."""
    if not np.size(grid):
        raise ValueError(f"the probe grid {name} is empty")
    points, lim = as_points(space, grid), probe_radius_max(space)
    if (r := np.max(point_radius(space, points))) > lim + 1e-12:
        raise ValueError(f"probe point with radius {float(r):.4f} outside admissible region "
                         f"(|z| <= {lim}) for {space.kind}")
    return points


# ---------------------------------------------------------------------------
# kernels (each function: the one-factor formula, or a fold over the factors)

def kernel_eval(space: SpaceSpec, z, w) -> np.ndarray:
    """Scalar part of the reproducing kernel, K_z(w); broadcasts over z and w."""
    if space.nfactors > 1:
        return reduce(operator.mul, _on_factors(kernel_eval, space, z, w))
    z = as_points(space, z)
    w = as_points(space, w)
    if space.kind == KIND_DISC:
        return (1.0 - w * np.conj(z)) ** (-(2.0 + space.alpha))
    return np.exp(w * np.conj(z))


def kernel_norm(space: SpaceSpec, z) -> np.ndarray:
    """||K_z|| = K_z(z)^(1/2); real, blows up at the boundary of the domain."""
    if space.nfactors > 1:
        return reduce(operator.mul, _on_factors(kernel_norm, space, z))
    z = as_points(space, z)
    if space.kind == KIND_DISC:
        return (1.0 - np.abs(z) ** 2) ** (-(2.0 + space.alpha) / 2.0)
    return np.exp(np.abs(z) ** 2 / 2.0)


def normalized_kernel_eval(space: SpaceSpec, z, w) -> np.ndarray:
    return kernel_eval(space, z, w) / kernel_norm(space, z)


def normalized_pairing(space: SpaceSpec, z, w) -> np.ndarray:
    """|<k_z, k_w>| for unit kernel directions; equals 1/||K_phi_z(w)|| here."""
    return np.abs(kernel_eval(space, z, w)) / (kernel_norm(space, z) * kernel_norm(space, w))


# ---------------------------------------------------------------------------
# involution and metric

def involution(space: SpaceSpec, z, w) -> np.ndarray:
    """phi_z(w): swaps z and the origin, phi_z(phi_z(w)) = w; coordinatewise on products."""
    if space.nfactors > 1:
        return point(space, _on_factors(involution, space, z, w))
    z = as_points(space, z)
    w = as_points(space, w)
    if space.kind == KIND_DISC:
        return (z - w) / (1.0 - np.conj(z) * w)
    return z - w


def metric(space: SpaceSpec, z, w) -> np.ndarray:
    """Quasi-invariant distance: arctanh |phi_z(w)| on disc factors, |z-w| on the plane,
    the max over factors on products."""
    if space.nfactors > 1:
        return reduce(np.maximum, _on_factors(metric, space, z, w))
    z = as_points(space, z)
    w = as_points(space, w)
    if space.kind == KIND_DISC:
        # x = |phi_z(w)| has x^2 = |z-w|^2 / q and 1 - x^2 = (1-|z|^2)(1-|w|^2) / q with
        # q = |1 - conj(z) w|^2, so arctanh x = arcsinh(x / sqrt(1 - x^2)) is the form
        # below.  It never forms 1 - x, which cancels near the boundary, and each of its
        # steps is symmetric in z and w: metric(z, w) == metric(w, z) bit for bit.
        gap = [np.sqrt(1.0 - p.real ** 2 - p.imag ** 2) for p in (z, w)]
        return np.arcsinh(np.abs(z - w) / (gap[0] * gap[1]))
    return np.abs(z - w)


# ---------------------------------------------------------------------------
# densities (with respect to Lebesgue area measure, per factor)

def sigma_density(space: SpaceSpec, z) -> np.ndarray:
    if space.nfactors > 1:
        return reduce(operator.mul, _on_factors(sigma_density, space, z))
    z = as_points(space, z)
    if space.kind == KIND_DISC:
        return ((space.alpha + 1.0) / np.pi) * (1.0 - np.abs(z) ** 2) ** space.alpha
    return np.exp(-np.abs(z) ** 2) / np.pi


# ---------------------------------------------------------------------------
# kernel tails

def relative_kernel_tail(space: SpaceSpec, z, n_modes: int) -> np.ndarray:
    """Share q of ||K_z||^2 that the truncation drops: sum_{m >= N} |e_m(z)|^2 / ||K_z||^2.

    On one factor the terms p_m = c_m^2 t^m / ||K_z||^2, t = |z|^2, are negative
    binomial (disc, order 2 + alpha) or Poisson (Fock) probabilities.  q sums them
    from m = N until they fall below 1e-17 of the sum; where the first N hold at
    most half the mass it is 1 minus their sum instead, as near t = 1 the series
    from N needs about 37/(1 - t) terms.  On a product space q counts every mode
    tuple with some m_i >= N: the factors' shares q_i combine as q + q_i - q q_i.
    """
    if space.nfactors > 1:
        return reduce(lambda q, qi: q + qi - q * qi,
                      _on_factors(lambda f, c: relative_kernel_tail(f, c, n_modes), space, z))
    t, a = np.abs(as_points(space, z)) ** 2, 2.0 + space.alpha
    if space.kind == KIND_DISC:     # p_0 and the ratios p_m / p_{m-1}
        p, ratio = (1.0 - t) ** a, lambda m: t * (m - 1 + a) / m
    else:
        p, ratio = np.exp(-t), lambda m: t / m
    head = np.zeros_like(t)
    for m in range(1, n_modes + 1):
        head = head + p
        p = p * ratio(m)
    active = head > 0.5
    tail, m = np.zeros_like(t), n_modes
    while np.any(active):
        tail = tail + np.where(active, p, 0.0)
        m += 1
        p = p * ratio(m)
        active &= p > 1e-17 * tail
    return np.where(head > 0.5, tail, 1.0 - head)
