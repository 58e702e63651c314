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
    tensor product of two disc factors; points are pairs, the kernel and
    sigma are products, the invariant metric is the max over factors.

All three are "strong" in the sense that the structural identities relating
the kernel, the point involution phi_z and the metric hold with equality,
not just two-sided bounds.  Points are complex scalars/arrays; bidisc points
have a trailing axis of length 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import betainc, gammainc

KIND_DISC = "bergman_disc"
KIND_FOCK = "fock"
KIND_BIDISC = "bidisc"

_KINDS = (KIND_DISC, KIND_FOCK, KIND_BIDISC)


@dataclass(frozen=True)
class SpaceSpec:
    """Parameters of one model space.

    d is the dimension of the coefficient space C^d.  r_max bounds the
    modulus of admissible probe points on the disc (per factor for the
    bidisc); fock_probe_radius plays the same role on the plane, while
    fock_radius bounds the covering/localization domain.
    """

    kind: str
    alpha: float = 0.0
    alpha2: Optional[float] = None   # second bidisc factor; defaults to alpha
    d: int = 4
    r_max: float = 0.9
    fock_probe_radius: float = 3.0
    fock_radius: float = 6.0
    kappa_override: Optional[float] = None

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

    @property
    def nfactors(self) -> int:
        return 2 if self.kind == KIND_BIDISC else 1

    @property
    def alphas(self):
        a2 = self.alpha if self.alpha2 is None else self.alpha2
        return (self.alpha, a2)

    @property
    def kappa(self) -> float:
        """Size parameter gating the integral-test exponent threshold.

        Fock: 0 (the off-diagonal kernel decay is Gaussian, every positive
        exponent pair works).  Disc: 2(1+alpha)/(2+alpha), the empirical
        boundary of the (r, s) region where the normalized kernel-power
        integrals stay uniformly bounded (see scripts/run_rf_sweep.py).
        """
        if self.kappa_override is not None:
            return self.kappa_override
        if self.kind == KIND_FOCK:
            return 0.0
        if self.kind == KIND_DISC:
            return 2.0 * (1.0 + self.alpha) / (2.0 + self.alpha)
        return max(2.0 * (1.0 + a) / (2.0 + a) for a in self.alphas)

    def factor(self, i: int) -> "SpaceSpec":
        if self.kind != KIND_BIDISC:
            raise ValueError("factor() only makes sense for the bidisc")
        return replace(self, kind=KIND_DISC, alpha=self.alphas[i], alpha2=None)


def disc_space(alpha: float = 0.0, d: int = 4, **kw) -> SpaceSpec:
    return SpaceSpec(KIND_DISC, alpha=alpha, d=d, **kw)


def fock_space(d: int = 4, **kw) -> SpaceSpec:
    return SpaceSpec(KIND_FOCK, d=d, **kw)


def bidisc_space(alpha: float = 0.0, alpha2: Optional[float] = None, d: int = 4, **kw) -> SpaceSpec:
    return SpaceSpec(KIND_BIDISC, alpha=alpha, alpha2=alpha2, d=d, **kw)


def as_points(space: SpaceSpec, z) -> np.ndarray:
    """Normalize point input to a complex ndarray; bidisc gets a trailing 2-axis."""
    z = np.asarray(z, dtype=complex)
    if space.nfactors == 2:
        if z.shape == () or z.shape[-1] != 2:
            raise ValueError("bidisc points need a trailing axis of length 2")
    return z


def _on_factors(fn, space: SpaceSpec, *points) -> list:
    """fn on each disc factor of the bidisc, at that factor's coordinates."""
    return [fn(space.factor(i), *(p[..., i] for p in points)) for i in range(2)]


def point_radius(space: SpaceSpec, z) -> np.ndarray:
    """Modulus used by the admissibility gate (max over factors on the bidisc)."""
    z = as_points(space, z)
    if space.nfactors == 2:
        return np.max(np.abs(z), axis=-1)
    return np.abs(z)


def probe_radius_max(space: SpaceSpec) -> float:
    return space.fock_probe_radius if space.kind == KIND_FOCK else space.r_max


def check_probe_point(space: SpaceSpec, z) -> None:
    """Reject probe points outside the documented admissible region."""
    r = np.max(point_radius(space, z))
    lim = probe_radius_max(space)
    if r > lim + 1e-12:
        raise ValueError(
            f"probe point with radius {float(r):.4f} outside admissible region "
            f"(|z| <= {lim}) for {space.kind}"
        )


# ---------------------------------------------------------------------------
# kernels

def kernel_eval(space: SpaceSpec, z, w) -> np.ndarray:
    """Scalar part of the reproducing kernel, K_z(w); broadcasts over z and w."""
    z = as_points(space, z)
    w = as_points(space, w)
    if space.kind == KIND_DISC:
        return (1.0 - w * np.conj(z)) ** (-(2.0 + space.alpha))
    if space.kind == KIND_FOCK:
        return np.exp(w * np.conj(z))
    k1, k2 = _on_factors(kernel_eval, space, z, w)
    return k1 * k2


def kernel_norm(space: SpaceSpec, z) -> np.ndarray:
    """||K_z|| = K_z(z)^(1/2); real, blows up at the boundary of the domain."""
    z = as_points(space, z)
    if space.kind == KIND_DISC:
        return (1.0 - np.abs(z) ** 2) ** (-(2.0 + space.alpha) / 2.0)
    if space.kind == KIND_FOCK:
        return np.exp(np.abs(z) ** 2 / 2.0)
    n1, n2 = _on_factors(kernel_norm, space, z)
    return n1 * n2


def normalized_kernel_eval(space: SpaceSpec, z, w) -> np.ndarray:
    return kernel_eval(space, z, w) / kernel_norm(space, z)


def normalized_pairing(space: SpaceSpec, z, w) -> np.ndarray:
    """|<k_z, k_w>| for unit kernel directions; equals 1/||K_phi_z(w)|| here."""
    return np.abs(kernel_eval(space, z, w)) / (kernel_norm(space, z) * kernel_norm(space, w))


# ---------------------------------------------------------------------------
# involution and metric

def involution(space: SpaceSpec, z, w) -> np.ndarray:
    """phi_z(w): swaps z and the origin, phi_z(phi_z(w)) = w."""
    z = as_points(space, z)
    w = as_points(space, w)
    if space.kind == KIND_DISC:
        return (z - w) / (1.0 - np.conj(z) * w)
    if space.kind == KIND_FOCK:
        return z - w
    return np.stack(_on_factors(involution, space, z, w), axis=-1)


def metric(space: SpaceSpec, z, w) -> np.ndarray:
    """Quasi-invariant distance: arctanh |phi_z(w)| on disc factors, |z-w| on the plane."""
    z = as_points(space, z)
    w = as_points(space, w)
    if space.kind == KIND_DISC:
        return np.arctanh(np.abs((z - w) / (1.0 - np.conj(z) * w)))
    if space.kind == KIND_FOCK:
        return np.abs(z - w)
    return np.maximum(*_on_factors(metric, space, z, w))


# ---------------------------------------------------------------------------
# densities (with respect to Lebesgue area measure, per factor)

def sigma_density(space: SpaceSpec, z) -> np.ndarray:
    z = as_points(space, z)
    if space.kind == KIND_DISC:
        a = space.alpha
        return ((a + 1.0) / np.pi) * (1.0 - np.abs(z) ** 2) ** a
    if space.kind == KIND_FOCK:
        return np.exp(-np.abs(z) ** 2) / np.pi
    d1, d2 = _on_factors(sigma_density, space, z)
    return d1 * d2


# ---------------------------------------------------------------------------
# truncation-tail certificates

def _disc_tail(alpha: float, t, n_modes: int):
    # sum_{m>=N} c_m^2 t^m with c_m^2 = Gamma(m+2+alpha)/(m! Gamma(2+alpha));
    # negative-binomial tail identity gives (1-t)^(-(2+alpha)) I_t(N, 2+alpha)
    t = np.asarray(t, dtype=float)
    return (1.0 - t) ** (-(2.0 + alpha)) * betainc(n_modes, 2.0 + alpha, t)


def kernel_tail(space: SpaceSpec, z, n_modes: int) -> np.ndarray:
    """Absolute truncation residual sum_{m >= N} |e_m(z)|^2 (closed form).

    For the bidisc the residual counts every basis pair with max(m1, m2) >= N.
    """
    z = as_points(space, z)
    if space.kind == KIND_DISC:
        return _disc_tail(space.alpha, np.abs(z) ** 2, n_modes)
    if space.kind == KIND_FOCK:
        t = np.abs(z) ** 2
        # Poisson tail: sum_{m>=N} t^m/m! = e^t P(N, t)
        return np.exp(t) * gammainc(n_modes, t)
    q1 = relative_kernel_tail(space.factor(0), z[..., 0], n_modes)
    q2 = relative_kernel_tail(space.factor(1), z[..., 1], n_modes)
    return kernel_norm(space, z) ** 2 * (q1 + q2 - q1 * q2)


def relative_kernel_tail(space: SpaceSpec, z, n_modes: int) -> np.ndarray:
    return kernel_tail(space, z, n_modes) / kernel_norm(space, z) ** 2


def modes_for_tail(space: SpaceSpec, radius: float, tol: float, n_max: int = 4096) -> int:
    """Smallest truncation order whose relative kernel tail at |z| = radius is <= tol."""
    z = radius if space.nfactors == 1 else np.array([radius, radius])
    lo, hi = 1, 2
    while hi <= n_max and relative_kernel_tail(space, z, hi) > tol:
        lo, hi = hi, hi * 2
    if hi > n_max:
        raise ValueError(f"no truncation order <= {n_max} certifies radius {radius}")
    while lo < hi:
        mid = (lo + hi) // 2
        if relative_kernel_tail(space, z, mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


def rf_exponent_ok(space: SpaceSpec, r: float) -> bool:
    """Integrability gate for kernel-power integrals: radial exponent > -1."""
    if r <= 0:
        return False
    if space.kind == KIND_FOCK:
        return True
    return all(r > 2.0 / (2.0 + a) for a in (space.alphas if space.nfactors == 2 else (space.alpha,)))


# ---------------------------------------------------------------------------
# serialization

def point_to_jsonable(z):
    """Complex point (or bidisc pair) as nested {re, im} dicts."""
    z = np.asarray(z, dtype=complex)
    if z.shape == ():
        return {"re": float(z.real), "im": float(z.imag)}
    return [point_to_jsonable(p) for p in z]


def space_to_dict(space: SpaceSpec) -> dict:
    return {
        "kind": space.kind,
        "alpha": space.alpha,
        "alpha2": space.alpha2,
        "d": space.d,
        "r_max": space.r_max,
        "fock_probe_radius": space.fock_probe_radius,
        "fock_radius": space.fock_radius,
        "kappa_override": space.kappa_override,
    }


def space_from_dict(data: dict) -> SpaceSpec:
    known = {
        "kind", "alpha", "alpha2", "d", "r_max",
        "fock_probe_radius", "fock_radius", "kappa_override",
    }
    extra = set(data) - known
    if extra:
        raise ValueError(f"unknown space fields: {sorted(extra)}")
    return SpaceSpec(**data)
