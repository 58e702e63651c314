"""Metric coverings and the localization estimate.

A covering partitions the node-sampled domain into cells of invariant-metric
diameter at most 4r, together with r-enlargements realized as membership
predicates at the quadrature nodes:

* disc factors: annuli of constant rapidity width 2r (rapidity = invariant
  distance to 0, additive along rays) split into sectors whose angular width
  costs at most another 2r of metric diameter at the annulus's outer radius;
* Fock: axis-aligned squares of side 2*sqrt(2)*r (Euclidean diameter 4r)
  tiling a box that contains every node;
* product spaces: products of per-factor cells (max metric), keyed by the
  row-major index of their factor cells.

Enlargements are conservative coordinate boxes that contain the exact
r-neighborhoods, so the measured overlap multiplicity upper-bounds the true
one.  Only cells holding at least one node are materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import List, Optional

import numpy as np

from . import spaces
from .coeffs import scalar_basis_matrix
from .operators import OperatorMatrix
from .quadrature import QuadratureRule, build_rule
from .spaces import KIND_DISC, SpaceSpec

_TWO_PI = 2.0 * np.pi


def _diameter(space1: SpaceSpec, pts: np.ndarray) -> float:
    """Max pairwise metric distance of single-factor points.

    The pairwise matrix is reduced 256 rows at a time, so memory stays linear
    in the number of points (a cell can hold the whole rule).
    """
    return max(float(np.max(spaces.metric(space1, pts[i:i + 256, None], pts[None, :])))
               for i in range(0, pts.shape[0], 256))


@dataclass
class Covering:
    space: SpaceSpec
    r: float
    rule: QuadratureRule
    cells: List[dict]                  # descriptors of node-populated cells
    cell_index: np.ndarray             # node -> cell position in `cells`
    enlargement: np.ndarray            # (n_cells, n_nodes) bool membership
    multiplicity: int                  # max over nodes of enlargement count

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_node_counts(self) -> np.ndarray:
        return np.bincount(self.cell_index, minlength=self.n_cells)

    def cell_diameters(self) -> np.ndarray:
        """Exact max pairwise invariant distance between nodes of each cell.

        The max metric of a product factorizes, so only the (deduplicated)
        per-factor node sets are compared pairwise.
        """
        pts = spaces.as_points(self.space, self.rule.nodes)
        out = np.zeros(self.n_cells)
        for j in range(self.n_cells):
            sel = pts[self.cell_index == j]
            if sel.shape[0] < 2:
                continue
            out[j] = max(_diameter(f, np.unique(c))
                         for f, c in zip(self.space.factors, spaces.coords(self.space, sel)))
        return out

    def multiplicity_per_node(self) -> np.ndarray:
        return self.enlargement.sum(axis=0)


def _angular_halfwidth(step: float, rho: float) -> float:
    """Largest angle whose arc at Euclidean radius rho stays within invariant
    distance `step`; pi (no constraint) when the whole circle fits."""
    if rho <= 1e-12:
        return np.pi
    arg = np.sinh(step) * (1.0 - rho * rho) / (2.0 * rho)
    if arg >= 1.0:
        return np.pi
    return float(np.arcsin(arg))


def _disc_layout(r: float, s_max: float) -> List[dict]:
    n_annuli = max(1, int(np.ceil(s_max / (2.0 * r))))
    layout = []
    for k in range(n_annuli):
        s_lo, s_hi = 2.0 * r * k, 2.0 * r * (k + 1)
        if k == 0:
            # any two points of rapidity <= 2r are within 4r through the origin
            n_sec = 1
        else:
            half = _angular_halfwidth(2.0 * r, np.tanh(s_hi))
            n_sec = 1 if half >= np.pi else int(np.ceil(np.pi / half))
        layout.append({"s_lo": s_lo, "s_hi": s_hi, "n_sectors": n_sec})
    return layout


def _disc_cells(space1, r: float, pts: np.ndarray):
    s = spaces.metric(space1, 0.0, pts)
    theta = np.mod(np.angle(pts), _TWO_PI)
    layout = _disc_layout(r, float(s.max()) + 1e-9)
    annulus = np.minimum((s / (2.0 * r)).astype(int), len(layout) - 1)
    cells, keys = [], {}
    index = np.zeros(pts.shape[0], dtype=int)
    for u in range(pts.shape[0]):
        k = annulus[u]
        width = _TWO_PI / layout[k]["n_sectors"]
        j = min(int(theta[u] / width), layout[k]["n_sectors"] - 1)
        if (k, j) not in keys:
            keys[(k, j)] = len(cells)
            cells.append({
                "kind": "annulus_sector",
                "s_lo": layout[k]["s_lo"], "s_hi": layout[k]["s_hi"],
                "theta_lo": j * width, "theta_hi": (j + 1) * width,
            })
        index[u] = keys[(k, j)]
    # enlargement boxes: rapidity +- r, angle inflated by the halfwidth of a
    # metric-r arc at the innermost enlarged radius (worst case)
    member = np.zeros((len(cells), pts.shape[0]), dtype=bool)
    for j, c in enumerate(cells):
        s_lo, s_hi = max(c["s_lo"] - r, 0.0), c["s_hi"] + r
        radial = (s >= s_lo - 1e-12) & (s <= s_hi + 1e-12)
        rho_lo = np.tanh(max(s_lo, 0.0))
        delta = _angular_halfwidth(r, rho_lo)
        center = 0.5 * (c["theta_lo"] + c["theta_hi"])
        halfw = 0.5 * (c["theta_hi"] - c["theta_lo"]) + delta
        if halfw >= np.pi:
            angular = np.ones_like(radial)
        else:
            wrapped = np.abs(np.mod(theta - center + np.pi, _TWO_PI) - np.pi)
            angular = wrapped <= halfw + 1e-12
        member[j] = radial & angular
    return cells, index, member


def _fock_cells(r: float, pts: np.ndarray):
    side = 2.0 * np.sqrt(2.0) * r
    extent = float(np.max(np.abs(np.concatenate([pts.real, pts.imag])))) + 1e-9
    n_side = max(1, int(np.ceil(2.0 * extent / side)))
    lo = -0.5 * n_side * side
    ix = np.minimum(((pts.real - lo) / side).astype(int), n_side - 1)
    iy = np.minimum(((pts.imag - lo) / side).astype(int), n_side - 1)
    cells, keys = [], {}
    index = np.zeros(pts.shape[0], dtype=int)
    for u in range(pts.shape[0]):
        key = (ix[u], iy[u])
        if key not in keys:
            keys[key] = len(cells)
            cells.append({
                "kind": "square",
                "x_lo": lo + ix[u] * side, "x_hi": lo + (ix[u] + 1) * side,
                "y_lo": lo + iy[u] * side, "y_hi": lo + (iy[u] + 1) * side,
            })
        index[u] = keys[key]
    member = np.zeros((len(cells), pts.shape[0]), dtype=bool)
    for j, c in enumerate(cells):
        member[j] = ((pts.real >= c["x_lo"] - r - 1e-12) & (pts.real <= c["x_hi"] + r + 1e-12)
                     & (pts.imag >= c["y_lo"] - r - 1e-12) & (pts.imag <= c["y_hi"] + r + 1e-12))
    return cells, index, member


def _product_cells(parts):
    """Node-populated products of factor cells, ordered by their row-major key."""
    cells, index, member = zip(*parts)
    shape = [len(c) for c in cells]
    uniq, index = np.unique(np.ravel_multi_index(index, shape), return_inverse=True)
    prod_cells, prod_member = [], np.zeros((len(uniq), member[0].shape[1]), dtype=bool)
    for j, key in enumerate(zip(*np.unravel_index(uniq, shape))):
        prod_cells.append({"kind": "product",
                           **{f"factor{i + 1}": c[a] for i, (c, a) in enumerate(zip(cells, key))}})
        prod_member[j] = reduce(np.logical_and, (m[a] for m, a in zip(member, key)))
    return prod_cells, np.asarray(index, dtype=int), prod_member


def build_covering(space: SpaceSpec, r: float, rule: Optional[QuadratureRule] = None) -> Covering:
    if r <= 0:
        raise ValueError("covering radius must be positive")
    if rule is None:
        rule = build_rule(space)
    parts = [_disc_cells(f, r, c) if f.kind == KIND_DISC else _fock_cells(r, c)
             for f, c in zip(space.factors, spaces.coords(space, rule.nodes))]
    cells, index, member = parts[0] if len(parts) == 1 else _product_cells(parts)
    if not np.all(member[index, np.arange(len(index))]):
        raise AssertionError("enlargement must contain its own cell")
    mult = int(member.sum(axis=0).max())
    return Covering(space, float(r), rule, cells, index, member, mult)


# ---------------------------------------------------------------------------
# localization

def localization_error(T: OperatorMatrix, covering: Covering) -> float:
    """Distance from T to its covering localization, in grid space.

    The localization applies T after compressing to each enlargement G_j and
    keeps only the samples in the core cell F_j; the returned value is the
    largest singular value of (T - localization) as a map from coefficients to
    sigma-weighted grid samples.
    """
    basis = T.basis
    rule = covering.rule
    d = basis.space.d
    E = scalar_basis_matrix(basis, rule.nodes)
    Ew = E.conj() * rule.sigma_weights[None, :]
    A = np.kron(E.T, np.eye(d)) @ T.mat     # coefficients -> grid samples (node, component)
    L = np.zeros_like(A)
    for j in range(covering.n_cells):
        gmask = covering.enlargement[j]
        scalar_g = (Ew[:, gmask]) @ E[:, gmask].T       # compression to 1_{G_j}
        rows = np.where(covering.cell_index == j)[0]
        row_idx = (rows[:, None] * d + np.arange(d)[None, :]).ravel()
        L[row_idx, :] = A[row_idx] @ np.kron(scalar_g, np.eye(d))
    w = np.repeat(np.sqrt(rule.sigma_weights), d)
    return float(np.linalg.norm(w[:, None] * (A - L), 2))
