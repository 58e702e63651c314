"""Metric coverings and the localization estimate.

A covering partitions the node-sampled domain into cells of invariant-metric
diameter at most 4r, together with r-enlargements realized as membership
predicates at the quadrature nodes.  Each factor keys its cells by integer
arithmetic on its distinct coordinates:

* disc factors: annuli of constant rapidity width 2r (rapidity = invariant
  distance to 0, additive along rays) split into sectors whose angular width
  costs at most another 2r of metric diameter at the annulus's outer radius;
  annulus k, sector j has key k * max_sectors + j;
* Fock: axis-aligned squares of side 2*sqrt(2)*r (Euclidean diameter 4r)
  tiling a box that contains every node; square (ix, iy) has key ix * n_side + iy.

A cell is a product of factor cells (max metric; one factor on the disc and
the Fock space) found by index arithmetic, with the AND of their factor
enlargements.  Cells are numbered in the order of their first node.

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
    """Max pairwise metric distance of single-factor points, in linear memory: each
    256-row block meets the points from its first row on.  The disc metric's two
    argument orders can differ in the last bits, so the pairs within 1e-14 of the
    block's max in tanh (far above that gap) are also taken the other way round."""
    best = 0.0
    for i in range(0, pts.shape[0], 256):
        s = spaces.metric(space1, pts[i:i + 256, None], pts[None, i:])
        a, b = np.nonzero(s >= np.arctanh(max(np.tanh(s.max()) - 1e-14, 0.0)))
        best = max(best, s.max(), np.max(spaces.metric(space1, pts[i + b], pts[i + a])))
    return float(best)


def _groups(labels: np.ndarray, n: int) -> List[np.ndarray]:
    """Positions holding each label 0..n-1, ascending, from one stable sort."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.searchsorted(labels[order], np.arange(1, n)))


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
        """Exact max pairwise invariant distance between nodes of each cell.  On a
        product rule (a tensor mesh) it is the max of the cell's factor cells' diameters,
        each taken once; a factor cell is labelled by the first cell holding it."""
        out = np.zeros(self.n_cells)
        for f, c in zip(self.space.factors, spaces.coords(self.space, self.rule.nodes)):
            distinct, inverse = np.unique(c, return_inverse=True)
            label = np.full(distinct.size, self.n_cells)
            np.minimum.at(label, inverse, self.cell_index)
            diam = [_diameter(f, distinct[g]) for g in _groups(label, self.n_cells)]
            out[self.cell_index] = np.maximum(out[self.cell_index], np.take(diam, label[inverse]))
        return out

    def multiplicity_per_node(self) -> np.ndarray:
        return self.enlargement.sum(axis=0)


def _angular_halfwidth(step: float, rho: np.ndarray) -> np.ndarray:
    """Largest angle whose arc at Euclidean radius rho stays within invariant
    distance `step`; pi (no constraint) when the whole circle fits."""
    with np.errstate(divide="ignore"):
        arg = np.sinh(step) * (1.0 - rho * rho) / (2.0 * rho)
    return np.where((rho <= 1e-12) | (arg >= 1.0), np.pi, np.arcsin(np.minimum(arg, 1.0)))


def _first_seen(keys: np.ndarray):
    """Distinct keys in order of first occurrence, and each entry's position among them."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return uniq[order], np.argsort(order)[inverse]


def _describe(kind: str, **bounds) -> List[dict]:
    return [{"kind": kind, **dict(zip(bounds, v))}
            for v in zip(*(b.tolist() for b in bounds.values()))]


def _disc_cells(space1, r: float, pts: np.ndarray):
    """(cells, index, member) of one disc factor, cells numbered by their first point."""
    s = spaces.metric(space1, 0.0, pts)
    theta = np.mod(np.angle(pts), _TWO_PI)
    step = 2.0 * r
    annuli = np.arange(max(1, int(np.ceil((float(s.max()) + 1e-9) / step))))
    half = _angular_halfwidth(step, np.tanh(step * (annuli + 1)))
    half[0] = np.pi     # any two points of rapidity <= 2r are within 4r through the origin
    n_sec = np.ceil(np.pi / half).astype(int)
    width = _TWO_PI / n_sec
    k = np.minimum((s / step).astype(int), annuli.size - 1)
    j = np.minimum((theta / width[k]).astype(int), n_sec[k] - 1)
    keys, index = _first_seen(k * n_sec.max() + j)
    k, j = np.divmod(keys, n_sec.max())
    s_lo, s_hi, t_lo, t_hi = step * k, step * (k + 1), j * width[k], (j + 1) * width[k]
    cells = _describe("annulus_sector", s_lo=s_lo, s_hi=s_hi, theta_lo=t_lo, theta_hi=t_hi)
    # enlargement boxes: rapidity +- r, angle inflated by the halfwidth of a
    # metric-r arc at the innermost enlarged radius (worst case)
    e_lo, e_hi = np.maximum(s_lo - r, 0.0), s_hi + r
    halfw = 0.5 * (t_hi - t_lo) + _angular_halfwidth(r, np.tanh(e_lo))
    wrapped = np.abs(np.mod(theta - 0.5 * (t_lo + t_hi)[:, None] + np.pi, _TWO_PI) - np.pi)
    member = ((s >= e_lo[:, None] - 1e-12) & (s <= e_hi[:, None] + 1e-12)
              & ((halfw >= np.pi)[:, None] | (wrapped <= halfw[:, None] + 1e-12)))
    return cells, index, member


def _fock_cells(r: float, pts: np.ndarray):
    side = 2.0 * np.sqrt(2.0) * r
    x, y = pts.real, pts.imag
    extent = float(np.max(np.abs(np.concatenate([x, y])))) + 1e-9
    n_side = max(1, int(np.ceil(2.0 * extent / side)))
    lo = -0.5 * n_side * side
    ix = np.minimum(((x - lo) / side).astype(int), n_side - 1)
    iy = np.minimum(((y - lo) / side).astype(int), n_side - 1)
    keys, index = _first_seen(ix * n_side + iy)
    ix, iy = np.divmod(keys, n_side)
    x_lo, x_hi = lo + ix * side, lo + (ix + 1) * side
    y_lo, y_hi = lo + iy * side, lo + (iy + 1) * side
    cells = _describe("square", x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi)
    member = ((x >= x_lo[:, None] - r - 1e-12) & (x <= x_hi[:, None] + r + 1e-12)
              & (y >= y_lo[:, None] - r - 1e-12) & (y <= y_hi[:, None] + r + 1e-12))
    return cells, index, member


def build_covering(space: SpaceSpec, r: float, rule: Optional[QuadratureRule] = None) -> Covering:
    if not (r > 0 and np.isfinite(4.0 * r)):     # 4r bounds the cell diameter
        raise ValueError(f"covering radius must be positive with 4r finite, got {r!r}")
    if rule is None:
        rule = build_rule(space)
    distinct, inverses = zip(*(np.unique(c, return_inverse=True)
                               for c in spaces.coords(space, rule.nodes)))
    factor_cells, factor_index, factor_member = zip(*(
        _disc_cells(f, r, u) if f.kind == KIND_DISC else _fock_cells(r, u)
        for f, u in zip(space.factors, distinct)))
    shape = [len(c) for c in factor_cells]
    keys, index = _first_seen(np.ravel_multi_index(
        [i[inv] for i, inv in zip(factor_index, inverses)], shape))
    # a cell is the product of its factor cells: on one factor, that factor cell
    lifted = [np.take(m, inv, axis=1) for m, inv in zip(factor_member, inverses)]
    cells, member = [], np.empty((keys.size, rule.n_nodes), dtype=bool)
    for j, pick in enumerate(zip(*(p.tolist() for p in np.unravel_index(keys, shape)))):
        cells.append(reduce(lambda a, b: {"kind": "product", "factor1": a, "factor2": b},
                            [c[a] for c, a in zip(factor_cells, pick)]))
        member[j] = reduce(np.logical_and, [m[a] for m, a in zip(lifted, pick)])
    if not np.all(member[index, np.arange(len(index))]):
        raise AssertionError("enlargement must contain its own cell")
    mult = int(member.sum(axis=0).max())
    return Covering(space, float(r), rule, cells, index, member, mult)


# ---------------------------------------------------------------------------
# localization

def localization_error(T: OperatorMatrix, covering: Covering) -> float:
    """Distance from T to its covering localization, in grid space.

    The localization applies T after compressing to each enlargement G_j and keeps
    only the samples in the core cell F_j; the value is the largest singular value
    of (T - localization) from coefficients to sigma-weighted grid samples.  Cells
    own disjoint rows of those, so its square is the top eigenvalue of the sum over
    cells of the Gram of (F T)(I - G_j x I_d), F the weighted basis samples on F_j,
    which sees F only through F^H F = Q^H Q: Q, the triangular QR factor built over
    row chunks, has at most n_scalar rows.  The residual is formed before its Gram,
    so a small error keeps its relative accuracy.
    """
    if T.basis.space != covering.space:
        raise ValueError("the operator and the covering are on different spaces")
    n, d, dim = T.basis.n_scalar, T.basis.space.d, T.dim
    S = scalar_basis_matrix(T.basis, covering.rule.nodes)
    S *= np.sqrt(covering.rule.sigma_weights)     # conj(S) @ S.T: the sigma inner product
    # columns as (component, mode): G_j x I_d acts on the last axis, M is permuted alike
    Tp = T.mat.reshape(n, d, n, d).transpose(0, 1, 3, 2).reshape(n, d * dim)
    def chunks(cols):               # at most 2048 columns of S at a time
        return (S[:, cols[i:i + 2048]] for i in range(0, cols.size, 2048))
    M = np.zeros((dim, dim), dtype=complex)
    for j, core in enumerate(_groups(covering.cell_index, covering.n_cells)):
        G = sum(s.conj() @ s.T for s in chunks(np.flatnonzero(covering.enlargement[j])))
        Q = np.empty((0, n), dtype=complex)
        for s in chunks(core):
            Q = np.vstack([Q, s.T])
            Q = np.linalg.qr(Q, mode="r") if Q.shape[0] > n else Q
        X = (Q @ Tp).reshape(-1, n)
        res = (X - X @ G).reshape(-1, dim)
        M += res.conj().T @ res
    return float(np.sqrt(max(np.linalg.eigvalsh(M)[-1], 0.0)))
