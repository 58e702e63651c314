"""Metric coverings and the localization estimate.

A covering partitions the node-sampled domain into cells of invariant-metric
diameter at most 4r, together with r-enlargements realized as membership
predicates at the quadrature nodes.  Each factor keys its cells by integer
arithmetic on its rule:

* disc factors, whose rule must be its polar grid (rings x n angles, ring-major):
  annuli of constant rapidity width 2r (rapidity = invariant distance to 0,
  additive along rays) hold whole rings and split into n_sec sectors (angle
  index j in sector (j * n_sec) // n) whose angular width costs at most another
  2r of metric diameter at the annulus's outer radius;
* Fock: axis-aligned squares of side 2*sqrt(2)*r (Euclidean diameter 4r)
  tiling a box that contains every node; square (ix, iy) has key ix * n_side + iy.

A cell is a product of factor cells (max metric; one factor on the disc and
the Fock space) found by index arithmetic, with the AND of their factor
enlargements.  Cells are numbered in the order of their first node.

Enlargements are conservative coordinate boxes that contain the exact
r-neighborhoods, so the measured overlap multiplicity upper-bounds the true
one.  Only cells holding at least one node are materialized.

The rule is a tensor mesh of the one-factor rules it keeps (`rule.factors`), so
diameters and localization blocks come from factor cells.  |phi_z(w)| grows with
the angle, and pseudo-hyperbolic discs are Euclidean discs, so along a radial
segment it peaks at an end: a disc cell's diameter is over its end rings x its
angle pairs of widest wrapped index gap; a Fock square's is found by a
pivot-pruned search (`_diameter`).  The localization plan (factor cells' Grams and
core factors, stacked, and the cells' factor places, grouped by core row counts) is built
once per basis and kept.  A call cuts each group into chunks of max(256, 4 dim) rows of
dim entries, so its working memory is a fixed multiple of dim^2 at any dim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import List, Optional

import numpy as np

from . import spaces
from .coeffs import BasisSpec, _factor_log_normalizers, _kron_rows, factor_samples
from .operators import OperatorMatrix
from .quadrature import QuadratureRule, build_rule
from .spaces import KIND_DISC, SpaceSpec

_TWO_PI = 2.0 * np.pi
_SLACK = 1e-6       # far above the metric rounding (under 1e-13) that _diameter must absorb


def _diameter(space1: SpaceSpec, pts: np.ndarray) -> float:
    """Bit for bit the all-pairs max metric distance of one-factor points (Fock squares here).

    Sorted farthest first from a pivot c (the point nearest their centroid), the points
    meet in 128-row blocks only partners b, from the block's first row a on, with
    d(c, a) + d(c, b) >= max - _SLACK, until no later row can.  A skipped pair falls
    short of the max by at least the slack less the rounding of three values |z - w|,
    each a few ulp of |z| + |w| (under 1e-13 on the default Fock rule, |z| <= 11.93).
    The metric is symmetric bit for bit, so each pair is evaluated in one argument order."""
    def pairs(a, b):
        return spaces.metric(space1, a[:, None], b[None, :])
    to_pivot = spaces.metric(space1, pts[np.argmin(np.abs(pts - pts.mean()))], pts)
    order = np.argsort(-to_pivot, kind="stable")
    pts, to_pivot = pts[order], to_pivot[order]
    best = float(pairs(pts[:1], pts).max())
    for i in range(0, pts.size, 128):
        if to_pivot[i] + to_pivot[0] < best - _SLACK:
            break
        k = np.searchsorted(-to_pivot, to_pivot[i] - best + _SLACK, side="right")
        best = float(pairs(pts[i:i + 128], pts[i:k]).max(initial=best))
    return best


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
    pick: np.ndarray                   # (n_cells, nfactors): each cell's factor cells
    # per factor of rule.factors: the factor cell of each factor node, and the
    # (n_factor_cells, n_factor_nodes) bool membership of the factor enlargements
    factor_index: tuple
    factor_enlargement: tuple
    # localization plan per basis, built on first use (see _localization_plan)
    blocks: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def multiplicity(self) -> int:
        """Max over nodes of the enlargement count."""
        return int(self.multiplicity_per_node().max())

    def cell_node_counts(self) -> np.ndarray:
        return np.bincount(self.cell_index, minlength=self.n_cells)

    def cell_diameters(self) -> np.ndarray:
        """Exact max pairwise invariant distance between nodes of each cell.  On the
        tensor mesh it is the max of the cell's factor cells' diameters, each taken once
        (`_disc_diameters`, `_diameter`) and equal to the all-pairs max bit for bit."""
        out = np.zeros(self.n_cells)
        for fr, index, member, pick in zip(self.rule.factors, self.factor_index,
                                           self.factor_enlargement, self.pick.T):
            diam = (_disc_diameters(fr, index, len(member)) if fr.space.kind == KIND_DISC else
                    np.array([_diameter(fr.space, fr.nodes[g]) for g in _groups(index, len(member))]))
            out = np.maximum(out, diam[pick])
        return out

    def multiplicity_per_node(self) -> np.ndarray:
        """Enlargements holding each node.  On the tensor mesh every product of factor
        cells is a cell, so this is the Kronecker product of the factor enlargement counts."""
        return spaces.kron([m.sum(axis=0) for m in self.factor_enlargement])


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


def _disc_cells(rule: QuadratureRule, r: float):
    """(cells, index, member) of a disc factor rule that is its polar grid (ValueError for any
    other), cells numbered by their first node; member is a ring AND an angle predicate."""
    shape = (rule.radial_order, rule.angular_order)
    grid, w = rule.nodes.reshape(shape), rule.sigma_weights.reshape(shape)
    rho, theta = grid[:, 0].real, _TWO_PI * np.arange(shape[1]) / shape[1]
    if not (rho[0] >= 0 and np.all(np.diff(rho) >= 0) and np.all(w == w[:, :1])
            and np.array_equal(grid, rho[:, None] * np.exp(1j * theta))):
        raise ValueError("a disc covering needs a rule that is its polar grid, ring-major")
    s = spaces.metric(rule.space, 0.0, rho)       # rapidity of each ring
    step = 2.0 * r
    annuli = np.arange(max(1, int(np.ceil((float(s.max()) + 1e-9) / step))))
    half = _angular_halfwidth(step, np.tanh(step * (annuli + 1)))
    half[0] = np.pi     # any two points of rapidity <= 2r are within 4r through the origin
    n_sec = np.ceil(np.pi / half).astype(int)
    width = _TWO_PI / n_sec
    k = np.minimum((s / step).astype(int), annuli.size - 1)                 # annulus of each ring
    j = np.arange(theta.size) * n_sec[k][:, None] // theta.size             # sector of each node
    keys, index = _first_seen((k[:, None] * n_sec.max() + j).ravel())
    k, j = np.divmod(keys, n_sec.max())
    s_lo, s_hi, t_lo, t_hi = step * k, step * (k + 1), j * width[k], (j + 1) * width[k]
    cells = _describe("annulus_sector", s_lo=s_lo, s_hi=s_hi, theta_lo=t_lo, theta_hi=t_hi)
    # enlargement boxes: rapidity +- r, angle inflated by the halfwidth of a
    # metric-r arc at the innermost enlarged radius (worst case)
    e_lo, e_hi = np.maximum(s_lo - r, 0.0), s_hi + r
    halfw = 0.5 * (t_hi - t_lo) + _angular_halfwidth(r, np.tanh(e_lo))
    wrapped = np.abs(np.mod(theta - 0.5 * (t_lo + t_hi)[:, None] + np.pi, _TWO_PI) - np.pi)
    rings = (s >= e_lo[:, None] - 1e-12) & (s <= e_hi[:, None] + 1e-12)
    angles = (halfw >= np.pi)[:, None] | (wrapped <= halfw[:, None] + 1e-12)
    return cells, index, (rings[:, :, None] & angles[:, None, :]).reshape(keys.size, -1)


def _disc_diameters(rule: QuadratureRule, index: np.ndarray, n_cells: int) -> np.ndarray:
    """Each disc factor cell's diameter from O(cells x angles) metric values: its end rings x
    its angle pairs (j, j + d) with d = gap or n - gap, gap its widest wrapped index gap."""
    na, cell = rule.angular_order, np.arange(n_cells)[:, None]
    grid, at, angle = rule.nodes.reshape(-1, na), index.reshape(-1, na), np.arange(na)
    i0, j0 = np.divmod(np.unique(index, return_index=True)[1], na)    # each cell's first node
    ends = (i0, i0 + (at[:, j0].T == cell).sum(axis=1) - 1)          # its first and last ring
    stop = j0 + (at[i0] == cell).sum(axis=1)                         # one past its last angle
    gap = np.minimum(stop - j0 - 1, na // 2)
    d = np.stack([gap, na - gap], axis=1)
    inside = (angle >= j0[:, None, None]) & (angle + d[:, :, None] < stop[:, None, None])
    c, t, j = np.nonzero(inside)        # per pair: its cell, which d, its first angle
    vals = reduce(np.maximum, (spaces.metric(rule.space, grid[a[c], j], grid[b[c], j + d[c, t]])
                               for a in ends for b in ends))
    return np.maximum.reduceat(vals, np.flatnonzero(np.diff(c, prepend=-1)))


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
    if rule.space != space:
        raise ValueError("the rule and the covering are on different spaces")
    factor_cells, factor_index, factor_member = zip(*(
        _disc_cells(fr, r) if fr.space.kind == KIND_DISC
        else _fock_cells(r, fr.nodes) for fr in rule.factors))
    if not all(np.all(m[i, np.arange(i.size)]) for m, i in zip(factor_member, factor_index)):
        raise AssertionError("enlargement must contain its own cell")
    shape = [len(c) for c in factor_cells]
    # factor cells go by first node and all their products hold nodes: lexicographic is first-node order
    index = np.ravel_multi_index(np.ix_(*factor_index), shape).ravel()
    picks = np.indices(shape).reshape(len(shape), -1).T   # a cell is the product of its factor cells
    cells = [reduce(lambda a, b: {"kind": "product", "factor1": a, "factor2": b},
                    [c[a] for c, a in zip(factor_cells, pick)]) for pick in picks.tolist()]
    return Covering(space, float(r), rule, cells, index, picks, factor_index, factor_member)


# ---------------------------------------------------------------------------
# localization

def _disc_grams(rule: QuadratureRule, member: np.ndarray, n: int, order: np.ndarray) -> np.ndarray:
    """Disc enlargement Grams c_m c_k H_a[m + k] A_a[k - m], for the cells a in `order`, from ring
    moments H_a[p] = sum of w rho^p (w a ring node's weight) and angle sums A_a[q] = sum of
    e^(iq theta) = conj(A_a[-q])."""
    na = rule.angular_order
    on = member.reshape(len(member), rule.radial_order, na)   # rings x angles, so any() splits it
    p = np.arange(2 * n - 1)
    H = on.any(axis=2)[order] @ (rule.sigma_weights[::na, None] * rule.nodes[::na, None].real ** p)
    A = on.any(axis=1)[order] @ np.exp(1j * _TWO_PI * (np.outer(np.arange(na), p[:n]) % na) / na)
    A = np.concatenate([A[:, :0:-1].conj(), A], axis=1)       # q = 1 - n .. n - 1
    c, mode = np.exp(_factor_log_normalizers(rule.space, n)), np.arange(n)
    plus, minus = mode[:, None] + mode, mode - mode[:, None] + n - 1    # m + k and k - m + n - 1
    return np.outer(c, c) * H.take(plus, axis=1) * A.take(minus, axis=1)


def _localization_plan(covering: Covering, basis: BasisSpec) -> tuple:
    """(factors, groups): what `localization_error` needs of the covering and a basis alone.

    factors[k] = (stacks, q, pos) for factor k, whose cell a has q[a] = min(nodes, n) core rows.
    stacks[v] = (G, R) holds the cells of v core rows, by first node: G their enlargement Grams
    conj(S) S^T (S the sigma-weighted `factor_samples`; `_disc_grams` on a disc), R their core
    samples or, past n nodes, their QR factors.  pos[a] is cell a's place in its stack.

    A group is (Gs, Rs, step, places) for the cells of one tuple of core row counts, in
    first-factor order: the stacks of those row counts, the cells per chunk and, per factor,
    each cell's place in its stack, in the smallest unsigned type.  A chunk of `step` cells
    has a first product of at most max(256, 4 dim) rows of dim entries (q_1 dim / n per cell):
    4 dim rows spread its (2 dim)^2 Gram update, 256 rows its fixed cost.  Chunks are cut as
    slices of the places at call time, so the plan does not grow with their number."""
    if basis in covering.blocks:
        return covering.blocks[basis]
    n = basis.n_modes
    small = np.min_scalar_type(max(len(member) for member in covering.factor_enlargement))
    factors = []
    for fr, S, index, member in zip(covering.rule.factors, factor_samples(basis, covering.rule),
                                    covering.factor_index, covering.factor_enlargement):
        S *= np.sqrt(fr.sigma_weights)                # conj(S) @ S.T: the sigma inner product
        size = np.bincount(index)
        q = np.minimum(size, n)
        order = np.argsort(q, kind="stable")          # the cells by row count, then by first node
        if fr.space.kind == KIND_DISC:
            G = _disc_grams(fr, member, n, order)
        else:
            G = np.empty((order.size, n, n), dtype=complex)
            for i, a in enumerate(order):
                s = S[:, np.flatnonzero(member[a])]
                G[i] = s.conj() @ s.T
        size, qs = size[order], q[order]
        top = np.cumsum(np.append(0, qs))             # each cell's first row in R
        edge = np.cumsum(np.append(0, size))          # and its first node in `nodes`
        nodes = np.lexsort((index, q[index]))         # the nodes, cell by cell in `order`
        big = np.flatnonzero(size > n)                # QR first, so its work space and R never meet
        qr = [np.linalg.qr(S[:, nodes[edge[j]:edge[j + 1]]].T, mode="r") for j in big]
        rank = np.arange(nodes.size) - np.repeat(edge[:-1], size)    # a node's place in its cell
        R = S.T[nodes[rank < n]]                      # each core's first q nodes, in one gather
        for j, f in zip(big, qr):
            R[top[j]:top[j + 1]] = f
        cut = np.flatnonzero(np.diff(qs)) + 1         # where the row count changes
        stacks = {}
        for v, g, r in zip(qs[np.append(0, cut)].tolist(), np.split(G, cut), np.split(R, top[cut])):
            stacks[v] = (g, r.reshape(len(g), v, n))
        pos = np.argsort(order) - qs.searchsorted(q)
        factors.append((stacks, q, pos.astype(small)))
    # the cells grouped by their core factors' row counts, each group in first-factor order
    rows = np.stack([q[a] for (_, q, _), a in zip(factors, covering.pick.T)], axis=1)
    order = np.lexsort((covering.pick[:, 0], *rows.T[::-1]))
    budget = max(256, 4 * basis.dim)
    groups = []
    for group in np.split(order, np.flatnonzero(np.diff(rows[order], axis=0).any(axis=1)) + 1):
        shape = rows[group[0]].tolist()
        Gs, Rs = zip(*(stacks[v] for (stacks, _, _), v in zip(factors, shape)))
        places = [pos[a] for (_, _, pos), a in zip(factors, covering.pick[group].T)]
        groups.append((Gs, Rs, max(1, budget * n // (shape[0] * basis.dim)), places))
    covering.blocks[basis] = factors, groups
    return factors, groups


def _kron_cols(X: np.ndarray, mats) -> np.ndarray:
    """Stacked X @ kron(*mats) for X (cells, rows, N) and (cells, n, m) factor stacks: each step
    multiplies every cell's trailing mode axis at once and moves it before the other mode axes."""
    cells, rows = X.shape[:2]
    for G in reversed(mats):
        X = (X.reshape(cells, -1, G.shape[1]) @ G).reshape(cells, rows, -1, G.shape[2]).transpose(0, 1, 3, 2)
    return X.reshape(cells, rows, -1)


def localization_error(T: OperatorMatrix, covering: Covering) -> float:
    """Distance from T to its covering localization, in grid space.

    The localization applies T after compressing to each enlargement G_j and keeps only the
    samples in the core cell F_j; the value is the largest singular value of (T - localization)
    from coefficients to sigma-weighted grid samples.  Cells own disjoint rows of those, so its
    square is the top eigenvalue of the sum over cells of the Gram of (F T)(I - G_j x I_d), F
    the weighted basis samples on F_j, which sees F only through F^H F = Q^H Q.  The residual
    is formed before its Gram, so a small error keeps its relative accuracy.

    On the tensor mesh (the same assumption as `Covering.cell_diameters`) the cell j = (a_1, ...,
    a_k) has G_j = kron of its factor cells' enlargement Grams and Q = kron of their core factors,
    stacked by the plan the covering keeps per basis (`_localization_plan`), whose groups of cells
    of equal core row counts are cut here into chunks of max(256, 4 dim) first-product rows, so
    the working memory is a few such chunks at any dim.  A call does per chunk one matmul per
    factor axis, (Q_{a_1} x I) T once per first-factor cell and one Gram update of [Re res | Im res].
    """
    if T.basis.space != covering.space:
        raise ValueError("the operator and the covering are on different spaces")
    n, n_scalar, d, dim = T.basis.n_modes, T.basis.n_scalar, T.basis.space.d, T.dim
    # columns as (component, mode): G_j x I_d acts on the last axis, M is permuted alike
    Tp = T.mat.reshape(n_scalar, d, n_scalar, d).transpose(0, 1, 3, 2).reshape(n, -1)
    P = np.zeros((2 * dim, 2 * dim))
    for (G0, *G), (R0, *R), step, (first, *later) in _localization_plan(covering, T.basis)[1]:
        for s in range(0, len(first), step):
            at, cols = first[s:s + step], [p[s:s + step] for p in later]
            lo, hi = int(at[0]), int(at[-1]) + 1         # on the tensor mesh, a run of cells
            Y = R0[lo:hi].reshape(-1, n) @ Tp
            Y = Y.reshape(-1, R0.shape[1], n_scalar // n, d * dim).swapaxes(1, 2)
            Gc = G0[lo:hi]
            if hi - lo < len(at):                        # cells sharing a first-factor cell
                Gc, Y = Gc[at - lo], Y[at - lo]
            Y = _kron_rows([Rk[c] for Rk, c in zip(R, cols)], Y).reshape(len(Y), -1, n_scalar)
            Y -= _kron_cols(Y, [Gc] + [Gk[c] for Gk, c in zip(G, cols)])
            A = Y.reshape(-1, dim).view(np.float64)      # the residual's Re and Im columns
            P += A.T @ A
    M = P[::2, ::2] + P[1::2, 1::2] + 1j * (P[::2, 1::2] - P[1::2, ::2])
    return float(np.sqrt(max(np.linalg.eigvalsh(M)[-1], 0.0)))
