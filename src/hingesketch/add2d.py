"""Additive-error sketch for d=2: an adaptive quad-tree over [0, 1]^2.

Per node: a point count, coordinate-sum counters (plus second moments in
squared mode), and one uniform reservoir sample of the points associated
with the node.  A halfplane query splits nodes into three classes: cells
entirely inside the halfplane contribute exactly through their moment
counters, cells entirely outside contribute zero, and cells crossing the
boundary line are estimated from the reservoir sample (unbiased, constant
failure probability per query by Chebyshev).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import check_positive, hypot_rows
from .sampler import Reservoir1
from .serialize import MAGIC_QUADTREE, Reader, Writer
from .tree import AdaptiveTree, add_in_order

# Internal resolution: a structural parameter of c * eps^(4/5) (p=1, c below)
# makes the crossing-cell standard deviation comfortably below eps while
# keeping the word count within KAPPA_SPACE * eps^(-4/5).  Measured on
# uniform n=1e4 streams across eps in {0.2, 0.1, 0.05}.
RESCALE_P1 = 0.5
RESCALE_P2 = 0.5
KAPPA_SPACE_P1 = 64.0
KAPPA_SPACE_P2 = 96.0

WORDS_PER_NODE_P1 = 8  # cell id, c, X, Y, reservoir (x, y, count), topology
WORDS_PER_NODE_P2 = 11  # + Xvv, Yvv, Zxy

# scan temporaries hold at most this many (node, halfplane) values: 64 KB each.
# _score makes ~20 of them per block.  At 1 MB each (2**17 values) its speed
# swung with the allocator state of the process; at 64 KB it is steady, and
# 1.3-2.2x faster on 14k halfplanes over trees of 4 to 80 nonempty nodes.
# Rows are scored independently, so the answers do not depend on it.
_BLOCK_VALUES = 2**13


class _QNode:
    __slots__ = ("x0", "y0", "size", "depth", "c", "X", "Y", "Xvv", "Yvv", "Zxy",
                 "res", "children")

    def __init__(self, x0: float, y0: float, size: float, depth: int, seed: int):
        self.x0 = x0
        self.y0 = y0
        self.size = size
        self.depth = depth
        self.c = 0
        self.X = 0.0
        self.Y = 0.0
        self.Xvv = 0.0
        self.Yvv = 0.0
        self.Zxy = 0.0
        ix = int(round(x0 / size)) if size > 0 else 0
        iy = int(round(y0 / size)) if size > 0 else 0
        self.res = Reservoir1(seed, "qt", depth, ix, iy)
        self.children = None

    def write(self, w: Writer) -> None:
        w.u64(self.c)
        for v in (self.X, self.Y, self.Xvv, self.Yvv, self.Zxy):
            w.f64(v)
        w.u64(self.res.count_seen)
        w.u8(self.res.sample is not None)
        for v in self.res.sample or ():
            w.f64(v)

    def read(self, r: Reader) -> None:
        self.c = r.u64()
        self.X, self.Y, self.Xvv, self.Yvv, self.Zxy = (r.f64() for _ in range(5))
        self.res.count_seen = r.u64()
        if r.u8():
            self.res.sample = (r.f64(), r.f64())


class _Points:
    """The points (x[i], y[i]) of two coordinate arrays, as a sequence of
    tuples of floats made only when read."""

    __slots__ = ("x", "y")

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y = x, y

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i: int) -> tuple[float, float]:
        return float(self.x[i]), float(self.y[i])


class QuadTree2D(AdaptiveTree):
    """Adaptive quad-tree with moment counters and one reservoir per node.

    ``eps_struct`` fixes the initial depth (cells of side ~sqrt(eps)), the
    per-node quota eps*n_declared, and the depth cap (cells never shrink
    below side eps^2).
    """

    MAGIC = MAGIC_QUADTREE
    DIM = 2
    DEPTH_CAP = 2.0
    NODE_BYTES = 58
    HEADER = AdaptiveTree.HEADER + (("seed", "u64"),)
    lo, hi = 0.0, 1.0  # the domain is the unit square

    def __init__(self, eps_struct: float, n_declared: int, p: int = 1, seed: int = 0, *,
                 init_depth: int | None = None):
        self.seed = int(seed)
        super().__init__(eps_struct, n_declared, p, init_depth)

    def _layout(self) -> tuple[int, float]:
        return max(0, round(math.log2(1.0 / math.sqrt(self.eps_struct)))), self.eps_struct

    def _roots(self) -> list:
        g = self.grid_size
        cw = 1.0 / g
        return [_QNode(ix * cw, iy * cw, cw, self.init_depth, self.seed)
                for iy in range(g) for ix in range(g)]

    def update(self, x: float, y: float) -> None:
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"point ({x}, {y}) outside unit square")
        self._flat = None
        g = self.grid_size
        ix = min(int(x * g), g - 1)
        iy = min(int(y * g), g - 1)
        node = self.roots[iy * g + ix]
        # a full leaf splits if it can, and the point goes on into a quadrant
        while node.children is not None or (node.c >= self.threshold and self._split(node)):
            node = self._child_for(node, x, y)
        node.c += 1
        node.X += x
        node.Y += y
        if self.p == 2:
            node.Xvv += x * x
            node.Yvv += y * y
            node.Zxy += x * y
        node.res.offer((x, y))
        self.count += 1

    def _split(self, node: _QNode) -> bool:
        """Give ``node`` its quadrants SW, SE, NW, NE unless it lies at the
        depth cap; returns whether it did."""
        if node.depth >= self.depth_cap:
            return False
        half, d = node.size / 2.0, node.depth + 1
        node.children = tuple(_QNode(x0, y0, half, d, self.seed)
                              for y0 in (node.y0, node.y0 + half)
                              for x0 in (node.x0, node.x0 + half))
        return True

    @staticmethod
    def _child_for(node: _QNode, x: float, y: float) -> _QNode:
        # boundary points route to the lexicographically smallest child
        half = node.size / 2.0
        right = x > node.x0 + half
        top = y > node.y0 + half
        return node.children[(2 if top else 0) + (1 if right else 0)]

    def space_words(self) -> int:
        per = WORDS_PER_NODE_P2 if self.p == 2 else WORDS_PER_NODE_P1
        return self.node_count() * per

    @staticmethod
    def _columns(pts: np.ndarray) -> list:
        """The x and y columns of an (n, 2) array of points; an empty array
        of any shape has no points."""
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        return list(pts.T)

    def _root_of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``update``'s root index, as one expression over arrays."""
        g = self.grid_size
        return np.minimum((y * g).astype(np.int64), g - 1) * g + np.minimum(
            (x * g).astype(np.int64), g - 1)

    def _absorb(self, node: _QNode, cols: list) -> None:
        x, y = cols
        node.c += len(x)
        node.X = add_in_order(node.X, x)
        node.Y = add_in_order(node.Y, y)
        if self.p == 2:
            node.Xvv = add_in_order(node.Xvv, x * x)
            node.Yvv = add_in_order(node.Yvv, y * y)
            node.Zxy = add_in_order(node.Zxy, x * y)
        node.res.offer_many(_Points(x, y))

    @staticmethod
    def _partition(node: _QNode, cols: list) -> list:
        """``_child_for`` over arrays of points."""
        x, y = cols
        half = node.size / 2.0
        quad = (2 * (y > node.y0 + half) + (x > node.x0 + half)).astype(np.uint8)
        order = np.argsort(quad, kind="stable")
        x, y = x[order], y[order]
        cuts = np.bincount(quad, minlength=4).cumsum().tolist()
        return [(child, [x[a:b], y[a:b]]) for child, a, b in zip(node.children, [0, *cuts], cuts)]

    def replica_key(self) -> tuple:
        return (self.eps_struct, self.n_declared, self.p)

    def query(self, theta, b: float) -> float:
        """Mean p-th power hinge distance to the halfplane theta.x <= b.

        ``theta`` must be unit-norm; shorter vectors are normalized together
        with b (same geometry), the zero vector is rejected.
        """
        return float(self._scan(np.array([[theta[0], theta[1], b]], dtype=float))[0][0])

    def query_many(self, qs: np.ndarray) -> np.ndarray:
        """``query`` for each row (theta_x, theta_y, b) of an (m, 3) array."""
        return self._scan(np.asarray(qs, dtype=float).reshape(-1, 3))[0]

    def crossing_cells(self, theta, b: float) -> int:
        """Number of nonempty cells crossing the line (diagnostic)."""
        return int(self._scan(np.array([[theta[0], theta[1], b]], dtype=float))[1][0])

    def _nodes(self) -> np.ndarray:
        """A (12, N, 1) array over the N nonempty nodes in ``_walk`` order, by
        rows: x0, x0 + size, y0, y0 + size, X, reservoir x, Y, reservoir y, c,
        Xvv, Yvv, Zxy.  Cached until the next update."""
        if self._flat is None:
            rows = [(n.x0, n.x0 + n.size, n.y0, n.y0 + n.size, n.X, rx, n.Y, ry, n.c, n.Xvv,
                     n.Yvv, n.Zxy)
                    for n in self._walk() if n.c
                    for rx, ry in [n.res.sample or (math.nan, math.nan)]]
            flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=float,
                               count=12 * len(rows))
            self._flat = flat.reshape(-1, 12).T.copy()[:, :, None]
        return self._flat

    def _scan(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The estimates of ``query`` for rows (theta_x, theta_y, b), and the
        number of cells each one sampled.

        Nodes run along axis 0 and rows along axis 1 of every block; each row's
        node terms are added in walk order, as a scan of one halfplane node by
        node adds them, so every answer is the same to the last bit.
        """
        if not np.isfinite(rows).all():
            raise ValueError("halfplanes must be finite")
        tx, ty, b = rows.T
        norm = hypot_rows(tx, ty)
        lo, hi = norm.min(initial=1.0), norm.max(initial=1.0)
        if lo < 1e-300:
            raise ValueError("theta must be nonzero")
        if hi > 1.0 + 1e-9:
            raise ValueError("theta must have norm at most 1 (unit after normalization)")
        if max(1.0 - lo, hi - 1.0) > 1e-12:
            scale = np.abs(norm - 1.0) > 1e-12
            tx, ty, b = (np.where(scale, v / norm, v) for v in (tx, ty, b))
        totals = np.zeros(len(rows))
        crossing = np.zeros(len(rows), dtype=np.int64)
        nodes = self._nodes()
        if self.count == 0 or nodes.shape[1] == 0:
            return totals, crossing
        step = max(1, _BLOCK_VALUES // nodes.shape[1])
        for start in range(0, len(rows), step):
            blk = slice(start, start + step)
            totals[blk], crossing[blk] = self._score(nodes, tx[blk], ty[blk], b[blk])
        return totals / self.count, crossing

    def _score(self, nodes, tx, ty, b):
        """Summed node terms and crossing-cell counts of a block of halfplanes."""
        ax, by = tx * nodes[0:2], ty * nodes[2:4]  # tx * (x0, x1), ty * (y0, y1)
        # rounding is monotone, so the largest (smallest) of the four rounded
        # corner values tx*x + ty*y is the rounded sum of the largest (smallest) terms
        cmax = np.maximum(ax[0], ax[1]) + np.maximum(by[0], by[1])
        cmin = np.minimum(ax[0], ax[1]) + np.minimum(by[0], by[1])
        inside = cmax <= b  # exact via moments
        crossing = (cmin < b) & ~inside  # reservoir estimate; the rest lies outside
        # theta . (X, Y) and theta . (reservoir sample)
        moment, sample = tx * nodes[4:6] + ty * nodes[6:8]
        c = nodes[8]
        if self.p == 1:
            exact = c * b - moment
        else:
            Xvv, Yvv, Zxy = nodes[9:12]
            exact = (c * b * b - 2.0 * b * moment + tx * tx * Xvv
                     + 2.0 * tx * ty * Zxy + ty * ty * Yvv)
        # fmax(d, 0) is max(0.0, d) (0 for NaN); the sign of a zero term never
        # reaches the result, see the + 0.0 below
        dist = np.fmax(b - sample, 0.0)
        if self.p == 2:
            # the C library's pow, as Python's ** calls it (np.power would square)
            dist = np.float_power(dist, 2)
        terms = np.where(inside, exact, np.where(crossing, c * dist, 0.0))
        # accumulate adds in node order (a sum may add pairwise); + 0.0 because a
        # scan starts from +0.0, so that an all-zero sum is never -0.0
        return np.add.accumulate(terms, axis=0)[-1] + 0.0, crossing.sum(axis=0)


def additive_quadtree(epsilon: float, n_declared: int, p: int = 1, seed: int = 0) -> QuadTree2D:
    """Quad-tree sized for an end-to-end additive-epsilon guarantee per query."""
    check_positive("epsilon", epsilon)
    if p == 1:
        eps_struct = min(0.99, RESCALE_P1 * epsilon ** (4.0 / 5.0))
    else:
        eps_struct = min(0.99, RESCALE_P2 * epsilon ** (4.0 / 7.0))
    return QuadTree2D(eps_struct, n_declared, p=p, seed=seed)
