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

import math

import numpy as np

from .core import python_rows
from .sampler import Reservoir1, derive_seed
from . import serialize
from .serialize import Reader, Writer

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
        self.res = Reservoir1(seed=derive_seed(seed, "qt", depth, ix, iy))
        self.children = None


class QuadTree2D:
    """Adaptive quad-tree with moment counters and one reservoir per node.

    ``eps_struct`` fixes the initial depth (cells of side ~sqrt(eps)), the
    per-node quota eps*n_declared, and the depth cap (cells never shrink
    below side eps^2).
    """

    def __init__(self, eps_struct: float, n_declared: int, p: int = 1, seed: int = 0):
        if not (0 < eps_struct < 1):
            raise ValueError("eps_struct must be in (0, 1)")
        if n_declared < 1:
            raise ValueError("n_declared must be >= 1")
        if p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        self.eps_struct = float(eps_struct)
        self.n_declared = int(n_declared)
        self.p = p
        self.seed = int(seed)
        self.init_depth = max(0, round(math.log2(1.0 / math.sqrt(eps_struct))))
        self.depth_cap = math.ceil(2.0 * math.log2(1.0 / eps_struct))
        self.threshold = max(1, math.ceil(eps_struct * n_declared))
        g = 2**self.init_depth
        cw = 1.0 / g
        self.grid_size = g
        self.roots = [
            _QNode(ix * cw, iy * cw, cw, self.init_depth, seed)
            for iy in range(g)
            for ix in range(g)
        ]
        self.count = 0

    def update(self, x: float, y: float) -> None:
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"point ({x}, {y}) outside unit square")
        g = self.grid_size
        ix = min(int(x * g), g - 1)
        iy = min(int(y * g), g - 1)
        node = self.roots[iy * g + ix]
        while node.children is not None:
            node = self._child_for(node, x, y)
        if node.c >= self.threshold and node.depth < self.depth_cap:
            half = node.size / 2.0
            d = node.depth + 1
            node.children = (
                _QNode(node.x0, node.y0, half, d, self.seed),
                _QNode(node.x0 + half, node.y0, half, d, self.seed),
                _QNode(node.x0, node.y0 + half, half, d, self.seed),
                _QNode(node.x0 + half, node.y0 + half, half, d, self.seed),
            )
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

    @staticmethod
    def _child_for(node: _QNode, x: float, y: float) -> _QNode:
        # boundary points route to the lexicographically smallest child
        half = node.size / 2.0
        right = x > node.x0 + half
        top = y > node.y0 + half
        return node.children[(2 if top else 0) + (1 if right else 0)]

    def _walk(self):
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                stack.extend(node.children)

    def node_count(self) -> int:
        return sum(1 for _ in self._walk())

    def space_words(self) -> int:
        per = WORDS_PER_NODE_P2 if self.p == 2 else WORDS_PER_NODE_P1
        return self.node_count() * per

    def update_many(self, pts: np.ndarray) -> None:
        """Insert an (n, 2) array of points of the unit square."""
        for x, y in python_rows(np.asarray(pts, dtype=float)):
            self.update(x, y)

    def freeze(self) -> None:
        """Nothing to do: queries read the counters as they stand."""

    def replica_key(self) -> tuple:
        return (self.eps_struct, self.n_declared, self.p)

    def query(self, theta, b: float) -> float:
        """Mean p-th power hinge distance to the halfplane theta.x <= b.

        ``theta`` must be unit-norm; shorter vectors are normalized together
        with b (same geometry), the zero vector is rejected.
        """
        return self._scan(theta, b)[0]

    def query_many(self, qs: np.ndarray) -> np.ndarray:
        """``query`` for each row (theta_x, theta_y, b) of an (m, 3) array."""
        return np.array([self.query((tx, ty), b)
                         for tx, ty, b in np.asarray(qs, dtype=float).tolist()])

    def crossing_cells(self, theta, b: float) -> int:
        """Number of nonempty cells crossing the line (diagnostic)."""
        return self._scan(theta, b)[1]

    def _scan(self, theta, b: float) -> tuple[float, int]:
        """The estimate of ``query`` and the number of cells it sampled."""
        tx, ty = float(theta[0]), float(theta[1])
        norm = math.hypot(tx, ty)
        if norm < 1e-300:
            raise ValueError("theta must be nonzero")
        if norm > 1.0 + 1e-9:
            raise ValueError("theta must have norm at most 1 (unit after normalization)")
        if abs(norm - 1.0) > 1e-12:
            tx, ty, b = tx / norm, ty / norm, b / norm
        if self.count == 0:
            return 0.0, 0
        total = 0.0
        crossing = 0
        for node in self._walk():
            if node.c == 0:
                continue
            s = node.size
            corners = (
                tx * node.x0 + ty * node.y0,
                tx * (node.x0 + s) + ty * node.y0,
                tx * node.x0 + ty * (node.y0 + s),
                tx * (node.x0 + s) + ty * (node.y0 + s),
            )
            cmax = max(corners)
            cmin = min(corners)
            if cmax <= b:  # entirely inside: exact via moments
                if self.p == 1:
                    total += node.c * b - (tx * node.X + ty * node.Y)
                else:
                    total += (
                        node.c * b * b
                        - 2.0 * b * (tx * node.X + ty * node.Y)
                        + tx * tx * node.Xvv
                        + 2.0 * tx * ty * node.Zxy
                        + ty * ty * node.Yvv
                    )
            elif cmin >= b and cmax > b:  # entirely outside
                continue
            else:  # crossing: reservoir estimate
                crossing += 1
                rx, ry = node.res.sample
                dist = max(0.0, b - (tx * rx + ty * ry))
                total += node.c * dist**self.p
        return total / self.count, crossing

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        w = Writer(serialize.MAGIC_QUADTREE)
        w.f64(self.eps_struct)
        w.u64(self.n_declared)
        w.u8(self.p)
        w.i64(self.seed)
        w.u64(self.count)
        w.u16(self.init_depth)

        def emit(node: _QNode):
            w.u8(1 if node.children is not None else 0)
            w.u64(node.c)
            w.f64(node.X)
            w.f64(node.Y)
            w.f64(node.Xvv)
            w.f64(node.Yvv)
            w.f64(node.Zxy)
            w.u64(node.res.count_seen)
            if node.res.sample is None:
                w.u8(0)
            else:
                w.u8(1)
                w.f64(node.res.sample[0])
                w.f64(node.res.sample[1])
            if node.children is not None:
                for ch in node.children:
                    emit(ch)

        for root in self.roots:
            emit(root)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "QuadTree2D":
        r = Reader(data, serialize.MAGIC_QUADTREE)
        eps = r.f64()
        n_declared = r.u64()
        p = r.u8()
        seed = r.i64()
        tree = cls(eps, n_declared, p=p, seed=seed)
        tree.count = r.u64()
        depth = r.u16()
        if depth != tree.init_depth:
            raise serialize.FormatError("initial depth mismatch")

        def read(node: _QNode):
            has_children = r.u8()
            node.c = r.u64()
            node.X = r.f64()
            node.Y = r.f64()
            node.Xvv = r.f64()
            node.Yvv = r.f64()
            node.Zxy = r.f64()
            node.res.count_seen = r.u64()
            if r.u8():
                node.res.sample = (r.f64(), r.f64())
            if has_children:
                half = node.size / 2.0
                d = node.depth + 1
                node.children = (
                    _QNode(node.x0, node.y0, half, d, tree.seed),
                    _QNode(node.x0 + half, node.y0, half, d, tree.seed),
                    _QNode(node.x0, node.y0 + half, half, d, tree.seed),
                    _QNode(node.x0 + half, node.y0 + half, half, d, tree.seed),
                )
                for ch in node.children:
                    read(ch)

        for root in tree.roots:
            read(root)
        r.done()
        return tree


def additive_quadtree(epsilon: float, n_declared: int, p: int = 1, seed: int = 0) -> QuadTree2D:
    """Quad-tree sized for an end-to-end additive-epsilon guarantee per query."""
    if p == 1:
        eps_struct = min(0.99, RESCALE_P1 * epsilon ** (4.0 / 5.0))
    else:
        eps_struct = min(0.99, RESCALE_P2 * epsilon ** (4.0 / 7.0))
    return QuadTree2D(eps_struct, n_declared, p=p, seed=seed)
