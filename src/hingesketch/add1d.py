"""Additive-error sketch for d=1: an adaptive binary tree over [-1, 1].

Each node of the ``tree.AdaptiveTree`` covers a dyadic interval and counts
the points routed to it, together with the sum of their distances (and
squared distances, in squared mode) to the node's right endpoint.

``Tree1D`` takes the *structural* resolution parameter directly;
``additive_tree_1d`` applies the log-factor rescale that turns the per-level
error into a clean end-to-end additive-epsilon guarantee.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .core import check_positive
from .serialize import FormatError, Reader, Writer
from .tree import AdaptiveTree, add_in_order

# Node-count constant: measured node count stays below
# KAPPA_NODES * eps^(-1/2) * sqrt(log2(1/eps)) for the linear sketch
# (exponent -1/3 in squared mode) across the acceptance epsilon grid.
KAPPA_NODES_P1 = 16.0
KAPPA_NODES_P2 = 16.0

# a node record after its has-children byte: count, s, s2
_NODE = struct.Struct("<Q2d")


def kappa_log(epsilon: float) -> int:
    """Rescale divisor absorbing the O(eps * log(1/eps)) stacking of per-level errors."""
    inv = 1.0 / epsilon  # inf below 2^-1024, where -log2(epsilon) is still finite
    return max(1, math.ceil(3.0 * (math.log2(inv) if inv < math.inf else -math.log2(epsilon))))


class _Node:
    __slots__ = ("lo", "hi", "depth", "c", "s", "s2", "children")

    def __init__(self, lo: float, hi: float, depth: int):
        self.lo = lo
        self.hi = hi
        self.depth = depth
        self.c = 0
        self.s = 0.0
        self.s2 = 0.0
        self.children = None

    def write(self, w: Writer) -> None:
        w.pack(_NODE, self.c, self.s, self.s2)

    def read(self, r: Reader) -> None:
        self.c, self.s, self.s2 = r.unpack(_NODE)
        if not (math.isfinite(self.s) and math.isfinite(self.s2)):
            raise FormatError(f"non-finite value in node counters (s, s2) = {(self.s, self.s2)}")


class Tree1D(AdaptiveTree):
    """Adaptive binary tree with per-node moment counters.

    ``eps_struct`` fixes the initial leaf width (sqrt(eps) for p=1,
    eps^(1/3) for p=2), the split quota (the same fraction of n_declared),
    and the depth cap (3*log2(1/eps), below which intervals are too small to
    matter).  n_declared must be supplied up front because the split quota
    depends on it.
    """

    MAGIC = b"HSKB"
    DIM = 1
    DEPTH_CAP = 3.0
    NODE_BYTES = 1 + _NODE.size  # with its has-children byte
    HEADER = AdaptiveTree.HEADER + (("lo", "f64"), ("hi", "f64"))

    def __init__(self, eps_struct: float, n_declared: int, p: int = 1,
                 lo: float = -1.0, hi: float = 1.0, *, init_depth: int | None = None):
        self.lo = float(lo)
        self.hi = float(hi)
        super().__init__(eps_struct, n_declared, p, init_depth)

    def _layout(self) -> tuple[int, float]:
        frac = math.sqrt(self.eps_struct) if self.p == 1 else self.eps_struct ** (1.0 / 3.0)
        width = self.hi - self.lo
        # width / frac >= width, as frac < 1: finite only on a finite domain
        if not (self.lo < self.hi and math.isfinite(width / frac)):
            raise ValueError(f"domain [{self.lo}, {self.hi}] must be finite with lo < hi")
        # leaves of width ~frac, rounded to the nearest power-of-two partition
        return max(0, round(math.log2(width / frac))), frac

    def _roots(self) -> list:
        cw = (self.hi - self.lo) / self.grid_size
        return [_Node(self.lo + i * cw, self.lo + (i + 1) * cw, self.init_depth)
                for i in range(self.grid_size)]

    def update(self, x: float) -> None:
        if not (self.lo <= x <= self.hi):
            raise ValueError(f"point {x} outside domain [{self.lo}, {self.hi}]")
        self._flat = None
        ncells = self.grid_size
        idx = min(int((x - self.lo) / (self.hi - self.lo) * ncells), ncells - 1)
        node = self.roots[idx]
        # a full leaf splits if it can, and x goes on into one of its halves
        while node.children is not None or (node.c >= self.threshold and self._split(node)):
            node = node.children[0] if x < node.children[1].lo else node.children[1]
        node.c += 1
        d = node.hi - x
        node.s += d
        if self.p == 2:
            node.s2 += d * d
        self.count += 1

    def _split(self, node: _Node) -> bool:
        """Give ``node`` its two halves unless it lies past the depth cap;
        returns whether it did."""
        if node.depth > self.depth_cap:
            return False
        mid = 0.5 * (node.lo + node.hi)
        node.children = (_Node(node.lo, mid, node.depth + 1), _Node(mid, node.hi, node.depth + 1))
        return True

    @staticmethod
    def _columns(xs: np.ndarray) -> list:
        if xs.ndim != 1:
            raise ValueError("values must be a 1-d array")
        return [xs]

    def _root_of(self, x: np.ndarray) -> np.ndarray:
        """``update``'s root index, as one expression over an array."""
        ncells = self.grid_size
        return np.minimum(((x - self.lo) / (self.hi - self.lo) * ncells).astype(np.int64),
                          ncells - 1)

    def _absorb(self, node: _Node, cols: list) -> None:
        (x,) = cols
        node.c += len(x)
        d = node.hi - x
        node.s = add_in_order(node.s, d)
        if self.p == 2:
            node.s2 = add_in_order(node.s2, d * d)

    @staticmethod
    def _partition(node: _Node, cols: list) -> list:
        (x,) = cols
        right = x >= node.children[1].lo
        return [(node.children[0], [x[~right]]), (node.children[1], [x[right]])]

    def replica_key(self) -> tuple:
        return (self.eps_struct, self.n_declared, self.p, self.lo, self.hi)

    def space_words(self) -> int:
        """Stored fields per node: interval id, count, s (and s2 in squared mode)."""
        per = 3 + (1 if self.p == 2 else 0)
        return self.node_count() * per

    def _flatten(self):
        if self._flat is None:
            rights, cs, ss, s2s = [], [], [], []
            for node in self._walk():
                rights.append(node.hi)
                cs.append(node.c)
                ss.append(node.s)
                s2s.append(node.s2)
            order = np.argsort(np.asarray(rights), kind="stable")
            r = np.asarray(rights)[order]
            c = np.asarray(cs, dtype=float)[order]
            s = np.asarray(ss)[order]
            s2 = np.asarray(s2s)[order]
            self._flat = (
                r,
                np.concatenate([[0.0], np.cumsum(c)]),
                np.concatenate([[0.0], np.cumsum(s)]),
                np.concatenate([[0.0], np.cumsum(s2)]),
                np.concatenate([[0.0], np.cumsum(c * r)]),
                np.concatenate([[0.0], np.cumsum(s * r)]),
                np.concatenate([[0.0], np.cumsum(c * r * r)]),
            )
        return self._flat

    def query(self, q: float) -> float:
        return float(self.query_many(np.asarray([q]))[0])

    def query_many(self, qs: np.ndarray) -> np.ndarray:
        """Mean p-th power distance estimate; nodes entirely left of q count exactly."""
        qs = np.asarray(qs, dtype=float)
        if not np.isfinite(qs).all():
            raise ValueError("queries must be finite")
        if self.count == 0:
            return np.zeros_like(qs)
        r, pc, ps, ps2, pcr, psr, pcrr = self._flatten()
        k = np.searchsorted(r, qs, side="right")
        if self.p == 1:
            total = ps[k] + qs * pc[k] - pcr[k]
        else:
            # sum (q-x)^2 = s2 + 2(q-r)s + c(q-r)^2 per node, expanded over prefixes
            total = (
                ps2[k]
                + 2.0 * (qs * ps[k] - psr[k])
                + qs * qs * pc[k]
                - 2.0 * qs * pcr[k]
                + pcrr[k]
            )
        return total / self.count


def additive_tree_1d(
    epsilon: float, n_declared: int, p: int = 1, lo: float = -1.0, hi: float = 1.0
) -> Tree1D:
    """Tree sized so the end-to-end additive error is at most ``epsilon``."""
    check_positive("epsilon", epsilon)
    return Tree1D(epsilon / kappa_log(epsilon), n_declared, p=p, lo=lo, hi=hi)

