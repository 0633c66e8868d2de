"""The adaptive tree that the add1d and add2d sketches share.

Both cover their domain [lo, hi]^DIM with a grid of dyadic root cells.  A
leaf absorbs its quota (``threshold``) of points, then splits, down to a
depth cap; points already absorbed stay at the inner node, so ancestor and
descendant counters are disjoint by construction.  The tree is a
deterministic function of the stream.

A subclass gives the cells and their counters:

  _layout()              its initial depth and the quota's fraction of
                         n_declared, from eps_struct (and its domain checks);
  _roots()               the ``grid_size``^DIM root cells;
  _split(node)           give a leaf its children, or return False at the cap;
  _root_of(*cols)        each point's root index, over coordinate arrays;
  _partition(node, cols) a run of points to [(child, cols)];
  _absorb(node, cols)    a run of points into a leaf's counters;
  _columns(data)         update_many's array as coordinate arrays;
  update(*point)         one point: the reference that update_many matches.

A file holds MAGIC, the HEADER fields, the count and the initial depth, then
every node in pre-order: its has-children u8 and its record (``node.write``,
``node.read``).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .serialize import FormatError, Reader, Writer

# a root grid of more cells than 2^MAX_ROOT_BITS is refused: the largest that a
# test, acceptance run or benchmark builds has 256
MAX_ROOT_BITS = 16


def add_in_order(start: float, values: np.ndarray) -> float:
    """start + values[0] + values[1] + ..., added left to right as repeated
    ``+=`` adds them: np.sum adds pairwise, and the builtin sum compensates
    on Python 3.12+."""
    if len(values) < 64:  # below this the loop beats numpy's per-call cost
        for v in values.tolist():
            start += v
        return start
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


class AdaptiveTree:
    MAGIC: bytes
    DIM: int  # point dimension: the root grid has 2^(DIM * depth) cells
    DEPTH_CAP: float  # the depth cap is ceil(DEPTH_CAP * log2(1/eps_struct))
    NODE_BYTES: int  # the fewest bytes of a node in a file
    # (attribute, Writer/Reader method) of the header fields, in file order;
    # the constructor takes each attribute by name
    HEADER = (("eps_struct", "f64"), ("n_declared", "u64"), ("p", "u8"))
    # update_many takes this many points at a time, so that its temporaries stay
    # small however long the stream
    INSERT_BLOCK = 2**16

    def __init__(self, eps_struct: float, n_declared: int, p: int, init_depth: int | None):
        """A decoder passes the ``init_depth`` its file stores, which must be
        the one the parameters give, before any root is built."""
        if not (0 < eps_struct < 1):
            raise ValueError("eps_struct must be in (0, 1)")
        if n_declared < 1:
            raise ValueError("n_declared must be >= 1")
        if p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        self.eps_struct = float(eps_struct)
        self.n_declared = int(n_declared)
        self.p = p
        self.init_depth, frac = self._layout()
        if init_depth not in (None, self.init_depth):
            raise FormatError("initial depth mismatch")
        if self.DIM * self.init_depth > MAX_ROOT_BITS:
            raise ValueError(
                f"eps_struct {self.eps_struct!r} is too small: its root grid of "
                f"2^{self.DIM * self.init_depth} cells is past the limit of 2^{MAX_ROOT_BITS}")
        self.depth_cap = math.ceil(self.DEPTH_CAP * math.log2(1.0 / self.eps_struct))
        self.threshold = max(1, math.ceil(frac * self.n_declared))
        self.grid_size = 2**self.init_depth
        self.roots = self._roots()
        self.count = 0
        self._flat = None  # a subclass's query cache, dropped by every update

    def update_many(self, data) -> None:
        """``update`` each point in turn, to the same counters bit for bit; a
        point outside the domain raises update's ValueError after the points
        before it are in."""
        cols = self._columns(np.asarray(data, dtype=float))
        inside = np.logical_and.reduce([(self.lo <= c) & (c <= self.hi) for c in cols])
        bad = np.flatnonzero(~inside)
        end = int(bad[0]) if bad.size else len(cols[0])
        if end:
            self._flat = None
            self.count += end
            self._insert_runs([c[:end] for c in cols])
        if bad.size:
            self.update(*(float(c[end]) for c in cols))  # raises update's ValueError

    def _insert_runs(self, cols: list) -> None:
        """Insert points, leaving every node as one ``update`` per point, in
        stream order, would leave it.

        A node sees its points in stream order, and nothing outside its
        subtree depends on them, so each node takes its whole run at once.  A
        leaf absorbs up to ``threshold`` points; the rest go on to the children
        ``_split`` gives it, or stay in the leaf where it cannot split.
        """
        for i in range(0, len(cols[0]), self.INSERT_BLOCK):
            blk = [c[i : i + self.INSERT_BLOCK] for c in cols]
            cell = self._root_of(*blk)
            # a stable sort of keys of 16 bits or fewer is a radix sort
            order = np.argsort(cell.astype(np.min_scalar_type(len(self.roots) - 1)),
                               kind="stable")
            cell = cell[order]
            blk = [c[order] for c in blk]
            cuts = [0, *(np.flatnonzero(cell[1:] != cell[:-1]) + 1).tolist(), len(cell)]
            stack = [(self.roots[cell[a]], [c[a:b] for c in blk]) for a, b in zip(cuts, cuts[1:])]
            while stack:
                node, run = stack.pop()
                if node.children is None:
                    room = self.threshold - node.c
                    if len(run[0]) <= room or not self._split(node):
                        self._absorb(node, run)
                        continue
                    if room > 0:
                        self._absorb(node, [c[:room] for c in run])
                        run = [c[room:] for c in run]
                for child, sub in self._partition(node, run):
                    if len(sub[0]):
                        stack.append((child, sub))

    def freeze(self) -> None:
        """Nothing to do: queries read the counters as they stand."""

    def _walk(self, mirror: bool = True):
        """Every node in the pre-order of the mirrored tree (roots and children
        last to first), the order queries add nodes in; without ``mirror`` in
        pre-order, the file's order.  A node's children are looked up after the
        caller has had the node, so a decoder may add them."""
        order = slice(None) if mirror else slice(None, None, -1)
        stack = list(self.roots[order])
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                stack.extend(node.children[order])

    def check_invariants(self) -> list[str]:
        """The invariants every build keeps, [] if clean: a query divides by the
        count, the sum of the nodes' counts."""
        held = sum(node.c for node in self._walk())
        return [] if held == self.count else [
            f"header count {self.count} but the nodes hold {held} points"]

    def node_count(self) -> int:
        return sum(1 for _ in self._walk())

    def stats(self) -> dict:
        """Nodes, leaves and nodes per depth; retained words against the
        stream length."""
        nodes = list(self._walk())
        depths = Counter(node.depth for node in nodes)
        words = self.space_words()
        return {"nodes": len(nodes), "leaves": sum(node.children is None for node in nodes),
                "depth_histogram": dict(sorted(depths.items())), "space_words": words,
                "words_per_point": words / self.count if self.count else 0.0}

    def to_bytes(self) -> bytes:
        w = Writer(self.MAGIC)
        w.fields(self, self.HEADER)
        w.u64(self.count)
        w.u16(self.init_depth)
        for node in self._walk(mirror=False):
            w.u8(node.children is not None)
            node.write(w)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes):
        r = Reader(data, cls.MAGIC)
        head = r.fields(cls.HEADER)
        count, depth = r.u64(), r.u16()
        r.need(cls.NODE_BYTES << cls.DIM * depth, f"a root grid of depth {depth}")
        tree = cls(**head, init_depth=depth)
        tree.count = count
        for node in tree._walk(mirror=False):
            has_children = r.u8()
            if has_children > 1:
                raise FormatError(f"bad has-children byte {has_children}")
            if has_children and not tree._split(node):
                raise FormatError(f"node at depth {node.depth} split past the depth cap")
            node.read(r)
        r.done()
        if problems := tree.check_invariants():
            raise FormatError(problems[0])
        return tree
