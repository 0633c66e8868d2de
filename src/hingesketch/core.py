"""Domain types, exact objective evaluation, and brute-force oracles.

Everything here is deterministic and exact (up to floating point); the sketch
modules are tested against these functions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when the exact optimizer exhausts its evaluation budget.

    Carries the best iterate found so far in ``best`` as (theta, b, value).
    """

    def __init__(self, message: str, best):
        super().__init__(message)
        self.best = best


class UnfrozenSketchError(RuntimeError):
    """A sketch was queried before freeze(), or updated after it."""


@dataclass(frozen=True)
class LabeledPoint:
    """A d-dimensional point with a +/-1 label; one stream element."""

    x: tuple[float, ...]
    y: int

    def __post_init__(self):
        if isinstance(self.x, (int, float)):
            object.__setattr__(self, "x", (float(self.x),))
        else:
            object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if len(self.x) < 1:
            raise ValueError("point dimension must be >= 1")
        if not all(math.isfinite(v) for v in self.x):
            raise ValueError("point coordinates must be finite")
        if self.y not in (-1, 1):
            raise ValueError("label must be -1 or 1")

    @property
    def dim(self) -> int:
        return len(self.x)

    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.x))


@dataclass(frozen=True)
class HyperplaneQuery:
    """Query hyperplane (theta, b); the evaluation target for point estimation.

    ``norm_budget`` is the caller-declared bound on ||(theta, b)||_2 (1 for
    plain point estimation, sqrt(2/lambda) inside the optimizer).  ``None``
    skips the check; exact oracles accept any finite query.
    """

    theta: tuple[float, ...]
    b: float
    norm_budget: float | None = None

    def __post_init__(self):
        if isinstance(self.theta, (int, float)):
            object.__setattr__(self, "theta", (float(self.theta),))
        else:
            object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        object.__setattr__(self, "b", float(self.b))
        if not all(math.isfinite(v) for v in self.theta) or not math.isfinite(self.b):
            raise ValueError("query parameters must be finite")
        if self.norm_budget is not None:
            n = math.sqrt(sum(v * v for v in self.theta) + self.b * self.b)
            if n > self.norm_budget * (1 + 1e-12):
                raise ValueError(
                    f"query norm {n:.6g} exceeds declared budget {self.norm_budget:.6g}"
                )

    @property
    def dim(self) -> int:
        return len(self.theta)


def check_positive(name: str, value: float) -> None:
    """Reject a parameter that is not a positive finite number, naming it."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, not {value!r}")


@dataclass
class SketchParams:
    """Shared sketch configuration.

    W is the coordinate-universe bound for the d=1 multiplicative sketches
    (integer mode quantizes to [1, W]; real mode declares W from the intended
    coordinate precision).  n_hint is the declared stream length.  C1/C2 size
    the crude/fine sample banks; C sizes the dynamic-interval sampler.
    """

    epsilon: float
    W: int = 2**20
    n_hint: int = 1_000_000
    C1: float = 8.0
    C2: float = 32.0
    C: float = 1.0
    p: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must be in (0, 1)")
        if self.n_hint < 1:
            raise ValueError("n_hint must be >= 1")
        if self.W < 2:
            raise ValueError("W must be >= 2")
        if min(self.C1, self.C2, self.C) < 1:
            raise ValueError("sampling constants must be >= 1")
        if not all(map(math.isfinite, (self.C1, self.C2, self.C))):
            raise ValueError("sampling constants must be finite")
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        if not (self.epsilon**3 > 0 and all(map(math.isfinite, self.sample_sizes()))):
            raise ValueError(
                f"epsilon {self.epsilon!r} is too small: the sample sizes it implies overflow")

    def write(self, w) -> None:
        """The parameter header that HSK1 and HSKD share, to a ``serialize.Writer``."""
        w.f64(self.epsilon)
        w.u64(self.W)
        w.u64(self.n_hint)
        for c in (self.C1, self.C2, self.C):
            w.f64(c)
        w.u8(self.p)
        w.i64(self.seed)

    @classmethod
    def read(cls, r) -> "SketchParams":
        """The header ``write`` wrote, from a ``serialize.Reader``; invalid
        parameters raise ValueError, as the constructor does."""
        return cls(epsilon=r.f64(), W=r.u64(), n_hint=r.u64(), C1=r.f64(), C2=r.f64(),
                   C=r.f64(), p=r.u8(), seed=r.i64())

    def replica_key(self) -> tuple:
        """Every field but the seed: replicas of one sketch differ only in their seeds."""
        return dataclasses.astuple(dataclasses.replace(self, seed=0))

    @property
    def log2_w(self) -> float:
        return math.log2(self.W)

    def sample_sizes(self) -> tuple[float, float, float]:
        """mult1d's crude and fine bank capacities and dyn1d's explicit-point
        capacity, before rounding up."""
        lw, eps = self.log2_w, self.epsilon
        return (self.C1 * lw * lw / eps, self.C2 * lw / eps**2,
                self.C * math.log2(max(self.n_hint, 2)) / eps**3)

    @property
    def num_levels(self) -> int:
        return math.ceil(math.log2(max(self.n_hint, 2))) + 1


def _as_matrix(points):
    """(xs, ys): the (n, d) coordinates and the n labels, as float arrays, of a
    LabeledPoint sequence or of an ingest record array (fields ``y`` and ``x``).
    An empty sequence gives d=1."""
    if isinstance(points, np.ndarray):
        return np.ascontiguousarray(points["x"], dtype=float), points["y"].astype(float)
    if not len(points):
        return np.empty((0, 1)), np.empty(0)
    d = points[0].dim
    xs = np.empty((len(points), d))
    ys = np.empty(len(points))
    for i, p in enumerate(points):
        if p.dim != d:
            raise ValueError(f"dimension mismatch at point {i}: {p.dim} != {d}")
        xs[i] = p.x
        ys[i] = p.y
    return xs, ys


def hinge_objective(points, q: HyperplaneQuery, lam: float) -> float:
    """Regularized hinge objective lam/2*||(theta,b)||^2 + mean hinge loss over a
    LabeledPoint sequence or an ingest record array."""
    if len(points) == 0:
        raise ValueError("empty dataset")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    xs, ys = _as_matrix(points)
    theta = np.asarray(q.theta, dtype=float)
    if theta.shape[0] != xs.shape[1]:
        raise ValueError(f"dimension mismatch: query d={theta.shape[0]}, data d={xs.shape[1]}")
    margins = ys * (xs @ theta + q.b)
    reg = 0.5 * lam * (float(theta @ theta) + q.b * q.b)
    return reg + float(np.mean(np.maximum(0.0, 1.0 - margins)))


def _coords_1d(points) -> np.ndarray:
    vals = []
    for p in points:
        if isinstance(p, LabeledPoint):
            if p.dim != 1:
                raise ValueError("scalar objective path requires d=1 points")
            vals.append(p.x[0])
        else:
            vals.append(float(p))
    return np.asarray(vals, dtype=float)


def simplified_objective(points, q, p: int = 1) -> float:
    """One-sided distance objective (1/n) * sum max{0, b - theta.x}^p.

    This is the ground-truth oracle for every sketch.  ``points`` may be raw
    1-d reals or LabeledPoints; ``q`` may be a bare scalar (d=1 with theta=+1)
    or a HyperplaneQuery.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if len(points) == 0:
        raise ValueError("empty dataset")
    if isinstance(q, HyperplaneQuery):
        theta = np.asarray(q.theta, dtype=float)
        b = q.b
        if len(theta) == 1 and not isinstance(points[0], LabeledPoint):
            proj = _coords_1d(points) * theta[0]
        else:
            xs, _ = _as_matrix(points)
            if theta.shape[0] != xs.shape[1]:
                raise ValueError("dimension mismatch between query and data")
            proj = xs @ theta
    else:
        proj = _coords_1d(points)
        b = float(q)
    return float(np.mean(np.maximum(0.0, b - proj) ** p))


def python_rows(a: np.ndarray):
    """Rows of ``a`` as Python floats (1-d) or tuples of them (2-d), converted
    4096 rows at a time so that a long stream never exists whole as Python
    objects."""
    for i in range(0, len(a), 4096):
        chunk = a[i : i + 4096]
        yield from chunk.tolist() if chunk.ndim == 1 else zip(*chunk.T.tolist())


def add_in_order(start: float, values: np.ndarray) -> float:
    """start + values[0] + values[1] + ..., added left to right as repeated
    ``+=`` adds them: np.sum adds pairwise, and the builtin sum compensates
    on Python 3.12+."""
    if len(values) < 64:  # below this the loop beats numpy's per-call cost
        for v in values.tolist():
            start += v
        return start
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


# insert_runs takes this many points at a time, so that its temporaries stay
# small however long the stream
INSERT_BLOCK = 2**16


def insert_runs(roots, cols: list, root_of, quota: int, split, absorb, partition) -> None:
    """Insert points into an adaptive tree, leaving every node as one
    ``update`` per point, in stream order, would leave it.

    ``cols`` holds the points' coordinate arrays; ``root_of(*cols)`` gives the
    index in ``roots`` of each point's root.  A node sees its points in stream
    order, and nothing outside its subtree depends on them, so each node takes
    its whole run at once.  A leaf absorbs up to ``quota`` points
    (``absorb(node, cols)``).  Points beyond that go on to the children that
    ``split(node)`` gives it, through ``partition(node, cols)`` ->
    [(child, cols)], or stay in the leaf where ``split`` returns False.
    """
    for i in range(0, len(cols[0]), INSERT_BLOCK):
        blk = [c[i : i + INSERT_BLOCK] for c in cols]
        cell = root_of(*blk)
        # a stable sort of keys of 16 bits or fewer is a radix sort
        order = np.argsort(cell.astype(np.min_scalar_type(len(roots) - 1)), kind="stable")
        cell = cell[order]
        blk = [c[order] for c in blk]
        cuts = [0, *(np.flatnonzero(cell[1:] != cell[:-1]) + 1).tolist(), len(cell)]
        stack = [(roots[cell[a]], [c[a:b] for c in blk]) for a, b in zip(cuts, cuts[1:])]
        while stack:
            node, run = stack.pop()
            if node.children is None:
                room = quota - node.c
                if len(run[0]) <= room or not split(node):
                    absorb(node, run)
                    continue
                if room > 0:
                    absorb(node, [c[:room] for c in run])
                    run = [c[room:] for c in run]
            for child, sub in partition(node, run):
                if len(sub[0]):
                    stack.append((child, sub))


def hypot_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``math.hypot(x, y)`` for each pair, as an array.  np.hypot may differ
    from it in the last place."""
    return np.fromiter(map(math.hypot, xs.tolist(), ys.tolist()), dtype=float, count=len(xs))


def distance_sums_1d(xs: np.ndarray, qs: np.ndarray, p: int = 1) -> np.ndarray:
    """Vectorized unnormalized oracle: sum_i max{0, q - x_i}^p per query.

    Sorts a copy of ``xs`` once; O((n + m) log n) for m queries.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    cnt = np.searchsorted(xs, qs, side="right")
    pre = np.concatenate([[0.0], np.cumsum(xs)])
    if p == 1:
        return cnt * qs - pre[cnt]
    pre2 = np.concatenate([[0.0], np.cumsum(xs * xs)])
    return cnt * qs * qs - 2.0 * qs * pre[cnt] + pre2[cnt]


def strong_convexity_radius(epsilon: float, lam: float) -> float:
    """Parameter distance sqrt(2*eps/lam) implied by value suboptimality eps."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return math.sqrt(2.0 * epsilon / lam)


@dataclass
class OptResult:
    theta: tuple[float, ...]
    b: float
    value: float
    evals: int = field(default=0, repr=False)


def _objective_fn(points: Sequence[LabeledPoint], lam: float):
    xs, ys = _as_matrix(points)
    zs = np.concatenate([xs * ys[:, None], ys[:, None]], axis=1)

    def f(w: np.ndarray) -> float:
        return 0.5 * lam * float(w @ w) + float(
            np.mean(np.maximum(0.0, 1.0 - zs @ w))
        )

    def subgrad(w: np.ndarray) -> np.ndarray:
        # 0-subgradient choice at the kink: only strictly-violating points pull.
        active = (1.0 - zs @ w) > 0
        g = lam * w.copy()
        if active.any():
            g -= zs[active].sum(axis=0) / len(points)
        return g

    return f, subgrad, zs


def _tangent_dirs(zs: np.ndarray, w: np.ndarray, h: float) -> list[np.ndarray]:
    """Unit directions along hinge kink hyperplanes near w.

    Coordinate-pattern moves can stall on a kink; moving along the kink
    surface restores descent.  Handles the k=2 and k=3 cases exactly and
    falls back to axis projections otherwise.
    """
    k = w.shape[0]
    margins = np.abs(1.0 - zs @ w)
    scale = np.linalg.norm(zs, axis=1) * max(h, 1e-300)
    near = np.nonzero(margins <= 3.0 * scale)[0]
    if len(near) > 24:
        near = near[np.argsort(margins[near])[:24]]
    dirs: list[np.ndarray] = []
    seen: set[tuple] = set()

    def push(v: np.ndarray):
        n = np.linalg.norm(v)
        if n < 1e-300:
            return
        v = v / n
        key = tuple(np.round(v, 12))
        if key in seen or tuple(np.round(-v, 12)) in seen:
            return
        seen.add(key)
        dirs.append(v)
        dirs.append(-v)

    for i in near:
        z = zs[i]
        if k == 2:
            push(np.array([-z[1], z[0]]))
        else:
            for j in range(k):
                e = np.zeros(k)
                e[j] = 1.0
                push(e - (z[j] / float(z @ z)) * z)
    if k == 3:
        for a in range(len(near)):
            for bidx in range(a + 1, len(near)):
                push(np.cross(zs[near[a]], zs[near[bidx]]))
    return dirs


def exact_optimize(
    points: Sequence[LabeledPoint],
    lam: float,
    tol: float = 1e-9,
    max_evals: int = 2_000_000,
) -> OptResult:
    """Deterministic minimizer of the regularized hinge objective.

    Runs averaged projected subgradient descent, then a shrinking local
    pattern search (axis/diagonal moves plus kink-tangent moves) until the
    step size falls below the tolerance scale.  Deterministic for a given
    input; raises ConvergenceError (carrying the best iterate) if the
    evaluation budget runs out first.
    """
    if len(points) == 0:
        raise ValueError("empty dataset")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    f, subgrad, zs = _objective_fn(points, lam)
    k = points[0].dim + 1
    radius = math.sqrt(2.0 / lam)
    evals = 0

    def ev(w):
        nonlocal evals
        evals += 1
        return f(w)

    # Phase 1: averaged projected subgradient descent.
    w = np.zeros(k)
    acc = np.zeros(k)
    t1 = 1500
    for t in range(1, t1 + 1):
        w = w - subgrad(w) / (lam * (t + 1))
        nw = np.linalg.norm(w)
        if nw > radius:
            w = w * (radius / nw)
        if t > t1 // 2:
            acc += w
    avg = acc / (t1 - t1 // 2)

    best = min((np.zeros(k), avg, w), key=ev)
    best_val = ev(best)

    # Phase 2: shrinking pattern search with kink-aware directions.
    base_dirs = []
    if k <= 6:
        for signs in np.ndindex(*([3] * k)):
            v = np.array(signs, dtype=float) - 1.0
            if np.any(v):
                base_dirs.append(v / np.linalg.norm(v))
    else:
        for j in range(k):
            e = np.zeros(k)
            e[j] = 1.0
            base_dirs.append(e)
            base_dirs.append(-e)
        base_dirs.append(np.ones(k) / math.sqrt(k))
        base_dirs.append(-np.ones(k) / math.sqrt(k))

    h = max(1.0, float(np.linalg.norm(best))) / 4.0
    h_floor = max(1e-13, tol * 1e-4)
    while h > h_floor:
        if evals >= max_evals:
            raise ConvergenceError(
                f"evaluation budget {max_evals} exhausted at step {h:.3g}",
                OptResult(tuple(best[:-1]), float(best[-1]), best_val, evals),
            )
        dirs = base_dirs + _tangent_dirs(zs, best, h)
        moved = False
        for v in dirs:
            cand = best + h * v
            cv = ev(cand)
            if cv < best_val - 1e-18:
                best, best_val, moved = cand, cv, True
        if not moved:
            h *= 0.5
    return OptResult(tuple(best[:-1]), float(best[-1]), best_val, evals)
