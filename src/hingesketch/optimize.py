"""Grid-search optimization on top of point-estimation sketches, plus an
SGD-over-reservoir baseline.

The reduction enumerates the delta-grid inside the norm ball ||w|| <=
sqrt(2/lambda), evaluates the data term of the objective at every candidate
through median-boosted sketch queries, adds the exact regularizer, and
returns the argmin.  Hinge sums decompose per label class: for y=+1 the
per-point loss max{0, 1 - (theta.x + b)} equals a one-sided distance query
with offset 1-b, for y=-1 one with direction -theta and offset 1+b, so each
replica holds per-class (and, for d=1, per-orientation) sub-sketches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families
from .core import hypot_rows
from .families import Family
from .sampler import derive_seed, philox_generator

# universe [1, SKETCH_W] that the multiplicative backends read
SKETCH_W = 2**16


class GridBudgetError(ValueError):
    pass


@dataclass
class GridSpec:
    """Candidate grid: delta*Z^(d+1) intersected with the ball of radius R."""

    lam: float
    epsilon: float
    d: int
    k: int = 1
    R: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.lam <= 0 or self.epsilon <= 0:
            raise ValueError("lambda and epsilon must be positive")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.R == 0.0:
            self.R = math.sqrt(2.0 / self.lam)
        if self.delta == 0.0:
            self.delta = self.epsilon / (2.0 * math.sqrt(self.d))
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError("replication k must be odd and >= 1")


def default_replication(spec: GridSpec) -> int:
    """Smallest odd k >= 3*ceil((d+1)*log2(2R/delta))."""
    k = 3 * math.ceil((spec.d + 1) * math.log2(2.0 * spec.R / spec.delta))
    return k + 1 if k % 2 == 0 else k


def grid_points(spec: GridSpec, budget: int = 2_000_000) -> np.ndarray:
    """All grid candidates (theta..., b) in lexicographic order.

    Errors out before materializing anything if the enclosing integer box
    already exceeds ``budget`` points.
    """
    kmax = int(math.floor(spec.R / spec.delta + 1e-12))
    dims = spec.d + 1
    box = (2 * kmax + 1) ** dims
    if box > budget:
        raise GridBudgetError(
            f"grid would enumerate up to {box} candidates (budget {budget}); "
            "increase epsilon or lambda"
        )
    axes = [np.arange(-kmax, kmax + 1)] * dims
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1).astype(float) * spec.delta
    keep = (pts**2).sum(axis=1) <= spec.R**2 * (1.0 + 1e-12)
    return pts[keep]


# ---------------------------------------------------------------------------
# Backend adapters
# ---------------------------------------------------------------------------


def _split_classes(points):
    pos, neg = [], []
    for p in points:
        (pos if p.y == 1 else neg).append(p.x)
    return np.asarray(pos, dtype=float), np.asarray(neg, dtype=float)


class _Sum1D:
    """Distance-sum estimator sum max{0, q - x} for one coordinate array.

    Wraps one d=1 sketch family; coordinates are affinely mapped into the
    sketch's domain: [-1, 1] for the normalized families, the universe
    [1, SKETCH_W] for the others.
    """

    def __init__(self, xs: np.ndarray, family: Family, epsilon: float, seed: int,
                 scale_hint: float = 1.0):
        self.n = xs.size
        self.normalized = family.normalized
        # map [-scale, scale] onto the sketch domain
        self.scale = max(scale_hint, float(np.abs(xs).max()) if xs.size else 1.0)
        self._sk = family.make(epsilon, max(self.n, 1), seed, 1, SKETCH_W)
        if self.normalized:
            self._sk.update_many(xs / self.scale)
        else:
            # shift to [1, W]: u = 1 + (x/scale + 1)/2 * (W - 1)
            self._sk.update_many(1.0 + (xs / self.scale + 1.0) / 2.0 * (SKETCH_W - 1))
        self._sk.freeze()

    def query_many(self, qs: np.ndarray) -> np.ndarray:
        if self.n == 0:
            return np.zeros(len(qs))
        if self.normalized:
            qq = np.asarray(qs, dtype=float) / self.scale
            # beyond the domain every point lies left of q: the counters answer exactly
            clipped = np.clip(qq, -1.0, 1.0)
            vals = self._sk.query_many(clipped) * self.n
            vals += self.n * np.maximum(0.0, qq - 1.0)
            return np.where(qq <= -1.0, 0.0, vals) * self.scale
        back = self.scale * 2.0 / (SKETCH_W - 1)
        return self._sk.query_many(1.0 + (qs / self.scale + 1.0) / 2.0 * (SKETCH_W - 1)) * back


class HingeEstimator1D:
    """Normalized hinge-sum estimator for d=1 labeled streams.

    Keeps, per label class, one sub-sketch on the raw coordinates and one on
    the negated coordinates so queries with either sign of theta reduce to
    the canonical +1-orientation distance query.
    """

    def __init__(self, points, family: Family, epsilon: float = 0.05,
                 seed: int = 0, norm_budget: float = 1.0):
        if any(p.dim != 1 for p in points):
            raise ValueError("HingeEstimator1D requires d=1 points")
        pos, neg = _split_classes(points)
        pos = pos.reshape(-1) if pos.size else pos.reshape(0)
        neg = neg.reshape(-1) if neg.size else neg.reshape(0)
        self.n = len(points)
        eps_pe = epsilon / max(norm_budget, 1.0)
        scale = max(
            1.0,
            float(np.abs(pos).max()) if pos.size else 1.0,
            float(np.abs(neg).max()) if neg.size else 1.0,
        )
        self._subs = {}
        for cls, xs in (("pos", pos), ("neg", neg)):
            for orient in (1, -1):
                key = (cls, orient)
                self._subs[key] = _Sum1D(
                    orient * xs, family, eps_pe,
                    derive_seed(seed, "est", cls, orient), scale_hint=scale,
                )

    def estimate(self, theta: float, b: float) -> float:
        """(1/n) sum_i max{0, 1 - y_i(theta x_i + b)}."""
        return float(self.estimate_bulk(np.array([[theta, b]], dtype=float))[0])

    def estimate_bulk(self, ws: np.ndarray) -> np.ndarray:
        """Vectorized estimate over candidate rows (theta, b)."""
        if self.n == 0:
            return np.zeros(len(ws))
        out = np.zeros(len(ws))
        for cls, sign in (("pos", 1.0), ("neg", -1.0)):
            theta = sign * ws[:, 0]
            offset = 1.0 - sign * ws[:, 1]
            for orient in (1, -1):
                mask = theta > 0 if orient == 1 else theta < 0
                if mask.any():
                    t = np.abs(theta[mask])
                    out[mask] += t * self._subs[(cls, orient)].query_many(offset[mask] / t)
            zero = theta == 0
            if zero.any():
                out[zero] += np.maximum(0.0, offset[zero]) * self._subs[(cls, 1)].n
        return out / self.n


class HingeEstimator2D:
    """Normalized hinge-sum estimator for d=2 labeled streams (quad-tree backend).

    Points are mapped from the unit ball into [0,1]^2 by x -> (x+1)/2; a
    query (theta, b) then becomes a halfplane query against the mapped tree
    with direction theta/||theta|| and a matching offset.
    """

    def __init__(self, points, family: Family, epsilon: float = 0.05, seed: int = 0,
                 norm_budget: float = 1.0):
        if any(p.dim != 2 for p in points):
            raise ValueError("HingeEstimator2D requires d=2 points")
        self.n = len(points)
        eps_pe = epsilon / max(norm_budget, 1.0)
        self._trees = {}
        for cls, y in (("pos", 1), ("neg", -1)):
            xs = np.array([p.x for p in points if p.y == y], dtype=float).reshape(-1, 2)
            tree = family.make(eps_pe, max(len(xs), 1), derive_seed(seed, "est2", cls), 1,
                               SKETCH_W)
            tree.update_many((xs + 1.0) / 2.0)
            tree.freeze()
            self._trees[cls] = tree

    def estimate(self, theta, b: float) -> float:
        return float(self.estimate_bulk(np.array([[theta[0], theta[1], b]], dtype=float))[0])

    def estimate_bulk(self, ws: np.ndarray) -> np.ndarray:
        """(1/n) sum_i max{0, 1 - y_i(theta.x_i + b)} for each candidate row
        (theta_x, theta_y, b)."""
        ws = np.asarray(ws, dtype=float).reshape(-1, 3)
        tot = np.zeros(len(ws))
        if self.n == 0:
            return tot
        for cls, sign in (("pos", 1.0), ("neg", -1.0)):
            # sum over class of max{0, offset - (tx, ty).x} on ball coordinates
            tree = self._trees[cls]
            cnt = tree.count
            if cnt == 0:
                continue
            tx, ty = sign * ws[:, 0], sign * ws[:, 1]
            offset = 1.0 - sign * ws[:, 2]
            norm = hypot_rows(tx, ty)
            zero = norm < 1e-300
            tot[zero] += np.where(offset[zero] > 0.0, offset[zero], 0.0) * cnt
            nz = ~zero
            tx, ty, offset, norm = tx[nz], ty[nz], offset[nz], norm[nz]
            # x = 2u - 1 on [0,1]^2: offset - theta.x = (offset + tx + ty) - 2*theta.u
            b2 = (offset + tx + ty) / (2.0 * norm)
            rows = np.stack([tx / norm, ty / norm, b2], axis=1)
            tot[nz] += 2.0 * norm * tree.query_many(rows) * cnt
        return tot / self.n


def build_estimator(points, family: str, epsilon: float, seed: int = 0,
                    norm_budget: float = 1.0):
    if family not in families.FAMILIES:
        raise ValueError(f"unknown backend {family!r}")
    fam = families.FAMILIES[family]
    d = points[0].dim if points else 1
    if d != fam.dim:
        raise ValueError(f"backend {family} supports d={fam.dim} only")
    estimator = HingeEstimator1D if d == 1 else HingeEstimator2D
    return estimator(points, fam, epsilon, seed, norm_budget)


# ---------------------------------------------------------------------------
# Median boosting and the reduction
# ---------------------------------------------------------------------------


def median_estimate(estimates: np.ndarray) -> np.ndarray:
    """Median over replicas: the middle value of each column of a (k, m) array; k must be odd."""
    estimates = np.asarray(estimates, dtype=float)
    k = estimates.shape[0]
    if k < 1 or k % 2 == 0:
        raise ValueError("need an odd number of replicas")
    return np.sort(estimates, axis=0)[k // 2]


@dataclass
class OptimizationResult:
    theta: tuple[float, ...]
    b: float
    value: float
    grid_size: int
    k: int


def optimize_via_sketch(
    points,
    lam: float,
    epsilon: float,
    family: str = "add1d",
    k: int = 1,
    seed: int = 0,
    budget: int = 2_000_000,
) -> OptimizationResult:
    """Approximate argmin of the regularized hinge objective from sketches.

    Builds k independent replicas (per label class internally), enumerates
    the grid, scores every candidate by median sketch estimate plus the
    exact regularizer, and returns the lowest-scoring candidate; exact ties
    break lexicographically on (theta, b).  k defaults to 1, which suffices
    for the deterministic add1d backend; randomized backends should pass an
    odd k (default_replication gives the union-bound-safe choice).
    """
    if not points:
        raise ValueError("empty dataset")
    d = points[0].dim
    spec = GridSpec(lam=lam, epsilon=epsilon, d=d, k=k)
    grid = grid_points(spec, budget=budget)
    replicas = [
        build_estimator(points, family, epsilon, seed=derive_seed(seed, "replica", i),
                        norm_budget=spec.R)
        for i in range(k)
    ]
    reg = 0.5 * lam * (grid**2).sum(axis=1)
    data_term = median_estimate(np.stack([r.estimate_bulk(grid) for r in replicas]))
    values = reg + data_term
    best_val = values.min()
    ties = np.nonzero(values == best_val)[0]
    # lexicographic tie-break independent of enumeration order
    w = min((tuple(grid[i]) for i in ties))
    return OptimizationResult(tuple(w[:-1]), float(w[-1]), float(best_val), len(grid), k)


# ---------------------------------------------------------------------------
# Reservoir + SGD baseline
# ---------------------------------------------------------------------------


def reservoir_sample(points, capacity: int, rng) -> list:
    """Algorithm-R uniform sample of ``capacity`` stream elements."""
    res = []
    for i, p in enumerate(points):
        if len(res) < capacity:
            res.append(p)
        else:
            j = int(rng.integers(0, i + 1))
            if j < capacity:
                res[j] = p
    return res


def sgd_baseline(
    points,
    lam: float,
    epsilon: float,
    seed: int = 0,
) -> tuple[tuple[float, ...], float]:
    """Projected SGD with 1/(lam*t) steps over a bounded uniform reservoir.

    Maintains ceil(1/(lam*epsilon)) random stream elements, then runs the
    strongly convex SGD schedule over them, projecting onto the ball of
    radius sqrt(2/lam); returns the suffix-averaged iterate.
    """
    if lam <= 0 or epsilon <= 0:
        raise ValueError("lambda and epsilon must be positive")
    rng = philox_generator(seed, "sgd")
    capacity = math.ceil(1.0 / (lam * epsilon))
    res = reservoir_sample(points, capacity, rng)
    if not res:
        raise ValueError("empty dataset")
    d = res[0].dim
    zs = np.array([[*p.x, 1.0] for p in res]) * np.array([[p.y] for p in res])
    steps = max(len(res), math.ceil(20.0 / (lam * epsilon)))
    radius = math.sqrt(2.0 / lam)
    w = np.zeros(d + 1)
    acc = np.zeros(d + 1)
    order = rng.integers(0, len(res), steps)
    for t, idx in enumerate(order, start=1):
        z = zs[idx]
        g = lam * w
        if 1.0 - float(z @ w) > 0:
            g = g - z
        w = w - g / (lam * t)
        nw = float(np.linalg.norm(w))
        if nw > radius:
            w *= radius / nw
        if t > steps // 2:
            acc += w
    w = acc / (steps - steps // 2)
    return tuple(w[:-1]), float(w[-1])


def sgd_space_words(lam: float, epsilon: float, d: int) -> int:
    return math.ceil(1.0 / (lam * epsilon)) * (d + 1) + 8
