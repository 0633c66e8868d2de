"""Grid-search optimization on top of point-estimation sketches, plus an
SGD-over-reservoir baseline.

The reduction enumerates the delta-grid inside the norm ball ||w|| <=
sqrt(2/lambda) in fixed-size blocks, evaluates the data term of the
objective at every candidate of a block through median-boosted sketch
queries, adds the exact regularizer, and keeps a running argmin.  Hinge sums
decompose per label class: for y=+1 the per-point loss max{0, 1 - (theta.x +
b)} equals a one-sided distance query with offset 1-b, for y=-1 one with
direction -theta and offset 1+b.  So each replica is one HingeEstimator
holding a sub-sketch per class: for d=1 two sketches of a d=1 family (one per
sign of theta), for d=2 a quad-tree.

Every entry point takes a LabeledPoint sequence or the record array that
``cli.ingest`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import families
from .core import _as_matrix, check_positive, hypot_rows
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
        check_positive("lambda", self.lam)
        check_positive("epsilon", self.epsilon)
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.R == 0.0:
            self.R = math.sqrt(2.0 / self.lam)
        if self.delta == 0.0:
            self.delta = self.epsilon / (2.0 * math.sqrt(self.d))
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError("replication k must be odd and >= 1")


# grid_blocks lists this many candidates at a time (rounded up to whole prefixes),
# so that the optimizer's temporaries stay small however large the grid
GRID_BLOCK = 2**14


def grid_blocks(spec: GridSpec, budget: int = 2_000_000) -> tuple[int, Iterator[np.ndarray]]:
    """The number of grid candidates and an iterator over them in blocks.

    Candidates are rows (theta..., b) in lexicographic order; each block is a
    C-ordered array of about ``GRID_BLOCK`` rows.  Errors out before
    allocating anything if the enclosing integer box already exceeds
    ``budget`` points.
    """
    if not (spec.delta > 0 and spec.R / spec.delta < math.inf):  # no integer floor
        raise GridBudgetError(f"grid of radius {spec.R!r} and step {spec.delta!r} overflows "
                              f"float64 (budget {budget}); increase epsilon or lambda")
    kmax = int(math.floor(spec.R / spec.delta + 1e-12))
    dims = spec.d + 1
    box = (2 * kmax + 1) ** dims
    if box > budget:
        raise GridBudgetError(
            f"grid would enumerate up to {box} candidates (budget {budget}); "
            "increase epsilon or lambda"
        )
    axis = np.arange(-kmax, kmax + 1).astype(float) * spec.delta
    sq = axis**2
    # squared norms of the box, summed left to right as a row-wise sum would
    norm2 = sq
    for _ in range(spec.d):
        norm2 = np.add.outer(norm2, sq)
    inside = norm2 <= spec.R**2 * (1.0 + 1e-12)
    # Each prefix (theta...) keeps a run of b centred on 0, axis[kmax-h .. kmax+h]
    # (cnt = 2h+1 values): norm2 is symmetric in b and, rounding being monotone,
    # grows with |b|.  Prefixes and runs come in row-major, that is lexicographic,
    # order; a block is a run of whole prefixes, listed from their counts.
    cnt = np.count_nonzero(inside, axis=-1).ravel()
    ends = np.cumsum(cnt)
    size = int(ends[-1])

    def blocks():
        lo = first = 0  # the block's first prefix and first row
        while first < size:
            # up to the first prefix that brings the block to GRID_BLOCK rows
            hi = min(int(ends.searchsorted(first + GRID_BLOCK)) + 1, cnt.size)
            c = cnt[lo:hi]
            rows = int(ends[hi - 1]) - first
            out = np.empty((rows, dims))
            starts = ends[lo:hi] - c - first
            out[:, -1] = axis[np.arange(rows) - np.repeat(starts - (kmax - c // 2), c)]
            prefix = np.arange(lo, hi)
            for j in reversed(range(spec.d)):
                prefix, i = np.divmod(prefix, axis.size)
                out[:, j] = np.repeat(axis[i], c)
            yield out
            lo, first = hi, first + rows

    return size, blocks()


def grid_points(spec: GridSpec, budget: int = 2_000_000) -> np.ndarray:
    """All grid candidates (theta..., b) in lexicographic order: the blocks of
    ``grid_blocks`` in one array."""
    return np.concatenate(list(grid_blocks(spec, budget)[1]))


def regularizer(grid: np.ndarray, lam: float) -> np.ndarray:
    """(lam/2)*||w||^2 for each candidate row w of ``grid``."""
    # column by column, left to right: the order of a row-wise sum, to the bit
    return 0.5 * lam * sum(c**2 for c in grid.T)


# ---------------------------------------------------------------------------
# The hinge estimator
# ---------------------------------------------------------------------------


class _Class1D:
    """sum_i max{0, offset - theta*x_i} over the d=1 points of one label class.

    Holds two sketches of one family, on the coordinates (orientation +1) and
    on their negations (-1), so that either sign of theta becomes the distance
    query sum max{0, q - x}.  Coordinates are mapped affinely from [-scale,
    scale] into the sketch's domain: [-1, 1] for the normalized families, the
    universe [1, SKETCH_W] for the others.
    """

    def __init__(self, xs: np.ndarray, family: Family, epsilon: float, seed: int, cls: str,
                 scale: float):
        self.n = xs.size
        self.normalized = family.normalized
        self.scale = scale
        self._sk = {}
        for orient in (1, -1):
            sk = family.make(epsilon, max(self.n, 1), derive_seed(seed, "est", cls, orient), 1,
                             SKETCH_W)
            sk.update_many(self._to_domain(orient * xs))
            sk.freeze()
            self._sk[orient] = sk

    def _to_domain(self, v: np.ndarray) -> np.ndarray:
        if self.normalized:
            return v / self.scale
        # shift to [1, W]: u = 1 + (x/scale + 1)/2 * (W - 1)
        return 1.0 + (v / self.scale + 1.0) / 2.0 * (SKETCH_W - 1)

    def _distance_sums(self, orient: int, qs: np.ndarray) -> np.ndarray:
        """sum_i max{0, q - orient*x_i} for each q."""
        qq = self._to_domain(qs)
        if self.normalized:
            # beyond the domain every point lies left of q: the counters answer exactly
            vals = self._sk[orient].query_many(np.clip(qq, -1.0, 1.0)) * self.n
            vals += self.n * np.maximum(0.0, qq - 1.0)
            return np.where(qq <= -1.0, 0.0, vals) * self.scale
        return self._sk[orient].query_many(qq) * (self.scale * 2.0 / (SKETCH_W - 1))

    def add_sums(self, out: np.ndarray, cols: list, offset: np.ndarray) -> None:
        theta = cols[0]
        for orient in (1, -1):
            mask = theta > 0 if orient == 1 else theta < 0
            if mask.any():
                t = np.abs(theta[mask])
                out[mask] += t * self._distance_sums(orient, offset[mask] / t)
        zero = theta == 0
        if zero.any():
            out[zero] += np.maximum(0.0, offset[zero]) * self.n


class _Class2D:
    """sum_i max{0, offset - theta.x_i} over the d=2 points of one label class.

    Points are mapped from the unit ball into [0,1]^2 by x -> (x+1)/2; a
    query then becomes a halfplane query against the quad-tree with
    direction theta/||theta|| and a matching offset.
    """

    def __init__(self, xs: np.ndarray, family: Family, epsilon: float, seed: int, cls: str):
        self.n = len(xs)
        self._tree = family.make(epsilon, max(self.n, 1), derive_seed(seed, "est2", cls), 1,
                                 SKETCH_W)
        self._tree.update_many((xs + 1.0) / 2.0)
        self._tree.freeze()

    def add_sums(self, out: np.ndarray, cols: list, offset: np.ndarray) -> None:
        tx, ty = cols
        norm = hypot_rows(tx, ty)
        zero = norm < 1e-300
        out[zero] += np.where(offset[zero] > 0.0, offset[zero], 0.0) * self.n
        nz = ~zero
        tx, ty, offset, norm = tx[nz], ty[nz], offset[nz], norm[nz]
        # x = 2u - 1 on [0,1]^2: offset - theta.x = (offset + tx + ty) - 2*theta.u
        b2 = (offset + tx + ty) / (2.0 * norm)
        rows = np.stack([tx / norm, ty / norm, b2], axis=1)
        out[nz] += 2.0 * norm * self._tree.query_many(rows) * self.n


class HingeEstimator:
    """Normalized hinge-sum estimator (1/n) sum_i max{0, 1 - y_i(theta.x_i + b)}.

    ``xs`` is the (n, d) coordinate array and ``ys`` the n labels.  Each
    label class keeps one sub-sketch of ``family``: for y=+1 the class term
    is a one-sided distance sum with direction theta and offset 1-b, for
    y=-1 one with direction -theta and offset 1+b.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, family: Family, epsilon: float = 0.05,
                 seed: int = 0, norm_budget: float = 1.0):
        self.n, self.d = xs.shape
        eps_pe = epsilon / max(norm_budget, 1.0)
        # one scale max(1, max|x|) for every d=1 sub-sketch
        scale = float(np.abs(xs).max(initial=1.0))
        self._classes = []
        for cls, sign in (("pos", 1.0), ("neg", -1.0)):
            cx = xs[ys == sign]
            if self.d == 1:
                sub = _Class1D(cx[:, 0], family, eps_pe, seed, cls, scale)
            else:
                sub = _Class2D(cx, family, eps_pe, seed, cls)
            self._classes.append((sign, sub))

    def estimate_bulk(self, ws: np.ndarray) -> np.ndarray:
        """The estimate for each candidate row (theta..., b)."""
        ws = np.asarray(ws, dtype=float).reshape(-1, self.d + 1)
        out = np.zeros(len(ws))
        if self.n == 0:
            return out
        for sign, sub in self._classes:
            if sub.n:
                cols = [sign * ws[:, j] for j in range(self.d)]
                sub.add_sums(out, cols, 1.0 - sign * ws[:, self.d])
        return out / self.n


def build_estimator(points, family: str, epsilon: float, seed: int = 0,
                    norm_budget: float = 1.0) -> HingeEstimator:
    """A HingeEstimator over a LabeledPoint sequence or an ingest record array."""
    if family not in families.FAMILIES:
        raise ValueError(f"unknown backend {family!r}")
    fam = families.FAMILIES[family]
    xs, ys = _as_matrix(points)
    if xs.shape[1] != fam.dim:
        raise ValueError(f"backend {family} supports d={fam.dim} only")
    return HingeEstimator(xs, ys, fam, epsilon, seed, norm_budget)


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

    Builds k independent replicas (per label class internally), then scores
    the grid block by block, as ``grid_blocks`` lists it: median sketch
    estimate plus the exact regularizer.  Returns the lowest-scoring
    candidate; exact ties go to the first in grid order, which is the
    lexicographically smallest (theta, b).  Every score is computed
    elementwise, so neither the blocks nor their size change the answer.
    k defaults to 1, which suffices for the deterministic add1d backend;
    randomized backends should pass an odd k.  A score that is not finite
    raises ValueError.
    """
    xs, _ = _as_matrix(points)
    if not len(xs):
        raise ValueError("empty dataset")
    spec = GridSpec(lam=lam, epsilon=epsilon, d=xs.shape[1], k=k)
    size, blocks = grid_blocks(spec, budget=budget)
    replicas = [
        build_estimator(points, family, epsilon, seed=derive_seed(seed, "replica", i),
                        norm_budget=spec.R)
        for i in range(k)
    ]
    best_val, best_w = math.inf, None
    for blk in blocks:
        values = regularizer(blk, lam) + median_estimate(
            np.stack([r.estimate_bulk(blk) for r in replicas]))
        finite = np.isfinite(values)
        if not finite.all():
            j = int(finite.argmin())
            raise ValueError(f"objective estimate {values[j]} at candidate "
                             f"{tuple(blk[j].tolist())} is not finite")
        i = int(values.argmin())
        if values[i] < best_val:  # a tie keeps the earlier candidate
            best_val, best_w = values[i], tuple(blk[i])
    return OptimizationResult(best_w[:-1], float(best_w[-1]), float(best_val), size, k)


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
    check_positive("lambda", lam)
    check_positive("epsilon", epsilon)
    xs, ys = _as_matrix(points)
    scale = lam * epsilon
    if not (scale > 0 and 20.0 / scale < math.inf):
        raise ValueError(f"lambda * epsilon = {scale!r} is too small: "
                         "the step count 20/(lambda*epsilon) overflows")
    rng = philox_generator(seed, "sgd")
    capacity = math.ceil(1.0 / scale)
    res = reservoir_sample(range(len(xs)), capacity, rng)
    if not res:
        raise ValueError("empty dataset")
    d = xs.shape[1]
    zs = np.concatenate([xs[res], np.ones((len(res), 1))], axis=1) * ys[res, None]
    steps = max(len(res), math.ceil(20.0 / scale))
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
