"""Grid-search optimization on top of point-estimation sketches, plus an
SGD baseline over a uniform sample of the stream.

The reduction enumerates the delta-grid inside the norm ball ||w|| <=
sqrt(2/lambda) in fixed-size blocks, evaluates the data term of the
objective at candidates of a block through median-boosted sketch queries,
clamped at 0, adds the exact regularizer, and keeps a running argmin.  The
ball is where the regularizer is at most F(0, 0) = 1; once a coarse lattice
of the grid has scored U, only candidates whose regularizer is at most U
can still win, and only those are scored (``optimize_via_sketch``).  Hinge sums
decompose per label class: for y=+1 the per-point loss max{0, 1 - (theta.x +
b)} equals a one-sided distance query with offset 1-b, for y=-1 one with
direction -theta and offset 1+b.  So each replica is one HingeEstimator
holding a sub-sketch per class: for d=1 one tree of the additive family
add1d, which answers either sign of theta, or two sketches of a relative-error
family (one per sign of theta); for d=2 a quad-tree.

Every entry point takes the record array that the generators and
``stream.ingest`` return, or a LabeledPoint sequence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import families
from .core import _as_matrix, check_positive
from .families import Family
from .sampler import UniformStream, derive_seed, philox_generator

# universe [1, SKETCH_W] that the non-normalized families read, here and in ``bench``
SKETCH_W = 2**16


class GridBudgetError(ValueError):
    pass


@dataclass
class GridSpec:
    """Candidate grid: delta*Z^(d+1) intersected with the ball of radius R."""

    lam: float
    epsilon: float
    d: int
    R: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        check_positive("lambda", self.lam)
        check_positive("epsilon", self.epsilon)
        if self.d < 1:
            raise ValueError("d must be >= 1")
        self.R = math.sqrt(2.0 / self.lam)
        self.delta = self.epsilon / (2.0 * math.sqrt(self.d))


# grid_blocks lists this many candidates at a time (rounded up to whole prefixes),
# so that the optimizer's temporaries stay small however large the grid
GRID_BLOCK = 2**14
# optimize_via_sketch's first pass scores every COARSE-th point of each axis
COARSE = 4


def _axis(spec: GridSpec, budget: int) -> np.ndarray:
    """The grid's axis, i*delta for i = -kmax..kmax.  Errors out before
    allocating anything if the integer box over it, (2*kmax+1)^(d+1)
    points, exceeds ``budget``."""
    if not (spec.delta > 0 and spec.R / spec.delta < math.inf):  # no integer floor
        raise GridBudgetError(f"grid of radius {spec.R!r} and step {spec.delta!r} overflows "
                              f"float64 (budget {budget}); increase epsilon or lambda")
    kmax = int(math.floor(spec.R / spec.delta + 1e-12))
    box = (2 * kmax + 1) ** (spec.d + 1)
    if box > budget:
        raise GridBudgetError(f"grid would enumerate up to {box} candidates (budget {budget}); "
                              "increase epsilon or lambda")
    return np.arange(-kmax, kmax + 1).astype(float) * spec.delta


def _in_ball(spec: GridSpec):
    """The ball test on squared norms."""
    r2 = spec.R**2 * (1.0 + 1e-12)
    return lambda norm2: norm2 <= r2


def _run_counts(axis: np.ndarray, d: int, keep) -> np.ndarray:
    """For each prefix (theta...) of the box over ``axis``, in row-major order,
    the length of its run of b: axis[c-h .. c+h] around the centre c, for the
    largest h whose squared norm passes ``keep``, or 0 if b = 0 fails.

    Squared norms are summed left to right, as ``regularizer`` sums them, so
    ``keep`` sees its bits.  A norm is symmetric in b and, rounding being
    monotone, grows with |b|; so for a ``keep`` that only gets harder to pass
    as the norm grows, h comes from a binary search per prefix, without a
    table of the box.
    """
    sq = axis**2
    pre = sq
    for _ in range(d - 1):
        pre = np.add.outer(pre, sq)
    pre = pre.ravel()
    c = axis.size // 2
    step = 1 << ((c + 1).bit_length() - 1)  # 2*step > c+1: the search reaches every h in [-1, c]
    # the squares of b = axis[c], axis[c+1], ..., then inf, which fails every keep
    half = np.concatenate([sq[c:], np.full(step, np.inf)])
    h = np.full(pre.size, -1)
    while step:
        up = h + step
        h = np.where(keep(pre + half[up]), up, h)
        step >>= 1
    return np.maximum(2 * h + 1, 0)


def _blocks(axis: np.ndarray, d: int, cnt: np.ndarray) -> Iterator[np.ndarray]:
    """The runs that ``cnt`` gives each prefix, as rows (theta..., b) in
    lexicographic order; each block is a C-ordered run of whole prefixes, up
    to the first that brings it to ``GRID_BLOCK`` rows."""
    ends = np.cumsum(cnt)
    size = int(ends[-1])
    c = axis.size // 2
    lo = first = 0  # the block's first prefix and first row
    while first < size:
        hi = min(int(ends.searchsorted(first + GRID_BLOCK)) + 1, cnt.size)
        n = cnt[lo:hi]
        rows = int(ends[hi - 1]) - first
        out = np.empty((rows, d + 1))
        starts = ends[lo:hi] - n - first
        out[:, -1] = axis[np.arange(rows) - np.repeat(starts - (c - n // 2), n)]
        prefix = np.arange(lo, hi)
        for j in reversed(range(d)):
            prefix, i = np.divmod(prefix, axis.size)
            out[:, j] = np.repeat(axis[i], n)
        yield out
        lo, first = hi, first + rows


def grid_blocks(spec: GridSpec, budget: int = 2_000_000) -> tuple[int, Iterator[np.ndarray]]:
    """The number of grid candidates and an iterator over them in blocks.

    Candidates are rows (theta..., b) in lexicographic order; each block is a
    C-ordered array of about ``GRID_BLOCK`` rows.  Errors out before
    allocating anything if the enclosing integer box already exceeds
    ``budget`` points.
    """
    axis = _axis(spec, budget)
    cnt = _run_counts(axis, spec.d, _in_ball(spec))
    return int(cnt.sum()), _blocks(axis, spec.d, cnt)


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

    Either sign of theta becomes a distance query D(q) = sum max{0, q - x}
    over the coordinates (orientation +1) or their negations (-1), mapped
    affinely from [-scale, scale] into the sketch's domain: [-1, 1] for the
    normalized families, the universe [1, SKETCH_W] for the others.  A
    normalized (additive-error) family keeps one sketch, on the coordinates,
    and answers -1 by max{0, q + x} = (q + x) + max{0, -q - x}, with the
    sketch's error at -q.  A relative-error family keeps a second sketch, on
    the negations: its error is relative to D(-q), which can be far larger.
    """

    def __init__(self, xs: np.ndarray, family: Family, epsilon: float, seed: int, cls: str,
                 scale: float):
        self.n = xs.size
        self.normalized = family.normalized
        self.scale = scale
        self._sk = {}
        for orient in (1,) if self.normalized else (1, -1):
            sk = family.make(epsilon, max(self.n, 1), derive_seed(seed, "est", cls, orient), 1,
                             SKETCH_W)
            sk.update_many(self._to_domain(orient * xs))
            sk.freeze()
            self._sk[orient] = sk
        if self.normalized:
            # sum of the mapped coordinates: a tree answers exactly at the right end of its domain
            self._vsum = self.n * (1.0 - self._sk[1].query(1.0))

    def _to_domain(self, v: np.ndarray) -> np.ndarray:
        if self.normalized:
            return v / self.scale
        # shift to [1, W]: u = 1 + (x/scale + 1)/2 * (W - 1)
        return 1.0 + (v / self.scale + 1.0) / 2.0 * (SKETCH_W - 1)

    def _distance_sums(self, orient: int, qs: np.ndarray) -> np.ndarray:
        """sum_i max{0, q - orient*x_i} for each q."""
        qq = self._to_domain(qs)
        if not self.normalized:
            return self._sk[orient].query_many(qq) * (self.scale * 2.0 / (SKETCH_W - 1))
        if orient == 1:
            return self._sk[1].query_many(qq) * self.n * self.scale
        vals = self.n * qq + self._vsum + self._sk[1].query_many(-qq) * self.n
        # where every point lies near or left of -q the sum is near 0, and the
        # tree's additive error can take it below; a hinge sum never is
        return np.maximum(vals, 0.0) * self.scale

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
        norm = np.hypot(tx, ty)
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


def _backend(family: str, d: int) -> Family:
    """The registry entry of ``family``, which must take points of dimension d."""
    if family not in families.FAMILIES:
        raise ValueError(f"unknown backend {family!r}")
    fam = families.FAMILIES[family]
    if d != fam.dim:
        raise ValueError(f"backend {family} supports d={fam.dim} only")
    return fam


def build_estimator(points, family: str, epsilon: float, seed: int = 0,
                    norm_budget: float = 1.0) -> HingeEstimator:
    """A HingeEstimator over a record array or a LabeledPoint sequence."""
    xs, ys = _as_matrix(points)
    return HingeEstimator(xs, ys, _backend(family, xs.shape[1]), epsilon, seed, norm_budget)


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
    grid candidates block by block, as ``grid_blocks`` lists them: the exact
    regularizer plus the median sketch estimate, clamped at 0 because a hinge
    sum never is below it.  So no score is below its regularizer.  Returns
    the lowest-scoring candidate; exact ties go to the first in grid order,
    which is the lexicographically smallest (theta, b).

    A grid of more than ``GRID_BLOCK // 2`` candidates is searched in two
    passes.  The first scores the coarse lattice of every ``COARSE``-th axis
    point (0 included); its lowest score U bounds the regularizer of every
    candidate that can beat or tie the answer.  The second scores, in grid
    order, only the candidates whose regularizer is at most U.  Every score
    is computed elementwise, so the answer is that of scoring every
    candidate, and neither the blocks nor their size change it.  A smaller
    grid is scored in one pass.

    k defaults to 1, which suffices for the deterministic add1d backend;
    randomized backends should pass an odd k.  An estimate that is not
    finite, at any candidate scored, raises ValueError; a candidate above the
    bound is not scored, so it is not checked.
    """
    xs, _ = _as_matrix(points)
    if not len(xs):
        raise ValueError("empty dataset")
    spec = GridSpec(lam=lam, epsilon=epsilon, d=xs.shape[1])
    if k < 1 or k % 2 == 0:
        raise ValueError("replication k must be odd and >= 1")
    _backend(family, spec.d)  # a wrong backend is named before the grid is sized
    axis = _axis(spec, budget)
    ball = _in_ball(spec)
    cnt = _run_counts(axis, spec.d, ball)
    size = int(cnt.sum())
    replicas = [
        build_estimator(points, family, epsilon, seed=derive_seed(seed, "replica", i),
                        norm_budget=spec.R)
        for i in range(k)
    ]

    def scores(blk: np.ndarray) -> np.ndarray:
        est = median_estimate(np.stack([r.estimate_bulk(blk) for r in replicas]))
        finite = np.isfinite(est)
        if not finite.all():
            j = int(finite.argmin())
            raise ValueError(f"objective estimate {est[j]} at candidate "
                             f"{tuple(blk[j].tolist())} is not finite")
        # a hinge sum is never negative, though a sketch's rounding can take
        # its estimate below 0: clamped, no score is below its regularizer
        return regularizer(blk, lam) + np.maximum(est, 0.0)

    if size > GRID_BLOCK // 2:
        # the best score U on the coarse lattice bounds the regularizer of any
        # candidate that can beat or tie it: score only those
        sub = axis[(axis.size // 2) % COARSE :: COARSE]
        bound = min(scores(blk).min()
                    for blk in _blocks(sub, spec.d, _run_counts(sub, spec.d, ball)))
        cnt = _run_counts(axis, spec.d, lambda norm2: ball(norm2) & (0.5 * lam * norm2 <= bound))
    best_val, best_w = math.inf, None
    for blk in _blocks(axis, spec.d, cnt):
        values = scores(blk)
        i = int(values.argmin())
        if values[i] < best_val:  # a tie keeps the earlier candidate
            best_val, best_w = values[i], tuple(blk[i].tolist())
    return OptimizationResult(best_w[:-1], best_w[-1], float(best_val), size, k)


# ---------------------------------------------------------------------------
# SGD baseline
# ---------------------------------------------------------------------------

SGD_BLOCK = 2**16


def sgd_baseline(
    points,
    lam: float,
    epsilon: float,
    seed: int = 0,
) -> tuple[tuple[float, ...], float]:
    """Projected SGD with 1/(lam*t) steps over a bounded uniform sample.

    Keeps ceil(1/(lam*epsilon)) random stream elements (``UniformStream.subset``:
    one uniform per element, those that drew the smallest kept), then runs the
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
    res = UniformStream(rng).subset(np.arange(len(xs)), capacity)
    if not res.size:
        raise ValueError("empty dataset")
    d = xs.shape[1]
    zs = np.concatenate([xs[res], np.ones((len(res), 1))], axis=1) * ys[res, None]
    steps = max(len(res), math.ceil(20.0 / scale))
    radius = math.sqrt(2.0 / lam)
    w = np.zeros(d + 1)
    acc = np.zeros(d + 1)
    # step indices drawn SGD_BLOCK at a time: Philox keeps the leftover half of
    # a 64-bit draw between calls, so the values are those of one draw of all steps
    order = itertools.chain.from_iterable(
        rng.integers(0, len(res), min(SGD_BLOCK, steps - s)) for s in range(0, steps, SGD_BLOCK))
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
    return tuple(w[:-1].tolist()), float(w[-1])


def sgd_space_words(lam: float, epsilon: float, d: int) -> int:
    return math.ceil(1.0 / (lam * epsilon)) * (d + 1) + 8
