"""Domain types, exact objective evaluation, and brute-force oracles.

Everything here is deterministic and exact (up to floating point); the sketch
modules are tested against these functions.  ``exact_optimize``, the oracle of
every optimization check, minimizes the regularized hinge objective by dual
coordinate ascent and stops once no projected dual gradient exceeds its
tolerance.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when the exact optimizer exhausts its sweep budget.

    Carries its last iterate in ``best``, an OptResult whose ``value`` is the
    exact objective there.
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
    """Query hyperplane (theta, b); the evaluation target for point estimation."""

    theta: tuple[float, ...]
    b: float

    def __post_init__(self):
        if isinstance(self.theta, (int, float)):
            object.__setattr__(self, "theta", (float(self.theta),))
        else:
            object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        object.__setattr__(self, "b", float(self.b))
        if not all(math.isfinite(v) for v in self.theta) or not math.isfinite(self.b):
            raise ValueError("query parameters must be finite")

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
        w.u64(self.seed)  # modulo 2^64, as the samplers read it

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
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be nonnegative and finite, not {lam!r}")
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
    check_positive("lambda", lam)
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, not {epsilon!r}")
    return math.sqrt(2.0 * epsilon / lam)


@dataclass
class OptResult:
    theta: tuple[float, ...]
    b: float
    value: float
    evals: int = field(default=0, repr=False)


def exact_optimize(
    points: Sequence[LabeledPoint],
    lam: float,
    tol: float = 1e-9,
    max_evals: int = 2_000_000,
) -> OptResult:
    """Minimizer of the regularized hinge objective, by dual coordinate ascent.

    With w = (theta, b) and z_i = y_i (x_i, 1), the objective regularizes the
    bias too, so its dual is a box-constrained QP over alpha in [0, 1/(lam n)]^n
    with w = sum alpha_i z_i, and each coordinate has a closed-form clipped
    Newton step (Hsieh et al., ICML 2008).  Sweeps visit the points in a
    fixed-seed random order, so a call is deterministic; they stop once no
    projected dual gradient z_i.w - 1 exceeds ``tol`` in size.  ``max_evals``
    counts sweeps, each O(n) work like one objective evaluation, so the budget
    does not depend on n; running out raises ConvergenceError carrying the last
    iterate and its objective value.  Separable labels with a small lam need
    many sweeps (1,888 at lam = 1e-4, n = 2000), so such calls are slow.
    """
    if len(points) == 0:
        raise ValueError("empty dataset")
    check_positive("lambda", lam)
    check_positive("tol", tol)
    xs, ys = _as_matrix(points)
    n = len(ys)
    zs = np.concatenate([xs, np.ones((n, 1))], axis=1) * ys[:, None]
    sq = (zs * zs).sum(axis=1).tolist()
    cap = 1.0 / (lam * n)
    alpha = [0.0] * n
    w = np.zeros(zs.shape[1])
    rng = np.random.default_rng(0)
    sweeps, worst = 0, math.inf
    while sweeps < max_evals:
        sweeps += 1
        worst = 0.0
        for i in rng.permutation(n).tolist():
            g = float(zs[i] @ w) - 1.0
            a = alpha[i]
            if (a > 0.0 or g < 0.0) and (a < cap or g > 0.0):  # projected gradient is g
                worst = max(worst, abs(g))
                alpha[i] = min(max(a - g / sq[i], 0.0), cap)
                w += (alpha[i] - a) * zs[i]
        if worst <= tol:
            break
    theta, b = tuple(w[:-1].tolist()), float(w[-1])
    res = OptResult(theta, b, hinge_objective(points, HyperplaneQuery(theta, b), lam), sweeps)
    if worst > tol:
        raise ConvergenceError(f"sweep budget {max_evals} exhausted", res)
    return res
