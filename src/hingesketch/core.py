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
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        object.__setattr__(self, "b", float(self.b))
        if not all(math.isfinite(v) for v in self.theta) or not math.isfinite(self.b):
            raise ValueError("query parameters must be finite")


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
    # (attribute, Writer/Reader method) of the header that HSK1 and HSKD share,
    # in file order; u64 stores the seed modulo 2^64, as the samplers read it
    HEADER = (("epsilon", "f64"), ("W", "u64"), ("n_hint", "u64"), ("C1", "f64"),
              ("C2", "f64"), ("C", "f64"), ("p", "u8"), ("seed", "u64"))

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
    ``stream.record_dtype`` array (fields ``y`` and ``x``), which the generators
    and ``stream.ingest`` return, or of a LabeledPoint sequence (d=1 if empty)."""
    if isinstance(points, np.ndarray):
        return np.ascontiguousarray(points["x"], dtype=float), points["y"].astype(float)
    d = points[0].dim if len(points) else 1
    for i, p in enumerate(points):
        if p.dim != d:
            raise ValueError(f"dimension mismatch at point {i}: {p.dim} != {d}")
    return (np.array([p.x for p in points], float).reshape(-1, d),
            np.array([p.y for p in points], float))


def hinge_objective(points, q: HyperplaneQuery, lam: float) -> float:
    """Regularized hinge objective lam/2*||(theta,b)||^2 + mean hinge loss over a
    record array or a LabeledPoint sequence."""
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
