"""Dataset and adversarial-instance generators with decoding oracles.

Three families: bit-encoding layouts on the line and in the disk whose bits
can be recovered from sufficiently accurate point-estimation queries, a
two-cluster optimization instance with a closed-form optimum, and plain
synthetic benchmark streams.  Every generator is seeded and reproducible, and
returns its points as one ``stream.record_dtype(d)`` array (``stream.make_records``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sampler import philox_generator
from .stream import make_records


# ---------------------------------------------------------------------------
# Indexing layout on the line (d=1)
# ---------------------------------------------------------------------------


@dataclass
class DecoderQuery:
    bit: int
    theta: tuple[float, ...]
    b: float
    signal: float  # unnormalized value contributed iff the bit is set


@dataclass
class IndexInstance1D:
    bits: tuple[int, ...]
    epsilon: float
    per_bit: int
    positions: tuple[float, ...]
    points: np.recarray = field(repr=False)
    queries: list[DecoderQuery] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.points)

    def decode(self, estimator) -> list[int]:
        """Recover the bit string from a point estimator.

        ``estimator(q)`` must return an estimate of sum_i max{0, q - x_i}
        over the instance stream (unnormalized).  Bits are decoded in order;
        each query subtracts the exact contribution of the already-decoded
        prefix, mirroring one-way communication where the decoder knows the
        earlier bits.
        """
        out = []
        for dq in self.queries:
            v = float(estimator(dq.b))
            for k in range(dq.bit):
                if self.bits[k]:
                    v -= self.per_bit * max(0.0, dq.b - self.positions[k])
            out.append(1 if v >= dq.signal / 2.0 else 0)
        return out


def gen_index1d(bits, epsilon: float, n: int) -> IndexInstance1D:
    """Bit string encoded as point masses at positions 3*i*sqrt(eps) in [0, 1).

    Each set bit i receives round(n*sqrt(eps)) copies of the point
    3*i*sqrt(eps); the decoder query for bit i is b = 3*(i+1)*sqrt(eps) with
    unnormalized signal n*sqrt(eps) * 3*sqrt(eps).  A point estimator with
    additive error below signal/(2n) decodes every bit.
    """
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0/1")
    se = math.sqrt(epsilon)
    if len(bits) > 1.0 / se:
        raise ValueError("bit string too long for this epsilon")
    positions = tuple(3.0 * i * se for i in range(len(bits)))
    if positions and positions[-1] >= 1.0:
        raise ValueError(
            "bit string too long: positions must stay inside [0, 1); "
            f"need len(bits) <= {int(1.0 // (3.0 * se)) + 1}"
        )
    per_bit = max(1, round(n * se))
    xs = np.repeat(np.array(positions)[np.array(bits, bool)], per_bit)
    points = make_records(np.ones(len(xs)), xs[:, None])
    queries = [
        DecoderQuery(i, (1.0,), 3.0 * (i + 1) * se, per_bit * 3.0 * se)
        for i in range(len(bits))
    ]
    return IndexInstance1D(bits, epsilon, per_bit, positions, points, queries)


# ---------------------------------------------------------------------------
# Indexing layout in the disk (d=2)
# ---------------------------------------------------------------------------


@dataclass
class IndexInstance2D:
    bits: tuple[int, ...]
    s: int
    r: int
    per_bit: int
    positions: list[tuple[float, float]] = field(repr=False)
    points: np.recarray = field(repr=False)
    queries: list[DecoderQuery] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.points)

    def decode(self, estimator) -> list[int]:
        """Recover bits from ``estimator(theta, b)`` ~ sum max{0, b - theta.x}."""
        out = []
        for dq in self.queries:
            v = float(estimator(dq.theta, dq.b))
            for k in range(dq.bit):
                if self.bits[k]:
                    px, py = self.positions[k]
                    v -= self.per_bit * max(
                        0.0, dq.b - (dq.theta[0] * px + dq.theta[1] * py)
                    )
            out.append(1 if v >= dq.signal / 2.0 else 0)
        return out


def gen_index2d(bits, s: int, r: int, n: int) -> IndexInstance2D:
    """Bit string on an s x r polar grid: angle 2*pi*i/s, radius 1-(j-1)/(2r).

    Bit (j-1)*s + i (0-based i < s, 1-based tier j) receives round(n/(s*r))
    copies of its position.  The decoder aims the halfplane away from the
    target angle (theta = -direction, b = j/(2r) - 1) so the target point
    contributes exactly 1/(2r), shallower same-angle tiers (already-known
    bits) contribute knowable amounts, and everything else is excluded; this
    requires r*(1 - cos(2*pi/s)) >= 1, which is validated here.
    """
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0/1")
    if len(bits) > s * r:
        raise ValueError("bit string too long for this s*r layout")
    if s < 2 or r < 1:
        raise ValueError("need s >= 2 and r >= 1")
    excl = (1.0 - math.cos(2.0 * math.pi / s))
    r_min = 1.0 - (r - 1) / (2.0 * r)  # innermost tier radius, 1/2 + 1/(2r)
    if r_min * excl < 1.0 / (2.0 * r) - 1e-12:
        raise ValueError(
            "adjacent angles not excluded: need (1/2 + 1/(2r))*(1-cos(2*pi/s)) "
            f">= 1/(2r), got {r_min * excl:.4f} < {1.0 / (2.0 * r):.4f}"
        )
    per_bit = max(1, round(n / (s * r)))
    positions = []
    queries = []
    for k in range(len(bits)):
        j = k // s + 1  # tier, 1-based, shallow first
        i = k % s
        ang = 2.0 * math.pi * i / s
        radius = 1.0 - (j - 1) / (2.0 * r)
        pos = (radius * math.cos(ang), radius * math.sin(ang))
        positions.append(pos)
        theta = (-math.cos(ang), -math.sin(ang))
        b = j / (2.0 * r) - 1.0  # target lands at depth exactly 1/(2r)
        queries.append(DecoderQuery(k, theta, b, per_bit / (2.0 * r)))
    X = np.repeat(np.array(positions).reshape(-1, 2)[np.array(bits, bool)], per_bit, axis=0)
    points = make_records(np.ones(len(X)), X)
    return IndexInstance2D(bits, s, r, per_bit, positions, points, queries)


# ---------------------------------------------------------------------------
# Optimization hard instance
# ---------------------------------------------------------------------------


@dataclass
class OptHardInstance:
    delta: float
    lam: float
    n_total: int
    case: int
    d: int
    x_q: tuple[float, ...]
    theta_star_magnitude: float
    b_star: float
    points: np.recarray = field(repr=False)


def closed_form_opt(delta: float, lam: float, n: int, case: int) -> tuple[float, float]:
    """Closed-form optimum magnitude along x_q for the two-cluster instance.

    Case 0: no point at x_q; case 1: the delta in the numerator's second
    term picks up a (1 + 1/n) factor, where n counts all points including
    the one at x_q.  Valid while lam = delta^2, delta < 1/7, n >= 1/delta^2.
    """
    if case not in (0, 1):
        raise ValueError("case must be 0 or 1")
    if abs(lam - delta * delta) > 1e-12 * max(lam, delta * delta):
        raise ValueError("outside validity regime: lambda must equal delta^2")
    if not (0 < delta < 1.0 / 7.0):
        raise ValueError("outside validity regime: need 0 < delta < 1/7")
    if n < 1.0 / (delta * delta):
        raise ValueError("outside validity regime: need n >= 1/delta^2")
    num = 2.0 * lam * (1.0 + delta) + delta * (1.0 + (1.0 / n if case == 1 else 0.0))
    theta = num / (2.0 * lam * (1.0 + (1.0 + delta) ** 2))
    return theta, 1.0 - (1.0 + delta) * theta


def gen_opt_hard(
    delta: float,
    n: int,
    d: int = 1,
    case: int = 0,
    seed: int = 0,
) -> OptHardInstance:
    """Two opposing clusters at (1 -/+ delta)*x_q plus non-support fillers,
    in shuffled order, for x_q the first basis vector.

    Emits n/4 copies of ((1-delta)x_q, -1), n/4 copies of ((1+delta)x_q, +1),
    optionally one probe copy of (x_q, -1) (case 1), and fillers v with label
    -1 rejected until v.x_q < 1 - 10*delta, which keeps them strictly outside
    the support set at the optimum.  Note (1+delta)x_q has norm 1+delta: this
    generator intentionally relaxes the unit-ball bound to 1+delta.
    lam is fixed to delta^2 by construction.
    """
    if n % 4 != 0:
        raise ValueError("n must be divisible by 4")
    if case not in (0, 1):
        raise ValueError("case must be 0 or 1")
    lam = delta * delta
    xq = np.array([1.0] + [0.0] * (d - 1))
    rng = philox_generator(seed, "opthard")
    quarter = n // 4
    fillers_needed = n - 2 * quarter
    fillers = np.empty((0, d))
    for _ in range(1000):
        cand = rng.uniform(-1.0, 1.0, size=(4 * fillers_needed, d))
        norms = np.sqrt((cand**2).sum(axis=1))
        ok = (norms <= 1.0) & (cand @ xq < 1.0 - 10.0 * delta)
        fillers = np.concatenate([fillers, cand[ok][: fillers_needed - len(fillers)]])
        if len(fillers) == fillers_needed:
            break
    else:
        raise RuntimeError(
            "filler rejection sampling exhausted its retry budget; use a smaller delta"
        )
    X = np.concatenate([np.tile((1.0 - delta) * xq, (quarter, 1)),
                        np.tile((1.0 + delta) * xq, (quarter, 1)), np.tile(xq, (case, 1)),
                        fillers])
    y = np.repeat([-1, 1, -1], [quarter, quarter, case + fillers_needed])
    n_total = len(X)
    theta_mag, b_star = closed_form_opt(delta, lam, n_total, case)
    order = rng.permutation(n_total)
    return OptHardInstance(delta, lam, n_total, case, d, tuple(xq), theta_mag, b_star,
                           make_records(y[order], X[order]))


# ---------------------------------------------------------------------------
# Benchmark streams
# ---------------------------------------------------------------------------


# rows per draw of gen_uniform's d=2 rejection rounds
REJECT_BLOCK = 2**16


def gen_uniform(
    n: int, d: int, seed: int = 0, low: float = 0.0, high: float = 1.0,
    label_mode: str = "positive",
) -> np.recarray:
    """Seeded uniform stream inside the unit ball.

    d=1 draws from [low, high] (within [-1, 1]); d=2 draws from
    [low, high]^2 rejected to the unit disk.
    """
    if d not in (1, 2):
        raise ValueError("gen_uniform supports d in {1, 2}")
    if not (-1.0 <= low < high <= 1.0):
        raise ValueError("require -1 <= low < high <= 1")
    rng = philox_generator(seed, "uniform", d)
    if d == 1:
        coords = rng.uniform(low, high, n)[:, None]
    else:
        coords = np.empty((n, 2))
        got, rows = 0, 2 * n + 16
        while got < n:
            # a rejection round draws 2n+16 rows, REJECT_BLOCK rows at a time: Philox
            # doubles run on across calls, so the rows are those of one call, and the
            # round is drawn to its end so that _labels sees the same generator state
            for start in range(0, rows, REJECT_BLOCK):
                cand = rng.uniform(low, high, size=(min(REJECT_BLOCK, rows - start), 2))
                keep = cand[(cand**2).sum(axis=1) <= 1.0][: n - got]
                coords[got : got + len(keep)] = keep
                got += len(keep)
    return make_records(_labels(rng, n, label_mode), coords)


def gen_clustered(
    n: int, d: int, seed: int = 0, centers: int = 3, spread: float = 0.05,
    label_mode: str = "positive",
) -> np.recarray:
    """Seeded mixture of Gaussian blobs clipped to the unit ball."""
    if d not in (1, 2):
        raise ValueError("gen_clustered supports d in {1, 2}")
    rng = philox_generator(seed, "clustered", d)
    ctrs = rng.uniform(-0.6, 0.6, size=(centers, d))
    idx = rng.integers(0, centers, n)
    coords = ctrs[idx] + rng.normal(0.0, spread, size=(n, d))
    norms = np.sqrt((coords**2).sum(axis=1))
    over = norms > 1.0
    coords[over] /= norms[over][:, None] * (1.0 + 1e-9)
    return make_records(_labels(rng, n, label_mode), coords)


def _labels(rng, n: int, mode: str) -> np.ndarray:
    if mode == "positive":
        return np.ones(n, dtype=int)
    if mode == "random":
        return rng.choice(np.array([-1, 1]), size=n)
    raise ValueError("label_mode must be 'positive' or 'random'")
