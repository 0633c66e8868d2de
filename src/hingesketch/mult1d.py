"""Multiplicative (1+eps) estimators for one-dimensional prefix distance sums.

Two structures for the quantity sum_{x <= q} (q - x):

* OfflineSketch1D stores prefix sums at geometrically spaced ranks of a
  sorted array; its answer T always satisfies T <= exact <= (1+eps)*T.
* MultStream1D is the one-pass version: two collections of per-rate
  keep-smallest sample banks (a crude bank E and a fine bank S), queried by
  cutting (p, q] into geometric distance scales and estimating each scale
  from the sparsest bank level that still holds enough samples of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SketchParams, UnfrozenSketchError, check_positive
from .sampler import LevelSampleBank
from .serialize import FormatError, Reader, Writer

# Accuracy constant for the streaming estimator: on calibrated instances the
# relative error is <= KAPPA * epsilon for at least 95% of queries
# (measured once at n=1e5, W=2^20, eps=0.1 over 20 seeds: p95 = 0.006,
# max = 0.019; KAPPA = 2 leaves a 10x margin).
KAPPA = 2.0


def _ceil_log2(xs: np.ndarray) -> np.ndarray:
    """``math.ceil(math.log2(x))`` for each positive finite x, without a call per value.

    Exactly, ceil(log2(x)) is e, or e - 1 when m = 1/2, for x = m * 2**e with
    1/2 <= m < 1.  ``math.log2`` can round log2(x) down to e - 1 only when m
    lies just above 1/2: elsewhere log2(x) exceeds e - 1 by more than 2e-9,
    far more than an ulp of e - 1.  Those values go through ``math.log2`` itself.
    """
    m, e = np.frexp(xs)
    out = e.astype(np.int64) - (m == 0.5)
    near = np.flatnonzero((m > 0.5) & (m < 0.5 + 1e-9))
    out[near] = [math.ceil(math.log2(x)) for x in xs[near].tolist()]
    return out


# ---------------------------------------------------------------------------
# Offline sketch
# ---------------------------------------------------------------------------


class OfflineSketch1D:
    """Geometric-rank prefix sketch of a sorted point set.

    Stores, for each rank j in {ceil((1+eps)^t)}, the position x_j and
    S_j = sum_{i<=j} (x_j - x_i).  A query returns S_j + j*(q - x_j) for the
    largest stored rank with x_j <= q, which never overestimates.

    The sketch is offline: ``update_many`` keeps the points and ``freeze``
    sorts them and builds the index.  As in the streaming sketches, queries
    follow ``freeze`` and updates precede it; ``build`` and ``from_bytes``
    give frozen sketches.  ``p`` other than 1 is rejected, not ignored.
    """

    MAGIC = b"HSKO"

    def __init__(self, epsilon: float, p: int = 1):
        check_positive("epsilon", epsilon)
        if 1.0 + epsilon == 1.0:
            raise ValueError(f"epsilon {epsilon!r} is too small: 1 + epsilon rounds to 1")
        if p != 1:
            raise ValueError(f"offline1d answers p=1 only, not p={p}")
        self.epsilon = float(epsilon)
        self._pending: list[np.ndarray] = []
        self._index(np.empty(0))
        self.frozen = False

    @classmethod
    def build(cls, points, epsilon: float) -> "OfflineSketch1D":
        sk = cls(epsilon)
        xs = np.asarray(points, dtype=float)
        if xs.size == 0:
            raise ValueError("empty dataset")
        if np.any(np.diff(xs) < 0):
            raise ValueError("offline build requires sorted input")
        sk._index(xs)
        return sk

    def _index(self, xs: np.ndarray) -> None:
        n = xs.size
        base = 1.0 + self.epsilon
        t_max = int(math.floor(math.log(max(n, 1), base))) + 1
        # Below base**t_dense the ladder's steps are at most 1/2, so its ceilings
        # there are every integer up to ceil(base**t_dense): list those directly
        # and the ladder only above.  That is O(n) entries, where the whole
        # ladder has ~log(n)/epsilon.
        t_dense = min(t_max, max(0, int(math.log(0.5 / (base - 1.0), base))))
        # ranks above n are dropped: clip first, so a huge epsilon cannot overflow int64
        ladder = np.ceil(np.minimum(base ** np.arange(t_dense, t_max + 1), n + 1))
        ranks = np.unique(np.concatenate([np.arange(1, ladder[0] + 1), ladder]).astype(np.int64))
        self.ranks = ranks[ranks <= n]
        pre = np.concatenate([[0.0], np.cumsum(xs)])
        self.xs = xs[self.ranks - 1].copy()
        self.sums = self.ranks * self.xs - pre[self.ranks]
        self.frozen = True

    def update_many(self, xs: np.ndarray) -> None:
        if self.frozen:
            raise UnfrozenSketchError("sketch is frozen; no further updates")
        xs = np.asarray(xs, dtype=float)
        if not np.isfinite(xs).all():
            raise ValueError("stream values must be finite")
        self._pending.append(xs)

    def freeze(self) -> None:
        if not self.frozen:
            self._index(np.sort(np.concatenate([np.empty(0), *self._pending])))
            self._pending = []

    def __len__(self) -> int:
        return int(self.ranks.size)

    def space_words(self) -> int:
        """A rank, a position and a prefix sum per stored entry."""
        return 3 * len(self)

    def stats(self) -> dict:
        """Stored entries and the largest stored rank: the sketch keeps no
        stream length, and the largest rank is within a factor 1+eps of it."""
        return {"entries": len(self), "max_rank": int(self.ranks[-1]) if len(self) else 0,
                "space_words": self.space_words()}

    def replica_key(self) -> tuple:
        return (self.epsilon,)

    def check_invariants(self) -> list[str]:
        """The invariants every build keeps, [] if clean."""
        ranks, xs, sums = self.ranks, self.xs, self.sums
        if not ranks.size == xs.size == sums.size:
            return ["rank, position and sum arrays differ in length"]
        # ranks are whole numbers that int64 holds exactly (NaN fails every comparison)
        whole = (ranks >= 1) & (ranks <= 2.0**53) & (ranks == np.floor(ranks))
        return [problem for problem, ok in [
            ("positions and sums must be finite", np.isfinite(xs).all() & np.isfinite(sums).all()),
            ("positions must be ascending", (xs[:-1] <= xs[1:]).all()),
            ("ranks must be whole numbers from 1 to 2^53", whole.all()),
            ("ranks must be strictly ascending", (ranks[:-1] < ranks[1:]).all())] if not ok]

    def query(self, q: float) -> float:
        return float(self.query_many(np.asarray([q]))[0])

    def query_many(self, qs: np.ndarray) -> np.ndarray:
        if not self.frozen:
            raise UnfrozenSketchError("freeze() the sketch before querying")
        qs = np.asarray(qs, dtype=float)
        if not np.isfinite(qs).all():
            raise ValueError("queries must be finite")
        pos = np.searchsorted(self.xs, qs, side="right") - 1
        out = np.zeros_like(qs)
        hit = pos >= 0
        p = pos[hit]
        out[hit] = self.sums[p] + self.ranks[p] * (qs[hit] - self.xs[p])
        return out

    def to_bytes(self) -> bytes:
        w = Writer(self.MAGIC)
        w.f64(self.epsilon)
        w.array(self.ranks.astype(np.float64))
        w.array(self.xs)
        w.array(self.sums)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "OfflineSketch1D":
        r = Reader(data, cls.MAGIC)
        sk = cls(r.f64())
        sk.ranks, sk.xs, sk.sums = r.array(), r.array(), r.array()
        r.done(sk)
        sk.ranks = sk.ranks.astype(np.int64)
        sk.frozen = True
        return sk


# ---------------------------------------------------------------------------
# Streaming sketch
# ---------------------------------------------------------------------------


@dataclass
class BreakdownRow:
    """One distance scale: the crude and fine bank levels read (-1: none)."""
    i_prime: int
    i_sel: int
    contribution: float


@dataclass
class QueryBreakdown1D:
    exact_regime: bool  # answered from the level-0 buffer alone
    boundary_mass: float  # duplicates of p beyond the level-0 capacity
    rows: list[BreakdownRow]


def bank_capacities(params: SketchParams) -> tuple[int, int]:
    m1, m2, _ = params.sample_sizes()
    return math.ceil(m1), math.ceil(m2)


def space_bound_words(params: SketchParams) -> int:
    m1, m2 = bank_capacities(params)
    return params.num_levels * (m1 + m2)


class MultStream1D:
    """One-pass multiplicative sketch over a d=1 value stream."""

    MAGIC = b"HSK1"

    def __init__(self, params: SketchParams):
        if params.p != 1:
            raise ValueError(f"mult1d answers p=1 only, not p={params.p}")
        self.params = params
        m1, m2 = bank_capacities(params)
        self.m1, self.m2 = m1, m2
        levels = params.num_levels
        self.E = LevelSampleBank(m1, levels, params.seed, "E")
        self.S = LevelSampleBank(m2, levels, params.seed, "S")
        self.count = 0
        self.frozen = False
        # per bank, the prefix sums of each level's buffer once a query has read them
        self._prefixes: dict[LevelSampleBank, list] = {}

    def update(self, x: float) -> None:
        self.update_many(np.asarray([x], dtype=float))

    def update_many(self, xs: np.ndarray) -> None:
        if self.frozen:
            raise UnfrozenSketchError("sketch is frozen; no further updates")
        xs = np.asarray(xs, dtype=float)
        if not np.isfinite(xs).all():
            raise ValueError("stream values must be finite")
        self.count += int(xs.size)
        self.E.offer_many(xs)
        self.S.offer_many(xs)

    def freeze(self) -> None:
        levels = self.params.num_levels
        self._prefixes = {bank: [None] * levels for bank in (self.E, self.S)}
        self.frozen = True

    # -- query ------------------------------------------------------------

    def _prefix(self, bank: LevelSampleBank, level: int) -> np.ndarray:
        """[0, cumsum(buffer)] of a bank level, built the first time a query reads it."""
        pres = self._prefixes[bank]
        if pres[level] is None:
            pres[level] = np.concatenate([[0.0], np.cumsum(bank.buffers[level])])
        return pres[level]

    def _level0(self):
        """The larger level-0 buffer and its prefix sums, or None if both are empty.

        That buffer retains every point <= its max.
        """
        e0, s0 = self.E.buffers[0], self.S.buffers[0]
        if e0.size == 0 and s0.size == 0:
            return None
        bank = self.E if s0.size == 0 or (e0.size and e0[-1] >= s0[-1]) else self.S
        return bank.buffers[0], self._prefix(bank, 0)

    def _boundary_mass(self, buf: np.ndarray, p: float) -> float:
        """Duplicates of p that overflowed the level-0 buffer: they fall in no
        scale.  Their count is estimated from the sparsest fine level that still
        holds a full quota of them (inactive unless p is massively duplicated)."""
        kept_p = buf.size - int(np.searchsorted(buf, p, side="left"))
        n_p_hat = kept_p
        floor_large = math.ceil(1.0 / self.params.epsilon**2)
        for i in reversed(range(1, self.params.num_levels)):
            a = int(np.searchsorted(self.S.buffers[i], p, side="left"))
            c = int(np.searchsorted(self.S.buffers[i], p, side="right")) - a
            if c >= floor_large:
                n_p_hat = c * 2.0**i
                break
        return max(0.0, n_p_hat - kept_p)

    def _max_scales(self) -> int:
        return 2 * math.ceil(math.log2(max(self.count, 2)))

    def query(self, q: float) -> tuple[float, QueryBreakdown1D]:
        """``query_many([q])[0]``, with the per-scale choices that made it."""
        out, boundary_mass, scales = self._estimate(np.asarray([q], dtype=float))
        # one value: its rows are its scales, in order
        rows = [BreakdownRow(i_prime, i_sel, contrib)
                for contrib, i_prime, i_sel in zip(*(a.tolist() for a in scales))]
        return float(out[0]), QueryBreakdown1D(not rows, boundary_mass, rows)

    def query_many(self, qs: np.ndarray) -> np.ndarray:
        """Estimates of sum_{x <= q} (q - x), vectorized across the values q."""
        return self._estimate(np.asarray(qs, dtype=float))[0]

    def _estimate(self, qs: np.ndarray):
        """The estimates for ``qs``, the boundary mass and the ``_scale_estimates``
        of every (value, distance scale) row, from one pass over the bank
        levels.  Rows are scale-major: those of scale j = 1, 2, ... are the
        values that reach scale j, in ascending order.

        Below p, the largest retained level-0 value, the level-0 buffer answers
        exactly, and everywhere when it holds the whole stream.  Above it,
        (p, q] is cut into scales (q - D/2^(j-1), q - D/2^j] for D = q - p, and
        each scale adds its sampled estimate.
        """
        if not self.frozen:
            raise UnfrozenSketchError("freeze() the sketch before querying")
        if not np.isfinite(qs).all():
            raise ValueError("queries must be finite")
        no_rows = (np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        level0 = self._level0()
        if level0 is None:
            return np.zeros(qs.size), 0.0, no_rows
        buf, pre = level0
        p = float(buf[-1])
        c = np.searchsorted(buf, qs, side="right")
        out = c * qs - pre[c]  # exact below p
        far = np.flatnonzero(qs > p)
        if far.size == 0 or buf.size == self.count:
            return out, 0.0, no_rows
        # in ascending order, so that each scale's bounds reach searchsorted sorted
        far = far[np.argsort(qs[far])]
        q = qs[far]
        d_scale = q - p
        total = buf.size * q - pre[buf.size]
        boundary_mass = self._boundary_mass(buf, p)
        total += boundary_mass * d_scale
        # at most ceil(log2(D)) scales, and the crude level must hold at least
        # ceil(log2(D)) samples of a scale (both at least 1)
        log_d = _ceil_log2(d_scale)
        num_j = np.clip(log_d, 1, self._max_scales())
        thr_e = np.maximum(log_d, 1)
        # active[j-1, v]: value v reaches scale j.  bounds[k] = q - D/2^k, with
        # D/2^k an exact power-of-two division, so scale j's row of a value
        # holds (bounds[j-1], bounds[j]].
        active = num_j >= np.arange(1, int(num_j.max()) + 1)[:, None]
        bounds = q - d_scale / np.ldexp(1.0, np.arange(active.shape[0] + 1))[:, None]
        scales = self._scale_estimates(
            np.broadcast_to(q, active.shape)[active], bounds[:-1][active],
            bounds[1:][active], np.broadcast_to(thr_e, active.shape)[active])
        # add the scales one at a time, in order: a sum over the scale axis
        # (np.sum's pairwise order) would round differently
        ends = np.cumsum(np.count_nonzero(active, axis=1))[:-1]
        for act, contrib in zip(active, np.split(scales[0], ends)):
            total[act] += contrib
        out[far] = total
        return out, boundary_mass, scales

    def _scale_estimates(self, q, lo, hi, thr_e):
        """For the scale (lo, hi] of each value q: its contribution, and the crude
        level i_prime and fine level i_sel it was read from (-1 for none)."""
        eps = self.params.epsilon
        lw = self.params.log2_w
        levels = self.params.num_levels
        # crude bank: the sparsest level holding thr_e samples of the scale.  A
        # scale that starts at or above every value the bank holds has no sample
        # at any level, and every threshold is at least 1.
        cnt_r = np.zeros(q.size, dtype=np.int64)
        left = np.zeros(q.size, dtype=np.int64)
        i_prime = np.full(q.size, -1)
        top = max((b[-1] for b in self.E.buffers if b.size), default=-np.inf)
        todo = np.flatnonzero(lo < top)
        for i in reversed(range(levels)):
            if todo.size == 0:
                break
            b = self.E.buffers[i]
            a = np.searchsorted(b, lo[todo], side="right")
            c = np.searchsorted(b, hi[todo], side="right") - a
            hit = c >= thr_e[todo]
            idx = todo[hit]
            cnt_r[idx], left[idx], i_prime[idx] = c[hit], a[hit], i
            todo = todo[~hit]
        read = np.flatnonzero(i_prime >= 0)
        cnt_r, left = cnt_r[read], left[read]
        phi = np.where(left == 0, 1.0, np.minimum(1.0, cnt_r / np.maximum(left, 1)))
        keep = phi > eps / lw
        todo, phi = read[keep], phi[keep]
        floor = np.full(todo.size, float(math.ceil(1.0 / eps**2)))
        small = phi < 1.0 / lw
        # the C library's pow, as Python's ** calls it (np.power would square)
        floor[small] = np.ceil(np.float_power(phi[small] * lw / eps, 2))
        # fine bank: the sparsest level holding floor samples of the scale
        contrib = np.zeros(q.size)
        i_sel = np.full(q.size, -1)
        for i in reversed(range(levels)):
            if todo.size == 0:
                break
            b = self.S.buffers[i]
            a = np.searchsorted(b, lo[todo], side="right")
            c = np.searchsorted(b, hi[todo], side="right")
            hit = c - a >= floor
            if not hit.any():
                continue
            pre = self._prefix(self.S, i)
            idx, a, c = todo[hit], a[hit], c[hit]
            contrib[idx] = (2.0**i) * ((c - a) * q[idx] - (pre[c] - pre[a]))
            i_sel[idx] = i
            todo, floor = todo[~hit], floor[~hit]
        return contrib, i_prime, i_sel

    # -- accounting & serialization ----------------------------------------

    def space_words(self) -> int:
        """Retained values plus per-level counters and parameter block."""
        overhead = 2 * self.params.num_levels + 8
        return self.E.retained() + self.S.retained() + overhead

    def space_bound_words(self) -> int:
        return space_bound_words(self.params)

    def stats(self) -> dict:
        """Per bank, its level capacity and each level's fill and survivor
        count; retained words against the bound and against the stream length."""
        words = self.space_words()
        banks = {name: {"capacity": bank.capacity,
                        "fill": [int(b.size) for b in bank.buffers],
                        "survived": list(bank.survived)}
                 for name, bank in (("E", self.E), ("S", self.S))}
        return {"levels": self.params.num_levels, "banks": banks, "space_words": words,
                "space_bound_words": self.space_bound_words(),
                "words_per_point": words / self.count if self.count else 0.0}

    def replica_key(self) -> tuple:
        return self.params.replica_key()

    def check_invariants(self) -> list[str]:
        """The invariants every build keeps, [] if clean: level 0 of each bank
        sees the whole stream, and a level keeps the ``capacity`` smallest of its
        survivors."""
        out = []
        for name, bank in (("E", self.E), ("S", self.S)):
            cap = bank.capacity
            if bank.survived[0] != self.count:
                out.append(f"bank {name}: level 0 saw {bank.survived[0]} of {self.count} values")
            for i, (buf, seen) in enumerate(zip(bank.buffers, bank.survived)):
                if buf.size > cap:
                    out.append(f"bank {name} level {i}: {buf.size} values, past its capacity {cap}")
                elif buf.size != min(cap, seen):
                    out.append(f"bank {name} level {i}: {buf.size} values of its {seen} survivors")
        return out

    def to_bytes(self) -> bytes:
        w = Writer(self.MAGIC)
        w.fields(self.params, SketchParams.HEADER)
        w.u8(0)  # reserved
        w.u64(self.count)
        w.u16(self.params.num_levels)
        for bank in (self.E, self.S):
            for i in range(self.params.num_levels):
                w.u64(bank.survived[i])
                w.array(bank.buffers[i])
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "MultStream1D":
        r = Reader(data, cls.MAGIC)
        params = SketchParams(**r.fields(SketchParams.HEADER))
        if r.u8() != 0:
            raise FormatError("reserved byte must be 0")
        sk = cls(params)
        sk.count = r.u64()
        if r.u16() != params.num_levels:
            raise FormatError("level count mismatch")
        for bank in (sk.E, sk.S):
            for i in range(params.num_levels):
                bank.survived[i] = r.u64()
                bank.buffers[i] = r.sorted_array()
        r.done(sk)
        sk.freeze()
        return sk

