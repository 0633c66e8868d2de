"""Dynamic-interval multiplicative estimator for d=1 prefix distance sums.

The sketch keeps the smallest ~C*log(n)/eps^3 points explicitly, and above
them an ordered set of intervals whose prefix sizes grow geometrically.
Each interval samples its whole prefix at a private rate rho, targeting
rho* = C*log2(n)/(Zhat*eps^3) where Zhat = |samples|/rho estimates the
prefix size.  rho/rho* is |samples|/K for the constant K = C*log2(n)/eps^3,
so rho* <= rho <= 2*rho* holds while an interval keeps between K and 2K
samples.  Only a hit that breaks the cap thins, in one step, to a uniform
subset of THIN_MARGIN*K/f(eps) samples (at most 2K), where f(eps) is the
smallest share of its parent's prefix a fresh split child gets.  rho falls
by the kept fraction, so Zhat and rho* do not move and rho never increases;
and a split child, which takes its parent's rho and about f(eps) or more of
its samples, starts near THIN_MARGIN*K samples or above, at rho >= rho*.
Adjacent intervals whose estimate ratio reaches 1+6*eps are split at the
~2.5/6 quantile of the band samples; adjacent intervals that are both
unsaturated (ratio < 1+eps) are merged by deleting the intermediate
boundary.  Queries sum per-band sample estimates up to the last boundary
below q, exactly like the offline prefix sketch.

Every coin and thinning draw is the next value of one buffered uniform
stream, so the bytes depend on the seed and the stream, not on how the
stream is chunked into ``update_many`` calls.  An interval's samples are a
float64 array in stream order, which thinnings and splits keep, sorted once
at freeze.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math

import numpy as np

from .core import SketchParams, UnfrozenSketchError
from .sampler import UniformStream, philox_generator
from .serialize import Reader, Writer

# Calibrated accuracy/size constants (n=1e5, eps=0.1, 10 seeds; see tests):
# interval count stays below KAPPA_COUNT * log2(n)/eps and query relative
# error below KAPPA_QUERY * eps on at least 95% of random queries.
KAPPA_COUNT = 1.0
KAPPA_QUERY = 4.0
KAPPA_SPACE = 2.0  # retained words <= KAPPA_SPACE * log2(n)^2 / eps^4

# A thinning keeps THIN_MARGIN times the samples that let the left child of a
# split at the worst-case prefix fraction start at rho >= rho*; the margin
# covers the sampling noise of that fraction.
THIN_MARGIN = 1.1

# update_many's bulk runs (``_run``): a block starts at RUN_MIN points, doubles
# while no event cuts it short and restarts at twice the last run after one,
# up to RUN_CELLS (points x intervals).  Where a thinned interval is fewer than
# RUN_MIN samples from thinning again, thinnings come too close together for
# blocks to pay, and every point goes to ``_step``; so do the points of a call
# with fewer than RUN_MIN left.
RUN_MIN = 64
RUN_CELLS = 2**14


def split_prefix_fraction(eps: float) -> float:
    """f(eps): the smallest share of its parent's prefix a fresh left split
    child can hold.  The parent's ratio to its left neighbour is >= 1+6eps,
    and the split takes 2.5/6 of the band above that neighbour."""
    return 1.0 / (1.0 + 6.0 * eps) + (2.5 / 6.0) * (1.0 - 1.0 / (1.0 + 6.0 * eps))


def _stable_kth(a: np.ndarray, k: int) -> float:
    """``np.sort(a, kind="stable")[k]`` by selection: only 0.0 and -0.0 tie with
    other bits, and their order in ``a``, stream order in a band, picks the zero."""
    v = float(np.partition(a, k)[k])
    return float(a[a == 0.0][k - np.count_nonzero(a < 0.0)]) if v == 0.0 else v


class _Interval:
    __slots__ = ("boundary", "rho", "rho_star", "samples", "_buf", "band", "mark")

    def __init__(self, boundary: float, rho: float, samples: np.ndarray,
                 rho_star: float = math.inf):
        # samples: a float64 array in stream order (thinned in place) while
        # streaming, sorted once frozen
        self.boundary = boundary
        self.rho = rho
        self.rho_star = rho_star
        self.samples = self._buf = samples
        self.band = (0, 0.0)  # once frozen: count and value sum of the samples in the band
        self.mark: tuple[float, float] | None = None  # set by a failed DynSketch1D._split

    @property
    def z_hat(self) -> float:
        return len(self.samples) / self.rho

    def extend(self, xs) -> None:
        """Append xs (an array, or one float) to the samples, a view of the
        front of _buf; _buf doubles when full or when the samples were replaced."""
        one = isinstance(xs, float)
        n, k = self.samples.size, 1 if one else xs.size
        if self.samples.base is not self._buf or n + k > self._buf.size:
            self._buf = np.empty(2 * (n + k))
            self._buf[:n] = self.samples
        self._buf[n if one else slice(n, n + k)] = xs  # one float: a scalar store is faster
        self.samples = self._buf[: n + k]


class DynSketch1D:
    """One-pass dynamic-interval sketch for sum_{x <= q} (q - x)."""

    MAGIC = b"HSKD"

    def __init__(self, params: SketchParams):
        if params.p != 1:
            raise ValueError(f"dyn1d answers p=1 only, not p={params.p}")
        self.params = params
        # rho* = C*log2(n) / (Zhat*eps^3)
        self._c_log = params.C * math.log2(max(params.n_hint, 2))
        self._eps3 = params.epsilon**3
        # rho/rho* = |samples|/k_star: the cap rho <= 2*rho* is a sample count
        k_star = params.sample_sizes()[2]
        self.explicit_capacity = math.ceil(k_star)
        self._max_samples = 2.0 * k_star
        # k_star > 1 (C >= 1, eps < 1), so k_star <= _thin_to <= 2*k_star
        target = min(2.0, THIN_MARGIN / split_prefix_fraction(params.epsilon))
        self._thin_to = min(math.ceil(target * k_star), math.floor(2.0 * k_star))
        self._thin_slack = self._max_samples - self._thin_to  # hits until it thins again
        # a ratio at or above this splits; two adjacent ones below merge_ratio merge
        self._split_ratio, self._merge_ratio = 1.0 + 6.0 * params.epsilon, 1.0 + params.epsilon
        self.thinnings = 0
        self.splits = 0
        self.merges = 0
        # the negated kept points: a heapq list until the tail opens, then an
        # ascending array (also a heap) that holds the later arrival first among
        # equal values.  So one point at a time (_keep) and a run at a time keep
        # the same points, 0.0 and -0.0 included.
        self._heap: list[float] | np.ndarray = []
        self.intervals: list[_Interval] = []
        # in step with the intervals: their boundaries, and the ratio chain
        # [len(heap), z_hat of each interval]
        self._bounds: list[float] = []
        self._z: list[float] = []
        self.count = 0
        self.frozen = False
        self._expl_sorted: np.ndarray | None = None
        self._expl_prefix: np.ndarray | None = None
        self._hidden = 0.0

    # -- streaming ----------------------------------------------------------

    @functools.cached_property
    def _uniforms(self) -> UniformStream:
        """Every coin and thinning draw; a loaded sketch never draws, so builds none."""
        return UniformStream(philox_generator(self.params.seed, "dyn"))

    @property
    def anchor(self) -> float:
        return -float(self._heap[0]) if len(self._heap) else -math.inf

    def update(self, x: float) -> None:
        self.update_many(np.asarray([x], dtype=float))

    def update_many(self, xs: np.ndarray) -> None:
        """``update`` each value in turn; a non-finite value raises ValueError
        after the values before it are in.

        The explicit regime pushes the points one by one, and the first point
        past its capacity opens the tail.  From then on ``_run`` takes in a
        block of points at a time up to the next one that would split, merge
        or thin an interval, or retry a split, and that point goes to
        ``_step`` (RUN_MIN says where points go to ``_step`` one by one).
        """
        xs = np.asarray(xs, dtype=float)
        if self.frozen and xs.size:
            raise UnfrozenSketchError("sketch is frozen; no further updates")
        bad = np.flatnonzero(~np.isfinite(xs))
        good = xs[: bad[0]] if bad.size else xs
        pos, n, block = 0, good.size, RUN_MIN
        while pos < n:
            if not self.intervals:
                room = self.explicit_capacity - len(self._heap)
                for x in good[pos : pos + room].tolist():
                    heapq.heappush(self._heap, -x)
                done = min(room + 1, n - pos)
                self.count += done
                if done > room:  # the first point past the capacity opens the tail
                    self._open_tail(float(good[pos + room]))
                pos += done
                continue
            if n - pos < RUN_MIN or self._thin_slack < RUN_MIN:
                for x in good[pos:].tolist():
                    self._step(x)
                break
            block = min(block, RUN_CELLS // len(self.intervals))
            run = self._run(good[pos : pos + block])
            pos += run
            if run == block:
                block *= 2
            elif pos < n:
                self._step(float(good[pos]))  # the event
                pos += 1
                block = max(RUN_MIN, 2 * run)
        if bad.size:
            raise ValueError(f"stream values must be finite, got {float(xs[bad[0]])}")

    def _step(self, x: float) -> None:
        """The per-point step that ``_run`` matches: sample x into the intervals
        whose prefix it falls in, keep it if below the anchor, restore the fixpoint."""
        self.count += 1
        heap = self._heap
        itvs = self.intervals
        if x < -heap.item(0):  # the explicit points stay at capacity
            self._keep(x)
        lo = bisect.bisect_left(self._bounds, x)
        zs = self._z
        first = last = -1
        for j, u in enumerate(self._uniforms.take(len(itvs) - lo), lo):
            itv = itvs[j]
            if u < itv.rho:
                itv.extend(x)
                if itv.mark and (itv.mark[0] != (self._bounds[j - 1] if j else -heap[0])
                                 or itv.mark[0] < x < itv.mark[1]):
                    itv.mark = None  # the split could succeed now
                zs[j + 1] = self._recompute(itv)
                if first < 0:
                    first = j
                last = j
        # a hit at j moves the ratios j and j+1: only the conditions at
        # first..last+2 can have changed
        if first >= 0 and self._violation(first, min(last + 3, len(itvs))) >= 0:
            self._maintain(first, last)

    def _run(self, xs: np.ndarray) -> int:
        """Take in the leading points of ``xs`` that only add samples, as
        ``_step`` would, and return how many.  The point after them, if any,
        is an event for ``_step``: it would split, merge or thin an interval,
        or retry a split.

        Point t draws one uniform for each interval from ``lo[t]`` on, in
        order, so its draw for interval j is the stream's next uniform number
        ``start[t] + j``.  Running hit counts (intervals x points) give every
        interval's sample count and z_hat after every point, and so the
        ratios ``_violation`` tests.  No condition holds anywhere before the
        block (the last step restored the fixpoint) and only a hit changes
        one, so the event is the first point whose hits make one hold; at a
        marked interval, that needs a hit that clears the mark.
        """
        itvs = self.intervals
        lo = np.searchsorted(self._bounds, xs, side="left")
        draws = len(itvs) - lo
        start = np.cumsum(draws) - draws - lo
        j = np.arange(len(itvs))[:, None]
        u = self._uniforms.peek(int(draws.sum()))
        rho = np.array([itv.rho for itv in itvs])
        hit = np.take(u, start + j, mode="clip") < rho[:, None]
        hit &= j >= lo
        hits = np.cumsum(hit, axis=1)
        sizes = hits + np.array([len(itv.samples) for itv in itvs])[:, None]
        # z_hat = sample count / rho, the expression _step evaluates; the
        # explicit points fill their capacity and no interval is empty, so z > 0
        z = np.empty((len(itvs) + 1, xs.size))
        z[0] = self._z[0]
        np.divide(sizes, rho[:, None], out=z[1:])
        r = z[1:] / z[:-1]
        event = r >= self._split_ratio
        cleared = {}  # marked interval -> whether a hit has cleared its mark, after each point
        for i in [i for i, itv in enumerate(itvs) if itv.mark]:
            left, hi = itvs[i].mark
            keep = (xs <= left) | (xs >= hi)  # hits after which the split fails again
            if i:
                keep &= left == self._bounds[i - 1]
            else:  # the anchor leaves left at the c-th point below it, c its copies in the heap
                keep &= np.cumsum(xs < left) < np.count_nonzero(self._heap == -left)
            cleared[i] = np.logical_or.accumulate(hit[i] & ~keep)
            event[i] &= cleared[i]
        event |= sizes > self._max_samples
        event[1:] |= (r[1:] < self._merge_ratio) & (r[:-1] < self._merge_ratio)
        rows = np.flatnonzero(event.any(axis=0))
        run = int(rows[0]) if rows.size else xs.size
        if run == 0:
            return 0
        head, zs = xs[:run], self._z
        for i in np.flatnonzero(hits[:, run - 1]).tolist():
            itv = itvs[i]
            itv.extend(head[hit[i, :run]])
            if i in cleared and cleared[i][run - 1]:
                itv.mark = None
            zs[i + 1] = self._recompute(itv)
        # the points below the anchor, as _keep takes them in one at a time:
        # keep the capacity largest negated points, the later arrival first
        # among equal values
        below = -head[head < -self._heap[0]]
        if below.size:
            self._heap = np.sort(np.concatenate([below[::-1], self._heap]),
                                 kind="stable")[below.size :]
        self.count += run
        self._uniforms.skip(int(draws[:run].sum()))
        return run

    def _keep(self, x: float) -> None:
        """x, which lies below the anchor, takes the anchor's place among the
        explicit points."""
        heap = self._heap
        i = int(heap.searchsorted(-x))  # before the values equal to -x
        heap[: i - 1] = heap[1:i]
        heap[i - 1] = -x

    def _open_tail(self, x: float) -> None:
        """The explicit regime ends: open the tail interval over everything."""
        tail = _Interval(math.inf, 1.0, np.append(-np.asarray(self._heap), x))
        self._heap = np.sort(self._heap, kind="stable")
        if x < self.anchor:
            self._keep(x)
        self.intervals.append(tail)
        self._bounds = [math.inf]
        self._z = [float(len(self._heap)), self._recompute(tail)]
        self._maintain()

    def _recompute(self, itv: _Interval) -> float:
        """Restore the rho <= 2*rho* cap and refresh rho*; returns z_hat.

        A thinning keeps a uniform subset of exactly ``_thin_to`` samples and
        scales rho by the kept fraction, so z_hat does not move.
        """
        m = len(itv.samples)
        if m > self._max_samples:
            itv.samples = self._uniforms.subset(itv.samples, self._thin_to)
            itv.rho *= self._thin_to / m
            itv.mark = None
            self.thinnings += 1
        z = len(itv.samples) / itv.rho  # > 0: an interval never runs out of samples
        itv.rho_star = self._c_log / (z * self._eps3)
        return z

    def _ratio(self, i: int) -> float:
        """z_hat of interval i over that of the interval before it (the
        explicit points' count before interval 0)."""
        z = self._z
        return z[i + 1] / z[i] if z[i] > 0 else math.inf

    def _violation(self, first: int, stop: int) -> int:
        """The first i in [first, stop) where ``_maintain`` acts, or -1:
        interval i is at ratio >= 1+6eps and not marked, or it and the
        interval before it are both at ratio < 1+eps."""
        z, itvs, hi, lo = self._z, self.intervals, self._split_ratio, self._merge_ratio
        prev = self._ratio(first - 1) if first >= 1 else math.inf
        for i in range(first, stop):
            r = z[i + 1] / z[i] if z[i] > 0 else math.inf
            if (r >= hi and not itvs[i].mark) or (r < lo and prev < lo):
                return i
            prev = r
        return -1

    def _maintain(self, first: int = 0, last: int | None = None) -> None:
        """Split and merge, scanning left to right, until no condition holds.

        No condition held anywhere at the previous fixpoint.  After hits at
        intervals first..last only the conditions at first..last+2 can hold (a
        hit at j moves the ratios j and j+1), so the first scan looks there
        only; a split or merge moves the rest, so later scans look everywhere.
        An interval that cannot split is marked, and the scan goes on.
        """
        stop = len(self.intervals) if last is None else min(last + 3, len(self.intervals))
        for _ in range(10_000):
            i = self._violation(first, stop)
            if i < 0:
                return
            if self._ratio(i) >= self._split_ratio:
                if not self._split(i):
                    first = i + 1
                    continue
            else:
                self._merge(i - 1)
            first, stop = 0, len(self.intervals)
        raise RuntimeError("interval maintenance did not reach a fixpoint")

    def _split(self, i: int) -> bool:
        """Split interval i at the 2.5/6 quantile of its band (the samples
        above its left boundary), or mark it (left boundary, hi): while that
        boundary stays, a hit at or below it or at hi or above cannot make the
        split succeed.  hi is the boundary where the quantile is the boundary;
        for a band of fewer than two values, where a hit there can, it is inf."""
        itv = self.intervals[i]
        left_bd = self.intervals[i - 1].boundary if i >= 1 else self.anchor
        band = itv.samples[itv.samples > left_bd]
        if band.size < 2:
            itv.mark = (left_bd, math.inf)
            return False
        new_bd = _stable_kth(band, math.ceil(band.size * (2.5 / 6.0)) - 1)
        if not new_bd < itv.boundary:  # every band value is above left_bd
            itv.mark = (left_bd, itv.boundary)
            return False
        newitv = _Interval(new_bd, itv.rho, itv.samples[itv.samples <= new_bd])
        z = self._recompute(newitv)
        self.intervals.insert(i, newitv)
        self._bounds.insert(i, new_bd)
        self._z.insert(i + 1, z)
        itv.mark = None
        self.splits += 1
        return True

    def _merge(self, i: int) -> None:
        # drop the intermediate boundary: interval i disappears, i+1 absorbs its span
        del self.intervals[i]
        del self._bounds[i]
        del self._z[i + 1]
        self.merges += 1

    # -- freeze & query -------------------------------------------------------

    def freeze(self) -> None:
        expl = -np.asarray(self._heap, dtype=float)
        expl.sort()
        for itv in self.intervals:
            # the samples no longer change: keep the sorted copy only
            itv.samples = itv._buf = np.sort(itv.samples)
        self._index(expl)

    def _index(self, expl: np.ndarray) -> None:
        """Freeze on the ascending explicit points and interval samples.

        What a query reads of an interval depends on the boundaries only, not
        on q: its band's sample count and value sum, from the last boundary
        below (the anchor for the first interval) to its own, and the hidden
        duplicates of the anchor.  Both are computed here, once, from the
        band's own samples: O(band) work, not O(samples), and a pairwise sum
        that no prefix below the band can cancel digits of.
        """
        self._expl_sorted = expl
        self._expl_prefix = np.concatenate([[0.0], np.cumsum(expl)])
        anchor = float(expl[-1]) if expl.size else -math.inf
        # no finite query reads the tail band, the last (boundary +inf): it stays (0, 0.0)
        prev_bd = anchor
        for itv in self.intervals[:-1]:
            s = itv.samples
            a = int(np.searchsorted(s, prev_bd, side="right"))
            b = int(np.searchsorted(s, itv.boundary, side="right"))
            itv.band = (b - a, float(s[a:b].sum()))
            prev_bd = itv.boundary
        if self.intervals:
            # duplicates of the anchor value beyond the explicit capacity are in
            # no band; estimate them from the densest interval's sample
            kept = expl.size - int(np.searchsorted(expl, anchor, side="left"))
            s0 = self.intervals[0].samples
            a0 = int(np.searchsorted(s0, anchor, side="left"))
            b0 = int(np.searchsorted(s0, anchor, side="right"))
            self._hidden = max(0.0, (b0 - a0) / self.intervals[0].rho - kept)
        self.frozen = True

    def query(self, q: float) -> float:
        return float(self.query_many(np.asarray([q], dtype=float))[0])

    def query_many(self, qs: np.ndarray) -> np.ndarray:
        """Estimates of sum_{x <= q} (q - x), vectorized across the values q.

        Below the anchor (the largest explicit point) the explicit points answer
        exactly; above it each band adds its sample estimate, interval by
        interval in boundary order, up to the last boundary below q.
        """
        if not self.frozen:
            raise UnfrozenSketchError("freeze() the sketch before querying")
        qs = np.asarray(qs, dtype=float)
        if not np.isfinite(qs).all():
            raise ValueError("queries must be finite")
        expl = self._expl_sorted
        if expl.size == 0:
            return np.zeros(qs.size)
        c = np.searchsorted(expl, qs, side="right")
        out = c * qs - self._expl_prefix[c]
        anchor = float(expl[-1])
        far = np.flatnonzero(qs > anchor)
        if not self.intervals or far.size == 0:
            return out
        q = qs[far]
        total = expl.size * q - self._expl_prefix[expl.size]
        total += self._hidden * (q - anchor)
        below = np.ones(q.size, dtype=bool)  # every boundary so far is <= q
        for itv in self.intervals:
            below &= itv.boundary <= q
            if not below.any():
                break
            cnt, vsum = itv.band
            if cnt:
                total[below] += (cnt * q[below] - vsum) / itv.rho
        out[far] = total
        return out

    # -- accounting, invariants, serialization --------------------------------

    def interval_count(self) -> int:
        return len(self.intervals)

    def space_words(self) -> int:
        # per interval: boundary, rho, rho*, sample count
        return len(self._heap) + sum(itv.samples.size + 4 for itv in self.intervals) + 8

    def stats(self) -> dict:
        """The sketch's parts and the structural work it did: the counters
        start at 0 in a sketch loaded from bytes."""
        words = self.space_words()
        return {"intervals": len(self.intervals), "explicit_points": len(self._heap),
                "thinnings": self.thinnings, "splits": self.splits, "merges": self.merges,
                "space_words": words,
                "words_per_point": words / self.count if self.count else 0.0}

    def replica_key(self) -> tuple:
        return self.params.replica_key()

    def check_invariants(self) -> list[str]:
        """The invariants the builder keeps, [] if clean.  Only while streaming:
        rho* <= rho (which splits break from eps ~0.7 up), no unmarked interval
        at ratio 1+6eps or above, and ``_bounds`` and ``_z`` in step (a file
        stores no marks, and a loaded sketch takes no updates)."""
        out, eps, streaming = [], self.params.epsilon, not self.frozen
        if len(self._heap) != min(self.count, self.explicit_capacity):
            out.append(f"{len(self._heap)} explicit points, not min(count {self.count}, "
                       f"explicit capacity {self.explicit_capacity})")
        lo, hi = 1.0 + eps, (1.0 + 6.0 * eps) * (1.0 + 1e-9)
        bd, z, prev = self.anchor, [float(len(self._heap))], math.inf
        for i, itv in enumerate(self.intervals):
            if not bd < itv.boundary:  # NaN fails too
                out.append(f"interval {i}: boundary {itv.boundary} is not above "
                           f"{'the anchor' if i == 0 else 'the boundary before it'} {bd}")
            bd = itv.boundary
            if not (0.0 < itv.rho <= 1.0 and len(itv.samples)):  # the rest divides by both
                return out + [f"interval {i}: rho {itv.rho} with {len(itv.samples)} samples, "
                              "not a rho in (0, 1] with samples"]
            z.append(itv.z_hat)
            rho_star = self._c_log / (z[-1] * self._eps3)
            if itv.rho_star != rho_star:
                out.append(f"interval {i}: rho_star {itv.rho_star} is not its samples' {rho_star}")
            if not itv.rho <= 2.0 * itv.rho_star * (1.0 + 1e-9):
                out.append(f"interval {i}: rho {itv.rho:.4g} > 2*rho* {2*itv.rho_star:.4g}")
            if streaming and not itv.rho_star <= itv.rho * (1.0 + 1e-9):
                out.append(f"interval {i}: rho* {itv.rho_star:.4g} > rho {itv.rho:.4g}")
            r = z[-1] / z[-2] if z[-2] > 0 else math.inf
            if r < lo and prev < lo:
                out.append(f"adjacent unsaturated intervals at {i - 1},{i}")
            if streaming and r >= hi and not itv.mark:
                out.append(f"interval {i}: ratio {r:.4g} >= 1+6eps unsplit")
            prev = r
        if self.intervals and bd != math.inf:
            out.append(f"the tail interval's boundary {bd} is not +inf")
        if streaming and self.intervals and (
                self._bounds != [itv.boundary for itv in self.intervals] or self._z != z):
            out.append("boundary list or ratio chain out of step with the intervals")
        return out

    def to_bytes(self) -> bytes:
        # freeze sorted the arrays already
        expl = self._expl_sorted if self.frozen else np.sort(-np.asarray(self._heap, dtype=float))
        w = Writer(self.MAGIC)
        w.fields(self.params, SketchParams.HEADER)
        w.u64(self.count)
        w.array(expl)
        w.u64(len(self.intervals))
        for itv in self.intervals:
            w.f64(itv.boundary)
            w.f64(itv.rho)
            w.f64(itv.rho_star)
            w.array(itv.samples if self.frozen else np.sort(itv.samples))
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "DynSketch1D":
        r = Reader(data, cls.MAGIC)
        sk = cls(SketchParams(**r.fields(SketchParams.HEADER)))
        sk.count = r.u64()
        expl = r.sorted_array()
        for _ in range(r.u64()):
            bd, rho, rho_star = r.f64(), r.f64(), r.f64()
            sk.intervals.append(_Interval(bd, rho, r.sorted_array(), rho_star))
        # the ascending negated points are a valid heap
        sk._heap = -expl[::-1]
        sk.frozen = True  # a file holds a frozen sketch
        r.done(sk)  # before _index divides by rho
        sk._index(expl)
        return sk
