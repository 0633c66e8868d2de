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
stream is chunked into ``update_many`` calls.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import SketchParams, UnfrozenSketchError, python_rows
from .sampler import UniformStream, philox_generator
from . import serialize
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


def split_prefix_fraction(eps: float) -> float:
    """f(eps): the smallest share of its parent's prefix a fresh left split
    child can hold.  The parent's ratio to its left neighbour is >= 1+6eps,
    and the split takes 2.5/6 of the band above that neighbour."""
    return 1.0 / (1.0 + 6.0 * eps) + (2.5 / 6.0) * (1.0 - 1.0 / (1.0 + 6.0 * eps))


@dataclass
class AdjacencyEvent:
    """Fresh-adjacency record emitted at every split and merge."""

    kind: str  # "split-left", "split-right", "merge"
    ratio: float
    update_index: int


class _Interval:
    __slots__ = ("boundary", "rho", "rho_star", "samples", "band", "unsplittable")

    def __init__(self, boundary: float, rho: float, samples):
        # samples: a list while streaming, a sorted array once frozen
        self.boundary = boundary
        self.rho = rho
        self.rho_star = math.inf
        self.samples = samples
        self.band = (0, 0.0)  # once frozen: count and value sum of the samples in the band
        self.unsplittable = False

    @property
    def z_hat(self) -> float:
        return len(self.samples) / self.rho


class DynSketch1D:
    """One-pass dynamic-interval sketch for sum_{x <= q} (q - x)."""

    def __init__(self, params: SketchParams, collect_events: bool = False):
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
        self.thinnings = 0
        # negated kept points as a min-heap: a list while streaming, an
        # ascending array (also a heap) once loaded
        self._heap: list[float] = []
        self.intervals: list[_Interval] = []
        # in step with the intervals: their boundaries, and the ratio chain
        # [len(heap), z_hat of each interval]
        self._bounds: list[float] = []
        self._z: list[float] = []
        self.count = 0
        self.frozen = False
        self.events: list[AdjacencyEvent] = []
        self.collect_events = collect_events
        self._uniforms = UniformStream(philox_generator(params.seed, "dyn"))
        self._expl_sorted: np.ndarray | None = None
        self._expl_prefix: np.ndarray | None = None
        self._hidden = 0.0

    # -- streaming ----------------------------------------------------------

    @property
    def anchor(self) -> float:
        return -self._heap[0] if len(self._heap) else -math.inf

    def update(self, x: float) -> None:
        if self.frozen:
            raise UnfrozenSketchError("sketch is frozen; no further updates")
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"stream values must be finite, got {x}")
        self._step(x)

    def update_many(self, xs: np.ndarray) -> None:
        """``update`` each value in turn; a non-finite value raises ValueError
        after the values before it are in."""
        xs = np.asarray(xs, dtype=float)
        if self.frozen and xs.size:
            raise UnfrozenSketchError("sketch is frozen; no further updates")
        bad = np.flatnonzero(~np.isfinite(xs))
        step = self._step
        for x in python_rows(xs[: bad[0]] if bad.size else xs):
            step(x)
        if bad.size:
            raise ValueError(f"stream values must be finite, got {float(xs[bad[0]])}")

    def _step(self, x: float) -> None:
        """The per-point step: keep x explicitly or sample it into the
        intervals whose prefix it falls in, then restore the fixpoint."""
        self.count += 1
        heap = self._heap
        itvs = self.intervals
        if not itvs:
            if len(heap) < self.explicit_capacity:
                heapq.heappush(heap, -x)
            else:
                self._open_tail(x)
            return
        if x < -heap[0]:  # the explicit points stay at capacity
            heapq.heapreplace(heap, -x)
        lo = bisect.bisect_left(self._bounds, x)
        zs = self._z
        first = last = -1
        for j, u in enumerate(self._uniforms.take(len(itvs) - lo), lo):
            itv = itvs[j]
            if u < itv.rho:
                samples = itv.samples
                samples.append(x)
                itv.unsplittable = False  # band composition changed
                if len(samples) > self._max_samples:
                    zs[j + 1] = self._recompute(itv)
                else:  # _recompute without the thinning
                    z = zs[j + 1] = len(samples) / itv.rho
                    itv.rho_star = self._c_log / (z * self._eps3)
                if first < 0:
                    first = j
                last = j
        if first >= 0:
            self._maintain(first, last)

    def _open_tail(self, x: float) -> None:
        """The explicit regime ends: open the tail interval over everything."""
        tail = _Interval(math.inf, 1.0, [-v for v in self._heap] + [x])
        heapq.heappushpop(self._heap, -x)
        self.intervals.append(tail)
        self._recompute(tail)
        self._bounds = [math.inf]
        self._z = self._chain()
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
            self.thinnings += 1
        z = len(itv.samples) / itv.rho  # > 0: an interval never runs out of samples
        itv.rho_star = self._c_log / (z * self._eps3)
        return z

    def _chain(self) -> list[float]:
        return [float(len(self._heap))] + [itv.z_hat for itv in self.intervals]

    def _maintain(self, first: int = 0, last: int | None = None) -> None:
        """Split and merge, scanning left to right, until no condition holds.

        No condition held anywhere at the previous fixpoint.  After hits at
        intervals first..last only the conditions at first..last+2 can hold (a
        hit at j moves the ratios j and j+1), so the first scan looks there
        only; a split or merge moves the rest, so later scans look everywhere.
        """
        eps = self.params.epsilon
        hi, lo = 1.0 + 6.0 * eps, 1.0 + eps
        itvs, z = self.intervals, self._z
        stop = len(itvs) if last is None else min(last + 3, len(itvs))
        for _ in range(10_000):
            prev = z[first] / z[first - 1] if first >= 1 and z[first - 1] > 0 else math.inf
            for i in range(first, stop):
                r = z[i + 1] / z[i] if z[i] > 0 else math.inf
                if r >= hi and not itvs[i].unsplittable:
                    if self._split(i):
                        break
                    itvs[i].unsplittable = True
                if r < lo and prev < lo:
                    self._merge(i - 1)
                    break
                prev = r
            else:
                return
            first, stop = 0, len(itvs)
        raise RuntimeError("interval maintenance did not reach a fixpoint")

    def _split(self, i: int) -> bool:
        itv = self.intervals[i]
        left_bd = self.intervals[i - 1].boundary if i >= 1 else self.anchor
        band = [s for s in itv.samples if s > left_bd]
        if len(band) < 2:
            return False
        band.sort()
        pos = math.ceil(len(band) * (2.5 / 6.0))
        new_bd = band[pos - 1]
        if not (left_bd < new_bd < itv.boundary):
            return False
        newitv = _Interval(new_bd, itv.rho, [s for s in itv.samples if s <= new_bd])
        if not newitv.samples:
            return False
        z = self._recompute(newitv)
        self.intervals.insert(i, newitv)
        self._bounds.insert(i, new_bd)
        self._z.insert(i + 1, z)
        itv.unsplittable = False
        if self.collect_events:
            prev_z = self.intervals[i - 1].z_hat if i >= 1 else float(len(self._heap))
            if prev_z > 0 and newitv.z_hat > 0:
                self.events.append(AdjacencyEvent("split-left", newitv.z_hat / prev_z, self.count))
                self.events.append(AdjacencyEvent("split-right", itv.z_hat / newitv.z_hat, self.count))
        return True

    def _merge(self, i: int) -> None:
        # drop the intermediate boundary: interval i disappears, i+1 absorbs its span
        del self.intervals[i]
        del self._bounds[i]
        del self._z[i + 1]
        if self.collect_events:
            prev_z = self.intervals[i - 1].z_hat if i >= 1 else float(len(self._heap))
            if prev_z > 0:
                self.events.append(
                    AdjacencyEvent("merge", self.intervals[i].z_hat / prev_z, self.count)
                )

    # -- freeze & query -------------------------------------------------------

    def freeze(self) -> None:
        expl = -np.asarray(self._heap, dtype=float)
        expl.sort()
        for itv in self.intervals:
            # the samples no longer change: keep the sorted copy only
            itv.samples = np.sort(np.asarray(itv.samples, dtype=float))
        self._index(expl)

    def _index(self, expl: np.ndarray) -> None:
        """Freeze on the ascending explicit points and interval samples.

        What a query reads of an interval depends on the boundaries only, not
        on q: its band's sample count and value sum, from the last boundary
        below (the anchor for the first interval) to its own, and the hidden
        duplicates of the anchor.  Both are computed here, once.
        """
        self._expl_sorted = expl
        self._expl_prefix = np.concatenate([[0.0], np.cumsum(expl)])
        anchor = float(expl[-1]) if expl.size else -math.inf
        # no finite query reads the tail band (boundary +inf): it stays (0, 0.0)
        banded = [itv for itv in self.intervals if itv.boundary < math.inf]
        scratch = np.empty(max((itv.samples.size for itv in banded), default=0))
        prev_bd = anchor
        for itv in banded:
            s = itv.samples
            a = int(np.searchsorted(s, prev_bd, side="right"))
            b = int(np.searchsorted(s, itv.boundary, side="right"))
            # cs[k - 1] is the sum of the first k samples (a > b only in a crafted file)
            k = max(a, b)
            cs = np.cumsum(s[:k], out=scratch[:k])
            itv.band = (b - a, float((cs[b - 1] if b else 0.0) - (cs[a - 1] if a else 0.0)))
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
        per_interval = 4  # boundary, rho, rho*, sample count
        return (
            len(self._heap)
            + sum(len(itv.samples) for itv in self.intervals)
            + per_interval * len(self.intervals)
            + 8
        )

    def replica_key(self) -> tuple:
        return self.params.replica_key()

    def check_invariants(self) -> list[str]:
        """Structural invariants; empty list means clean."""
        out = []
        eps = self.params.epsilon
        lo, hi = 1.0 + eps, (1.0 + 6.0 * eps) * (1.0 + 1e-9)
        z = self._chain()
        bds = [itv.boundary for itv in self.intervals]
        if bds != sorted(bds):
            out.append("boundaries out of order")
        if self.intervals and (self._bounds != bds or self._z != z):
            out.append("boundary list or ratio chain out of step with the intervals")
        prev = math.inf
        for i, itv in enumerate(self.intervals):
            if not (itv.rho_star <= itv.rho * (1.0 + 1e-9)):
                out.append(f"interval {i}: rho* {itv.rho_star:.4g} > rho {itv.rho:.4g}")
            if not (itv.rho <= 2.0 * itv.rho_star * (1.0 + 1e-9)):
                out.append(f"interval {i}: rho {itv.rho:.4g} > 2*rho* {2*itv.rho_star:.4g}")
            r = z[i + 1] / z[i] if z[i] > 0 else math.inf
            if r < lo and prev < lo:
                out.append(f"adjacent unsaturated intervals at {i - 1},{i}")
            if r >= hi and not itv.unsplittable:
                out.append(f"interval {i}: ratio {r:.4g} >= 1+6eps unsplit")
            prev = r
        return out

    def to_bytes(self) -> bytes:
        if self.frozen:  # freeze sorted the arrays already
            expl, samples = self._expl_sorted, [itv.samples for itv in self.intervals]
        else:
            expl = np.sort(-np.asarray(self._heap, dtype=float))
            samples = [np.sort(np.asarray(itv.samples, dtype=float)) for itv in self.intervals]
        w = Writer(serialize.MAGIC_DYN1D)
        self.params.write(w)
        w.u64(self.count)
        w.array(expl)
        w.u64(len(self.intervals))
        for itv, s in zip(self.intervals, samples):
            w.f64(itv.boundary)
            w.f64(itv.rho)
            w.f64(itv.rho_star)
            w.array(s)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "DynSketch1D":
        r = Reader(data, serialize.MAGIC_DYN1D)
        sk = cls(SketchParams.read(r))
        sk.count = r.u64()
        expl = r.sorted_array()
        m = r.u64()
        prev_bd = -math.inf
        for _ in range(m):
            bd = r.f64()
            rho = r.f64()
            rho_star = r.f64()
            if not bd >= prev_bd:  # NaN fails too
                raise serialize.FormatError(f"HSKD boundary {bd} after {prev_bd}")
            if not 0.0 < rho <= 1.0:
                raise serialize.FormatError(f"HSKD interval rho {rho} is not in (0, 1]")
            if not math.isfinite(rho_star):
                raise serialize.FormatError(f"HSKD interval rho_star {rho_star} is not finite")
            itv = _Interval(bd, rho, r.sorted_array())
            itv.rho_star = rho_star
            sk.intervals.append(itv)
            prev_bd = bd
        r.done()
        sk._index(expl)
        # the ascending negated points are a valid heap
        sk._heap = -expl[::-1]
        sk._bounds = [itv.boundary for itv in sk.intervals]
        sk._z = sk._chain()
        return sk
