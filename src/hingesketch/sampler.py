"""Seeded sampling primitives shared by every sketch.

Three building blocks: per-level Bernoulli subsampling with keep-smallest
retention (LevelSampleBank), a size-1 reservoir that picks a position and
leaves the value to its caller (Reservoir1), and a buffered stream of
uniforms that also draws exact-size subsets (UniformStream).  Every
generator is a counter-based Philox generator keyed by a digest of (seed,
domain tags).  So identical seed + identical offer sequence replays
byte-for-byte, independent of chunking.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np


def _digest(seed: int, *tags) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<Q", int(seed) & (2**64 - 1)))
    for t in tags:
        if isinstance(t, str):
            h.update(b"s" + t.encode())
        else:
            h.update(b"i" + struct.pack("<Q", int(t) & (2**64 - 1)))
    return h.digest()


def philox_generator(seed: int, *tags) -> np.random.Generator:
    """Independent numpy generator for the (seed, tags) domain."""
    key = np.frombuffer(_digest(seed, *tags), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, *tags) -> int:
    """64-bit integer seed for the (seed, tags) domain."""
    return int.from_bytes(_digest(seed, *tags)[:8], "little")


class UniformStream:
    """Uniforms on [0, 1) from one generator, handed out in draw order.

    They are drawn ``BLOCK`` or more at a time into an array.  A Philox
    generator's doubles run on across ``random`` calls, so the values handed
    out do not depend on how many are asked for at once, nor on which method
    asks.
    """

    BLOCK = 2048

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._arr = np.empty(0)  # drawn values; those from _pos on are not handed out yet
        self._pos = 0

    def peek(self, k: int) -> np.ndarray:
        """The next k uniforms, left in the stream: the next call sees them
        again.  The array is the stream's own buffer; do not write to it."""
        if self._pos + k > self._arr.size:
            fresh = self._rng.random(max(k, self.BLOCK))
            self._arr = np.concatenate([self._arr[self._pos:], fresh])
            self._pos = 0
        return self._arr[self._pos : self._pos + k]

    def skip(self, k: int) -> None:
        """Move past the next k uniforms, as a ``take`` of k would."""
        self.peek(k)
        self._pos += k

    def take(self, k: int) -> list[float]:
        """The next k uniforms."""
        out = self.peek(k).tolist()
        self._pos += k
        return out

    def subset(self, values: np.ndarray, k: int) -> np.ndarray:
        """A uniform random subset of exactly k of the array ``values``, as a
        new array in their order (all of them if k >= len(values), none if
        k <= 0).

        It takes len(values) uniforms, one per value, whatever k is, and keeps
        the values that drew the k smallest.
        """
        m = len(values)
        u = self.peek(m)
        self._pos += m
        keep = np.full(m, k >= m)
        if 0 < k < m:
            keep[np.argpartition(u, k - 1)[:k]] = True
        return values[keep]


class LevelSampleBank:
    """Parallel keep-smallest sample buffers at rates 1/2^i, i = 0..L-1.

    Each offered value passes an independent Bernoulli(2^-i) trial per level;
    survivors enter a buffer that retains the ``capacity`` smallest surviving
    values, evicting the largest on overflow.  Level 0 keeps every value until
    capacity.

    Level i >= 1 draws the gaps between its survivors, not a coin per value
    (Vitter's sequential sampling by skips): a gap is the number of
    Bernoulli(2^-i) trials up to and including a success, so
    ``Generator.geometric(2^-i)``, from the level's own Philox generator.  The
    gaps run on across calls: those drawn past the end of one offer wait for
    the next, so the stream positions that survive depend only on (seed,
    domain, level), not on how the stream is cut into offers.
    """

    def __init__(
        self,
        capacity: int,
        num_levels: int,
        seed: int = 0,
        domain: str = "bank",
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        self.capacity = int(capacity)
        self.num_levels = int(num_levels)
        self.survived = [0] * num_levels
        self.buffers: list[np.ndarray] = [
            np.empty(0, dtype=np.float64) for _ in range(num_levels)
        ]
        self._seed, self._domain = seed, domain
        self._offered = 0  # stream positions seen
        # per level: the survivor positions drawn and not yet offered, ascending
        # (once drawn, the last lies at or past _offered); and the first of them
        # as an int, so that an offer that ends before it costs the level one
        # compare (0 before the first draw, so that the first offer draws)
        self._ahead = [np.empty(0, dtype=np.int64) for _ in range(num_levels)]
        self._next = [0] * num_levels
        self._gens: list[np.random.Generator | None] = [None] * num_levels

    def offer_many(self, xs: np.ndarray) -> None:
        xs = np.asarray(xs, dtype=np.float64)
        if xs.size == 0:
            return
        start = self._offered
        end = self._offered = start + xs.size
        self._merge(0, xs)
        for i in range(1, self.num_levels):
            if self._next[i] < end:
                pos = self._survivors(i, end)
                if pos.size:  # none on a first draw that lands past end
                    self._merge(i, xs[pos - start])

    def _survivors(self, i: int, end: int) -> np.ndarray:
        """Level i's survivor positions below ``end``, taken from its drawn gaps."""
        ahead = self._ahead[i]
        last = int(ahead[-1]) if ahead.size else -1
        if last < end:
            p = 2.0**-i
            if self._gens[i] is None:
                self._gens[i] = philox_generator(self._seed, self._domain, i)
            drawn = [ahead] if ahead.size else []
            while last < end:
                # the survivors expected up to end, plus a margin of 4 sigma + 4
                mean = (end - last) * p
                pos = self._gens[i].geometric(p, int(mean + 4.0 * math.sqrt(mean)) + 4).cumsum()
                pos += last
                drawn.append(pos)
                last = int(pos[-1])
            ahead = drawn[0] if len(drawn) == 1 else np.concatenate(drawn)
        cut = int(ahead.searchsorted(end))
        self._ahead[i] = ahead[cut:].copy()
        self._next[i] = int(ahead[cut])
        return ahead[:cut]

    def _merge(self, i: int, surv: np.ndarray) -> None:
        """Keep the ``capacity`` smallest of level i's buffer and ``surv``."""
        self.survived[i] += int(surv.size)
        buf = self.buffers[i]
        if buf.size == self.capacity:
            # survivors at or above a full buffer's max sort past capacity:
            # drop them before sorting (NaNs stay, and sort last)
            surv = surv[~(surv >= buf[-1])]
        if not surv.size:  # the merge would give back buf, bytes and all
            return
        # the buffers hold the bytes of a stable merge and sort: the default sort
        # differs from it only in the run of signed zeros and the run of NaNs
        # (last), so both are copied back from merged, in merged order
        merged = np.concatenate([buf, surv])
        out = np.sort(merged)
        if out.size > self.capacity:  # own the kept values: a view keeps the whole merge
            out = out[: self.capacity].copy()
        lo, hi = out.searchsorted(0.0), out.searchsorted(0.0, "right")
        if lo < hi:
            out[lo:hi] = merged[merged == 0.0][: hi - lo]
        if np.isnan(out[-1]):
            nan_at = out.searchsorted(np.nan)
            out[nan_at:] = merged[np.isnan(merged)][: out.size - nan_at]
        self.buffers[i] = out

    def retained(self) -> int:
        return int(sum(b.size for b in self.buffers))


class Reservoir1:
    """Uniform size-1 reservoir: after k offers each one is the pick w.p. 1/k.

    It only picks: ``offer(n)`` names which of the next n offers, if any,
    replaces the pick, and the caller keeps that value.  It draws once per
    replacement (the k=1 case of Vitter's skip and Li's Algorithm L): with c
    offers seen, the pick stays through offer m with probability c/m, so the
    next replacement, ``next_replace``, is offer ``floor(c/U) + 1`` for U
    uniform on (0, 1], drawn at the first offer after c.

    The generator, built at the first draw, is Philox keyed by (seed, *tags, c),
    c the count then: 1 unless the reservoir was given a count, as a loaded
    sketch's are.  Such a one draws from a stream of its own, not a replay of
    the draws that made its pick.
    """

    __slots__ = ("count_seen", "next_replace", "_key", "_rng")

    def __init__(self, seed: int = 0, *tags):
        self.count_seen = 0
        self.next_replace: int | None = None
        self._key = (seed, *tags)
        self._rng: np.random.Generator | None = None

    def offer(self, n: int) -> int | None:
        """Take n more offers; the index among them (0 to n - 1) of the one
        picked now, or None if the pick stays."""
        start = self.count_seen
        end = start + n
        c, kept = (1, 1) if start == 0 and end else (start, None)
        nxt = self.next_replace
        while c < end:
            if nxt is None:
                if self._rng is None:
                    self._rng = philox_generator(*self._key, c)
                nxt = int(c / (1.0 - self._rng.random())) + 1
            if nxt > end:
                break
            c = kept = nxt
            nxt = None
        self.count_seen, self.next_replace = end, nxt
        return None if kept is None else kept - start - 1
