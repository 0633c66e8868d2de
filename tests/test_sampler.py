import ast
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal, assert_equal
from hypothesis import given, settings, strategies as st

import hingesketch
from hingesketch.add2d import QuadTree2D
from hingesketch.sampler import (LevelSampleBank, Reservoir1, UniformStream, derive_seed,
                                 philox_generator)


def gap_survivors(seed, domain, level, n):
    """The stream positions below n that survive a bank level: level 0 keeps
    every one; level i draws one geometric gap (trials up to a success at rate
    2^-i) per survivor, one at a time, from the Philox generator of (seed,
    domain, i)."""
    if level == 0:
        return np.arange(n)
    gen, pos, out = philox_generator(seed, domain, level), -1, []
    while True:
        pos += int(gen.geometric(2.0**-level))
        if pos >= n:
            return np.array(out, dtype=np.int64)
        out.append(pos)


def merge_and_sort_reference(chunks, cap, seed, levels):
    """Per level, a stable merge and sort cut to ``cap`` after each chunk of
    the survivors ``gap_survivors`` picks."""
    n = sum(len(c) for c in chunks)
    surv = [gap_survivors(seed, "bank", i, n) for i in range(levels)]
    want = [np.empty(0)] * levels
    start = 0
    for chunk in chunks:
        end = start + len(chunk)
        for i in range(levels):
            pos = surv[i][(surv[i] >= start) & (surv[i] < end)]
            if pos.size:
                want[i] = np.sort(np.concatenate([want[i], chunk[pos - start]]),
                                  kind="stable")[:cap]
        start = end
    return want


class TestBank:
    def test_level0_keeps_smallest(self):
        bank = LevelSampleBank(capacity=3, num_levels=1, seed=0)
        for v in (5.0, 1.0, 9.0, 2.0):
            bank.offer_many(np.array([v]))
        assert list(bank.buffers[0]) == [1.0, 2.0, 5.0]

    def test_level0_under_capacity_keeps_all(self):
        bank = LevelSampleBank(capacity=10, num_levels=1, seed=0)
        bank.offer_many(np.array([3.0, 1.0]))
        assert list(bank.buffers[0]) == [1.0, 3.0]

    @given(st.lists(st.floats(-100, 100), min_size=0, max_size=60),
           st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_level0_matches_bruteforce(self, xs, cap):
        bank = LevelSampleBank(capacity=cap, num_levels=1, seed=3)
        for x in xs:
            bank.offer_many(np.array([x]))
        assert list(bank.buffers[0]) == sorted(xs)[:cap]

    @given(st.lists(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, math.nan]),
                             max_size=30), max_size=8), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_same_buffers_as_merge_and_sort(self, chunks, cap):
        """Survivors dropped before the merge would have sorted past capacity:
        the buffers keep every bit (signed zeros, NaN) of a plain merge and sort."""
        chunks = [np.array(c, dtype=float) for c in chunks]
        bank = LevelSampleBank(capacity=cap, num_levels=3, seed=4)
        for chunk in chunks:
            bank.offer_many(chunk)
        want = merge_and_sort_reference(chunks, cap, 4, 3)
        assert [b.tobytes() for b in bank.buffers] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("cap", [3000, 10000, 100000])
    def test_large_chunks_match_stable_merge_and_sort(self, cap, split):
        """Chunks long enough for the default (SIMD) sort, heavy in signed zeros
        and NaNs of several bit patterns, keep the bytes of a stable merge and sort."""
        payload_nan = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0]
        pool = np.array([0.0, -0.0, math.nan, -math.nan, payload_nan, -1.5, 0.25, 3.0])
        rng = np.random.default_rng(5)
        chunks = [pool[rng.integers(0, pool.size, m)] for m in (0, 1, 5000, 70000)]
        if not split:
            chunks = [np.concatenate(chunks)]
        bank = LevelSampleBank(capacity=cap, num_levels=3, seed=6)
        for chunk in chunks:
            bank.offer_many(chunk)
        want = merge_and_sort_reference(chunks, cap, 6, 3)
        for got, w in zip(bank.buffers, want):
            assert got.tobytes() == w.tobytes()

    def test_survival_rate_expectation(self):
        # level 2 (rate 1/4): mean survivors over 10^3 seeds within 5 sigma
        n, level = 400, 2
        counts = []
        for seed in range(1000):
            bank = LevelSampleBank(capacity=1, num_levels=3, seed=seed)
            bank.offer_many(np.arange(n, dtype=float))
            counts.append(bank.survived[level])
        mean = np.mean(counts)
        expect = n * 0.25
        sigma = np.sqrt(n * 0.25 * 0.75 / len(counts))
        assert abs(mean - expect) <= 5 * sigma

    def test_determinism_across_chunkings(self):
        xs = np.random.default_rng(0).uniform(0, 1, 997)
        one = LevelSampleBank(capacity=40, num_levels=6, seed=11)
        one.offer_many(xs)
        two = LevelSampleBank(capacity=40, num_levels=6, seed=11)
        for i in range(0, xs.size, 13):
            two.offer_many(xs[i : i + 13])
        three = LevelSampleBank(capacity=40, num_levels=6, seed=11)
        for i in range(xs.size):
            three.offer_many(xs[i : i + 1])
        assert one.survived == two.survived == three.survived
        for i in range(6):
            assert_array_equal(one.buffers[i], two.buffers[i])
            assert_array_equal(one.buffers[i], three.buffers[i])

    def test_seed_changes_state(self):
        xs = np.arange(200, dtype=float)
        a = LevelSampleBank(capacity=10, num_levels=4, seed=1)
        b = LevelSampleBank(capacity=10, num_levels=4, seed=2)
        a.offer_many(xs)
        b.offer_many(xs)
        assert a.survived != b.survived or any(
            not np.array_equal(u, v) for u, v in zip(a.buffers, b.buffers))

    def test_level_independence_correlation(self):
        # pairwise survival correlation of levels 1 and 2 within 5 sigma of 0
        trials = 10_000
        bank = LevelSampleBank(capacity=trials, num_levels=3, seed=5)
        bank.offer_many(np.arange(trials, dtype=float))  # each value is its position
        s1, s2 = (np.isin(np.arange(trials), bank.buffers[i]) for i in (1, 2))
        corr = np.corrcoef(s1, s2)[0, 1]
        assert abs(corr) <= 5.0 / np.sqrt(trials)

    def test_survivor_law(self):
        """Over 2,000 seeds, offered in chunks of 1 to 16 values: the survivor
        count of level i has the mean and variance of Binomial(n, 2^-i), and
        survival at neighbouring positions is uncorrelated, each within 5 sigma."""
        n, levels, seeds = 48, 5, 2000
        rng = np.random.default_rng(8)
        hits = np.zeros((levels, seeds, n), dtype=bool)
        for seed in range(seeds):
            bank = LevelSampleBank(capacity=n, num_levels=levels, seed=seed)
            cuts = np.cumsum(rng.integers(1, 17, n))
            for a, b in zip([0, *cuts[cuts < n]], [*cuts[cuts < n], n]):
                bank.offer_many(np.arange(a, b, dtype=float))
            for i in range(levels):
                hits[i, seed, bank.buffers[i].astype(int)] = True
                assert bank.survived[i] == bank.buffers[i].size
        assert hits[0].all()
        for i in range(1, levels):
            p = 2.0**-i
            counts = hits[i].sum(axis=1)
            var = n * p * (1 - p)
            assert abs(counts.mean() - n * p) <= 5 * math.sqrt(var / seeds), i
            # the sample variance's standard error, from the binomial's fourth moment
            mu4 = var * (1 + 3 * (n - 2) * p * (1 - p))
            assert abs(counts.var(ddof=1) - var) <= 5 * math.sqrt((mu4 - var**2) / seeds), i
            pairs = hits[i, :, :-1].ravel(), hits[i, :, 1:].ravel()
            corr = np.corrcoef(*pairs)[0, 1]
            assert abs(corr) <= 5.0 / math.sqrt(pairs[0].size), i


def _state(r: Reservoir1):
    return (r.count_seen, r.next_replace, r._rng and r._rng.bit_generator.state)


def offer_each(r: Reservoir1, values, kept=None):
    """Offer ``values`` one at a time; returns the value picked."""
    for v in values:
        if r.offer(1) is not None:
            kept = v
    return kept


class TestReservoir:
    def test_first_offer_retained(self):
        r = Reservoir1(seed=0)
        assert r.offer(1) == 0 and r.count_seen == 1

    def test_two_offer_uniformity(self):
        hits = 0
        trials = 10_000
        for seed in range(trials):
            hits += offer_each(Reservoir1(seed=seed), [0, 1])
        assert abs(hits / trials - 0.5) <= 0.02

    def test_k_offer_uniformity(self):
        k, trials = 7, 4000
        counts = np.zeros(k)
        for seed in range(trials):
            counts[offer_each(Reservoir1(seed=derive_seed(seed, "resv")), range(k))] += 1
        p = 1.0 / k
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(counts - trials * p) <= 5 * sigma)

    def test_determinism(self):
        a = Reservoir1(seed=42)
        b = Reservoir1(seed=42)
        assert offer_each(a, range(100)) == offer_each(b, range(100))

    @given(st.sampled_from([0, 1, 5]), st.integers(0, 40), st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_one_offer_of_n_is_n_offers_of_one(self, start, m, seed):
        """Runs that start at count 0, 1 and k: the same count, pick, next
        replacement and generator state as one offer per value."""
        a, b = Reservoir1(seed=seed), Reservoir1(seed=seed)
        kept = offer_each(a, range(start))
        assert offer_each(b, range(start)) == kept
        i = b.offer(m)
        assert offer_each(a, range(start, start + m), kept) == (kept if i is None else start + i)
        assert_equal(_state(b), _state(a))

    @pytest.mark.parametrize("m", [7, 50])
    @pytest.mark.parametrize("feed", ["per_point", "chunks", "round_trip"])
    def test_kept_position_is_uniform(self, m, feed):
        """Chi-square test of the kept position after m offers, over 4,000 seeds.

        A round trip writes a one-node quad-tree at a count c in [1, m) and
        offers the rest to the loaded copy, which draws its next replacement
        afresh."""
        trials = 4000
        rng = np.random.default_rng(m)
        counts = np.zeros(m)
        pts = np.column_stack([np.arange(m) / m, np.zeros(m)])
        for seed in range(trials):
            if feed == "round_trip":
                c = int(rng.integers(1, m))
                tree = QuadTree2D(0.99, 10 * m, seed=seed)
                tree.update_many(pts[:c])
                tree = QuadTree2D.from_bytes(tree.to_bytes())
                tree.update_many(pts[c:])
                (node,) = tree.roots
                counts[round(node.sample[0] * m)] += 1
                continue
            r, kept = Reservoir1(seed, "resv"), None
            if feed == "per_point":
                kept = offer_each(r, range(m))
            else:
                cuts = np.sort(rng.integers(0, m + 1, 3)).tolist()
                for a, b in zip([0, *cuts], [*cuts, m]):
                    i = r.offer(b - a)
                    kept = kept if i is None else a + i
            counts[kept] += 1
        chi2 = ((counts - trials / m) ** 2 / (trials / m)).sum()
        # the 0.999 quantiles of chi-square with 6 and 49 degrees of freedom
        assert chi2 < {7: 22.46, 50: 85.35}[m]


def test_src_does_not_import_random():
    """Every generator is Philox: no module of the package imports ``random``."""
    for path in Path(hingesketch.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert "random" not in [n.split(".")[0] for n in names], path.name


class TestDerivation:
    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
        assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)
        assert derive_seed(1, "E") != derive_seed(1, "S")

    def test_philox_stream_chunk_invariance(self):
        g1 = philox_generator(9, "t")
        g2 = philox_generator(9, "t")
        a = g1.random(10)
        b = np.concatenate([g2.random(4), g2.random(6)])
        assert np.array_equal(a, b)


class TestUniformStream:
    def test_values_do_not_depend_on_how_many_are_taken(self):
        want = philox_generator(3, "u").random(3 * UniformStream.BLOCK)
        s = UniformStream(philox_generator(3, "u"))
        got = []
        for k in (1, 7, UniformStream.BLOCK + 5, 0, 300, 2):
            got += s.take(k)
        assert got == want[: len(got)].tolist()

    @pytest.mark.parametrize("m,k", [(10, 1), (10, 3), (200, 150), (3000, 300), (100, 1000)])
    def test_subset_keeps_k_in_order_at_rate_k_over_m(self, m, k):
        """Exactly min(k, m) values, in their order; each index kept at rate
        k/m, or every one when k >= m."""
        trials = 2000
        s = UniformStream(philox_generator(4, "subset", m))
        kept = np.zeros(m)
        values = np.arange(m, dtype=float)
        for _ in range(trials):
            got = s.subset(values, k)
            assert got.size == min(k, m) and (np.diff(got) > 0).all()
            kept[got.astype(int)] += 1
        assert np.array_equal(values, np.arange(m))  # the input is left alone
        p = min(k, m) / m
        sigma = math.sqrt(trials * p * (1 - p))
        assert np.abs(kept - trials * p).max() <= 5 * sigma

    @pytest.mark.parametrize("before", [0, 5, UniformStream.BLOCK - 3])
    @pytest.mark.parametrize("m,k", [(0, 0), (1, 1), (100, 40), (3 * UniformStream.BLOCK, 700),
                                     (50, 50), (50, 80), (50, 0), (50, -3)])
    def test_subset_takes_one_uniform_per_value(self, before, m, k):
        """Whatever k is, the next take after a subset of m values is the
        next take of a fresh stream that skipped m values."""
        s = UniformStream(philox_generator(5, "subset"))
        s.take(before)
        values = np.arange(m, dtype=float)
        got = s.subset(values, k)
        assert not np.shares_memory(got, values)  # a new array
        if k >= m:
            assert np.array_equal(got, values)
        elif k <= 0:
            assert got.size == 0
        else:
            assert got.size == k
        want = UniformStream(philox_generator(5, "subset")).take(before + m + 3)[-3:]
        assert s.take(3) == want

    def test_subset_keeps_the_values_that_drew_the_smallest(self):
        s = UniformStream(philox_generator(6, "subset"))
        u = UniformStream(philox_generator(6, "subset")).take(8)
        values = np.array([0.5, -0.0, 3.0, 0.0, -2.0, 0.25, 7.0, 1.0])
        smallest = sorted(range(8), key=u.__getitem__)[:3]
        want = values[sorted(smallest)]
        assert s.subset(values, 3).tobytes() == want.tobytes()

    @given(st.lists(st.tuples(st.sampled_from(["take", "peek", "skip", "subset"]),
                              st.sampled_from([0, 1, 3, 100, UniformStream.BLOCK - 1,
                                               UniformStream.BLOCK + 7, 3 * UniformStream.BLOCK])),
                    max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_calls_in_any_order_read_one_long_draw(self, calls):
        """peek shows the next values without moving on; take, skip and subset
        move on by what they read.  Mixed in any order, across BLOCK
        boundaries, they read one long draw in order."""
        want = philox_generator(7, "mix").random(sum(k for _, k in calls) + 5)
        s = UniformStream(philox_generator(7, "mix"))
        pos = 0
        for kind, k in calls:
            if kind == "take":
                assert s.take(k) == want[pos : pos + k].tolist()
            elif kind == "peek":
                assert s.peek(k).tolist() == want[pos : pos + k].tolist()
                continue
            elif kind == "skip":
                s.skip(k)
            else:
                kept = s.subset(np.arange(k), k // 2)
                assert kept.tolist() == sorted(np.argsort(want[pos : pos + k])[: k // 2].tolist())
            pos += k
        assert s.take(5) == want[pos : pos + 5].tolist()
