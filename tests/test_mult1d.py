import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from hypothesis import given, settings, strategies as st

from hingesketch.core import SketchParams, distance_sums_1d
from hingesketch.dyn1d import DynSketch1D
from hingesketch.mult1d import (
    _ceil_log2,
    MultStream1D,
    OfflineSketch1D,
    UnfrozenSketchError,
    bank_capacities,
    space_bound_words,
)


class TestOffline:
    def test_four_point_entries(self):
        sk = OfflineSketch1D.build([1.0, 2.0, 3.0, 4.0], 1.0)
        assert list(sk.ranks) == [1, 2, 4]
        assert list(sk.xs) == [1.0, 2.0, 4.0]
        assert list(sk.sums) == [0.0, 1.0, 6.0]

    def test_single_point(self):
        sk = OfflineSketch1D.build([7.5], 0.3)
        assert list(sk.ranks) == [1]
        assert sk.query(7.5) == 0.0
        assert sk.query(10.0) == pytest.approx(2.5)

    def test_query_examples(self):
        sk = OfflineSketch1D.build([1.0, 2.0, 3.0, 4.0], 1.0)
        assert sk.query(4.5) == pytest.approx(8.0)
        assert sk.query(3.5) == pytest.approx(4.0)
        assert sk.query(0.5) == 0.0

    def test_entry_count_bound(self):
        rng = np.random.default_rng(0)
        for eps in (1.0, 0.5, 0.1):
            xs = np.sort(rng.integers(1, 2**16, 1000)).astype(float)
            sk = OfflineSketch1D.build(xs, eps)
            assert len(sk) <= 2 * np.log(1000) / np.log(1 + eps) + 2

    @pytest.mark.parametrize("eps", [10.0, 1.0, 0.5, 0.25, 0.2, 0.1, 0.05, 0.01, 0.003])
    def test_ranks_are_the_geometric_ladder(self, eps):
        """Every rank ceil((1+eps)^t) <= n, listed from the whole ladder as the
        reference does; the epsilons the golden and acceptance tests use are here."""
        sk = OfflineSketch1D(eps)
        for n in [1, 2, 3, 7, 100, 300, 797, 2000, 65536]:
            t_max = int(math.floor(math.log(n, 1.0 + eps))) + 1
            want = np.unique(np.ceil((1.0 + eps) ** np.arange(t_max + 1)).astype(np.int64))
            sk._index(np.arange(n, dtype=float))
            assert_array_equal(sk.ranks, want[want <= n])

    @pytest.mark.parametrize("eps", [1e-9, 2.3e-16])
    def test_small_epsilon_keeps_every_rank(self, eps):
        # the ladder has ~log(n)/eps steps here, but at most n distinct ranks
        sk = OfflineSketch1D.build(np.arange(1.0, 301.0), eps)
        assert_array_equal(sk.ranks, np.arange(1, 301))

    @pytest.mark.parametrize("eps", [1e-16, 1e-300])
    def test_epsilon_lost_to_rounding_rejected(self, eps):
        with pytest.raises(ValueError, match="1 \\+ epsilon rounds to 1"):
            OfflineSketch1D(eps)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            OfflineSketch1D.build([2.0, 1.0], 0.5)

    @given(
        st.lists(st.integers(1, 2**12), min_size=1, max_size=200),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_sandwich_property(self, vals, eps):
        xs = np.sort(np.asarray(vals, dtype=float))
        sk = OfflineSketch1D.build(xs, eps)
        qs = np.concatenate([xs - 0.5, xs + 0.5, [0.0, 2.0**13]])
        t = sk.query_many(qs)
        exact = distance_sums_1d(xs, qs)
        assert np.all(t <= exact + 1e-9)
        assert np.all(exact <= (1 + eps) * t + 1e-9)


def scalar_query(sk, q):
    """The streaming estimate of sum_{x <= q} (q - x), one scale and one bank
    level at a time: (estimate, exact_regime, boundary_mass, rows), each row
    the (i_prime, i_sel, contribution) of one distance scale.  The reference
    that ``MultStream1D.query`` and ``query_many`` are compared against."""
    params = sk.params
    eps, lw, levels = params.epsilon, params.log2_w, params.num_levels

    def span(b, lo, hi):
        return int(np.searchsorted(b, lo, side="right")), int(np.searchsorted(b, hi, side="right"))

    level0 = sk._level0()
    if level0 is None:
        return 0.0, True, 0.0, []
    buf, pre = level0
    p = float(buf[-1])
    if q <= p or buf.size == sk.count:  # the level-0 buffer answers exactly
        c = int(np.searchsorted(buf, q, side="right"))
        return c * q - float(pre[c]), True, 0.0, []

    d_scale = q - p
    num_j = max(1, min(math.ceil(math.log2(d_scale)) if d_scale > 1 else 1, sk._max_scales()))
    # the crude level must hold at least ceil(log2(D)) samples of a scale
    thr_e = max(1, math.ceil(math.log2(d_scale)) if d_scale >= 2 else 1)
    floor_large = math.ceil(1.0 / eps**2)
    total = buf.size * q - float(pre[buf.size])
    boundary_mass = sk._boundary_mass(buf, p)
    total += boundary_mass * (q - p)
    rows = []
    for j in range(1, num_j + 1):
        lo = q - d_scale / 2.0 ** (j - 1)
        hi = q - d_scale / 2.0**j
        i_prime, cnt_r = -1, 0
        for i in reversed(range(levels)):
            a, c = span(sk.E.buffers[i], lo, hi)
            if c - a >= thr_e:
                i_prime, cnt_r = i, c - a
                break
        i_sel, contrib = -1, 0.0
        if i_prime >= 0:
            left = int(np.searchsorted(sk.E.buffers[i_prime], lo, side="right"))
            phi = 1.0 if left == 0 else min(1.0, cnt_r / left)
            if phi > eps / lw:
                floor = floor_large if phi >= 1.0 / lw else math.ceil((phi * lw / eps) ** 2)
                for i in reversed(range(levels)):
                    a, c = span(sk.S.buffers[i], lo, hi)
                    if c - a >= floor:
                        pre = sk._prefix(sk.S, i)
                        i_sel = i
                        contrib = (2.0**i) * ((c - a) * q - float(pre[c] - pre[a]))
                        break
        rows.append((i_prime, i_sel, contrib))
        total += contrib
    return total, False, boundary_mass, rows


def small_params(seed=0):
    return SketchParams(epsilon=0.25, W=2**10, n_hint=4000, seed=seed)


class TestStream:
    def test_capacities(self):
        m1, m2 = bank_capacities(SketchParams(epsilon=0.1, W=2**20, n_hint=10**5))
        assert m1 == 32000 and m2 == 64000

    def test_exact_regime_all_retained(self):
        params = small_params()
        sk = MultStream1D(params)
        rng = np.random.default_rng(1)
        xs = rng.integers(1, 2**10, 500).astype(float)
        sk.update_many(xs)
        sk.freeze()
        # far fewer points than level-0 capacity: every query is exact
        for q in rng.uniform(1, 2**10, 50):
            est, bd = sk.query(q)
            assert bd.exact_regime
            assert est == pytest.approx(distance_sums_1d(xs, q)[0], rel=1e-12, abs=1e-9)

    def test_level0_holding_the_stream_answers_above_p(self):
        # level 0 holds all 500 values (capacities 576 and 768), so a value
        # above p = 20 is exact: no distance scale and no boundary mass
        for seed in range(20):
            rng = np.random.default_rng(seed)
            xs = np.concatenate([rng.uniform(1.0, 20.0, 100), np.full(400, 20.0)])
            sk = MultStream1D(SketchParams(epsilon=0.5, W=64, n_hint=500, seed=seed))
            sk.update_many(xs)
            sk.freeze()
            assert sk.S.buffers[0].size == xs.size
            est, bd = sk.query(40.0)
            assert bd.exact_regime and bd.boundary_mass == 0.0 and not bd.rows
            assert est == pytest.approx(distance_sums_1d(xs, 40.0)[0], rel=1e-12)

    def test_capacity_enforced(self):
        params = SketchParams(epsilon=0.9, W=2**4, n_hint=2000, seed=3)
        sk = MultStream1D(params)
        sk.update_many(np.random.default_rng(0).integers(1, 16, 2000).astype(float))
        for b in sk.E.buffers:
            assert b.size <= sk.m1
        for b in sk.S.buffers:
            assert b.size <= sk.m2
        assert sk.space_words() <= sk.space_bound_words() + 2 * params.num_levels + 8

    @pytest.mark.parametrize("stream", ["empty", "exact", "uniform", "duplicated_max",
                                        "overflowing_max"])
    def test_query_many_matches_scalar_query(self, stream):
        """``query_many``, and ``query`` with its breakdown, against the scalar
        scale loop below, on values on both sides of p and far above it."""
        rng = np.random.default_rng(11)
        params = small_params(seed=4)
        xs = {
            "empty": np.empty(0),
            "exact": rng.integers(1, 2**10, 300).astype(float),
            "uniform": rng.uniform(1.0, 2.0**10, 4000),
            "duplicated_max": np.concatenate([rng.uniform(1.0, 50.0, 100), np.full(3000, 64.0),
                                              rng.uniform(64.0, 2.0**10, 900)]),
            # more copies of 64 than either level-0 bank holds: boundary mass
            "overflowing_max": np.concatenate([rng.uniform(1.0, 50.0, 100),
                                               np.full(6000, 64.0),
                                               rng.uniform(64.0, 2.0**10, 900)]),
        }[stream]
        sk = MultStream1D(params)
        sk.update_many(xs)
        sk.freeze()
        p = max((float(b[-1]) for b in (sk.E.buffers[0], sk.S.buffers[0]) if b.size), default=0.0)
        qs = np.concatenate([
            rng.uniform(0.0, 2.0**11, 200),
            [0.0, 1.0, p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), p + 0.5, p + 1.0,
             p + 1.5, p + 2.0, p + 3.0, 2.0**10, 2.0**12, 1e12],
        ])
        want = [scalar_query(sk, q) for q in qs]
        assert_array_equal(sk.query_many(qs), [w[0] for w in want])
        for q, w in zip(qs, want):
            est, bd = sk.query(q)
            rows = [(r.i_prime, r.i_sel, r.contribution) for r in bd.rows]
            assert (est, bd.exact_regime, bd.boundary_mass, rows) == w
        if stream == "overflowing_max":
            assert any(w[2] > 0 for w in want)
            assert any(row[1] >= 0 for w in want for row in w[3])  # a fine level was read

    def test_query_requires_freeze(self):
        sk = MultStream1D(small_params())
        sk.update(3.0)
        with pytest.raises(UnfrozenSketchError):
            sk.query(1.0)
        with pytest.raises(UnfrozenSketchError):
            sk.query_many(np.empty(0))

    def test_update_after_freeze_rejected(self):
        sk = MultStream1D(small_params())
        sk.freeze()
        with pytest.raises(UnfrozenSketchError):
            sk.update(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_update_rejected(self, bad):
        sk = MultStream1D(small_params())
        with pytest.raises(ValueError, match="finite"):
            sk.update_many(np.array([2.0, bad, 3.0]))
        assert sk.count == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_offline_non_finite_update_rejected(self, bad):
        sk = OfflineSketch1D(0.25)
        with pytest.raises(ValueError, match="finite"):
            sk.update_many(np.array([0.5, bad]))
        sk.freeze()
        assert len(sk) == 0

    def test_determinism_replay(self):
        xs = np.random.default_rng(7).integers(1, 2**10, 3000).astype(float)
        a = MultStream1D(small_params(seed=5))
        a.update_many(xs)
        b = MultStream1D(small_params(seed=5))
        for i in range(0, xs.size, 100):
            b.update_many(xs[i : i + 100])
        assert a.to_bytes() == b.to_bytes()

    def test_sampled_regime_accuracy(self):
        # small-capacity configuration to force the interval machinery
        params = SketchParams(epsilon=0.2, W=2**16, n_hint=20000, C1=1, C2=1, seed=2)
        sk = MultStream1D(params)
        rng = np.random.default_rng(2)
        xs = rng.integers(1, 2**16, 20000).astype(float)
        sk.update_many(xs)
        sk.freeze()
        sampled = 0
        for q in rng.uniform(1, 2**16, 100):
            est, bd = sk.query(q)
            exact = distance_sums_1d(xs, q)[0]
            if not bd.exact_regime:
                sampled += 1
                assert abs(est - exact) <= 0.5 * exact
                for row in bd.rows:
                    assert row.contribution >= 0.0
        assert sampled > 20

    def test_level_buffers_own_their_values(self):
        # a [:capacity] view of a level's sorted merge would keep the whole merge alive
        n = 10**5
        sk = MultStream1D(SketchParams(epsilon=0.1, W=2**20, n_hint=n, seed=0))
        sk.update_many(np.random.default_rng(0).uniform(1, 2**20, n))
        assert sk.E.buffers[0].size == sk.m1 < n  # cut to capacity
        assert all(b.base is None for b in sk.E.buffers + sk.S.buffers)

    def test_empty_sketch_space_is_overhead_only(self):
        params = small_params()
        sk = MultStream1D(params)
        assert sk.E.retained() == 0 and sk.S.retained() == 0
        assert sk.space_words() == 2 * params.num_levels + 8

    def test_level0_fine_bank_retains_first_points(self):
        params = SketchParams(epsilon=0.5, W=2**8, n_hint=10**6, seed=0)
        sk = MultStream1D(params)
        xs = np.random.default_rng(5).integers(1, 2**8, 200).astype(float)
        sk.update_many(xs)
        assert sk.S.buffers[0].size == min(200, sk.m2)
        assert np.array_equal(sk.S.buffers[0], np.sort(xs)[: sk.m2])

    def test_monotone_in_q_when_regime_fixed(self):
        params = SketchParams(epsilon=0.2, W=2**16, n_hint=20000, C1=1, C2=1, seed=6)
        sk = MultStream1D(params)
        rng = np.random.default_rng(6)
        xs = rng.integers(1, 2**16, 20000).astype(float)
        sk.update_many(xs)
        sk.freeze()
        checked = 0
        for q in rng.uniform(2**14, 2**16, 200):
            est, bd = sk.query(q)
            if bd.exact_regime:
                continue
            est2, bd2 = sk.query(q * (1 + 1e-9))
            same_regime = [(r.i_prime, r.i_sel) for r in bd.rows] == [
                (r.i_prime, r.i_sel) for r in bd2.rows
            ]
            if same_regime:
                assert est2 >= est - 1e-6 * max(1.0, abs(est))
                checked += 1
        assert checked > 50

    def test_space_bound_growth_when_eps_halves(self):
        a = space_bound_words(SketchParams(epsilon=0.05, W=2**16, n_hint=10**5))
        b = space_bound_words(SketchParams(epsilon=0.025, W=2**16, n_hint=10**5))
        assert 3.5 <= b / a <= 4.5

    def test_roundtrip_bit_identical_queries(self):
        params = small_params(seed=9)
        sk = MultStream1D(params)
        xs = np.random.default_rng(3).integers(1, 2**10, 3500).astype(float)
        sk.update_many(xs)
        sk.freeze()
        sk2 = MultStream1D.from_bytes(sk.to_bytes())
        for q in np.random.default_rng(4).uniform(1, 2**10, 60):
            assert sk.query(q)[0] == sk2.query(q)[0]

    def test_stats_report_fill_and_words_per_point(self):
        """A 1e5-point build at eps 0.1 keeps more words than points, and says so."""
        n = 10**5
        params = SketchParams(epsilon=0.1, W=2**20, n_hint=n, seed=0)
        sk = MultStream1D(params)
        sk.update_many(np.random.default_rng(0).uniform(1, 2**20, n))
        st = sk.stats()
        assert st["words_per_point"] >= 1.0
        assert st["words_per_point"] == st["space_words"] / n
        assert st["space_words"] == sk.space_words() <= st["space_bound_words"] + 2 * 18 + 8
        assert st["space_bound_words"] == space_bound_words(params)
        assert st["levels"] == params.num_levels == 18
        for name, bank, cap in (("E", sk.E, sk.m1), ("S", sk.S, sk.m2)):
            got = st["banks"][name]
            assert got["capacity"] == cap
            assert got["fill"] == [b.size for b in bank.buffers]
            assert got["survived"] == bank.survived
            assert got["fill"][0] == cap and got["survived"][0] == n
            assert all(f <= min(s, cap) for f, s in zip(got["fill"], got["survived"]))
        dyn = DynSketch1D(SketchParams(epsilon=0.1, n_hint=n)).stats()
        shared = {"space_words", "words_per_point"}
        assert shared <= dyn.keys() & st.keys()
        assert all(type(st[k]) is type(dyn[k]) for k in shared)

    def test_stats_of_an_empty_sketch(self):
        st = MultStream1D(small_params()).stats()
        assert st["words_per_point"] == 0.0
        assert st["banks"]["E"]["fill"] == [0] * st["levels"]


def per_scale_reference(sk, qs):
    """``MultStream1D._estimate`` as one pass over the bank levels per distance
    scale: (estimates, boundary mass, per scale j from 1 up the (contribution,
    i_prime, i_sel) arrays of the values that reach scale j).  The one-pass
    estimate must match it bit for bit."""
    params = sk.params
    eps, lw, levels = params.epsilon, params.log2_w, params.num_levels

    def scale_estimates(q, lo, hi, thr_e):
        cnt_r = np.zeros(q.size, dtype=np.int64)
        left = np.zeros(q.size, dtype=np.int64)
        i_prime = np.full(q.size, -1)
        todo = np.arange(q.size)
        for i in reversed(range(levels)):
            b = sk.E.buffers[i]
            a = np.searchsorted(b, lo[todo], side="right")
            c = np.searchsorted(b, hi[todo], side="right") - a
            hit = c >= thr_e[todo]
            idx = todo[hit]
            cnt_r[idx], left[idx], i_prime[idx] = c[hit], a[hit], i
            todo = todo[~hit]
            if todo.size == 0:
                break
        phi = np.where(left == 0, 1.0, np.minimum(1.0, cnt_r / np.maximum(left, 1)))
        todo = np.flatnonzero((i_prime >= 0) & (phi > eps / lw))
        floor = np.full(q.size, float(math.ceil(1.0 / eps**2)))
        small = todo[phi[todo] < 1.0 / lw]
        floor[small] = np.ceil(np.float_power(phi[small] * lw / eps, 2))
        contrib = np.zeros(q.size)
        i_sel = np.full(q.size, -1)
        for i in reversed(range(levels)):
            if todo.size == 0:
                break
            b = sk.S.buffers[i]
            a = np.searchsorted(b, lo[todo], side="right")
            c = np.searchsorted(b, hi[todo], side="right")
            hit = c - a >= floor[todo]
            if not hit.any():
                continue
            pre = sk._prefix(sk.S, i)
            idx, a, c = todo[hit], a[hit], c[hit]
            contrib[idx] = (2.0**i) * ((c - a) * q[idx] - (pre[c] - pre[a]))
            i_sel[idx] = i
            todo = todo[~hit]
        return contrib, i_prime, i_sel

    qs = np.asarray(qs, dtype=float)
    level0 = sk._level0()
    if level0 is None:
        return np.zeros(qs.size), 0.0, []
    buf, pre = level0
    p = float(buf[-1])
    c = np.searchsorted(buf, qs, side="right")
    out = c * qs - pre[c]
    far = np.flatnonzero(qs > p)
    if far.size == 0 or buf.size == sk.count:  # the level-0 buffer answers exactly
        return out, 0.0, []
    q = qs[far]
    d_scale = q - p
    total = buf.size * q - pre[buf.size]
    boundary_mass = sk._boundary_mass(buf, p)
    total += boundary_mass * d_scale
    log_d = _ceil_log2(d_scale)
    num_j = np.clip(log_d, 1, sk._max_scales())
    thr_e = np.maximum(log_d, 1)
    scales = []
    for j in range(1, int(num_j.max()) + 1):
        act = np.flatnonzero(num_j >= j)
        qa, da = q[act], d_scale[act]
        scale = scale_estimates(qa, qa - da / 2.0 ** (j - 1), qa - da / 2.0**j, thr_e[act])
        total[act] += scale[0]
        scales.append(scale)
    out[far] = total
    return out, boundary_mass, scales


class TestOnePass:
    """``query_many`` and ``query`` against ``per_scale_reference``."""

    @staticmethod
    def sketch(eps, W, xs, seed=1, **kw):
        sk = MultStream1D(SketchParams(epsilon=eps, W=W, n_hint=max(xs.size, 1), seed=seed, **kw))
        sk.update_many(xs)
        sk.freeze()
        return sk

    @staticmethod
    def queries(sk, rng):
        """Values in and around the universe; far past W, as the optimizer maps
        its offsets into the universe; on and just above p; with D a power of
        two; and with the first scale ending on a retained value."""
        W = float(sk.params.W)
        level0 = sk._level0()
        p = float(level0[0][-1]) if level0 else 0.0
        above = np.concatenate([b[b > p] for b in sk.E.buffers + sk.S.buffers] + [np.empty(0)])
        above = rng.choice(above, min(above.size, 200), replace=False) if above.size else above
        far = 1.0 + (W - 1.0) / 2.0 * (1.0 + 10.0 ** rng.uniform(0.0, 9.0, 300))
        near_p = [p, np.nextafter(p, np.inf), p + 1e-9, p + 0.25, p + 0.5, p + 1.0, p + 1.5,
                  p + 3.0]
        return np.concatenate([rng.uniform(0.0, 2.0 * W, 400), far, near_p,
                               p + 2.0 ** np.arange(-4.0, 45.0), 2.0 * above - p,
                               (4.0 * above - p) / 3.0, [1e300]])

    def check(self, sk, qs, rng):
        out, boundary_mass, scales = per_scale_reference(sk, qs)
        assert sk.query_many(qs).tobytes() == out.tobytes()
        for q in rng.choice(qs, min(qs.size, 60), replace=False).tolist():
            out, boundary_mass, scales = per_scale_reference(sk, [q])
            rows = [(int(i_prime[0]), int(i_sel[0]), float(contrib[0]))
                    for contrib, i_prime, i_sel in scales]
            est, bd = sk.query(q)
            got = [(r.i_prime, r.i_sel, r.contribution) for r in bd.rows]
            assert (est, bd.exact_regime, bd.boundary_mass, got) == (
                float(out[0]), not scales, boundary_mass, rows)
        return out

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    @pytest.mark.parametrize("W", [64, 2**20])
    def test_random_sketches(self, eps, W):
        rng = np.random.default_rng(int(eps * 10) + W)
        sk = self.sketch(eps, W, rng.uniform(1.0, W, 10**5))
        assert sk.S.buffers[0].size < 10**5  # the levels are sampled
        self.check(sk, self.queries(sk, rng), rng)

    def test_few_points_as_the_optimizer_builds(self):
        rng = np.random.default_rng(2)
        sk = self.sketch(0.05, 2**16, rng.uniform(1.0, 2**16, 300))
        self.check(sk, self.queries(sk, rng), rng)

    def test_point_mass_boundary(self):
        """More copies of 64 than either level-0 bank holds: boundary mass."""
        rng = np.random.default_rng(11)
        xs = np.concatenate([rng.uniform(1.0, 50.0, 100), np.full(6000, 64.0),
                             rng.uniform(64.0, 2.0**10, 900)])
        sk = self.sketch(0.25, 2**10, xs, seed=4)
        qs = self.queries(sk, rng)
        assert per_scale_reference(sk, qs)[1] > 0
        self.check(sk, qs, rng)

    def test_empty_fine_levels(self):
        rng = np.random.default_rng(5)
        sk = self.sketch(0.5, 64, rng.uniform(1.0, 64.0, 10**5))
        for i in range(1, sk.params.num_levels):
            sk.S.buffers[i] = np.empty(0)
        sk.freeze()
        qs = self.queries(sk, rng)
        scales = per_scale_reference(sk, qs)[2]
        assert any((i_prime >= 0).any() for _, i_prime, _ in scales)  # a crude level was read
        assert all((i_sel <= 0).all() for _, _, i_sel in scales)
        self.check(sk, qs, rng)


class TestPinnedBytes:
    """sha256 of HSK1 files from 1e5 points (eps 0.5, W 64, seed 3), fed by one
    ``update_many``, in chunks of 13, and as 2,000 ``update`` calls followed by
    one ``update_many``: the bank levels' survivors must not move with how the
    stream is cut, nor with how the banks draw or sort."""

    N = 10**5
    DIGESTS = {"uniform": "b50a14f11309aa9d7f9a1f80d5eac23b13c976be4a46114270906cb568f98989",
               "signed_zeros": "33bbbf641c4cc32403bb80fa1c2d03486c6098d8c31a39a118fd6cb1f924dc22",
               "three_values": "72e2075cf4362f34225909c6101672b6333a71c98793af74bab3ac8502917379"}

    def streams(self):
        """Uniforms on [1, 64); uniforms on [0, 64) with 30% of them 0.0 or
        -0.0, which fill every level 0 and keep their order in its bytes; and
        three values."""
        n, rng = self.N, np.random.default_rng(12)
        uniform = rng.uniform(1.0, 64.0, n)
        zeros = rng.uniform(0.0, 64.0, n)
        zero = rng.random(n) < 0.3
        zeros[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
        return {"uniform": uniform, "signed_zeros": zeros,
                "three_values": rng.integers(1, 4, n).astype(float)}

    @pytest.mark.parametrize("feed", ["one_call", "chunks_of_13", "update_prefix"])
    def test_file_digest(self, feed):
        for name, xs in self.streams().items():
            sk = MultStream1D(SketchParams(epsilon=0.5, W=64, n_hint=self.N, seed=3))
            if feed == "one_call":
                sk.update_many(xs)
            elif feed == "chunks_of_13":
                for i in range(0, xs.size, 13):
                    sk.update_many(xs[i : i + 13])
            else:
                for x in xs[:2000].tolist():
                    sk.update(x)
                sk.update_many(xs[2000:])
            sk.freeze()
            assert hashlib.sha256(sk.to_bytes()).hexdigest() == self.DIGESTS[name], name
