import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from hypothesis import given, settings, strategies as st

from hingesketch.core import SketchParams, distance_sums_1d
from hingesketch.mult1d import (
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
    if q <= p:
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
