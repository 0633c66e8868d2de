import copy
import hashlib
import math

import numpy as np
import pytest

from hingesketch import dyn1d
from hingesketch.core import SketchParams, distance_sums_1d
from hingesketch.dyn1d import DynSketch1D, KAPPA_COUNT, KAPPA_QUERY, UnfrozenSketchError
from hingesketch.serialize import Writer


def logged(params):
    """A sketch that records each split and merge in ``sk.log`` as (kind,
    ratio, count): a split logs the ratios of both halves, a merge that of
    the merged interval."""
    sk = DynSketch1D(params)
    sk.log, split, merge = [], sk._split, sk._merge

    def logged_split(i):
        done = split(i)
        if done:
            sk.log += [("split-left", sk._ratio(i), sk.count),
                       ("split-right", sk._ratio(i + 1), sk.count)]
        return done

    def logged_merge(i):
        merge(i)
        sk.log.append(("merge", sk._ratio(i), sk.count))

    sk._split, sk._merge = logged_split, logged_merge
    return sk


def build(xs, eps=0.3, n_hint=None, seed=0, C=1.0, log=False):
    params = SketchParams(epsilon=eps, n_hint=n_hint or len(xs), C=C, seed=seed)
    sk = logged(params) if log else DynSketch1D(params)
    for x in xs:
        sk.update(float(x))
    return sk


class TestExplicitRegime:
    def test_small_stream_fully_explicit(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, 200)
        sk = build(xs, eps=0.3, n_hint=10**5)
        assert sk.interval_count() == 0
        sk.freeze()
        for q in rng.uniform(0, 1, 40):
            assert sk.query(q) == pytest.approx(
                distance_sums_1d(xs, q)[0], rel=1e-12, abs=1e-12
            )

    def test_query_below_anchor_exact_after_transition(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 1, 5000)
        sk = build(xs, eps=0.4, n_hint=5000)
        assert sk.interval_count() >= 1
        sk.freeze()
        anchor = sk._expl_sorted[-1]
        qs = rng.uniform(0, anchor, 40)
        for q in qs:
            assert sk.query(q) == pytest.approx(
                distance_sums_1d(xs, q)[0], rel=1e-12, abs=1e-9
            )

    def test_query_requires_freeze(self):
        sk = build([1.0, 2.0])
        with pytest.raises(UnfrozenSketchError):
            sk.query(1.0)
        with pytest.raises(UnfrozenSketchError):
            sk.query_many(np.empty(0))

    def test_update_after_freeze_rejected(self):
        sk = build([1.0])
        sk.freeze()
        with pytest.raises(UnfrozenSketchError):
            sk.update(2.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_update_rejected(self, x):
        sk = build([0.5] * 3)
        with pytest.raises(ValueError, match="finite"):
            sk.update(x)
        assert sk.count == 3


class TestSplitRule:
    def test_split_index_is_ceil_fraction(self):
        # the split boundary is the ceil(|A| * 2.5/6)-th smallest band sample
        assert math.ceil(12 * 2.5 / 6) == 5

    def test_split_boundary_is_band_quantile(self):
        params = SketchParams(epsilon=0.3, n_hint=64, C=1.0, seed=0)
        sk = DynSketch1D(params)
        # drive past the explicit regime so a tail interval exists
        for x in np.linspace(0.01, 0.5, sk.explicit_capacity + 1):
            sk.update(float(x))
        assert sk.interval_count() >= 1
        tail = sk.intervals[-1]
        left_bd = (
            sk.intervals[-2].boundary if sk.interval_count() >= 2 else sk.anchor
        )
        band = sorted(s for s in tail.samples if s > left_bd)
        if len(band) >= 2:
            before = sk.interval_count()
            did = sk._split(len(sk.intervals) - 1)
            if did:
                assert sk.interval_count() == before + 1
                new_bd = sk.intervals[-2].boundary
                assert new_bd == band[math.ceil(len(band) * 2.5 / 6) - 1]

    def test_band_quantile_is_the_stable_sorts(self):
        """The split reads its quantile by selection; the bits, the sign of a
        zero included, are those of a stable sort of the band."""
        rng = np.random.default_rng(11)
        for n in (2, 3, 7, 50, 1000):
            for _ in range(60):
                band = rng.choice([-1.0, -0.0, 0.0, 1.0], n) * rng.integers(0, 3, n)
                for k in {0, math.ceil(n * 2.5 / 6) - 1, int(rng.integers(n)), n - 1}:
                    want = np.sort(band, kind="stable")[k]
                    got = dyn1d._stable_kth(band, k)
                    assert np.float64(got).tobytes() == want.tobytes(), (band.tolist(), k)

    def test_split_events_start_high(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(0, 1, 30000)
        sk = build(xs, eps=0.3, seed=3, log=True)
        eps = 0.3
        splits = [ratio for kind, ratio, _ in sk.log if kind.startswith("split")]
        assert splits, "stream too small to trigger splits"
        floor = (1 + 2 * eps) * (1 - eps / 4)  # estimation slack on fresh ratios
        assert min(splits) >= floor

    def test_merge_events_floor(self):
        rng = np.random.default_rng(3)
        xs = np.concatenate([rng.uniform(0.5, 1.0, 10000), rng.uniform(0.0, 0.05, 10000)])
        sk = build(xs, eps=0.3, seed=4, log=True)
        merges = [ratio for kind, ratio, _ in sk.log if kind == "merge"]
        assert merges, "stream did not trigger merges"
        eps = 0.3
        # merged pairs had one factor >= 1+eps one update earlier
        assert min(merges) >= (1 + eps) * (1 - eps / 4)


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_property2_and_structure_every_update(self, seed):
        rng = np.random.default_rng(seed)
        params = SketchParams(epsilon=0.3, n_hint=8000, C=1.0, seed=seed)
        sk = DynSketch1D(params)
        rhos = {}
        for x in rng.uniform(0, 1, 8000):
            sk.update(float(x))
            viol = sk.check_invariants()
            assert not viol, viol
            for itv in sk.intervals:
                key = id(itv)
                if key in rhos:
                    assert itv.rho <= rhos[key] * (1 + 1e-12), "rho increased"
                rhos[key] = itv.rho

    def test_adversarial_order_invariants(self):
        rng = np.random.default_rng(5)
        xs = np.concatenate([
            rng.uniform(0.8, 1.0, 4000),
            rng.uniform(0.0, 0.1, 4000),
            rng.uniform(0.4, 0.5, 4000),
        ])
        params = SketchParams(epsilon=0.3, n_hint=xs.size, C=1.0, seed=6)
        sk = DynSketch1D(params)
        for x in xs:
            sk.update(float(x))
            assert not sk.check_invariants()

    def test_interval_count_bound(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 1, 40000)
        sk = build(xs, eps=0.2, seed=7)
        bound = KAPPA_COUNT * math.log2(len(xs)) / 0.2
        assert sk.interval_count() <= bound

    def test_estimate_accuracy_with_slack(self):
        # relative error of Zhat vs true prefix count, calibrated multiplier
        rng = np.random.default_rng(8)
        xs = rng.uniform(0, 1, 20000)
        params = SketchParams(epsilon=0.3, n_hint=xs.size, C=1.0, seed=8)
        sk = DynSketch1D(params)
        sofar = []
        worst = 0.0
        for i, x in enumerate(xs):
            sk.update(float(x))
            sofar.append(x)
            if i % 2000 == 1999:
                arr = np.sort(np.asarray(sofar))
                for itv in sk.intervals:
                    if not math.isfinite(itv.boundary):
                        true = len(sofar)
                    else:
                        true = int(np.searchsorted(arr, itv.boundary, side="right"))
                    if true:
                        worst = max(worst, abs(itv.z_hat - true) / true)
        assert worst <= 5 * (0.3 / 10)


class TestQueryAccuracy:
    def test_uniform_stream(self):
        rng = np.random.default_rng(9)
        xs = rng.uniform(0, 1, 30000)
        sk = build(xs, eps=0.2, seed=9)
        sk.freeze()
        qs = rng.uniform(0, 1, 100)
        oracle = distance_sums_1d(xs, qs)
        good = 0
        for q, ex in zip(qs, oracle):
            est = sk.query(q)
            rel = abs(est - ex) / ex if ex > 0 else 0.0
            good += rel <= KAPPA_QUERY * 0.2
        assert good >= 95

    def test_query_below_all_points(self):
        sk = build(np.random.default_rng(10).uniform(0.5, 1.0, 3000), eps=0.4)
        sk.freeze()
        assert sk.query(0.1) == 0.0


@pytest.fixture(scope="module")
def uniform_1e5():
    """A frozen eps 0.1 sketch of 1e5 uniform values on [-1, 1], and its file loaded."""
    xs = np.random.default_rng(34).uniform(-1.0, 1.0, 100_000)
    sk = DynSketch1D(SketchParams(epsilon=0.1, n_hint=xs.size, seed=34))
    sk.update_many(xs)
    sk.freeze()
    assert sk.interval_count() >= 5
    return sk, DynSketch1D.from_bytes(sk.to_bytes())


class TestSerialization:
    def test_roundtrip_bit_identical(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(0, 1, 12000)
        sk = build(xs, eps=0.3, seed=11)
        sk.freeze()
        back = DynSketch1D.from_bytes(sk.to_bytes())
        for q in rng.uniform(0, 1, 60):
            assert sk.query(q) == back.query(q)

    @pytest.mark.parametrize("n", [40, 12000])
    def test_loaded_sketch_replays_bytes_and_space(self, n):
        sk = build(np.random.default_rng(15).uniform(0, 1, n), eps=0.3, seed=15)
        sk.freeze()
        data = sk.to_bytes()
        back = DynSketch1D.from_bytes(data)
        assert back.to_bytes() == data
        assert back.space_words() == sk.space_words()
        assert back.interval_count() == sk.interval_count()
        assert back.anchor == sk.anchor

    def test_reversed_arrays_load_as_the_sorted_file(self):
        sk = build(np.random.default_rng(16).uniform(0, 1, 12000), eps=0.3, seed=16)
        sk.freeze()
        assert sk.intervals
        data = sk.to_bytes()
        # the HSKD layout with the explicit and sample arrays stored in reverse order
        w = Writer(DynSketch1D.MAGIC)
        w.fields(sk.params, SketchParams.HEADER)
        w.u64(sk.count)
        w.array(sk._expl_sorted[::-1])
        w.u64(len(sk.intervals))
        for itv in sk.intervals:
            w.f64(itv.boundary)
            w.f64(itv.rho)
            w.f64(itv.rho_star)
            w.array(itv.samples[::-1])
        crafted = w.getvalue()
        assert crafted != data and len(crafted) == len(data)
        qs = np.concatenate([[-1.0, sk.anchor], np.linspace(0.0, 1.2, 200)])
        back, want = DynSketch1D.from_bytes(crafted), DynSketch1D.from_bytes(data)
        assert np.array_equal(back.query_many(qs), want.query_many(qs))
        assert np.array_equal(back.query_many(qs), sk.query_many(qs))
        assert back.anchor == sk.anchor
        assert back.to_bytes() == data

    def test_band_sums_are_within_ulps_of_the_exact_sum(self, uniform_1e5):
        """Each band's value sum, built and loaded, is within a few ulps (of the
        sum of its |values|) of its samples' exact sum, however many samples
        lie below the band."""
        for sk in uniform_1e5:
            prev = sk.anchor
            for itv in sk.intervals[:-1]:
                band = itv.samples[(itv.samples > prev) & (itv.samples <= itv.boundary)]
                prev = itv.boundary
                assert itv.band[0] == band.size > 0
                scale = math.fsum(np.abs(band).tolist())
                assert abs(itv.band[1] - math.fsum(band.tolist())) <= 4 * math.ulp(scale)

    def test_loaded_sketch_of_1e5_points_answers_bit_for_bit(self, uniform_1e5):
        sk, back = uniform_1e5
        edges = np.array([sk.anchor] + [itv.boundary for itv in sk.intervals[:-1]])
        qs = np.concatenate([np.linspace(-1.5, 1.5, 301), edges, np.nextafter(edges, -2.0),
                             np.nextafter(edges, 2.0)])
        assert np.array_equal(back.query_many(qs), sk.query_many(qs))

    def test_replay_determinism(self):
        rng = np.random.default_rng(12)
        xs = rng.uniform(0, 1, 9000)
        a = build(xs, eps=0.3, seed=13)
        b = build(xs, eps=0.3, seed=13)
        a.freeze()
        b.freeze()
        assert a.to_bytes() == b.to_bytes()

    def test_space_accounting(self):
        rng = np.random.default_rng(14)
        xs = rng.uniform(0, 1, 15000)
        sk = build(xs, eps=0.3, seed=14)
        expected = (
            len(sk._heap)
            + sum(len(i.samples) for i in sk.intervals)
            + 4 * len(sk.intervals)
            + 8
        )
        assert sk.space_words() == expected


def three_bands(n_each=4000, seed=5):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(0.8, 1.0, n_each), rng.uniform(0.0, 0.1, n_each),
                           rng.uniform(0.4, 0.5, n_each)])


class TestThinning:
    def test_thinning_is_rare(self):
        n = 10**5
        sk = DynSketch1D(SketchParams(epsilon=0.1, n_hint=n, C=1.0, seed=19))
        sk.update_many(np.random.default_rng(19).uniform(0, 1, n))
        assert 0 < sk.thinnings < n / 100

    def test_stats_count_the_sketch_and_its_work(self):
        n = 10**5
        sk = logged(SketchParams(epsilon=0.1, n_hint=n, C=1.0, seed=19))
        sk.update_many(np.random.default_rng(19).uniform(0, 1, n))
        kinds = [kind for kind, _, _ in sk.log]
        st = sk.stats()
        assert st == {"intervals": len(sk.intervals), "explicit_points": sk.explicit_capacity,
                      "thinnings": sk.thinnings, "splits": kinds.count("split-left"),
                      "merges": kinds.count("merge"), "space_words": sk.space_words(),
                      "words_per_point": sk.space_words() / n}
        assert st["splits"] == len(sk.intervals) - 1 + st["merges"] > 0
        sk.freeze()
        assert sk.stats() == st
        loaded = DynSketch1D.from_bytes(sk.to_bytes()).stats()
        assert loaded == {**st, "thinnings": 0, "splits": 0, "merges": 0}

    # the thinning target is THIN_MARGIN/f(eps) rho*, capped at 2 rho* from eps ~0.56 up
    # (eps 0.6 is capped); at eps 0.1 a small n_hint keeps the explicit capacity below
    # the stream
    @pytest.mark.parametrize("eps,n_hint,n_each", [(0.1, 16, 8000), (0.5, 12000, 4000),
                                                   (0.6, 12000, 4000)])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_invariants_after_every_update(self, eps, n_hint, n_each, seed):
        params = SketchParams(epsilon=eps, n_hint=n_hint, C=1.0, seed=seed)
        sk = logged(params)
        for x in three_bands(n_each, seed):
            sk.update(float(x))
            viol = sk.check_invariants()
            assert not viol, viol
        assert sk.thinnings > 0 and {"split-left", "merge"} <= {kind for kind, _, _ in sk.log}


class TestDeterminism:
    def test_bytes_do_not_depend_on_chunking(self):
        xs = three_bands()
        params = SketchParams(epsilon=0.3, n_hint=xs.size, C=1.0, seed=6)
        per_point = logged(params)
        for x in xs:
            per_point.update(float(x))
        kinds = {kind for kind, _, _ in per_point.log}
        assert {"split-left", "merge"} <= kinds, "stream must split and merge"
        assert min(itv.rho for itv in per_point.intervals) < 0.5, "stream must thin"
        want = per_point.to_bytes()
        for chunk in (1, 7, 65536):
            sk = DynSketch1D(params)
            for i in range(0, xs.size, chunk):
                sk.update_many(xs[i : i + chunk])
            assert sk.to_bytes() == want, chunk

    @pytest.mark.parametrize("stream", ["bands", "descending", "duplicates"])
    def test_local_maintenance_matches_full_scan(self, stream):
        # a point moves only the ratios next to the intervals it hit, so
        # checking there must act exactly as a full scan after every point
        rng = np.random.default_rng(16)
        xs = {"bands": three_bands(),
              "descending": np.sort(rng.uniform(0, 1, 12000))[::-1],
              "duplicates": np.round(rng.uniform(0, 1, 12000) ** 3, 2)}[stream]
        params = SketchParams(epsilon=0.3, n_hint=xs.size, C=1.0, seed=17)
        local, full = logged(params), logged(params)
        full_scan = full._maintain
        full._maintain = lambda first=0, last=None: full_scan()
        local.update_many(xs)
        full.update_many(xs)
        assert local.log and local.log == full.log
        assert local.to_bytes() == full.to_bytes()

    def test_update_many_applies_values_before_a_bad_one(self):
        xs = np.random.default_rng(18).uniform(0, 1, 3000)
        want = build(xs[:2000], eps=0.4, n_hint=3000)
        params = SketchParams(epsilon=0.4, n_hint=3000, C=1.0, seed=0)
        sk = DynSketch1D(params)
        bad = xs.copy()
        bad[2000] = math.nan
        with pytest.raises(ValueError, match="finite"):
            sk.update_many(bad)
        assert sk.count == 2000 and sk.interval_count() >= 1
        assert sk.to_bytes() == want.to_bytes()


def bulk_stream(name, n=6000, seed=3):
    rng = np.random.default_rng(seed)
    if name == "three_bands":
        return three_bands(n // 3, seed)
    if name == "signed_zeros":  # 0.0 and -0.0 tie among the explicit points
        xs = rng.uniform(0, 1, n)
        zero = rng.random(n) < 0.3
        xs[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
        return xs
    # point_mass: an interval over the mass cannot split and is marked; the
    # points below it then move its left boundary or land in its band, so
    # that hits clear the mark
    return {"uniform": lambda: rng.uniform(0, 1, n),
            "sorted": lambda: np.sort(rng.uniform(0, 1, n)),
            "reversed": lambda: np.sort(rng.uniform(0, 1, n))[::-1],
            "distinct": lambda: rng.integers(0, 50, n) / 49.0,
            "point_mass": lambda: np.concatenate([rng.uniform(0, 1, n // 6), np.full(n // 3, 0.9),
                                                  rng.uniform(0, 0.5, n // 2)])}[name]()


def per_point(params, xs):
    sk = logged(params)
    for x in xs:
        sk.update(float(x))
    return sk


def state(sk):
    """Everything a streaming sketch holds, in the order it holds it (the
    explicit points and the samples as their bytes, which also tell 0.0 from
    -0.0)."""
    return (sk.count, sk.thinnings, sk.splits, sk.merges, np.asarray(sk._heap).tobytes(),
            sk._bounds, sk._z,
            [(i.boundary, i.rho, i.rho_star, i.samples.tobytes(), i.mark) for i in sk.intervals])


class TestBulkRuns:
    """update_many takes in the points between events in blocks; it must
    leave the sketch exactly as one update per point would."""

    # n_hint sets the explicit capacity: 1000 points at eps 0.1, 407 at 0.3,
    # 101 at 0.5 and 59 at 0.6, so every stream thins, and most split
    @pytest.mark.parametrize("eps,n_hint", [(0.1, 2), (0.3, 2000), (0.5, 6000), (0.6, 6000)])
    @pytest.mark.parametrize("stream", ["uniform", "sorted", "reversed", "distinct",
                                        "three_bands", "point_mass", "signed_zeros"])
    def test_same_sketch_as_one_update_per_point(self, stream, eps, n_hint):
        xs = bulk_stream(stream)
        params = SketchParams(epsilon=eps, n_hint=n_hint, C=1.0, seed=1)
        want = per_point(params, xs)
        assert want.thinnings > 0 and want.splits > 0
        if stream == "signed_zeros":  # runs must keep the zeros, and their order, _keep keeps
            signs = np.signbit(want._heap[want._heap == 0.0])
            assert signs.any() and not signs.all()
        for chunk in (1, 7, 255, 4097, 65536):
            sk = logged(params)
            for i in range(0, xs.size, chunk):
                sk.update_many(xs[i : i + chunk])
            assert state(sk) == state(want) and sk.log == want.log, chunk
            assert sk.to_bytes() == want.to_bytes(), chunk

    def test_explicit_phase_ends_inside_a_chunk(self):
        xs = bulk_stream("three_bands")
        params = SketchParams(epsilon=0.3, n_hint=2000, C=1.0, seed=2)
        want = per_point(params, xs)
        cap = want.explicit_capacity
        sk = logged(params)
        for a, b in ((0, cap - 5), (cap - 5, cap + 600), (cap + 600, xs.size)):
            sk.update_many(xs[a:b])
            if a == 0:
                assert not sk.intervals
        assert state(sk) == state(want) and sk.log == want.log
        assert sk.to_bytes() == want.to_bytes()

    def test_a_hit_in_a_run_clears_the_mark(self):
        # hits keep interval 0's mark up to the 5th point below the anchor,
        # which moves it; that point hits interval 0, clears the mark and
        # ends the run
        sk = marked_sketch()
        xs = np.random.default_rng(1).choice([-0.25, 0.0, 0.5], 100, p=[0.1, 0.3, 0.6])
        want, held = copy.deepcopy(sk), len(sk.intervals[0].samples)
        run = sk._run(xs)
        assert run == np.flatnonzero(xs < 0.0)[4] and sk.intervals[0].mark == (0.0, 0.5)
        assert len(sk.intervals[0].samples) > held
        for x in xs[:run]:
            want.update(float(x))
        assert state(sk) == state(want)
        split, tried = want._split, []
        want._split = lambda i: tried.append(i) or split(i)
        want.update(float(xs[run]))
        assert tried[:1] == [0] and want.thinnings == sk.thinnings

    def test_runs_take_in_most_points_where_events_are_rare(self):
        xs = bulk_stream("uniform")
        sk = DynSketch1D(SketchParams(epsilon=0.1, n_hint=2, C=1.0, seed=1))
        run, taken = sk._run, []
        sk._run = lambda block: taken.append(run(block)) or taken[-1]
        sk.update_many(xs)
        assert sum(taken) > 0.9 * (xs.size - sk.explicit_capacity)

    def test_events_too_close_for_runs_step_every_point(self):
        # at eps 0.5 a thinned interval thins again after ~0.04 K hits
        sk = DynSketch1D(SketchParams(epsilon=0.5, n_hint=6000, C=1.0, seed=1))
        sk._run = None
        sk.update_many(bulk_stream("uniform"))
        assert sk.intervals and sk.thinnings > 0


def marked_sketch():
    """A sketch whose interval 0 cannot split: it runs from the anchor 0.0,
    which 5 of the explicit points hold, to the boundary 0.5, and every
    sample in its band is 0.5.  So it holds the mark (0.0, 0.5)."""
    rng = np.random.default_rng(0)
    xs = np.concatenate([rng.uniform(-1, -0.5, 402), np.zeros(5), rng.integers(0, 2, 794) / 2])
    sk = build(xs, eps=0.3, n_hint=2000, seed=1)
    assert sk.intervals[0].mark == (0.0, 0.5) and np.count_nonzero(sk._heap == 0.0) == 5
    return sk


def step(sk, x, hit=True):
    """``update(x)`` with a hit on every interval from x's on (or on none),
    and no split or merge after it."""
    sk._uniforms.take = lambda k: [0.0 if hit else 1.0] * k
    sk._maintain = lambda first=0, last=None: None
    sk.update(x)
    del sk._uniforms.take, sk._maintain


class TestSplitMarks:
    """A failed split marks its interval (left boundary, hi); a hit keeps the
    mark only where the split would fail again."""

    @pytest.mark.parametrize("x", [-0.25, 0.0, 0.5])
    def test_a_hit_at_or_below_left_or_at_the_boundary_keeps_the_mark(self, x):
        sk = marked_sketch()
        step(sk, x)
        assert sk.anchor == 0.0 and sk.intervals[0].mark == (0.0, 0.5)
        assert not copy.deepcopy(sk)._split(0)

    def test_a_hit_inside_the_band_clears_the_mark(self):
        sk = marked_sketch()
        step(sk, 0.25)
        assert sk.intervals[0].mark is None

    def test_a_hit_at_the_boundary_clears_a_mark_on_fewer_than_two_band_values(self):
        sk = marked_sketch()
        itv = sk.intervals[0]
        itv.samples = np.append(itv.samples[itv.samples <= 0.0], 0.25)
        assert not sk._split(0) and itv.mark == (0.0, math.inf)
        step(sk, 0.0)
        assert itv.mark == (0.0, math.inf)
        step(sk, 0.5)
        assert itv.mark is None
        assert sk._split(0) and sk.intervals[0].boundary == 0.25

    def test_a_thinning_clears_the_mark(self):
        sk = marked_sketch()
        itv, rho = sk.intervals[0], sk.intervals[0].rho
        while itv.rho == rho:
            assert itv.mark == (0.0, 0.5)
            step(sk, 0.5)
        assert itv.mark is None

    def test_a_moved_left_boundary_clears_the_mark(self):
        sk = marked_sketch()
        for _ in range(4):
            step(sk, -0.25)
        step(sk, -0.25, hit=False)  # the 5th point below the anchor moves it
        assert sk.anchor == -0.25 and sk.intervals[0].mark == (0.0, 0.5)
        step(sk, 0.5)
        assert sk.intervals[0].mark is None

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_few_values_fail_few_splits(self, k):
        sk = DynSketch1D(SketchParams(epsilon=0.3, n_hint=2000, C=1.0, seed=1))
        split, failed = sk._split, []
        sk._split = lambda i: split(i) or failed.append(i)
        sk.update_many(few_distinct(k))
        assert sk.thinnings > 0 and len(failed) <= 50


def signed_zeros(n=6000, seed=0):
    """Uniforms on [-1, 1] with a quarter of the points 0.0 or -0.0: split
    boundaries land on a zero, and which sign they keep depends on the order
    of equal values in the band's sort."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, n)
    zero = rng.random(n) < 0.25
    xs[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return xs


def few_distinct(k, n=6000, seed=5):
    return np.random.default_rng(seed).integers(0, k, n) / max(k - 1, 1)


class TestPinnedBytes:
    """sha256 of HSKD files built with ``update_many`` in chunks of 1, 7 and
    65536 points (eps 0.3, n_hint 2000, C 1, seed 1): the bytes must not move
    when the way the sketch stores or sorts its samples does."""

    STREAMS = {
        "signed_zeros": (signed_zeros,
                         "20c89800528868958bbace995619d5973287d5b55ae648319f39c3327c4e7565"),
        "one_value": (lambda: few_distinct(1),
                      "46e3e31c817c3fa5806b0c90668d5ddc925a10dd82c328a7913741a9d98d2dae"),
        "two_values": (lambda: few_distinct(2),
                       "0f8ae7a918137b96372c7ee8c66adfee3ee268ae52cb46db46bc421f3301ed5f"),
        "five_values": (lambda: few_distinct(5),
                        "02513c9bfb08fd51ecce4b607ed36c17562bf81b8ef30c66878e825eceefee12"),
        "fifty_values": (lambda: few_distinct(50),
                         "8cf7985fcf1133b35ea15a7dfffb92e510a3859431b55bccf96270ea9b9ca707"),
        "point_mass": (lambda: bulk_stream("point_mass"),
                       "f47a6e81ac1afe4d17487551ad8913acdd25e956564dc10087104a6de6b7c2ef"),
    }

    @pytest.mark.parametrize("name", list(STREAMS))
    def test_file_digest(self, name):
        make, want = self.STREAMS[name]
        xs = make()
        params = SketchParams(epsilon=0.3, n_hint=2000, C=1.0, seed=1)
        for chunk in (1, 7, 65536):
            sk = DynSketch1D(params)
            for i in range(0, xs.size, chunk):
                sk.update_many(xs[i : i + chunk])
            assert sk.thinnings > 0, name
            if name == "signed_zeros":
                assert any(itv.boundary == 0.0 for itv in sk.intervals)
            sk.freeze()
            assert hashlib.sha256(sk.to_bytes()).hexdigest() == want, (name, chunk)

    # 1e5 points of k values at eps 0.1 (n_hint 1e5, C 1, seed 0) in one
    # update_many: interval 0's left boundary, the anchor, sits on thousands
    # of copies of one value
    LARGE = {1: "f05e53e76acedf9111e6369358c7c370fd89e30ebada33b1a17a8a3e1b871c61",
             2: "f742356579513d6e195ee56da14cb5fcd98058fd42a23f36f1e83022e482f373",
             5: "dd373562c72836c4eb0b3987a50874478549627c25fd6d145a8d8a055bb44123"}

    @pytest.mark.parametrize("k", list(LARGE))
    def test_large_few_value_digest(self, k):
        sk = DynSketch1D(SketchParams(epsilon=0.1, n_hint=10**5, C=1.0, seed=0))
        sk.update_many(np.random.default_rng(0).integers(0, k, 10**5) / max(k - 1, 1))
        sk.freeze()
        assert hashlib.sha256(sk.to_bytes()).hexdigest() == self.LARGE[k]
