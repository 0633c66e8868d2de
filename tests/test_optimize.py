import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from hingesketch import cli, optimize
from hingesketch.core import (
    HyperplaneQuery,
    LabeledPoint,
    distance_sums_1d,
    exact_optimize,
    hinge_objective,
    strong_convexity_radius,
)
from hingesketch.gen import gen_clustered, gen_opt_hard, gen_uniform
from hingesketch.optimize import (
    GridBudgetError,
    GridSpec,
    build_estimator,
    grid_blocks,
    grid_points,
    median_estimate,
    optimize_via_sketch,
    regularizer,
    sgd_baseline,
    sgd_space_words,
)
from hingesketch.sampler import derive_seed
from hingesketch.stream import make_records


def box_grid(spec):
    """Reference enumeration: the whole integer box, filtered by row-wise squared norms."""
    kmax = int(math.floor(spec.R / spec.delta + 1e-12))
    axes = [np.arange(-kmax, kmax + 1)] * (spec.d + 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1).astype(float) * spec.delta
    return pts[(pts**2).sum(axis=1) <= spec.R**2 * (1.0 + 1e-12)]


def sweep_specs(count=120, budget=200_000):
    """Specs with points on the sphere, the origin alone, and random (lam, eps) pairs."""
    specs = [GridSpec(lam=2.0, epsilon=1.0, d=d) for d in (1, 2)]
    specs += [GridSpec(lam=2.0, epsilon=3.0, d=d) for d in (1, 2)]
    rng = np.random.default_rng(8)
    for d in (1, 2):
        drawn = 0
        while drawn < count:
            spec = GridSpec(lam=10 ** rng.uniform(-3, 1), epsilon=10 ** rng.uniform(-1.5, 0.5), d=d)
            if (2 * math.floor(spec.R / spec.delta + 1e-12) + 1) ** (d + 1) <= budget:
                specs.append(spec)
                drawn += 1
    return specs


class TestGrid:
    def test_same_bytes_as_box_enumeration(self):
        for spec in sweep_specs():
            g = grid_points(spec, budget=200_000)
            assert g.flags.c_contiguous and g.shape[1] == spec.d + 1
            assert g.tobytes() == box_grid(spec).tobytes(), spec
            want = 0.5 * spec.lam * (g**2).sum(axis=1)
            assert regularizer(g, spec.lam).tobytes() == want.tobytes(), spec

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_blocks_are_runs_of_whole_prefixes(self, monkeypatch, block):
        monkeypatch.setattr(optimize, "GRID_BLOCK", block)
        for spec in sweep_specs(count=10, budget=5_000):
            size, blocks = grid_blocks(spec, budget=5_000)
            blocks = list(blocks)
            for a, b in zip(blocks, blocks[1:]):
                assert a[-1, :-1].tolist() != b[0, :-1].tolist()
                # the last prefix of a block is the one that brings it to the block size
                last = (a[:, :-1] == a[-1, :-1]).all(axis=1).sum()
                assert len(a) - last < block <= len(a)
            assert all(b.flags.c_contiguous and len(b) for b in blocks)
            g = np.concatenate(blocks)
            assert size == len(g) and g.tobytes() == box_grid(spec).tobytes(), spec

    def test_budget_checked_before_iterating(self):
        with pytest.raises(GridBudgetError, match="budget"):
            grid_blocks(GridSpec(lam=1e-4, epsilon=1e-3, d=2), budget=10_000)

    def test_thirteen_points(self):
        spec = GridSpec(lam=2.0, epsilon=1.0, d=1)
        assert spec.R == 1.0 and spec.delta == 0.5
        g = grid_points(spec)
        assert len(g) == 13
        norms = np.sqrt((g**2).sum(axis=1))
        assert np.all(norms <= 1.0 + 1e-12)

    def test_only_origin_when_delta_exceeds_ball(self):
        spec = GridSpec(lam=2.0, epsilon=3.0, d=1)
        g = grid_points(spec)
        assert g.shape == (1, 2) and np.all(g == 0.0)

    def test_lexicographic_order(self):
        g = grid_points(GridSpec(lam=2.0, epsilon=1.0, d=1))
        keys = [tuple(row) for row in g]
        assert keys == sorted(keys)

    def test_budget_guard(self):
        with pytest.raises(GridBudgetError, match="budget"):
            grid_points(GridSpec(lam=1e-4, epsilon=1e-3, d=2), budget=10_000)

    def test_covering(self):
        spec = GridSpec(lam=0.5, epsilon=0.4, d=1)
        g = grid_points(spec)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            w = rng.uniform(-1, 1, 2)
            w *= min(1.0, spec.R / np.linalg.norm(w)) * rng.uniform(0, 1)
            dist = np.abs(g - w).max(axis=1).min()
            assert dist <= spec.delta + 1e-12


class TestEstimators:
    @pytest.mark.parametrize("family", ["add1d", "mult1d", "dyn1d", "offline1d"])
    def test_matches_oracle_1d(self, family):
        pts = gen_uniform(3000, 1, seed=1, low=-1.0, high=1.0, label_mode="random")
        est = build_estimator(pts, family, epsilon=0.05, seed=0, norm_budget=2.0)
        rng = np.random.default_rng(2)
        for _ in range(25):
            theta, b = rng.uniform(-1.5, 1.5, 2)
            truth = hinge_objective(pts, HyperplaneQuery((theta,), b), 0.0)
            assert est.estimate_bulk([theta, b])[0] == pytest.approx(truth, abs=0.12)

    def test_matches_oracle_2d(self):
        pts = gen_uniform(4000, 2, seed=5, label_mode="random")
        est = build_estimator(pts, "add2d", epsilon=0.05, seed=0, norm_budget=1.5)
        rng = np.random.default_rng(6)
        for _ in range(15):
            theta = rng.uniform(-0.9, 0.9, 2)
            b = rng.uniform(-1.0, 1.0)
            truth = hinge_objective(pts, HyperplaneQuery(tuple(theta), b), 0.0)
            assert est.estimate_bulk([*theta, b])[0] == pytest.approx(truth, abs=0.15)


def estimator_words(est):
    """Words of every sketch a HingeEstimator holds."""
    return sum(sk.space_words() for _, sub in est._classes for sk in sub._sk.values())


CLASS_STREAMS = {
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
    "cubed": lambda rng, n: rng.uniform(-1.0, 1.0, n) ** 3,
    "point_mass": lambda rng, n: np.where(rng.random(n) < 0.5, 0.6, rng.uniform(-1.0, 1.0, n)),
}


class TestOneTreePerClass:
    """add1d answers both signs of theta from one tree per label class, by
    max{0, q + x} = (q + x) + max{0, -q - x}."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("stream", sorted(CLASS_STREAMS))
    def test_both_orientations_within_the_additive_bound(self, stream, seed):
        rng = np.random.default_rng(seed)
        n, eps = 2000, 0.1
        xs = 1.7 * CLASS_STREAMS[stream](rng, n)
        scale = max(1.0, float(np.abs(xs).max()))
        sub = optimize._Class1D(xs, optimize.families.FAMILIES["add1d"], eps, 0, "pos", scale)
        inside = np.concatenate([rng.uniform(-scale, scale, 300), np.linspace(-scale, scale, 101)])
        beyond = np.concatenate([rng.uniform(scale, 3.0 * scale, 50),
                                 rng.uniform(-3.0 * scale, -scale, 50)])
        for orient in (1, -1):
            exact_in = distance_sums_1d(orient * xs, inside)
            got_in = sub._distance_sums(orient, inside)
            assert np.abs(got_in - exact_in).max() <= eps * n * scale
            # every point lies on one side of q: the tree's counters answer exactly
            exact_out = distance_sums_1d(orient * xs, beyond)
            got_out = sub._distance_sums(orient, beyond)
            assert np.abs(got_out - exact_out).max() <= 1e-9 * n * 3.0 * scale
            # the identity's sum can fall below 0 by the tree's error; a hinge sum is never
            assert got_in.min() >= 0.0 and got_out.min() >= 0.0

    def test_additive_family_holds_one_sketch_per_class(self):
        pts = gen_uniform(500, 1, seed=4, low=-1.0, high=1.0, label_mode="random")
        for family in ("add1d", "mult1d", "dyn1d", "offline1d"):
            est = build_estimator(pts, family, epsilon=0.2, seed=0, norm_budget=2.0)
            assert [sorted(sub._sk) for _, sub in est._classes] == (
                [[1]] * 2 if family == "add1d" else [[-1, 1]] * 2)
        # the one tree is the tree of the class's coordinates, as a build of them gives
        est = build_estimator(pts, "add1d", epsilon=0.2, seed=0, norm_budget=2.0)
        scale = max(1.0, float(np.abs(pts["x"]).max()))
        words = 0
        for sign, sub in est._classes:
            tree = optimize.families.FAMILIES["add1d"].make(0.1, sub.n, 0, 1, optimize.SKETCH_W)
            tree.update_many(pts["x"][pts["y"] == sign, 0] / scale)
            assert sub._sk[1].to_bytes() == tree.to_bytes()
            words += tree.space_words()
        assert estimator_words(est) == words

    def test_opthard_words_halve(self):
        """On the benchmark's opthard instance (n 400, lambda 0.01, epsilon 0.1),
        add1d's estimator keeps 1,038 words; a second tree per class, on the
        negated coordinates, would keep as many again."""
        inst = gen_opt_hard(0.1, 400, seed=0)
        spec = GridSpec(lam=0.01, epsilon=0.1, d=1)
        est = build_estimator(inst.points, "add1d", 0.1, norm_budget=spec.R)
        assert estimator_words(est) == 1038
        xs, ys = inst.points["x"][:, 0], inst.points["y"]
        scale = max(1.0, float(np.abs(xs).max()))
        mirrored = 0
        for sign, sub in est._classes:
            tree = optimize.families.FAMILIES["add1d"].make(0.1 / spec.R, sub.n, 0, 1,
                                                            optimize.SKETCH_W)
            tree.update_many(-xs[ys == sign] / scale)
            mirrored += tree.space_words()
        assert mirrored == 1038


class TestMedian:
    def test_identity_for_single_replica(self):
        pts = gen_uniform(500, 1, seed=7, label_mode="random")
        est = build_estimator(pts, "add1d", epsilon=0.1, seed=0)
        ests = est.estimate_bulk(np.array([[0.5, 0.1], [-0.3, 0.2]]))
        assert_array_equal(median_estimate(ests[None, :]), ests)
        one = est.estimate_bulk([0.5, 0.1])
        assert median_estimate([one])[0] == one[0]

    def test_median_of_three(self):
        ests = np.array([[1.0, 7.0], [5.0, 2.0], [1.1, 3.0]])
        assert_array_equal(median_estimate(ests), [1.1, 3.0])

    def test_even_k_rejected(self):
        for k in (0, 2):
            with pytest.raises(ValueError, match="odd"):
                median_estimate(np.ones((k, 3)))

    def test_median_boost_suppresses_failures(self):
        # inject 10% failure probability per replica; median of 5 fails far less
        rng = np.random.default_rng(9)
        trials = 1000
        fail_single = 0
        fail_median = 0
        for _ in range(trials):
            draws = rng.uniform(0, 1, 5)
            vals = np.where(draws < 0.1, 100.0, 1.0)
            fail_single += vals[0] != 1.0
            fail_median += np.median(vals) != 1.0
        assert fail_median < trials * 3 * 0.1**2


class TestOptimizeViaSketch:
    def test_hard_instance_recovery(self):
        inst = gen_opt_hard(0.1, 400, d=1, case=0, seed=0)
        res = optimize_via_sketch(inst.points, inst.lam, 0.1, family="add1d", k=1, seed=0)
        f_hat = hinge_objective(
            inst.points, HyperplaneQuery((res.theta[0],), res.b), inst.lam
        )
        f_star = hinge_objective(
            inst.points,
            HyperplaneQuery((inst.theta_star_magnitude,), inst.b_star),
            inst.lam,
        )
        kappa = 4.0
        assert f_hat - f_star <= kappa * 0.1
        dist = math.hypot(res.theta[0] - inst.theta_star_magnitude, res.b - inst.b_star)
        assert dist <= strong_convexity_radius(kappa * 0.1, inst.lam)

    def test_large_lambda_returns_origin_value_one(self):
        pts = gen_uniform(200, 1, seed=10, label_mode="random")
        res = optimize_via_sketch(pts, 1e6, 0.5, family="add1d", k=1, seed=0)
        assert math.hypot(res.theta[0], res.b) <= 1e-3
        assert res.value == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("d,family", [(1, "add1d"), (2, "add2d")])
    def test_result_holds_python_floats(self, d, family):
        pts = gen_uniform(200, d, seed=11, label_mode="random")
        res = optimize_via_sketch(pts, 1.0, 0.5, family=family)
        assert all(type(v) is float for v in (*res.theta, res.b, res.value))

    def test_beats_exact_optimizer_within_kappa_eps(self):
        kappa = 4.0
        eps = 0.25
        wins = 0
        for seed in range(20):
            pts = gen_uniform(2000, 1, seed=seed, low=-1.0, high=1.0, label_mode="random")
            res = optimize_via_sketch(pts, 2.0, eps, family="add1d", k=1, seed=seed)
            opt = exact_optimize(pts, 2.0, tol=1e-7)
            f_hat = hinge_objective(pts, HyperplaneQuery((res.theta[0],), res.b), 2.0)
            wins += f_hat <= opt.value + kappa * eps
        assert wins >= 18

    def test_mult1d_backend(self):
        pts = gen_uniform(3000, 1, seed=11, low=-1.0, high=1.0, label_mode="random")
        res = optimize_via_sketch(pts, 2.0, 0.3, family="mult1d", k=3, seed=11)
        opt = exact_optimize(pts, 2.0, tol=1e-7)
        f_hat = hinge_objective(pts, HyperplaneQuery((res.theta[0],), res.b), 2.0)
        assert f_hat <= opt.value + 4 * 0.3

    def test_conditional_strong_convexity(self):
        # whenever the achieved value gap is below eps, the parameter distance
        # to the true optimum obeys the strong-convexity radius
        eps = 0.3
        lam = 2.0
        for seed in range(10):
            pts = gen_uniform(1500, 1, seed=seed, low=-1.0, high=1.0,
                              label_mode="random")
            res = optimize_via_sketch(pts, lam, eps, family="add1d", k=1, seed=seed)
            opt = exact_optimize(pts, lam, tol=1e-8)
            f_hat = hinge_objective(pts, HyperplaneQuery((res.theta[0],), res.b), lam)
            gap = f_hat - opt.value
            if gap <= eps:
                dist = math.hypot(res.theta[0] - opt.theta[0], res.b - opt.b)
                assert dist <= strong_convexity_radius(eps, lam) * (1 + 1e-6)

    def test_argmin_stable_under_enumeration_order(self):
        pts = gen_uniform(800, 1, seed=12, label_mode="random")
        res1 = optimize_via_sketch(pts, 2.0, 0.4, family="add1d", k=1, seed=3)
        res2 = optimize_via_sketch(pts, 2.0, 0.4, family="add1d", k=1, seed=3)
        assert res1 == res2

    # family: (d, lambda, epsilon, k)
    BLOCK_CASES = {"add1d": (1, 0.5, 0.4, 1), "dyn1d": (1, 0.5, 0.4, 1),
                   "mult1d": (1, 0.5, 0.4, 3), "add2d": (2, 1.0, 0.6, 1)}

    @pytest.mark.parametrize("family", sorted(BLOCK_CASES))
    def test_argmin_does_not_depend_on_block_size(self, monkeypatch, family):
        d, lam, eps, k = self.BLOCK_CASES[family]
        pts = gen_uniform(600, d, seed=14, low=-1.0, label_mode="random")
        results = []
        for block in (1, 7, optimize.GRID_BLOCK):
            monkeypatch.setattr(optimize, "GRID_BLOCK", block)
            results.append(optimize_via_sketch(pts, lam, eps, family=family, k=k, seed=5))
        assert results[0].grid_size > 7
        assert results[0] == results[1] == results[2]

    def test_all_ties_give_the_first_grid_row(self, monkeypatch):
        """The estimate 1 - regularizer makes every score exactly 1.0 on this
        dyadic grid (delta 0.25): the answer is row 0 of the grid at every
        block size, through both passes of a grid of many blocks."""
        lam, eps = 0.5, 0.5
        pts = gen_uniform(50, 1, seed=15, label_mode="random")
        stub = StubEstimator(lambda ws: 1.0 - regularizer(ws, lam))
        monkeypatch.setattr(optimize, "build_estimator", lambda *a, **kw: stub)
        first = grid_points(GridSpec(lam=lam, epsilon=eps, d=1))[0]
        for block in (1, 7, optimize.GRID_BLOCK):
            monkeypatch.setattr(optimize, "GRID_BLOCK", block)
            res = optimize_via_sketch(pts, lam, eps, family="add1d")
            assert res.grid_size > 7
            assert (res.theta, res.b, res.value) == ((first[0],), first[1], 1.0)

    def test_negative_estimate_is_clamped(self, monkeypatch):
        """A hinge sum is never negative: an estimate below 0 counts as 0, so
        the winner's value is its regularizer alone."""
        lam, eps = 0.5, 0.5
        pts = gen_uniform(50, 1, seed=15, label_mode="random")

        def scores(ws):
            return np.where((ws[:, 0] == 1.0) & (ws[:, 1] == 0.5), -0.25, 5.0)

        monkeypatch.setattr(optimize, "build_estimator", lambda *a, **kw: StubEstimator(scores))
        for block in (1, 7, optimize.GRID_BLOCK):
            monkeypatch.setattr(optimize, "GRID_BLOCK", block)
            res = optimize_via_sketch(pts, lam, eps, family="add1d")
            assert (res.theta, res.b) == ((1.0,), 0.5)
            assert res.value == regularizer(np.array([[1.0, 0.5]]), lam)[0] == 0.3125

    def test_non_finite_score_is_an_error(self, monkeypatch):
        pts = gen_uniform(50, 1, seed=16, label_mode="random")

        def scores(ws):
            out = np.zeros(len(ws))
            out[(ws[:, 0] == 0.4) & (ws[:, 1] == 0.2)] = np.nan
            return out

        monkeypatch.setattr(optimize, "build_estimator",
                            lambda *a, **kw: StubEstimator(scores))
        with pytest.raises(ValueError, match=r"nan at candidate \(0\.4, 0\.2\) is not finite"):
            optimize_via_sketch(pts, 0.5, 0.4, family="add1d")

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_score_on_the_coarse_lattice_is_an_error(self, monkeypatch, bad):
        """(2, 0) lies on the coarse lattice of this grid of many blocks; with
        every other estimate 0 the second pass scores the origin alone, so
        only the first pass sees it."""
        pts = gen_uniform(50, 1, seed=16, label_mode="random")

        def scores(ws):
            return np.where((ws[:, 0] == 2.0) & (ws[:, 1] == 0.0), bad, 0.0)

        monkeypatch.setattr(optimize, "build_estimator", lambda *a, **kw: StubEstimator(scores))
        monkeypatch.setattr(optimize, "GRID_BLOCK", 7)
        with pytest.raises(ValueError, match=r"at candidate \(2\.0, 0\.0\) is not finite"):
            optimize_via_sketch(pts, 0.5, 0.5, family="add1d")

    def test_non_finite_score_exits_2_in_the_cli(self, monkeypatch, tmp_path, capsys):
        stream = tmp_path / "s.csv"
        stream.write_text("1,0.5\n-1,-0.25\n")
        monkeypatch.setattr(optimize, "build_estimator",
                            lambda *a, **kw: StubEstimator(lambda ws: np.full(len(ws), np.nan)))
        code = cli.main(["optimize", "--algorithm", "add1d", "--input", str(stream),
                         "--lam", "0.5", "--epsilon", "0.4"])
        out = capsys.readouterr()
        assert code == 2 and not out.out
        rec = json.loads(out.err.strip().splitlines()[-1])
        assert rec["error"] == "config" and "not finite" in rec["message"]

    def test_memory_does_not_grow_with_the_grid(self):
        """opthard at delta 0.1 has 251,305 candidates; the whole grid alone would
        take 4 MB, and scoring it at once peaked at 19.5 MB.  Scored in blocks,
        with the grid listed from per-prefix counts and no table of the box,
        it peaks at 2.1 MB."""
        inst = gen_opt_hard(0.1, 400, d=1, case=0, seed=0)
        optimize_via_sketch(inst.points, inst.lam, 0.1, family="add1d")
        tracemalloc.start()
        try:
            res = optimize_via_sketch(inst.points, inst.lam, 0.1, family="add1d")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.grid_size == 251_305
        assert peak < 6 * 2**20


def exhaustive(points, lam, eps, family, k, seed):
    """Reference: score every candidate of the ball, a chunk at a time, and
    take the first lowest score."""
    spec = GridSpec(lam=lam, epsilon=eps, d=points["x"].shape[1])
    grid = box_grid(spec)
    replicas = [build_estimator(points, family, eps, seed=derive_seed(seed, "replica", i),
                                norm_budget=spec.R) for i in range(k)]
    values = np.empty(len(grid))
    for a in range(0, len(grid), 4096):
        w = grid[a : a + 4096]
        est = median_estimate(np.stack([r.estimate_bulk(w) for r in replicas]))
        values[a : a + 4096] = regularizer(w, lam) + np.maximum(est, 0.0)
    i = int(values.argmin())
    return optimize.OptimizationResult(tuple(grid[i, :-1].tolist()), float(grid[i, -1]),
                                       float(values[i]), len(grid), k)


def halfplane_labels(points, cut=0.2):
    """The stream relabelled by the sign of x_0 - cut: a separable stream."""
    return make_records(np.where(points["x"][:, 0] > cut, 1, -1), points["x"])


OPTHARD = gen_opt_hard(0.1, 400, d=1, case=0, seed=0).points
# (lambda, epsilon) per dimension: grids of 12,581 and 13,949 candidates
PRUNE_GRIDS = {1: (0.05, 0.2), 2: (0.2, 0.6)}
# name: (points, lambda, epsilon)
PRUNE_STREAMS = {}
for d in (1, 2):
    for s in (0, 1):
        PRUNE_STREAMS[f"uniform{s}-d{d}"] = (
            gen_uniform(600, d, seed=s, low=-1.0, label_mode="random"), *PRUNE_GRIDS[d])
        PRUNE_STREAMS[f"clustered{s + 2}-d{d}"] = (
            gen_clustered(600, d, seed=s + 2, label_mode="random"), *PRUNE_GRIDS[d])
        PRUNE_STREAMS[f"separable{s + 4}-d{d}"] = (
            halfplane_labels(gen_uniform(600, d, seed=s + 4, low=-1.0)), *PRUNE_GRIDS[d])
# family: (d, k)
PRUNE_FAMILIES = {"add1d": (1, 1), "dyn1d": (1, 1), "mult1d": (1, 3), "offline1d": (1, 1),
                  "add2d": (2, 1)}
PRUNE_CASES = [(family, stream) for family, (d, _) in sorted(PRUNE_FAMILIES.items())
               for stream, (points, _, _) in sorted(PRUNE_STREAMS.items())
               if points["x"].shape[1] == d]


class TestPrunedSearch:
    """optimize_via_sketch scores a coarse lattice, then only the candidates
    whose regularizer is at most the best coarse score: its answer is that of
    scoring every candidate, to the bit."""

    @pytest.mark.parametrize("family", [f for f, (d, _) in sorted(PRUNE_FAMILIES.items())
                                        if d == 1])
    def test_opthard_equals_exhaustive_scoring(self, monkeypatch, family):
        k = PRUNE_FAMILIES[family][1]
        want = exhaustive(OPTHARD, 0.01, 0.1, family, k, seed=3)
        for block in (1, 7, 2**14):
            monkeypatch.setattr(optimize, "GRID_BLOCK", block)
            assert optimize_via_sketch(OPTHARD, 0.01, 0.1, family=family, k=k, seed=3) == want

    @pytest.mark.parametrize("family,stream", PRUNE_CASES)
    def test_equals_exhaustive_scoring(self, monkeypatch, family, stream):
        k = PRUNE_FAMILIES[family][1]
        points, lam, eps = PRUNE_STREAMS[stream]
        want = exhaustive(points, lam, eps, family, k, seed=7)
        assert want.grid_size > 7
        for block in (1, 7, 2**14):
            monkeypatch.setattr(optimize, "GRID_BLOCK", block)
            assert optimize_via_sketch(points, lam, eps, family=family, k=k, seed=7) == want

    @staticmethod
    def record_scoring(monkeypatch):
        """Make every estimator remember the rows it scores; returns that list."""
        rows, build = [], optimize.build_estimator

        def recording(*args, **kwargs):
            est = build(*args, **kwargs)
            score = est.estimate_bulk

            def estimate_bulk(ws):
                rows.append(ws.copy())
                return score(ws)

            est.estimate_bulk = estimate_bulk
            return est

        monkeypatch.setattr(optimize, "build_estimator", recording)
        return rows

    def test_second_pass_scores_only_candidates_under_the_bound(self, monkeypatch):
        rows = self.record_scoring(monkeypatch)
        lam, eps = 0.01, 0.1
        res = optimize_via_sketch(OPTHARD, lam, eps, family="add1d")
        spec = GridSpec(lam=lam, epsilon=eps, d=1)
        grid = box_grid(spec)
        assert len(grid) == res.grid_size > optimize.GRID_BLOCK
        coarse = grid[(np.rint(grid / spec.delta).astype(int) % optimize.COARSE == 0).all(axis=1)]
        scored = np.concatenate(rows)
        assert scored[: len(coarse)].tobytes() == coarse.tobytes()
        est = build_estimator(OPTHARD, "add1d", eps, seed=derive_seed(0, "replica", 0),
                              norm_budget=spec.R)
        bound = (regularizer(coarse, lam) + np.maximum(est.estimate_bulk(coarse), 0.0)).min()
        kept = grid[regularizer(grid, lam) <= bound]
        assert scored[len(coarse):].tobytes() == kept.tobytes()
        # opthard's best coarse score is about 0.42: under half the ball is scored
        assert len(scored) < len(grid) / 2

    @pytest.mark.parametrize("d,family", [(1, "add1d"), (2, "add2d")])
    def test_one_block_grid_scores_each_candidate_once(self, monkeypatch, d, family):
        rows = self.record_scoring(monkeypatch)
        pts = gen_uniform(300, d, seed=17, label_mode="random")
        lam, eps = (0.5, 0.4) if d == 1 else (1.0, 0.4)
        res = optimize_via_sketch(pts, lam, eps, family=family)
        grid = box_grid(GridSpec(lam=lam, epsilon=eps, d=d))
        assert len(grid) == res.grid_size <= optimize.GRID_BLOCK // 2
        assert np.concatenate(rows).tobytes() == grid.tobytes()

    def test_grid_over_half_a_block_is_searched_in_two_passes(self, monkeypatch):
        pts = gen_uniform(300, 2, seed=17, label_mode="random")
        lam, eps = PRUNE_GRIDS[2]
        want = exhaustive(pts, lam, eps, "add2d", 1, seed=0)
        rows = self.record_scoring(monkeypatch)
        res = optimize_via_sketch(pts, lam, eps, family="add2d")
        spec = GridSpec(lam=lam, epsilon=eps, d=2)
        grid = box_grid(spec)
        assert optimize.GRID_BLOCK // 2 < len(grid) == res.grid_size <= optimize.GRID_BLOCK
        coarse = grid[(np.rint(grid / spec.delta).astype(int) % optimize.COARSE == 0).all(axis=1)]
        scored = np.concatenate(rows)
        assert scored[: len(coarse)].tobytes() == coarse.tobytes()
        assert len(scored) < len(grid)
        assert res == want


class StubEstimator:
    """An estimator whose every replica answers ``scores(ws)``."""

    def __init__(self, scores):
        self.estimate_bulk = scores


class TestSgdBaseline:
    def test_hard_instance_gap(self):
        ok = 0
        for seed in range(50):
            inst = gen_opt_hard(0.1, 400, d=1, case=0, seed=seed)
            theta, b = sgd_baseline(inst.points, inst.lam, 0.1, seed=seed)
            f_hat = hinge_objective(inst.points, HyperplaneQuery(theta, b), inst.lam)
            f_star = hinge_objective(
                inst.points,
                HyperplaneQuery((inst.theta_star_magnitude,), inst.b_star),
                inst.lam,
            )
            ok += f_hat - f_star <= 0.1
        assert ok >= 40  # 80% at the paper-style capacity

    def test_result_holds_python_floats(self):
        theta, b = sgd_baseline(gen_uniform(200, 2, seed=11, label_mode="random"), 0.5, 0.2)
        assert all(type(v) is float for v in (*theta, b))

    def test_space_accounting(self):
        assert sgd_space_words(0.01, 0.1, 1) == 1000 * 2 + 8

    @pytest.mark.parametrize("block", [999, 1000])
    def test_step_indices_drawn_in_blocks(self, monkeypatch, block):
        """Step indices drawn a block at a time give the iterate of one draw of
        every step: 4,000 steps span several blocks of either parity."""
        pts = gen_uniform(500, 2, seed=15, label_mode="random")
        monkeypatch.setattr(optimize, "SGD_BLOCK", 10**9)
        one_shot = sgd_baseline(pts, 0.5, 0.01, seed=3)
        monkeypatch.setattr(optimize, "SGD_BLOCK", block)
        assert sgd_baseline(pts, 0.5, 0.01, seed=3) == one_shot
