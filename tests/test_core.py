import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hingesketch.core import (
    ConvergenceError,
    HyperplaneQuery,
    LabeledPoint,
    SketchParams,
    distance_sums_1d,
    exact_optimize,
    hinge_objective,
    strong_convexity_radius,
)
from hingesketch.gen import gen_opt_hard, gen_uniform
from hingesketch.stream import record_dtype
from hingesketch.tree import add_in_order


def lp(x, y=1):
    return LabeledPoint((x,) if isinstance(x, float) or isinstance(x, int) else x, y)


class TestTypes:
    def test_label_validation(self):
        with pytest.raises(ValueError, match="label"):
            LabeledPoint((0.5,), 0)

    def test_finite_coords(self):
        with pytest.raises(ValueError):
            LabeledPoint((float("nan"),), 1)

    def test_sketch_params_validation(self):
        SketchParams(epsilon=0.1)
        with pytest.raises(ValueError):
            SketchParams(epsilon=1.5)
        with pytest.raises(ValueError):
            SketchParams(epsilon=0.1, n_hint=0)
        with pytest.raises(ValueError):
            SketchParams(epsilon=0.1, C1=0.5)


class TestHingeObjective:
    def test_zero_query_single_point(self):
        q = HyperplaneQuery((0.0,), 0.0)
        assert hinge_objective([lp(0.3)], q, 0.0) == 1.0

    def test_margin_exactly_one(self):
        q = HyperplaneQuery((1.0, 0.0), 0.0)
        assert hinge_objective([LabeledPoint((1.0, 0.0), 1)], q, 0.0) == 0.0

    def test_regularizer(self):
        q = HyperplaneQuery((1.0,), 1.0)
        assert hinge_objective([lp(0.0)], q, 2.0) == pytest.approx(2.0)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty dataset"):
            hinge_objective([], HyperplaneQuery((1.0,), 0.0), 0.1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
            hinge_objective([lp(0.5)], HyperplaneQuery((1.0,), 0.0), lam)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            hinge_objective([lp(0.5)], HyperplaneQuery((1.0, 0.0), 0.0), 0.1)


# values in [-1, 1] drawn from a few, so that lists repeat them; -0.0 included
coords = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(-1, 1)


class TestSimplifiedObjective:
    """The one-sided distance objective sum_i max{0, q - x_i}^p of the
    simplified problem, as its one oracle ``distance_sums_1d`` computes it."""

    def test_two_points(self):
        assert distance_sums_1d([1.0, 3.0], [2.0]).tolist() == [1.0]

    def test_query_left_of_points(self):
        assert distance_sums_1d([1.0, 3.0], [0.0]).tolist() == [0.0]

    def test_squared(self):
        assert distance_sums_1d([0.0], [2.0], p=2).tolist() == [4.0]

    @given(st.lists(coords, min_size=1, max_size=30), st.floats(-2, 2), st.floats(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_b(self, xs, b, db):
        for p in (1, 2):
            lo, hi = distance_sums_1d(xs, [b, b + db], p=p)
            assert hi >= lo - 1e-12

    @given(st.lists(coords, min_size=1, max_size=30), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_hinge_for_single_label(self, xs, theta, b):
        # hinge loss with all labels +1: max{0, 1 - (theta x + b)} = max{0, (1-b) - theta x}
        pts = [lp(float(x)) for x in xs]
        got = hinge_objective(pts, HyperplaneQuery((theta,), b), 0.0)
        want = distance_sums_1d(theta * np.asarray(xs), [1.0 - b])[0] / len(xs)
        assert got == pytest.approx(want, abs=1e-12)


class TestDistanceSums:
    @given(st.lists(coords, max_size=40), st.lists(coords | st.floats(-1.5, 1.5), min_size=1,
                                                   max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, xs, qs):
        for p in (1, 2):
            got = distance_sums_1d(xs, qs, p=p)
            want = [sum(max(0.0, q - x) ** p for x in xs) for q in qs]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestAddInOrder:
    @given(st.floats(-1e300, 1e300), st.lists(st.floats(-1e300, 1e300), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_bits_of_repeated_add(self, start, values):
        """Short runs (a loop) and long ones (np.add.accumulate) alike."""
        want = start
        for v in values:
            want += v
        assert add_in_order(start, np.asarray(values, dtype=float)).hex() == want.hex()

    def test_not_pairwise(self):
        # added one at a time, each 2^-53 rounds away; summed first, as np.sum would, they do not
        values = np.full(100, 2.0**-53)
        assert add_in_order(1.0, values) == 1.0 and 1.0 + values.sum() > 1.0


class TestStrongConvexityRadius:
    def test_zero_epsilon(self):
        assert strong_convexity_radius(0.0, 0.5) == 0.0

    def test_values(self):
        assert strong_convexity_radius(0.02, 0.01) == pytest.approx(2.0)
        assert strong_convexity_radius(0.5, 1.0) == pytest.approx(1.0)

    def test_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            strong_convexity_radius(0.1, 0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            strong_convexity_radius(0.1, lam)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -0.1])
    def test_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be nonnegative and finite"):
            strong_convexity_radius(epsilon, 0.5)


class TestExactOptimize:
    def test_single_point_dominates_probes(self):
        pts = [lp(0.0)]
        res = exact_optimize(pts, 1.0, tol=1e-9)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            w = rng.uniform(-1.5, 1.5, 2)
            probe = hinge_objective(pts, HyperplaneQuery((w[0],), w[1]), 1.0)
            assert probe >= res.value - 1e-9

    def test_large_lambda_returns_origin(self):
        res = exact_optimize([lp(0.5), lp(-0.5, -1)], 1e6, tol=1e-6)
        assert math.hypot(res.theta[0], res.b) < 1e-3
        assert res.value == pytest.approx(1.0, abs=1e-3)

    def test_strong_convexity_consistency(self):
        rng = np.random.default_rng(2)
        pts = [lp(float(x), int(y)) for x, y in zip(rng.uniform(-1, 1, 60),
                                                    rng.choice([-1, 1], 60))]
        lam = 0.5
        res = exact_optimize(pts, lam, tol=1e-9)
        for _ in range(300):
            w = rng.uniform(-2, 2, 2)
            probe = hinge_objective(pts, HyperplaneQuery((w[0],), w[1]), lam)
            assert probe >= res.value - 1e-9

    def test_d2_instance(self):
        rng = np.random.default_rng(3)
        pts = [
            LabeledPoint(tuple(x), int(y))
            for x, y in zip(rng.uniform(-0.7, 0.7, (40, 2)), rng.choice([-1, 1], 40))
        ]
        res = exact_optimize(pts, 0.3, tol=1e-8)
        for _ in range(200):
            w = rng.uniform(-2, 2, 3)
            probe = hinge_objective(pts, HyperplaneQuery((w[0], w[1]), w[2]), 0.3)
            assert probe >= res.value - 1e-8

    def test_budget_error_carries_best(self):
        # near-separable labels at a small lambda take 40 sweeps; a 2-sweep budget runs out
        rng = np.random.default_rng(7)
        pts = [lp(float(x), 1 if x + 0.1 >= 0 else -1) for x in rng.uniform(-1, 1, 60)]
        with pytest.raises(ConvergenceError) as ei:
            exact_optimize(pts, 0.05, tol=1e-9, max_evals=2)
        best = ei.value.best
        assert best.evals == 2
        assert best.value == hinge_objective(pts, HyperplaneQuery(best.theta, best.b), 0.05)
        assert math.isfinite(best.value)
        assert best.value > exact_optimize(pts, 0.05, tol=1e-9).value

    def test_budget_counts_sweeps_not_points(self):
        # the bench's pegasos workload: 2000 points finish well inside a 100-sweep budget
        pts = gen_uniform(2000, 1, seed=0, low=-1.0, high=1.0, label_mode="random")
        res = exact_optimize(pts, 0.1, tol=1e-6, max_evals=100)
        assert 1 <= res.evals <= 100

    def test_repeatable_and_same_on_a_record_array(self):
        inst = gen_opt_hard(0.1, 400, d=1, case=1, seed=0)
        records = np.array([(p.y, p.x) for p in inst.points], dtype=record_dtype(1))
        first = exact_optimize(inst.points, inst.lam)
        assert exact_optimize(inst.points, inst.lam) == first
        assert exact_optimize(records, inst.lam) == first

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            exact_optimize([], 1.0)
        with pytest.raises(ValueError):
            exact_optimize([lp(0.0)], 0.0)

    @pytest.mark.parametrize("lam,tol", [
        (math.nan, 1e-9), (math.inf, 1e-9), (-math.inf, 1e-9), (1.0, math.nan), (1.0, math.inf),
        (1.0, 0.0),
    ])
    def test_non_finite_lambda_or_tol_rejected(self, lam, tol):
        with pytest.raises(ValueError, match="must be positive and finite"):
            exact_optimize([lp(0.5), lp(-0.5, -1)], lam, tol=tol)

