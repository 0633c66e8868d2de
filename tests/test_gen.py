import math

import numpy as np
import pytest

from hingesketch import gen
from hingesketch.core import (
    HyperplaneQuery,
    distance_sums_1d,
    exact_optimize,
    hinge_objective,
)
from hingesketch.gen import (
    closed_form_opt,
    gen_clustered,
    gen_index1d,
    gen_index2d,
    gen_opt_hard,
    gen_uniform,
)


class TestIndex1D:
    def test_all_zero_empty_stream(self):
        inst = gen_index1d([0, 0, 0], 0.01, 1000)
        assert inst.n == 0
        assert inst.decode(lambda q: 0.0) == [0, 0, 0]

    def test_leading_bit_signal(self):
        inst = gen_index1d([1, 0], 0.01, 1000)
        assert inst.per_bit == 100
        q0 = inst.queries[0]
        assert q0.b == pytest.approx(0.3)
        xs = np.array([p.x[0] for p in inst.points])
        raw = distance_sums_1d(xs, q0.b)[0]
        assert raw / 1000 == pytest.approx(0.03)

    def test_too_long_rejected(self):
        with pytest.raises(ValueError, match="too long"):
            gen_index1d([1] * 40, 0.01, 1000)

    def test_exact_oracle_decodes(self):
        bits = [1, 0, 1, 1, 0]
        inst = gen_index1d(bits, 0.004, 4000)
        xs = np.array([p.x[0] for p in inst.points])
        dec = inst.decode(lambda q: distance_sums_1d(xs, q)[0])
        assert dec == bits

    def test_noisy_estimator_within_threshold_decodes(self):
        bits = [1, 1, 0, 1]
        inst = gen_index1d(bits, 0.01, 2000)
        xs = np.array([p.x[0] for p in inst.points])
        rng = np.random.default_rng(0)
        margin = inst.queries[0].signal / 2.0
        dec = inst.decode(
            lambda q: distance_sums_1d(xs, q)[0] + rng.uniform(-0.9, 0.9) * margin
        )
        assert dec == bits


class TestIndex2D:
    def test_positions_on_polar_grid(self):
        inst = gen_index2d([1] + [0] * 11, s=6, r=2, n=2400)
        px, py = inst.positions[0]
        assert math.hypot(px, py) == pytest.approx(1.0)
        deep = inst.positions[6]  # tier 2
        assert math.hypot(*deep) == pytest.approx(0.75)

    def test_own_plane_signal(self):
        inst = gen_index2d([0] * 7 + [1], s=6, r=2, n=2400)
        pts = np.array([p.x for p in inst.points])
        dq = inst.queries[7]
        got = float(np.maximum(0.0, dq.b - pts @ np.asarray(dq.theta)).sum())
        assert got == pytest.approx(dq.signal)

    def test_cleared_bit_reads_zero(self):
        inst = gen_index2d([1, 0, 0, 0, 0, 0], s=6, r=1, n=600)
        pts = np.array([p.x for p in inst.points])

        def est(theta, b):
            return float(np.maximum(0.0, b - pts @ np.asarray(theta)).sum())

        assert inst.decode(est) == [1, 0, 0, 0, 0, 0]

    def test_angle_exclusion_geometry(self):
        # adjacent angles must sit outside every query plane
        inst = gen_index2d([1] * 12, s=6, r=2, n=2400)
        for dq in inst.queries:
            for k, pos in enumerate(inst.positions):
                if k > dq.bit:
                    proj = dq.theta[0] * pos[0] + dq.theta[1] * pos[1]
                    assert proj >= dq.b - 1e-12, "unknown bit contaminates the query"

    def test_full_decode(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1]
        inst = gen_index2d(bits, s=6, r=2, n=2400)
        pts = np.array([p.x for p in inst.points])

        def est(theta, b):
            return float(np.maximum(0.0, b - pts @ np.asarray(theta)).sum())

        assert inst.decode(est) == bits

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError, match="adjacent angles"):
            gen_index2d([1], s=64, r=2, n=1000)


class TestOptHard:
    def test_case0_counts(self):
        inst = gen_opt_hard(0.1, 400, d=1, case=0, seed=0)
        xs = [(p.x[0], p.y) for p in inst.points]
        assert sum(1 for x, y in xs if x == pytest.approx(0.9) and y == -1) == 100
        assert sum(1 for x, y in xs if x == pytest.approx(1.1) and y == 1) == 100
        fillers = [x for x, y in xs if abs(x - 0.9) > 1e-9 and abs(x - 1.1) > 1e-9]
        assert len(fillers) == 200
        assert all(x < 0.0 for x in fillers)  # v . x_q < 1 - 10*delta = 0

    def test_case1_adds_probe_point(self):
        inst0 = gen_opt_hard(0.1, 400, d=1, case=0, seed=1)
        inst1 = gen_opt_hard(0.1, 400, d=1, case=1, seed=1)
        assert inst1.n_total == inst0.n_total + 1
        assert sum(1 for p in inst1.points if p.x[0] == 1.0 and p.y == -1) == 1

    def test_n_not_divisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            gen_opt_hard(0.1, 401)

    @pytest.mark.parametrize("case", [0, 1])
    def test_exact_optimize_matches_closed_form(self, case):
        for seed in (0, 1, 2):
            inst = gen_opt_hard(0.1, 400, d=1, case=case, seed=seed)
            res = exact_optimize(inst.points, inst.lam, tol=1e-9)
            assert abs(res.theta[0] - inst.theta_star_magnitude) <= 1e-12
            assert abs(res.b - inst.b_star) <= 1e-12

    def test_closed_form_is_optimal_and_isolated(self):
        inst = gen_opt_hard(0.1, 400, d=1, case=0, seed=3)
        th, b = inst.theta_star_magnitude, inst.b_star
        f_star = hinge_objective(inst.points, HyperplaneQuery((th,), b), inst.lam)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            w = rng.uniform(-4, 4, 2)
            assert hinge_objective(
                inst.points, HyperplaneQuery((w[0],), w[1]), inst.lam
            ) >= f_star - 1e-9
        # the optimum sits on the beta-cluster kink; the objective restricted
        # to that kink line is smooth and its derivative must vanish there
        h = 1e-6
        t = np.array([1.0, -(1.0 + inst.delta)])
        t /= np.linalg.norm(t)
        wp = np.array([th, b]) + h * t
        wm = np.array([th, b]) - h * t
        g = (
            hinge_objective(inst.points, HyperplaneQuery((wp[0],), wp[1]), inst.lam)
            - hinge_objective(inst.points, HyperplaneQuery((wm[0],), wm[1]), inst.lam)
        ) / (2 * h)
        assert abs(g) <= 1e-6
        # fillers are strictly non-support at the optimum
        for p in inst.points:
            if abs(p.x[0] - 0.9) > 1e-9 and abs(p.x[0] - 1.1) > 1e-9 and p.x[0] != 1.0:
                assert 1.0 + th * p.x[0] + b < 0

    def test_d2_instance(self):
        for seed in (5, 6, 7):
            inst = gen_opt_hard(0.05, 400, d=2, case=0, seed=seed)
            res = exact_optimize(inst.points, inst.lam, tol=1e-8)
            assert abs(math.hypot(*res.theta) - inst.theta_star_magnitude) <= 1e-12

    def test_validity_gate(self):
        with pytest.raises(ValueError, match="delta"):
            closed_form_opt(0.2, 0.04, 1000, 0)
        with pytest.raises(ValueError, match="lambda"):
            closed_form_opt(0.1, 0.02, 1000, 0)
        with pytest.raises(ValueError, match="n >="):
            closed_form_opt(0.1, 0.01, 50, 0)

    def test_closed_form_values(self):
        th0, b0 = closed_form_opt(0.1, 0.01, 400, 0)
        assert th0 == pytest.approx(0.122 / 0.0442, abs=1e-4)
        assert b0 == pytest.approx(1 - 1.1 * th0)
        th1, _ = closed_form_opt(0.1, 0.01, 100, 1)
        assert th1 == pytest.approx(0.123 / 0.0442, abs=1e-4)

    def test_separation_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            delta = rng.uniform(0.01, 1 / 7 - 1e-6)
            lam = delta * delta
            n = int(rng.integers(math.ceil(1 / lam), 10**6))
            th0, _ = closed_form_opt(delta, lam, n, 0)
            th1, _ = closed_form_opt(delta, lam, n, 1)
            assert th1 - th0 >= delta / (5 * lam * n)


class TestSyntheticStreams:
    def test_reproducible(self):
        a = gen_uniform(100, 1, seed=1)
        b = gen_uniform(100, 1, seed=1)
        assert np.array_equal(a, b)
        assert not np.array_equal(gen_uniform(100, 1, seed=2), a)

    def test_d2_rejection_rounds_drawn_in_blocks(self, monkeypatch):
        """A round drawn 7 rows at a time gives the records, labels included, of
        one draw per round; on [0.5, 1]^2 about a third of the rows land in the
        disk, so 40 points take more than one round of 96 rows."""
        want = gen_uniform(40, 2, seed=5, low=0.5, label_mode="random")
        monkeypatch.setattr(gen, "REJECT_BLOCK", 7)
        assert gen_uniform(40, 2, seed=5, low=0.5, label_mode="random").tobytes() == want.tobytes()

    def test_norms_inside_ball(self):
        for pts in (gen_uniform(500, 2, seed=3), gen_clustered(500, 2, seed=3)):
            assert (np.linalg.norm(pts["x"], axis=1) <= 1.0 + 1e-12).all()

    def test_uniform_mean(self):
        means = [
            float(np.mean([p.x[0] for p in gen_uniform(400, 1, seed=s)]))
            for s in range(50)
        ]
        se = np.std(means, ddof=1) / math.sqrt(len(means))
        assert abs(np.mean(means) - 0.5) <= 5 * se

    def test_random_labels(self):
        pts = gen_uniform(1000, 1, seed=4, label_mode="random")
        ys = [p.y for p in pts]
        assert set(ys) == {-1, 1}
