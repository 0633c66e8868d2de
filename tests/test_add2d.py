import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from hingesketch import add2d
from hingesketch.add2d import (
    KAPPA_SPACE_P1,
    KAPPA_SPACE_P2,
    QuadTree2D,
    additive_quadtree,
)


def disk_square_points(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        cand = rng.uniform(0, 1, (2 * n, 2))
        out.extend(cand[(cand**2).sum(axis=1) <= 1.0][: n - len(out)])
    return np.asarray(out)


def oracle(pts, theta, b, p=1):
    proj = pts @ np.asarray(theta)
    return float(np.mean(np.maximum(0.0, b - proj) ** p))


class TestStructure:
    def test_single_point_counters(self):
        tree = QuadTree2D(0.25, 100, seed=0)
        tree.update(0.5, 0.5)
        node = next(n for n in tree._walk() if n.c == 1)
        assert node.X == 0.5 and node.Y == 0.5
        assert node.res.sample == (0.5, 0.5)

    def test_conservation(self):
        pts = disk_square_points(2000, 0)
        tree = additive_quadtree(0.1, 2000, seed=1)
        for x, y in pts:
            tree.update(float(x), float(y))
        assert sum(n.c for n in tree._walk()) == 2000

    def test_out_of_square_rejected(self):
        tree = QuadTree2D(0.25, 10)
        with pytest.raises(ValueError, match="unit square"):
            tree.update(1.2, 0.5)

    def test_node_count_bound(self):
        # original cells plus 4 children per quota-filled parent
        tree = QuadTree2D(0.1, 1000, seed=2)
        rng = np.random.default_rng(2)
        for x, y in rng.uniform(0, 1, (1000, 2)):
            tree.update(float(x), float(y))
        assert tree.node_count() <= len(tree.roots) + 5 * (1000 // tree.threshold + 1)

    def test_split_cascade_and_depth_cap(self):
        tree = QuadTree2D(0.2, 50, seed=3)
        for _ in range(500):
            tree.update(0.3, 0.3)
        assert all(n.depth <= tree.depth_cap for n in tree._walk())
        assert sum(n.c for n in tree._walk()) == 500


def update_loop(tree, pts):
    for x, y in pts:
        tree.update(x, y)
    return tree


# coordinates of [0, 1], with weight on 0, 1 and the quadrant lines down to 2^-6,
# where routing ties
COORDS = st.one_of(st.sampled_from([k / 64 for k in range(65)]), st.floats(0.0, 1.0))


class TestUpdateMany:
    """update_many against a loop of update, the per-point reference."""

    @given(st.lists(st.tuples(COORDS, COORDS), max_size=150), st.sampled_from([1, 2]),
           st.sampled_from([0.25, 0.1, 0.04]), st.integers(1, 30), st.integers(0, 3),
           st.integers(1, 70))
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_as_update_loop(self, pts, p, eps_struct, n_declared, seed, block):
        a = update_loop(QuadTree2D(eps_struct, n_declared, p=p, seed=seed), pts)
        b = QuadTree2D(eps_struct, n_declared, p=p, seed=seed)
        with mock.patch.object(QuadTree2D, "INSERT_BLOCK", block):
            b.update_many(np.asarray(pts, dtype=float).reshape(-1, 2))
        assert b.to_bytes() == a.to_bytes()

    @pytest.mark.parametrize("p", [1, 2])
    def test_split_to_the_depth_cap(self, p):
        rng = np.random.default_rng(4)
        pts = np.concatenate([np.full((300, 2), 0.3), rng.uniform(0.29, 0.31, (300, 2)),
                              [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]])
        rng.shuffle(pts)
        a = update_loop(QuadTree2D(0.2, 50, p=p, seed=3), pts.tolist())
        b = QuadTree2D(0.2, 50, p=p, seed=3)
        b.update_many(pts)
        assert max(n.depth for n in b._walk()) == b.depth_cap
        assert b.to_bytes() == a.to_bytes()

    @pytest.mark.parametrize("bad", [(math.nan, 0.5), (0.5, math.nan), (1.5, 0.5),
                                     (0.5, -1e-9), (math.inf, math.inf)])
    @pytest.mark.parametrize("k", [0, 1, 37])
    def test_bad_point_applies_the_points_before_it(self, bad, k):
        pts = np.random.default_rng(6).uniform(0, 1, (60, 2))
        pts[k] = bad
        with pytest.raises(ValueError) as want:
            QuadTree2D(0.1, 60, seed=1).update(*bad)
        tree = QuadTree2D(0.1, 60, seed=1)
        with pytest.raises(ValueError) as got:
            tree.update_many(pts)
        assert str(got.value) == str(want.value)
        assert tree.to_bytes() == update_loop(QuadTree2D(0.1, 60, seed=1),
                                              pts[:k].tolist()).to_bytes()


class TestQuery:
    def test_whole_square_inside_is_exact(self):
        pts = disk_square_points(1500, 4)
        tree = additive_quadtree(0.1, 1500, seed=4)
        for x, y in pts:
            tree.update(float(x), float(y))
        got = tree.query((1.0, 0.0), 2.0)
        assert got == pytest.approx(oracle(pts, (1.0, 0.0), 2.0), rel=1e-12)
        assert tree.crossing_cells((1.0, 0.0), 2.0) == 0

    def test_empty_halfplane(self):
        pts = disk_square_points(800, 5)
        tree = additive_quadtree(0.1, 800, seed=5)
        for x, y in pts:
            tree.update(float(x), float(y))
        assert tree.query((1.0, 0.0), -1.0) == 0.0

    def test_zero_theta_rejected(self):
        tree = QuadTree2D(0.25, 10)
        with pytest.raises(ValueError, match="nonzero"):
            tree.query((0.0, 0.0), 0.5)

    def test_oversized_theta_rejected(self):
        tree = QuadTree2D(0.25, 10)
        with pytest.raises(ValueError, match="norm"):
            tree.query((2.0, 0.0), 0.5)

    def test_short_theta_normalized(self):
        pts = disk_square_points(1000, 6)
        tree = additive_quadtree(0.1, 1000, seed=6)
        for x, y in pts:
            tree.update(float(x), float(y))
        a = tree.query((0.5, 0.0), 0.25)
        b = tree.query((1.0, 0.0), 0.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_acceptance_style_accuracy(self):
        pts = disk_square_points(5000, 7)
        hits = 0
        errs = []
        for seed in range(20):
            tree = additive_quadtree(0.1, 5000, p=1, seed=seed)
            for x, y in pts:
                tree.update(float(x), float(y))
            qrng = np.random.default_rng(100 + seed)
            for _ in range(10):
                ang = qrng.uniform(0, 2 * math.pi)
                b = qrng.uniform(-1, 1.5)
                theta = (math.cos(ang), math.sin(ang))
                err = abs(tree.query(theta, b) - oracle(pts, theta, b))
                errs.append(err)
                hits += err <= 0.1
        assert hits / len(errs) >= 0.6
        assert float(np.median(errs)) <= 0.1

    def test_unbiased_crossing_estimator(self):
        # fixed line, many seeds: mean estimate within 5 standard errors
        pts = disk_square_points(2000, 8)
        theta = (math.cos(0.7), math.sin(0.7))
        b = 0.55
        truth = oracle(pts, theta, b)
        vals = []
        for seed in range(400):
            tree = additive_quadtree(0.15, 2000, seed=seed)
            for x, y in pts:
                tree.update(float(x), float(y))
            vals.append(tree.query(theta, b))
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - truth) <= 5 * se + 1e-12
        # per-query standard deviation within the structural-resolution bound
        eps_int = additive_quadtree(0.15, 2000, seed=0).eps_struct
        assert vals.std(ddof=1) <= eps_int ** (5.0 / 4.0)

    def test_squared_mode_accuracy(self):
        pts = disk_square_points(5000, 9)
        tree = additive_quadtree(0.1, 5000, p=2, seed=9)
        for x, y in pts:
            tree.update(float(x), float(y))
        qrng = np.random.default_rng(10)
        for _ in range(30):
            ang = qrng.uniform(0, 2 * math.pi)
            b = qrng.uniform(-1, 1.5)
            theta = (math.cos(ang), math.sin(ang))
            assert abs(tree.query(theta, b) - oracle(pts, theta, b, p=2)) <= 0.1


    def test_query_many_independent_of_block_size(self, monkeypatch):
        tree = additive_quadtree(0.1, 2000, p=2, seed=3)
        tree.update_many(disk_square_points(2000, 5))
        rng = np.random.default_rng(6)
        ang = rng.uniform(0.0, 2.0 * np.pi, 50)
        rows = np.stack([np.cos(ang), np.sin(ang), rng.uniform(-1.0, 2.0, 50)], axis=1)
        whole = tree.query_many(rows)
        monkeypatch.setattr(add2d, "_BLOCK_VALUES", 7)
        assert_array_equal(tree.query_many(rows), whole)
        assert_array_equal([tree.query(r[:2], r[2]) for r in rows], whole)

    def test_update_resets_node_columns(self):
        tree = QuadTree2D(0.25, 100, seed=0)
        tree.update(0.2, 0.2)
        assert tree.query((1.0, 0.0), 0.9) == pytest.approx(0.7)
        tree.update(0.3, 0.3)
        assert tree.query((1.0, 0.0), 0.9) == pytest.approx(0.65)

    def test_float_power_is_python_pow(self):
        """Squares in the batch paths (p=2 crossing terms here, the fine-bank
        quotas of mult1d) use np.float_power because it calls the C library's
        pow, as Python's ** does; x * x differs from that in the last place for
        about one value in 1200."""
        scales = 2.0 ** np.arange(-20, 20).repeat(2000)
        xs = np.random.default_rng(0).uniform(0.5, 1.0, scales.size) * scales
        assert_array_equal(np.float_power(xs, 2), [x**2 for x in xs.tolist()])


class TestSpace:
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_word_bound_p1(self, eps):
        pts = disk_square_points(10**4, 11)
        tree = additive_quadtree(eps, 10**4, p=1, seed=11)
        for x, y in pts:
            tree.update(float(x), float(y))
        assert tree.space_words() <= KAPPA_SPACE_P1 * eps ** (-4.0 / 5.0)

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_word_bound_p2(self, eps):
        pts = disk_square_points(10**4, 12)
        tree = additive_quadtree(eps, 10**4, p=2, seed=12)
        for x, y in pts:
            tree.update(float(x), float(y))
        assert tree.space_words() <= KAPPA_SPACE_P2 * eps ** (-4.0 / 7.0)


class TestSerialization:
    def test_roundtrip_bit_identical(self):
        pts = disk_square_points(3000, 13)
        tree = additive_quadtree(0.1, 3000, p=2, seed=13)
        for x, y in pts:
            tree.update(float(x), float(y))
        back = QuadTree2D.from_bytes(tree.to_bytes())
        qrng = np.random.default_rng(14)
        for _ in range(40):
            ang = qrng.uniform(0, 2 * math.pi)
            b = qrng.uniform(-1, 1.5)
            theta = (math.cos(ang), math.sin(ang))
            assert tree.query(theta, b) == back.query(theta, b)
        assert back.to_bytes() == tree.to_bytes()

    def test_determinism_same_seed(self):
        pts = disk_square_points(1500, 15)
        a = additive_quadtree(0.1, 1500, seed=21)
        b = additive_quadtree(0.1, 1500, seed=21)
        for x, y in pts:
            a.update(float(x), float(y))
            b.update(float(x), float(y))
        assert a.to_bytes() == b.to_bytes()
