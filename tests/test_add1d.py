import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hingesketch.add1d import (
    KAPPA_NODES_P1,
    KAPPA_NODES_P2,
    Tree1D,
    additive_tree_1d,
    kappa_log,
)
from hingesketch.core import distance_sums_1d


def oracle_mean(xs, qs, p=1):
    return distance_sums_1d(xs, qs, p=p) / len(xs)


class TestStructure:
    def test_initial_leaf_count(self):
        # structural eps = 1/4 over [-1,1]: leaves of width 1/2, count 2/sqrt(eps) = 4
        tree = Tree1D(0.25, 100)
        assert len(tree.roots) == 4
        assert tree.roots[0].lo == -1.0 and tree.roots[-1].hi == 1.0

    def test_split_trace(self):
        # threshold 1: first point fills the leaf, second forces a split with
        # fresh child counters
        tree = additive_tree_1d(0.25, 4)
        assert tree.threshold == 1
        tree.update(0.1)
        node = next(n for n in tree._walk() if n.c == 1)
        assert node.lo <= 0.1 <= node.hi and node.children is None
        tree.update(0.1)
        assert node.children is not None
        assert node.c == 1  # pre-split points stay behind
        assert node.children[0].c + node.children[1].c == 1

    def test_single_point_counters(self):
        tree = Tree1D(0.25, 10)
        tree.update(0.3)
        node = [n for n in tree._walk() if n.c == 1][0]
        assert node.s == pytest.approx(node.hi - 0.3)

    def test_domain_check(self):
        tree = Tree1D(0.25, 10)
        with pytest.raises(ValueError, match="outside domain"):
            tree.update(1.5)

    def test_depth_cap_prevents_split(self):
        tree = Tree1D(0.25, 4)
        for _ in range(200):
            tree.update(0.125)
        depths = [n.depth for n in tree._walk()]
        assert max(depths) <= tree.depth_cap + 1

    def test_conservation(self):
        rng = np.random.default_rng(0)
        tree = additive_tree_1d(0.1, 3000)
        xs = rng.uniform(-1, 1, 3000)
        for x in xs:
            tree.update(float(x))
        assert sum(n.c for n in tree._walk()) == 3000
        assert tree.count == 3000

    def test_determinism(self):
        xs = np.random.default_rng(1).uniform(-1, 1, 2000)
        a = additive_tree_1d(0.1, 2000)
        b = additive_tree_1d(0.1, 2000)
        for x in xs:
            a.update(float(x))
            b.update(float(x))
        assert a.to_bytes() == b.to_bytes()


def update_loop(tree, xs):
    for x in xs:
        tree.update(x)
    return tree


def values_in(lo, hi):
    """Floats of [lo, hi], with weight on lo, hi and the split midpoints (the
    dyadic points down to 2^-7 of the domain), where routing ties."""
    dyadic = [lo + (hi - lo) * k / 128 for k in range(129)]
    return st.one_of(st.sampled_from(dyadic), st.floats(lo, hi))


class TestUpdateMany:
    """update_many against a loop of update, the per-point reference."""

    @given(st.data(), st.sampled_from([(-1.0, 1.0), (0.0, 1.0)]), st.sampled_from([1, 2]),
           st.sampled_from([0.25, 0.1, 0.04]), st.integers(1, 30), st.integers(1, 70))
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_as_update_loop(self, data, domain, p, eps_struct, n_declared, block):
        xs = data.draw(st.lists(values_in(*domain), max_size=150))
        a = update_loop(Tree1D(eps_struct, n_declared, p=p, lo=domain[0], hi=domain[1]), xs)
        b = Tree1D(eps_struct, n_declared, p=p, lo=domain[0], hi=domain[1])
        with mock.patch.object(Tree1D, "INSERT_BLOCK", block):
            b.update_many(np.asarray(xs, dtype=float))
        assert b.to_bytes() == a.to_bytes()

    @pytest.mark.parametrize("p", [1, 2])
    def test_split_to_the_depth_cap(self, p):
        rng = np.random.default_rng(4)
        xs = np.concatenate([np.full(300, 0.125), rng.uniform(0.12, 0.13, 300), [-1.0, 1.0]])
        rng.shuffle(xs)
        a = update_loop(Tree1D(0.25, 4, p=p), xs.tolist())
        b = Tree1D(0.25, 4, p=p)
        b.update_many(xs)
        assert max(n.depth for n in b._walk()) == b.depth_cap + 1
        assert b.to_bytes() == a.to_bytes()

    @pytest.mark.parametrize("p", [1, 2])
    def test_index1d_domain(self, p):
        # the tree the index1d decoder reads: [0, 1] at eps 0.003
        xs = np.random.default_rng(5).uniform(0.0, 1.0, 4000) ** 3
        a = update_loop(additive_tree_1d(0.003, xs.size, p=p, lo=0.0, hi=1.0), xs.tolist())
        b = additive_tree_1d(0.003, xs.size, p=p, lo=0.0, hi=1.0)
        b.update_many(xs)
        assert b.to_bytes() == a.to_bytes()

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -1.0000001, -math.inf])
    @pytest.mark.parametrize("k", [0, 1, 37])
    def test_bad_value_applies_the_values_before_it(self, bad, k):
        xs = np.random.default_rng(6).uniform(-1, 1, 60)
        xs[k] = bad
        with pytest.raises(ValueError) as want:
            Tree1D(0.1, 60).update(bad)
        tree = Tree1D(0.1, 60)
        with pytest.raises(ValueError) as got:
            tree.update_many(xs)
        assert str(got.value) == str(want.value)
        assert tree.to_bytes() == update_loop(Tree1D(0.1, 60), xs[:k].tolist()).to_bytes()


class TestQuery:
    def test_empty_tree(self):
        tree = Tree1D(0.25, 10)
        assert tree.query(0.5) == 0.0

    def test_boundary_query_exact(self):
        # all points left of q with q on a node boundary: no straddling error
        tree = Tree1D(0.25, 1000)
        xs = np.random.default_rng(2).uniform(-1.0, -0.5, 200)
        for x in xs:
            tree.update(float(x))
        q = 0.0  # node boundary at the initial partition
        assert tree.query(q) == pytest.approx(float(np.mean(q - xs)), rel=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_additive_error_uniform(self, eps):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1, 1, 10**4)
        tree = additive_tree_1d(eps, xs.size)
        for x in xs:
            tree.update(float(x))
        qs = rng.uniform(-1, 1, 100)
        err = np.abs(tree.query_many(qs) - oracle_mean(xs, qs))
        assert err.max() <= eps

    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_additive_error_clustered(self, eps):
        rng = np.random.default_rng(4)
        xs = np.concatenate([
            rng.normal(-0.5, 0.01, 4000),
            rng.normal(0.4, 0.002, 5000),
            rng.uniform(-1, 1, 1000),
        ])
        xs = np.clip(xs, -1, 1)
        tree = additive_tree_1d(eps, xs.size)
        for x in xs:
            tree.update(float(x))
        qs = rng.uniform(-1, 1, 100)
        err = np.abs(tree.query_many(qs) - oracle_mean(xs, qs))
        assert err.max() <= eps

    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_squared_mode(self, eps):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, 10**4)
        tree = additive_tree_1d(eps, xs.size, p=2)
        for x in xs:
            tree.update(float(x))
        qs = rng.uniform(-1, 1, 100)
        err = np.abs(tree.query_many(qs) - oracle_mean(xs, qs, p=2))
        assert err.max() <= eps

    def test_never_double_counts(self):
        # query past every node: estimate equals the exact total distance sum
        rng = np.random.default_rng(6)
        xs = rng.uniform(-1, 1, 5000)
        tree = additive_tree_1d(0.1, xs.size)
        for x in xs:
            tree.update(float(x))
        assert tree.query(1.0) == pytest.approx(float(np.mean(1.0 - xs)), rel=1e-12)


class TestSpace:
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.01])
    def test_node_bound_p1(self, eps):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1, 1, 10**4)
        tree = additive_tree_1d(eps, xs.size)
        for x in xs:
            tree.update(float(x))
        bound = KAPPA_NODES_P1 * eps ** -0.5 * math.sqrt(math.log2(1 / eps))
        assert tree.node_count() <= bound

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.01])
    def test_node_bound_p2(self, eps):
        rng = np.random.default_rng(8)
        xs = rng.uniform(-1, 1, 10**4)
        tree = additive_tree_1d(eps, xs.size, p=2)
        for x in xs:
            tree.update(float(x))
        bound = KAPPA_NODES_P2 * eps ** (-1 / 3) * math.sqrt(math.log2(1 / eps))
        assert tree.node_count() <= bound

    def test_space_growth_ratio(self):
        # halving eps grows the initial partition by about sqrt(2)
        sizes = {}
        for eps in (0.1, 0.05):
            tree = additive_tree_1d(eps, 10**4)
            sizes[eps] = len(tree.roots)
        assert 1.2 <= sizes[0.05] / sizes[0.1] <= 2.1


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        xs = rng.uniform(-1, 1, 4000)
        tree = additive_tree_1d(0.07, xs.size, p=2)
        for x in xs:
            tree.update(float(x))
        back = Tree1D.from_bytes(tree.to_bytes())
        qs = rng.uniform(-1, 1, 50)
        assert np.array_equal(tree.query_many(qs), back.query_many(qs))
        assert back.to_bytes() == tree.to_bytes()

    def test_chain_deeper_than_the_recursion_limit(self):
        # eps_struct 1e-300 on a domain narrower than a leaf: one root, depth cap 2990
        tree = Tree1D(1e-300, 1, lo=0.0, hi=1e-151)
        assert tree.init_depth == 0 and tree.depth_cap == 2990
        node = tree.roots[0]
        for _ in range(2500):
            assert tree._split(node)
            node = node.children[0]
        data = tree.to_bytes()
        back = Tree1D.from_bytes(data)
        assert back.node_count() == 5001
        assert back.to_bytes() == data

    @pytest.mark.parametrize("lo,hi", [(-math.inf, 1.0), (0.0, math.nan), (1.0, 1.0),
                                       (1.0, -1.0)])
    def test_bad_domain_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="domain"):
            Tree1D(0.1, 10, lo=lo, hi=hi)

