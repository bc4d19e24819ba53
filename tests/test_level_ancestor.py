import math
import random

import pytest

from borderval.level_ancestor import JumpPointerLA


def build_random_tree(n, seed):
    rng = random.Random(seed)
    la = JumpPointerLA()
    la.add_leaf(0)
    for i in range(2, n + 1):
        la.add_leaf(rng.randint(1, i - 1))
    return la


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_la_matches_naive(seed):
    la = build_random_tree(200, seed)
    rng = random.Random(seed + 100)
    for _ in range(500):
        v = rng.randint(1, 200)
        delta = rng.randint(0, la.depth(v) - 1)
        assert la.la(v, delta) == la.naive_la(v, delta)


def test_la_identities():
    la = build_random_tree(60, 9)
    for v in range(1, 61):
        assert la.la(v, 0) == v
        assert la.la(v, la.depth(v) - 1) == 1
        for delta in range(la.depth(v)):
            assert la.depth(la.la(v, delta)) == la.depth(v) - delta


def test_la_range_errors():
    la = build_random_tree(10, 4)
    with pytest.raises(ValueError):
        la.la(5, la.depth(5))
    with pytest.raises(ValueError):
        la.la(5, -1)


DEEP = 2**14


def grow(parents):
    """Tree built leaf by leaf; every add_leaf must cost exactly one op."""
    la = JumpPointerLA()
    for parent in parents:
        ops = la.ops
        la.add_leaf(parent)
        assert la.ops == ops + 1
    return la


def broom(spine):
    """A path of ``spine`` nodes (ids 1, 3, 5, ...), one leaf hung off each."""
    return grow(p for k in range(spine) for p in (max(2 * k - 1, 0), 2 * k + 1))


@pytest.mark.parametrize("tree", ["path", "broom"])
def test_deep_trees(tree):
    la = grow(range(DEEP)) if tree == "path" else broom(DEEP // 2)
    assert la.depth(DEEP) == (DEEP if tree == "path" else DEEP // 2 + 1)
    rng = random.Random(7)
    for _ in range(400):
        v = rng.randint(1, DEEP)
        delta = rng.randint(0, la.depth(v) - 1)
        assert la.la(v, delta) == la.naive_la(v, delta)
    # Myers' bound: a query costs at most 3 log2(depth) ops; the path's
    # worst case here is 34 ops, at depth 16,235
    for v in (DEEP, DEEP - 1, DEEP - 149, DEEP // 2 + 1):
        depth = la.depth(v)
        for delta in range(depth):
            ops = la.ops
            u = la.la(v, delta)
            assert la.ops - ops <= 3 * math.log2(depth)
            assert la.depth(u) == depth - delta
