import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderval.suffix_structure import OnlineSuffixIndex


def build(stream):
    idx = OnlineSuffixIndex()
    for s in stream:
        idx.append(s)
    return idx


def test_trivial_queries():
    idx = build([3])
    assert idx.is_suffix_prefix_of_suffix(1, 0, 1) is True
    idx = build([2, 2, 2, 2])
    assert idx.is_suffix_prefix_of_suffix(1, 2, 4) is True  # cccc self-overlap
    assert idx.is_suffix_prefix_of_suffix(1, 4, 4) is True  # empty comparison


def test_range_errors():
    idx = build([1, 2])
    with pytest.raises(ValueError):
        idx.is_suffix_prefix_of_suffix(1, 0, 3)
    with pytest.raises(ValueError):
        idx.is_suffix_prefix_of_suffix(0, 1, 2)


@settings(max_examples=400)
@given(st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=30), st.data())
def test_matches_naive(stream, data):
    idx = build(stream)
    m = len(stream)
    p = data.draw(st.integers(min_value=1, max_value=m))
    l = data.draw(st.integers(min_value=0, max_value=m - p + 1))
    assert idx.is_suffix_prefix_of_suffix(p, l, m) == idx.naive_query(p, l, m)


def test_random_trials_online():
    rng = random.Random(3)
    hits = 0
    for rep in range(150):
        idx = OnlineSuffixIndex()
        stream = []
        for _ in range(rng.randint(1, 50)):
            s = rng.randint(-1, 2)
            stream.append(s)
            idx.append(s)
            m = len(stream)
            p = rng.randint(1, m)
            l = rng.randint(0, m - p + 1)
            got = idx.is_suffix_prefix_of_suffix(p, l, m)
            assert got == idx.naive_query(p, l, m), (stream, p, l)
            hits += got
    assert hits > 0  # both outcomes exercised


def test_query_cost_counter():
    rng = random.Random(8)
    idx = OnlineSuffixIndex()
    for _ in range(3000):
        idx.append(rng.randint(1, 3))
    m = idx.size
    for _ in range(500):
        p = rng.randint(1, m)
        l = rng.randint(0, min(40, m - p + 1))
        idx.is_suffix_prefix_of_suffix(p, l, m)
    # false answers resolve in O(1) via the leaf shortcut; true answers on
    # pending suffixes cost one comparison per symbol compared
    assert idx.stats()["query_ops_max"] <= m


def test_construction_ops_scale():
    rng = random.Random(12)
    idx = OnlineSuffixIndex()
    n = 20000
    for _ in range(n):
        idx.append(rng.randint(0, 50))
    # amortized construction work stays within a small multiple of n
    assert idx.stats()["total_ops"] <= 8 * n
