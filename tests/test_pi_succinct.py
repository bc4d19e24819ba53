import gc
import tracemalloc
from collections import Counter

import pytest

from borderval.border_core import compute_pi, pi_to_pi_prime
from borderval.families import fibonacci_word, random_valid_pi, random_word, thue_morse_word, unary_pi
from borderval.oracle import enumerate_valid_pi
from borderval.pi_online import OnlineValidator
from borderval.pi_succinct import SuccinctValidator, window_distinct_check

from conftest import drive, local_streams

FIG_PI = [0, 1, 0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 0]

_seal = SuccinctValidator._seal


def _chain(v, blk):
    """Block ``blk``'s chain as (value, flag) pairs: the flag says whether
    the value is in S(block value)."""
    start = v._start[blk]
    return [(w >> 1, w & 1) for w in v._words[start : start + v._len[blk]]]


def _checked_seal(self, blk, source, removed):
    """``SuccinctValidator._seal``, checking the chain layout of every block
    that becomes ready: it strictly descends, and each bit-length class
    holds at most the two slots the layout reserves."""
    _seal(self, blk, source, removed)
    chain = [value for value, _ in _chain(self, blk)]
    assert all(x > y for x, y in zip(chain, chain[1:])), ("chain not descending", chain)
    classes = Counter(v.bit_length() for v in chain)
    assert max(classes.values(), default=0) <= 2, ("two slots per class exceeded", chain)


@pytest.fixture
def checked_fill(monkeypatch):
    """Every block of the test is checked as it is sealed, in either mode."""
    monkeypatch.setattr(SuccinctValidator, "_seal", _checked_seal)


def test_fig_array_matches_realtime(fig_word):
    from borderval.pi_realtime import RealTimeValidator

    s, r = SuccinctValidator(n_max=64), RealTimeValidator(n_max=64)
    for a in FIG_PI:
        assert s.push(a).valid and r.push(a).valid
    assert s.max_alphabet == r.max_alphabet == 3
    assert s.witness() == r.witness()


def test_zero_one_one_rejected():
    assert drive(SuccinctValidator(n_max=16), [0, 1, 1]) == 3


@pytest.mark.parametrize("kwargs", [{"beta": 0}, {"beta": -3}, {"lazy": True, "beta": 0}, {"n_max": 0}, {"n_max": -5}])
def test_constructor_rejects_sizes_below_one(kwargs):
    with pytest.raises(ValueError, match="must be at least 1"):
        SuccinctValidator(**kwargs)


def test_smallest_sizes_accepted():
    v = SuccinctValidator(n_max=1, lazy=True, beta=1)
    assert v.push(0).valid
    assert v.stats()["per_position"] > 0


@pytest.mark.usefixtures("checked_fill")
@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_exhaustive_equivalence(n, lazy):
    valid = enumerate_valid_pi(n)
    for s in local_streams(n):
        p1 = drive(OnlineValidator(), s)
        p2 = drive(SuccinctValidator(n_max=32, lazy=lazy, beta=2), s)
        assert p1 == p2, (s, lazy)
        assert (p1 is None) == (s in valid)


@pytest.mark.usefixtures("checked_fill")
@pytest.mark.parametrize("lazy", [False, True])
def test_random_streams_both_modes(lazy):
    for rep in range(40):
        arr = random_valid_pi(400, seed=300 + rep)
        v = SuccinctValidator(n_max=512, lazy=lazy, beta=4)
        b = OnlineValidator()
        for a in arr:
            assert v.push(a).valid and b.push(a).valid
        if lazy:
            v.finish()
        assert v.witness() == b.witness()
        assert v.stats()["chase_max"] <= 8


def _blocks(v):
    """Every block's value, chain words with their flags, and class masks."""
    return [(v._value[blk], _chain(v, blk), v._occ1[blk], v._occ2[blk]) for blk in range(len(v._value))]


@pytest.mark.parametrize(
    "arr",
    [random_valid_pi(400, seed=300 + rep) for rep in range(4)] + [compute_pi(fibonacci_word(3000))],
    ids=[f"random{rep}" for rep in range(4)] + ["fibonacci"],
)
@pytest.mark.parametrize("beta", [2, 8])
@pytest.mark.usefixtures("checked_fill")
def test_lazy_blocks_equal_eager_after_finish(arr, beta):
    eager = SuccinctValidator(n_max=4096)
    lazy = SuccinctValidator(n_max=4096, lazy=True, beta=beta)
    assert eager.push_many(arr).valid and lazy.push_many(arr).valid
    lazy.finish()
    assert eager.stats()["blocks_created"] > 0
    assert _blocks(lazy) == _blocks(eager)


def _heap_per_position(make, arr):
    """tracemalloc bytes held by a live engine after pushing arr, per value."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine = make()
        assert engine.push_many(arr).valid
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held / len(arr)


@pytest.mark.parametrize("n", [20_000, pytest.param(10**6, marks=pytest.mark.slow)])
def test_heap_below_basic(n):
    for name, arr in [("fibonacci", compute_pi(fibonacci_word(n))), ("random", random_valid_pi(n + 1, 1)[:n])]:
        succinct = _heap_per_position(SuccinctValidator, arr)
        basic = _heap_per_position(OnlineValidator, arr)
        assert succinct < basic, (name, n, succinct, basic)


def test_unary_stays_small():
    n = 4096
    v = SuccinctValidator(n_max=n)
    for a in unary_pi(n):
        assert v.push(a).valid
    m = v.stats()
    # a single-letter input needs no candidate blocks at all
    assert m["blocks_created"] <= 1
    assert v.max_alphabet == 1


@pytest.mark.usefixtures("checked_fill")
def test_window_capacity_never_reached():
    corpora = [
        compute_pi(fibonacci_word(4000)),
        compute_pi(thue_morse_word(4000)),
        random_valid_pi(4000, seed=4),
    ]
    for arr in corpora:
        v = SuccinctValidator(n_max=8192)
        for a in arr:
            assert v.push(a).valid
        assert v.stats()["window_fill_max"] <= 48


def test_window_distinct_check_families():
    assert window_distinct_check(pi_to_pi_prime(unary_pi(2000))) <= 2
    fib = pi_to_pi_prime(compute_pi(fibonacci_word(5000)))
    assert window_distinct_check(fib) <= 48
    assert window_distinct_check([]) == 0


def test_memory_accounting_components():
    arr = random_valid_pi(2000, seed=9)
    v = SuccinctValidator(n_max=2000)
    for a in arr:
        v.push(a)
    m = v.stats()
    assert m["memory_bits"] >= m["per_position"]
    assert m["blocks_used"] <= m["blocks_allocated_formula"]
    nm_bits = (2000).bit_length()  # 11
    sigma = (nm_bits + 2).bit_length()
    width = 2 * sigma + (nm_bits + 1).bit_length() + (3 * nm_bits + 5).bit_length() + 6
    assert m["per_position"] == 2000 * width


def test_lazy_copy_deadlines_hold():
    # small budget still meets the one-window grace on structured input
    arr = compute_pi(fibonacci_word(3000))
    v = SuccinctValidator(n_max=4096, lazy=True, beta=2)
    for a in arr:
        assert v.push(a).valid
    v.finish()
    assert v.stats()["chase_max"] <= 8


# Lazy scheduler behaviour pinned value for value: where a too-small budget
# misses a copy deadline, and what a run leaves behind.  "pending" sums the
# scheduler's declared bits sampled every 16 pushes, so it follows the
# waiting and copy lists through the whole stream.


@pytest.mark.parametrize(
    "arr, pos",
    [(compute_pi(fibonacci_word(3000)), 48), (random_valid_pi(2000, 1), 24)],
    ids=["fibonacci", "random"],
)
def test_lazy_copy_deadline_fires(arr, pos):
    v = SuccinctValidator(n_max=4096, lazy=True, beta=1)
    with pytest.raises(AssertionError, match=f"^copy deadline missed at position {pos}$"):
        for a in arr:
            v.push(a)


_PINNED_STREAMS = {
    "biased": lambda: random_valid_pi(3000, 1, unary_bias=0.7),
    "word": lambda: compute_pi(random_word(3000, 2, 1)),
    "fibonacci": lambda: compute_pi(fibonacci_word(3000)),
}


@pytest.mark.parametrize(
    "stream, beta, chase_max, window_fill_max, pending, blocks_used, blocks_created",
    [
        ("biased", 2, 0, 3, 9587, 31874, 1260),
        ("biased", 8, 0, 3, 5162, 31874, 1260),
        ("word", 2, 0, 2, 7662, 30311, 1585),
        ("word", 8, 0, 2, 4862, 30311, 1585),
        ("fibonacci", 2, 1, 2, 27312, 45709, 1852),
        ("fibonacci", 8, 1, 2, 19887, 45709, 1852),
    ],
)
def test_lazy_scheduler_pinned(stream, beta, chase_max, window_fill_max, pending, blocks_used, blocks_created):
    v = SuccinctValidator(n_max=4096, lazy=True, beta=beta)
    sampled = 0
    for x, a in enumerate(_PINNED_STREAMS[stream](), start=1):
        assert v.push(a).valid
        if x % 16 == 0:
            sampled += v.stats()["scheduler"]
    v.finish()
    assert sampled == pending
    assert v.stats() == {
        "memory_bits": 72000 + blocks_used + 26 + 4 * 13,
        "memory_bits_allocated": 72000 + 3032256,
        "per_position": 72000,
        "blocks_used": blocks_used,
        "blocks_allocated_formula": 3032256,
        "scheduler": 26,
        "blocks_created": blocks_created,
        "chase_max": chase_max,
        "window_fill_max": window_fill_max,
        "total_ops": 3000,
    }
