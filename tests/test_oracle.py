import math

import pytest

from borderval.border_core import compute_pi
from borderval.oracle import (
    LengthTooLarge,
    canonical_words,
    enumerate_pi_prime_prefix_witnesses,
    enumerate_valid_pi,
    iter_canonical_pi,
    max_min_alphabet,
    min_alphabet_bruteforce,
)

from conftest import local_streams


def test_canonical_enumeration_counts():
    # Bell numbers: one canonical word per set partition
    assert sum(1 for _ in canonical_words(1)) == 1
    assert sum(1 for _ in canonical_words(3)) == 5
    assert sum(1 for _ in canonical_words(5)) == 52
    assert all(w[0] == 1 for w in canonical_words(4))
    seen = set(canonical_words(4))
    assert len(seen) == 15  # duplicate-free


def test_iter_canonical_pi_agrees():
    for word, pi in iter_canonical_pi(7):
        assert pi == compute_pi(word)


def test_enumerate_valid_pi_small():
    assert enumerate_valid_pi(1) == {(0,)}
    assert enumerate_valid_pi(2) == {(0, 0), (0, 1)}
    assert enumerate_valid_pi(3) == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 2)}
    assert (0, 1, 1) not in enumerate_valid_pi(3)


def test_enumerate_valid_pi_cap():
    with pytest.raises(LengthTooLarge):
        enumerate_valid_pi(15)


def test_min_alphabet_examples():
    assert min_alphabet_bruteforce(list(range(8))) == 1  # unary word
    assert min_alphabet_bruteforce([0, 0, 0, 0]) == 2
    assert min_alphabet_bruteforce([0, 1, 1]) is None
    assert min_alphabet_bruteforce([0]) == 1
    assert min_alphabet_bruteforce([]) == 0  # the empty word


def test_min_alphabet_none_iff_invalid():
    for n in range(1, 8):
        valid = enumerate_valid_pi(n)
        for s in local_streams(n):
            got = min_alphabet_bruteforce(list(s))
            assert (got is None) == (s not in valid)


def test_valid_sets_strict_subset_of_shapes():
    from borderval.border_core import is_border_array_shaped

    for n in (3, 5, 7):
        valid = enumerate_valid_pi(n)
        assert all(is_border_array_shaped(a) for a in valid)
        shaped = set(local_streams(n))
        assert valid < shaped  # strictly fewer valid arrays than shapes


def _words_by_pi(n):
    """Every canonical word of length n from the unpruned walk, by its pi."""
    out = {}
    for word, pi in iter_canonical_pi(n):
        out.setdefault(tuple(pi), []).append(word)
    return out


def test_min_alphabet_is_least_max_symbol_of_unpruned_words():
    for n in range(1, 9):
        for a, words in _words_by_pi(n).items():
            assert min_alphabet_bruteforce(a) == min(max(w) for w in words), a


def test_target_walk_yields_exactly_the_matching_words():
    for n in range(1, 8):
        by_pi = _words_by_pi(n)
        for a in local_streams(n):  # invalid shapes must yield no word
            got = list(iter_canonical_pi(n, target=a))
            assert [w for w, _ in got] == by_pi.get(a, []), a
            assert all(tuple(pi) == a for _, pi in got)


def test_pi_prime_prefix_witnesses():
    assert enumerate_pi_prime_prefix_witnesses(0) == {()}
    assert enumerate_pi_prime_prefix_witnesses(1) == {(-1,), (0,)}
    w2 = enumerate_pi_prime_prefix_witnesses(2)
    assert (-1, -1) in w2


def test_alphabet_bound_small():
    # minimal alphabet never exceeds floor(log2 n) + 2 (checked exhaustively)
    assert max_min_alphabet(0) == 0  # the empty word
    for n in (2, 4, 8, 10):
        bound = int(math.log2(n)) + 2
        assert max_min_alphabet(n) <= bound


@pytest.mark.slow
def test_alphabet_bound_to_cap():
    observed = {}
    for n in (11, 12, 13, 14):
        got = max_min_alphabet(n)
        bound = int(math.log2(n)) + 2
        observed[n] = (got, bound)
        assert got <= bound, observed
    print("observed max minimal alphabets:", observed)
