import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderval.border_core import (
    InvalidBorderArray,
    compute_pi,
    is_canonical,
    naive_pi,
    naive_pi_prime,
    pi_prime_to_pi,
    pi_to_pi_prime,
    text_to_word,
    word_to_text,
)

FIG_PI = [0, 1, 0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 0]
FIG_PP = [-1, 1, -1, -1, 1, -1, -1, 5, 1, -1, -1, 5, 0]

words = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=40).map(tuple)


def test_codec_roundtrip():
    assert text_to_word("abca") == (1, 2, 3, 1)
    assert word_to_text((1, 2, 3, 1)) == "abca"
    with pytest.raises(ValueError):
        text_to_word("a1b")


def test_canonical():
    assert is_canonical((1, 1, 2, 1, 3))
    assert not is_canonical((2, 1))


def test_compute_pi_examples(fig_word):
    assert compute_pi(fig_word) == FIG_PI
    assert compute_pi(text_to_word("abc")) == [0, 0, 0]
    assert compute_pi(text_to_word("aaa")) == [0, 1, 2]


def test_naive_pi_examples(fig_word):
    assert naive_pi(text_to_word("aaa")) == [0, 1, 2]
    assert naive_pi(text_to_word("abab")) == [0, 0, 1, 2]
    assert naive_pi(fig_word) == compute_pi(fig_word)


@settings(max_examples=300)
@given(words)
def test_compute_pi_matches_naive(w):
    assert compute_pi(w) == naive_pi(w)


def test_pi_to_pi_prime_examples():
    assert pi_to_pi_prime([0, 1, 2]) == [-1, -1, 2]
    assert pi_to_pi_prime(FIG_PI) == FIG_PP
    assert pi_to_pi_prime([0]) == [0]
    with pytest.raises(InvalidBorderArray):
        pi_to_pi_prime([1])
    with pytest.raises(InvalidBorderArray):
        pi_to_pi_prime([0, 2])


def test_pi_prime_to_pi_examples():
    assert pi_prime_to_pi([-1, -1, 2]) == [0, 1, 2]
    assert pi_prime_to_pi([0]) == [0]
    assert pi_prime_to_pi(FIG_PP) == FIG_PI


def test_naive_pi_prime_examples(fig_word):
    assert naive_pi_prime(text_to_word("aaa")) == [-1, -1, 2]
    assert naive_pi_prime(text_to_word("a")) == [0]
    # the empty border qualifies at position 1 of "ab": w[1] != w[2]
    assert naive_pi_prime(text_to_word("ab")) == [0, 0]
    assert naive_pi_prime(fig_word) == FIG_PP


@settings(max_examples=300)
@given(words)
def test_bijection_roundtrip(w):
    pi = compute_pi(w)
    pp = pi_to_pi_prime(pi)
    assert pp == naive_pi_prime(w)
    assert pi_prime_to_pi(pp) == pi


@given(words)
def test_border_array_shape(w):
    pi = compute_pi(w)
    assert pi[0] == 0
    assert all(0 <= pi[i] <= i for i in range(len(pi)))
    assert all(pi[i + 1] <= pi[i] + 1 for i in range(len(pi) - 1))
