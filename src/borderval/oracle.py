"""Exhaustive ground truth by brute force.

Enumerates canonical words (restricted-growth strings, one representative per
symbol-renaming class), the exact sets of valid border arrays and of valid
strict-border-array prefixes, and minimal alphabet sizes.  Every answer comes
from one walk over canonical words, ``iter_canonical_pi``.  Everything is
capped: these are oracles for tests, not production paths.
"""

from __future__ import annotations

from .border_core import pi_to_pi_prime

__all__ = [
    "LengthTooLarge",
    "MAX_PI_LENGTH",
    "MAX_PP_PREFIX",
    "canonical_words",
    "iter_canonical_pi",
    "enumerate_valid_pi",
    "min_alphabet_bruteforce",
    "enumerate_pi_prime_prefix_witnesses",
    "max_min_alphabet",
]

MAX_PI_LENGTH = 14
MAX_PP_PREFIX = 12


class LengthTooLarge(ValueError):
    """Hard cap exceeded; brute force would blow up."""


def _check_cap(name: str, n: int, cap: int) -> None:
    if n > cap:
        raise LengthTooLarge(f"{name}={n} exceeds cap {cap}")


def iter_canonical_pi(length: int, max_alpha: int | None = None, target=None):
    """Yield (word, pi) for every canonical word of ``length`` symbols.

    ``max_alpha`` bounds the number of distinct symbols (None = no bound, so
    up to ``length`` of them).  Canonical means restricted growth: a symbol
    may exceed the running maximum by at most one.  The border array is
    extended incrementally along the enumeration tree.  Given a ``target``
    array of ``length`` values, a prefix whose border array leaves it is not
    extended, so only the words with pi == target are yielded.
    """
    if max_alpha is None:
        max_alpha = length
    if length == 0:
        yield (), []
        return
    if max_alpha < 1 or (target is not None and target[0] != 0):
        return

    word, pi = [1], [0]

    def rec(used: int):
        i = len(word)
        last = i + 1 == length  # leaves are yielded here, not from a generator each
        for s in range(1, min(used + 1, max_alpha) + 1):
            k = pi[-1]
            while k > 0 and word[k] != s:
                k = pi[k - 1]
            if word[k] == s:
                k += 1
            if target is not None and k != target[i]:
                continue
            word.append(s)
            pi.append(k)
            if last:
                yield tuple(word), list(pi)
            else:
                yield from rec(max(used, s))
            pi.pop()
            word.pop()

    if length == 1:
        yield tuple(word), list(pi)
    else:
        yield from rec(1)


def canonical_words(length: int, max_alpha: int | None = None):
    """Yield every canonical word of ``length`` symbols, as iter_canonical_pi."""
    return (word for word, _ in iter_canonical_pi(length, max_alpha))


def _alpha_cap(n: int) -> int:
    # Up to length 10 enumeration is unbounded (exact by construction).
    # Beyond that the minimal-alphabet bound floor(log2 n)+2 is used as a
    # sizing assumption, with one symbol of margin; test_alphabet_bound_to_cap
    # checks that max_min_alphabet stays below the margin.
    if n <= 10:
        return n
    return min(n, (n.bit_length() - 1) + 3)


def enumerate_valid_pi(n: int) -> set[tuple[int, ...]]:
    """The exact set {pi_w : w canonical word of length n}."""
    _check_cap("n", n, MAX_PI_LENGTH)
    return {tuple(pi) for _, pi in iter_canonical_pi(n, _alpha_cap(n))}


def min_alphabet_bruteforce(values) -> int | None:
    """Minimum distinct-symbol count over words w with pi_w == ``values``
    (None when no word has it): the smallest k in 0, 1, 2, ... for which the
    walk pruned to ``values`` yields a word over at most k symbols."""
    a = tuple(values)
    _check_cap("n", len(a), MAX_PI_LENGTH)
    for k in range(len(a) + 1):
        for _ in iter_canonical_pi(len(a), k, a):
            return k
    return None


def enumerate_pi_prime_prefix_witnesses(k: int) -> set[tuple[int, ...]]:
    """The exact set {pi_prime_w[1..k] : w canonical word of length k+1}.

    Strict values at positions i < k+1 depend on the following symbol, hence
    witnesses one symbol longer than the prefix.
    """
    _check_cap("k", k, MAX_PP_PREFIX)
    walk = iter_canonical_pi(k + 1, _alpha_cap(k + 1))
    return {tuple(pi_to_pi_prime(pi)[:k]) for _, pi in walk}


def max_min_alphabet(n: int) -> int:
    """Largest minimal alphabet over all valid border arrays of length n.

    One pass over canonical words: for each border array keep the smallest
    distinct-symbol count seen.
    """
    _check_cap("n", n, MAX_PI_LENGTH)
    if n == 0:
        return 0  # the empty word has no symbols
    best: dict[tuple[int, ...], int] = {}
    for word, pi in iter_canonical_pi(n, _alpha_cap(n)):
        key = tuple(pi)
        sigma = max(word)
        if best.get(key, 10**9) > sigma:
            best[key] = sigma
    return max(best.values())
