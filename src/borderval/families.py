"""Deterministic input families for tests and benchmarks.

Words (Fibonacci, Thue-Morse, random, and w_k, whose strict array makes
one long suffix-index query), border-array streams (unary, random valid),
strict streams derived from them, and the adversarial read-once pairs whose
two members agree on a long prefix yet only one is a valid border array.
"""

from __future__ import annotations

import random

from .border_core import compute_pi, pi_to_pi_prime
from .pi_online import OnlineValidator

__all__ = [
    "unary_pi",
    "fibonacci_word",
    "thue_morse_word",
    "random_word",
    "long_query_word",
    "random_valid_pi",
    "random_valid_pi_prime",
    "lowerbound_pair",
]


def unary_pi(n: int) -> list[int]:
    """Border array of a single-letter word: 0, 1, ..., n-1."""
    return list(range(n))


def fibonacci_word(n: int) -> tuple[int, ...]:
    """Prefix of the Fibonacci word over symbols 1, 2 (1 -> 12, 2 -> 1)."""
    w = [1]
    while len(w) < n:
        w = [s for x in w for s in ((1, 2) if x == 1 else (1,))]
    return tuple(w[:n])


def thue_morse_word(n: int) -> tuple[int, ...]:
    """Prefix of the Thue-Morse word over symbols 1, 2."""
    return tuple(1 + (i.bit_count() & 1) for i in range(n))


def random_word(n: int, sigma: int, seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(rng.randint(1, sigma) for _ in range(n))


def long_query_word(k: int) -> tuple[int, ...]:
    """w_k = (ab)^k a c b (ab)^k b with a, b, c = 1, 2, 3; length 4k + 4.

    Its strict array makes the slope engine build its suffix index and ask
    one value query with l = 2 and a True answer whose cost, 2k - 2 ops,
    grows linearly in the length.  The near miss (ab)^k a c (ab)^k b never
    reaches the index.
    """
    return (1, 2) * k + (1, 3, 2) + (1, 2) * k + (2,)


def random_valid_pi(n: int, seed: int, unary_bias: float = 0.0) -> list[int]:
    """A valid border array sampled by walking the live candidate set.

    Each step picks uniformly among the currently valid values; with
    probability ``unary_bias`` the slope-continuing value A[i-1]+1 is forced
    instead (stressing long runs).  The distribution is an engineering
    choice, not ground truth.
    """
    rng = random.Random(seed)
    v = OnlineValidator()
    out: list[int] = []
    for _ in range(n):
        cands = v.candidates_for_next()
        if out and unary_bias and rng.random() < unary_bias:
            choice = out[-1] + 1
        else:
            choice = rng.choice(cands)
        out.append(choice)
        assert v.push(choice).valid
    return out


def random_valid_pi_prime(n: int, seed: int, unary_bias: float = 0.0) -> list[int]:
    """A valid strict-array prefix of length n (from a border array one
    longer: strict values below the top depend on the following one)."""
    pi = random_valid_pi(n + 1, seed, unary_bias)
    return pi_to_pi_prime(pi)[:n]


def lowerbound_pair(n: int, seed: int) -> tuple[list[int], list[int], int]:
    """Two streams of length n agreeing except at one early position; exactly
    one is a valid border array and any read-once validator must keep enough
    state to tell them apart.

    Construction: a random valid prefix of length h-1 is extended with the
    two extreme candidates at h (0, and the always-valid A[h-1]+1), then both
    are continued with the run 0, 1, ..., h followed by the probe value
    pi2[h]+1 and zero padding.  The run re-enters the prefix's candidate
    structure, so the probe is valid after the larger branch and invalid
    after the smaller one; the probe sits at position 2h+2.

    Returns (valid_stream, invalid_stream, first_invalid_position).
    """
    if n < 6:
        raise ValueError("need n >= 6 for a nondegenerate pair")
    h = (n - 2) // 2
    base = random_valid_pi(h - 1, seed)
    v1 = 0
    v2 = base[-1] + 1
    pi1 = base + [v1]
    pi2 = base + [v2]
    tail = list(range(0, h + 1)) + [pi2[h - 1] + 1]
    pad = [0] * (n - len(pi1) - len(tail))
    valid = pi2 + tail + pad
    invalid = pi1 + tail + pad
    probe_pos = 2 * h + 2
    return valid, invalid, probe_pos
