"""Border arrays, strict border arrays, and the bijection between them.

A *border* of a word is a proper prefix that is also a suffix.  The border
array ``pi`` of a word stores, for every prefix length i, the length of the
longest border of that prefix.  The strict border array ``pi_prime`` stores
the longest border whose following symbol differs from the next symbol of the
word (-1 if none), except at the last position where it equals ``pi``.

Conventions used throughout the package:

* words are tuples of symbols 1..sigma (integers); a word is *canonical* when
  symbols first appear in the order 1, 2, 3, ...;
* arrays are Python lists stored 0-based, but all documented semantics,
  reported positions and error messages are 1-based;
* the -1 sentinel of strict border arrays is kept as is.

Everything here is pure and deliberately simple: these functions are the
ground truth the online validators are tested against.  ``naive_pi`` and
``naive_pi_prime`` work straight from the definition and must never be
"optimised" into the very algorithms they check.
"""

from __future__ import annotations

__all__ = [
    "InvalidBorderArray",
    "text_to_word",
    "word_to_text",
    "is_canonical",
    "compute_pi",
    "naive_pi",
    "naive_pi_prime",
    "check_border_array",
    "is_border_array_shaped",
    "pi_to_pi_prime",
    "pi_prime_to_pi",
]


class InvalidBorderArray(ValueError):
    """Raised when an integer sequence violates the border-array invariants."""


# ---------------------------------------------------------------------------
# words and the text codec


def text_to_word(text: str) -> tuple[int, ...]:
    """Map ASCII letters to integer symbols: 'a' -> 1, 'b' -> 2, ...

    Case-insensitive; only letters are accepted.
    """
    out = []
    for ch in text:
        if not ch.isascii() or not ch.isalpha():
            raise ValueError(f"not a letter: {ch!r}")
        out.append(ord(ch.lower()) - ord("a") + 1)
    return tuple(out)


def word_to_text(word: tuple[int, ...]) -> str:
    """Inverse of :func:`text_to_word`; needs symbols within 1..26."""
    if any(s < 1 or s > 26 for s in word):
        raise ValueError("symbol out of ASCII letter range")
    return "".join(chr(ord("a") + s - 1) for s in word)


def is_canonical(word: tuple[int, ...]) -> bool:
    """True when each symbol's first occurrence is 1, 2, 3, ... in order."""
    seen = 0
    for s in word:
        if s < 1 or s > seen + 1:
            return False
        if s == seen + 1:
            seen += 1
    return True


# ---------------------------------------------------------------------------
# reference computations


def compute_pi(word) -> list[int]:
    """Longest-border array of ``word`` by the classic linear scan."""
    n = len(word)
    pi = [0] * n
    k = 0
    for i in range(1, n):
        while k > 0 and word[k] != word[i]:
            k = pi[k - 1]
        if word[k] == word[i]:
            k += 1
        pi[i] = k
    return pi


def _border_lengths_desc(word, i: int):
    """All proper border lengths of word[:i], longest first, by definition."""
    for b in range(i - 1, -1, -1):
        if word[:b] == word[i - b : i]:
            yield b


def naive_pi(word) -> list[int]:
    """Definition-level oracle: per prefix, the longest border by direct
    comparison.  Cubic in the worst case; only ever used on short words and
    in tests."""
    w = tuple(word)
    return [next(_border_lengths_desc(w, i)) for i in range(1, len(w) + 1)]


def naive_pi_prime(word) -> list[int]:
    """Definition-level oracle for the strict border array.

    For i < n: the longest proper border b of word[:i] with
    word[b] != word[i] (0-based), or -1.  At i = n it equals naive_pi.
    """
    w = tuple(word)
    n = len(w)
    out = []
    for i in range(1, n + 1):
        if i == n:
            out.append(next(_border_lengths_desc(w, i)))
            continue
        strict = -1
        for b in _border_lengths_desc(w, i):
            if w[b] != w[i]:
                strict = b
                break
        out.append(strict)
    return out


# ---------------------------------------------------------------------------
# invariants


def is_border_array_shaped(values) -> bool:
    """Local necessary conditions: A[1] = 0, 0 <= A[i] < i, A[i+1] <= A[i]+1."""
    prev = None
    for idx, a in enumerate(values):
        if a < 0 or a >= idx + 1:
            return False
        if idx == 0 and a != 0:
            return False
        if prev is not None and a > prev + 1:
            return False
        prev = a
    return True


def check_border_array(values) -> None:
    """Raise :class:`InvalidBorderArray` unless the local invariants hold."""
    if not is_border_array_shaped(values):
        raise InvalidBorderArray(f"not a border array: {list(values)!r}")


# ---------------------------------------------------------------------------
# the bijection


def pi_to_pi_prime(pi) -> list[int]:
    """Strict border array of any word whose border array is ``pi``.

    Right-hand rule per position i < n: when pi[i+1] = pi[i]+1 the strict
    value is inherited from position pi[i] (with the implicit -1 at the empty
    prefix), otherwise it equals pi[i].  The last position copies pi.
    """
    check_border_array(pi)
    n = len(pi)
    if n == 0:
        return []
    pp = [0] * n
    pp[n - 1] = pi[n - 1]
    for i in range(n - 1):  # positions 1..n-1, 0-based i
        if pi[i + 1] == pi[i] + 1:
            pp[i] = pp[pi[i] - 1] if pi[i] >= 1 else -1
        else:
            pp[i] = pi[i]
    return pp


def pi_prime_to_pi(pp) -> list[int]:
    """Inverse transformation, right to left: pi[i] = max(pp[i], pi[i+1]-1).

    Garbage in, garbage out: validation of strict border arrays is the online
    validator's job, not this function's.
    """
    n = len(pp)
    if n == 0:
        return []
    pi = [0] * n
    pi[n - 1] = pp[n - 1]
    for i in range(n - 2, -1, -1):
        pi[i] = max(pp[i], pi[i + 1] - 1)
    return pi
