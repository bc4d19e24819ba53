"""Online index over an integer stream for self-overlap queries.

The one query the strict-array validator needs: after m appended symbols, is
stream[p+l..m] equal to stream[p..m-l]?  (Equivalently: does stream[p..m]
have period l.)

Implementation: Karp-Rabin prefix fingerprints (Karp and Rabin, "Efficient
randomized pattern-matching algorithms", IBM J. Res. Dev. 1987) modulo the
prime 2^61 - 1.  h[k] is the fingerprint of stream[1..k], and any segment's
fingerprint follows from two of them.  The base is fixed, so counted ops
are deterministic.  A query compares the two segments' fingerprints:

* If they differ, so do the segments: the answer is False in one op.
* If they are equal, the segments are compared symbol by symbol with early
  exit, one op per symbol compared.

Every answer is therefore exact.  A fingerprint collision (equal
fingerprints of different segments) costs the comparison's time, never
correctness.

``append`` counts one op; ``stats()`` reports the total and the costliest
query.
"""

from __future__ import annotations

from array import array

__all__ = ["OnlineSuffixIndex"]

_MOD = (1 << 61) - 1
_BASE = 1_000_003


class OnlineSuffixIndex:
    def __init__(self):
        self._s: list[int] = []
        self._h = array("q", [0])  # _h[k] = fingerprint of stream[1..k]
        self._ops_total = 0
        self._query_ops_max = 0

    @property
    def size(self) -> int:
        return len(self._s)

    def append(self, symbol: int) -> None:
        """Extend the index by one symbol; one op."""
        self._s.append(symbol)
        self._h.append((self._h[-1] * _BASE + symbol) % _MOD)
        self._ops_total += 1

    def is_suffix_prefix_of_suffix(self, p: int, l: int, m: int) -> bool:
        """True iff stream[p+l..m] == stream[p..m-l] (1-based, inclusive).

        Requires the index to cover exactly positions 1..m.
        """
        if m != len(self._s):
            raise ValueError(f"index covers 1..{len(self._s)}, query expects 1..{m}")
        if p < 1 or l < 0 or p + l > m + 1:
            raise ValueError(f"query out of range: p={p} l={l} m={m}")
        ops = 1
        result = True  # also for an empty comparison
        if l and p + l <= m:
            h = self._h
            shift = pow(_BASE, m - l - p + 1, _MOD)
            if (h[m] - h[m - l] - (h[p + l - 1] - h[p - 1]) * shift) % _MOD:
                result = False
            else:
                s = self._s
                i = p + l - 1
                j = p - 1
                while i < m:
                    ops += 1
                    if s[i] != s[j]:
                        result = False
                        break
                    i += 1
                    j += 1
        self._ops_total += ops
        if ops > self._query_ops_max:
            self._query_ops_max = ops
        return result

    def stats(self) -> dict[str, int]:
        """Counted appends and query comparisons, and the costliest query
        apart."""
        return {"total_ops": self._ops_total, "query_ops_max": self._query_ops_max}

    def naive_query(self, p: int, l: int, m: int) -> bool:
        """Direct definition, for cross-checking."""
        if l == 0 or p + l > m:
            return True
        s = self._s
        return s[p + l - 1 : m] == s[p - 1 : m - l]
