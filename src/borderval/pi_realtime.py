"""Real-time border-array validation: constant word-work per value.

Instead of candidate sets this validator keeps, per position, the depth d in
the failure tree (father f[i] = A[i-1]+1), the depth d' in the strict failure
forest, and a bit vector indexed by d'-levels marking which levels carry a
valid candidate.  d' follows

    d'[1] = 1;  d'[i] = d'[f[i]] + (0 if A[i] == f[i] else 1)

which is the depth in the strict forest (the strict father is f[i] itself
unless A[i] == f[i], when it is inherited from f[i]).  Along any root path,
equal-d' nodes form consecutive blocks and at most one candidate lives per
level, so set operations become single bit flips.

A pushed value a with 0 < a < f is accepted iff three checks pass, in this
order (kept fixed so all engines report identical failure positions):

 1. ancestor: the level ancestor of the new node at depth d[a]+1 has father a;
 2. first in block: that node's d' differs from d'[a];
 3. the d'[a] bit is set in the inherited candidate vector.

a == 0 and a == f are accepted outright.  The inherited vector is the
father's with the d'[A[f]] bit cleared and the d'[f] bit set (in that order:
when both land on the same level the new candidate must survive), matching
the candidate-set recurrence; it is stored unconditionally, also at fresh
letters, for the same reason as in the basic validator.
"""

from __future__ import annotations

import math

from .level_ancestor import JumpPointerLA
from .pi_online import PushAfterFailure, Verdict, WitnessTracker

__all__ = ["RealTimeValidator"]


def dprime_width(n_max: int) -> int:
    """Bit-vector width: strict-forest depth is at most 3*log2(n)+3."""
    return int(3 * math.log2(max(2, n_max))) + 4


class RealTimeValidator(WitnessTracker):
    def __init__(self, n_max: int = 2**32, debug: bool = False):
        super().__init__()
        self.n_max = n_max
        self._width = dprime_width(n_max)
        self._a: list[int] = []
        self._d: list[int] = []
        self._dp: list[int] = []
        self._bits: list[int] = []  # candidate vector per position, d'-indexed
        self._la = JumpPointerLA()
        self.debug = debug
        # counted work of accepted pushes; the per-push maxima keep core
        # and level-ancestor ops apart
        self._ops_total = 0
        self._ops_push_max = 0
        self._la_ops_push_max = 0

    def push(self, a: int) -> Verdict:
        if self.failed_at is not None:
            raise PushAfterFailure(f"stream failed at {self.failed_at}")
        ops = 1
        la_start = self._la.ops
        p = len(self._a) + 1
        f = self._a[-1] + 1 if self._a else 0
        if a < 0 or a > f:
            return self._fail(p)
        # the leaf stays when a later check rejects: the validator is dead then
        self._la.add_leaf(f)
        if p == 1:
            d_p = dp_p = 1
            bits = 0
        else:
            d_p = self._d[f - 1] + 1
            # inherited candidate vector: clear the father's own value, add the father
            bits = self._bits[f - 1]
            af = self._a[f - 1]
            if af > 0:
                bits &= ~(1 << self._dp[af - 1])
            bits |= 1 << self._dp[f - 1]
            ops += 4

            if 0 < a < f:
                delta = d_p - self._d[a - 1] - 1
                ops += 3
                if delta < 1:
                    return self._fail(p)
                j = self._la.la(p, delta)
                if self.debug:
                    assert j == self._la.naive_la(p, delta), "level-ancestor mismatch"
                if self._la.parent(j) != a:
                    return self._fail(p)
                if self._dp[j - 1] == self._dp[a - 1]:
                    return self._fail(p)
                if not bits & (1 << self._dp[a - 1]):
                    return self._fail(p)

            dp_p = self._dp[f - 1] + (0 if a == f else 1)
            if dp_p >= self._width:
                raise AssertionError(f"d' {dp_p} exceeds declared width {self._width}")

        letter, alph = self._next_letter(a, f)
        self._a.append(a)
        self._d.append(d_p)
        self._dp.append(dp_p)
        self._bits.append(bits)
        self._letter.append(letter)
        self._alph.append(alph)
        la_ops = self._la.ops - la_start
        self._ops_total += ops + la_ops
        if ops > self._ops_push_max:
            self._ops_push_max = ops
        if la_ops > self._la_ops_push_max:
            self._la_ops_push_max = la_ops
        return Verdict(True, max_alphabet=self.max_alphabet, letter=letter)

    def stats(self) -> dict[str, int]:
        """Core ops per push (``max_delay_ops``, the constant-delay claim)
        and level-ancestor ops per push (``la_ops_max``) apart; their sum
        over the stream is ``total_ops``."""
        return {
            "max_delay_ops": self._ops_push_max,
            "la_ops_max": self._la_ops_push_max,
            "total_ops": self._ops_total,
        }

    def dprime_values(self) -> list[int]:
        return list(self._dp)
