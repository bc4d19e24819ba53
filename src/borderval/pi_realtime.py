"""Real-time border-array validation: constant word-work per value.

Instead of candidate sets this validator keeps, per position, the depth d' in
the strict failure forest and a bit vector indexed by d'-levels marking which
levels carry a valid candidate.  The failure tree itself (father
f[i] = A[i-1]+1), with each node's depth d, is stored once, in the
level-ancestor structure: skew-binary jump pointers with O(1) add-leaf and
O(log n) queries, whose ops are counted apart from the core ops.  d' follows

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
    def __init__(self, n_max: int = 2**32):
        super().__init__()
        self.n_max = n_max
        self._width = dprime_width(n_max)
        self._a: list[int] = []
        self._dp: list[int] = []
        self._bits: list[int] = []  # candidate vector per position, d'-indexed
        self._la = JumpPointerLA()
        # counted work of accepted pushes; the per-push maxima keep core
        # and level-ancestor ops apart
        self._ops_total = 0
        self._ops_push_max = 0
        self._la_ops_push_max = 0

    def push(self, a: int) -> Verdict:
        return self.push_many((a,))

    def push_many(self, values) -> Verdict:
        if self.failed_at is not None:
            raise PushAfterFailure(f"stream failed at {self.failed_at}")
        a_list, dp_list, bits_list = self._a, self._dp, self._bits
        letters, alphs = self._letter, self._alph
        la = self._la
        add_leaf, la_query, parent, depth = la.add_leaf, la.la, la.parent, la.depth
        next_letter = self._next_letter
        width = self._width
        p = len(a_list)
        f = a_list[-1] + 1 if a_list else 0
        for a in values:
            p += 1
            if a < 0 or a > f:
                return self._fail(p)
            ops = 1
            la_start = la.ops
            # the leaf stays when a later check rejects: the validator is dead then
            add_leaf(f)
            if p == 1:
                dp_p = 1
                bits = 0
            else:
                # inherited candidate vector: clear the father's own value, add the father
                bits = bits_list[f - 1]
                af = a_list[f - 1]
                if af > 0:
                    bits &= ~(1 << dp_list[af - 1])
                bits |= 1 << dp_list[f - 1]
                ops += 4

                if 0 < a < f:
                    delta = depth(f) - depth(a)
                    ops += 3
                    if delta < 1:
                        return self._fail(p)
                    j = la_query(p, delta)
                    dp_a = dp_list[a - 1]
                    if parent(j) != a or dp_list[j - 1] == dp_a or not bits & (1 << dp_a):
                        return self._fail(p)

                dp_p = dp_list[f - 1] + (0 if a == f else 1)
                if dp_p >= width:
                    raise AssertionError(f"d' {dp_p} exceeds declared width {width}")

            letter, alph = next_letter(a, f)
            a_list.append(a)
            dp_list.append(dp_p)
            bits_list.append(bits)
            letters.append(letter)
            alphs.append(alph)
            la_ops = la.ops - la_start
            self._ops_total += ops + la_ops
            if ops > self._ops_push_max:
                self._ops_push_max = ops
            if la_ops > self._la_ops_push_max:
                self._la_ops_push_max = la_ops
            f = a + 1
        return Verdict(True, None, self.max_alphabet)

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
