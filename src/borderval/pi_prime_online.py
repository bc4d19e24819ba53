"""Online strict-border-array validation.

The validator maintains the pointwise-largest border array A consistent with
the strict values read so far: a committed prefix A[1..i-1] that never
changes again, plus a final slope A[i+t] = cand + t kept implicitly.  Each
arrival may trigger adjustments:

* height query: the smallest j in [i..n] with A'[j] >= A[j].  Strictly above
  is a contradiction (reject); equality ends a slope there, commits its
  values and starts a fresh slope at j+1.
* value query: does A'[i..n] equal A'[cand..cand+(n-i)] (with A'[0] = -1 for
  the 0 candidate)?  On failure the candidate steps down to the next valid
  border-array candidate at i; below 0 the input is rejected.

The height query is answered from the head of a dominance list (j' dominates
j when A'[j'] - A'[j] > j' - j > 0; dominated positions can never end a
slope), maintained as a monotone queue: every position enters once and
leaves at most once.

The value query is decomposed against the arrival-start state.  Let q be the
value the start-of-arrival slope assigned to the current slope head i (every
adjustment only lowers values, so the tested candidate c <= q and the
equality A'[i..n-1] = A'[q..q+(n-1-i)] is inherited).  With l = q - c:
positions before l are compared directly, position n directly, and the
middle reduces to "is A'[i+l..n-1] a prefix of A'[i..n-1]", answered by the
online suffix index: one op for a False answer, and one op plus one per
compared symbol for a True one.  The compared length is not bounded by l:
on the strict array of w_k = (ab)^k a c b (ab)^k b the one query has l = 2
and compares 2k - 3 symbols.  Only this l > 0 branch reads the index, and
on most streams it never runs, so the index is built on demand: the first
such query appends the stored values A'[1..n-1] and later ones append what
arrived since.  An append costs one op however the symbols are batched, and
streams that never reach the index pay none.

Committed values are fed to an embedded candidate-set validator, which
supplies witness letters and the minimal alphabet.  A new slope head's
stored set is computed once, when the slope starts; its candidates are that
tuple read backwards, then 0.  A head whose candidate reaches 0 is fed
immediately: 0 is final, any later conflict rejects the stream.

The engine is online, not real-time: the O(n log n) bound on counted work
(acceptance criterion C9) holds for the stream in total, not per push.  A
push that ends a slope commits it to the embedded validator in one
``push_slope`` call: the head with its stored set, unless it is already fed,
and the run after it, each value of which equals its father.  On the
Fibonacci word's strict array (n = 39,737), the push at position 28,655
commits 10,946 values and takes 7-11 ms, while the median push takes
2.7-3.5 us (a shared 2-vCPU Xeon, Python 3.11, cyclic GC off; five runs,
each push timed on its own).
"""

from __future__ import annotations

from collections import deque

from .pi_online import OnlineValidator, PushAfterFailure, StateInvalid, Verdict
from .suffix_structure import OnlineSuffixIndex

__all__ = ["SlopeValidator", "validate_g_stream"]


class SlopeValidator:
    def __init__(self):
        self._pp: list[int] = [-1]  # A'[j] at index j; A'[0] = -1 is the empty prefix
        self._i = 1  # first position of the last slope
        self._cand = 0  # current A[i]; position 1 is pinned to 0
        # stored set of the slope head i; its candidates, descending, are
        # _head_stored[_cand_idx] for _cand_idx = len - 2, ..., 0 and then 0
        self._head_stored: tuple[int, ...] = ()
        self._cand_idx = -1
        self._emb = OnlineValidator()  # holds A[1..i-1], and A[i] once it is 0
        self._emb.push(0)  # A[1] = 0 is forced and final
        self._sfx = OnlineSuffixIndex()
        self._dom: deque[int] = deque()
        self._dom_ops = 0  # dominance-list inserts and removals
        self._ops_total = 0
        self.failed_at: int | None = None

    # -- array views ---------------------------------------------------------

    def recovered_pi(self) -> list[int]:
        """The maximal consistent border array, positions 1..n+1."""
        if self.failed_at is not None:
            raise StateInvalid("recovered array of a failed stream")
        i, c = self._i, self._cand
        return self._emb._a[: i - 1] + list(range(c, c + len(self._pp) + 1 - i))

    @property
    def max_alphabet(self) -> int:
        """Minimal alphabet of the prefix fed to the embedded validator; 0
        before the first push, where its forced A[1] = 0 would read 1."""
        return self._emb.max_alphabet if len(self._pp) > 1 else 0

    def _fail(self, pos: int) -> Verdict:
        self.failed_at = pos
        return Verdict(False, position=pos, max_alphabet=self._emb.max_alphabet)

    # -- queries ---------------------------------------------------------------

    def height_query(self) -> int | None:
        """Smallest j in [i..n] with A'[j] >= A[j], or None.

        Reference semantics, a linear scan; the push path answers the same
        question from the dominance-list head alone.  Between pushes the
        accepted state never has a conflict, so this returns None."""
        pp, i, c = self._pp, self._i, self._cand
        return next((j for j in range(i, len(pp)) if pp[j] >= c + (j - i)), None)

    def value_query(self) -> bool:
        """Does A'[i..n] equal A'[A[i]..A[i]+(n-i)] (with A'[0] = -1)?

        Reference semantics, evaluated directly; the push path answers the
        same question through the anchored decomposition."""
        pp, i, c = self._pp, self._i, self._cand
        return pp[i:] == pp[c : c + len(pp) - i]

    # -- the push ---------------------------------------------------------------

    def push(self, a_prime: int) -> Verdict:
        return self.push_many((a_prime,))

    def push_many(self, values) -> Verdict:
        """One loop for every push.  The slope state lives in locals and is
        written back once, when the call returns or fails."""
        if self.failed_at is not None:
            raise PushAfterFailure(f"stream failed at {self.failed_at}")
        pp, dom, emb = self._pp, self._dom, self._emb
        next_stored, push_slope = emb._next_stored, emb.push_slope
        i, cand, stored, k = self._i, self._cand, self._head_stored, self._cand_idx
        ops, dom_ops = self._ops_total, self._dom_ops
        try:
            for a_prime in values:
                n = len(pp)
                if a_prime < -1:
                    return self._fail(n)
                pp.append(a_prime)
                ops += 1
                if a_prime > cand + (n - i):  # above the slope's value at n
                    return self._fail(n)

                # dominance list: drop newly dominated tail entries, then insert n
                while dom and a_prime - pp[dom[-1]] > n - dom[-1]:
                    dom.pop()
                    dom_ops += 1
                dom.append(n)
                dom_ops += 1

                # arrival anchor: the value the start-of-arrival slope assigns
                # to the current slope head i is anchor + i (adjustments only
                # ever go below it)
                anchor = cand - i

                while True:
                    # height query: the dominance-list head within [i..n] alone
                    # decides whether any j there has A'[j] >= A[j]
                    while dom and dom[0] < i:
                        dom.popleft()
                        dom_ops += 1
                    head = dom[0] if dom else None
                    excess = -1 if head is None else pp[head] - (cand + (head - i))
                    if excess >= 0:
                        if excess > 0:
                            return self._fail(n)
                        # equality ends the slope at head: commit A[i..head]
                        # = cand, cand+1, ... and start a fresh slope after it
                        count = head - i
                        ops += count
                        if pp[i:head] != pp[cand : cand + count]:
                            return self._fail(n)
                        if cand:
                            push_slope(cand, count, stored)
                            ops += 1 + count
                        elif count:  # a 0 head was fed when the slope reached it
                            push_slope(0, count)
                            ops += count
                        i = head + 1
                        stored = next_stored(cand + count + 1)
                        # stored ends with the father, not a candidate: the
                        # step below moves to the fresh slope's first one
                        k = len(stored) - 1
                    else:
                        # value query: A'[i..n] == A'[cand..cand+(n-i)], decomposed
                        # against the arrival anchor q = anchor + i
                        if i > n:
                            break
                        length = n - i
                        l = anchor + i - cand
                        assert l >= 0, "candidate above the arrival-start value"
                        ops += 2
                        if l >= length:
                            for t in range(length + 1):
                                ops += 1
                                if pp[i + t] != pp[cand + t]:
                                    matched = False
                                    break
                            else:
                                matched = True
                        else:
                            matched = True
                            for t in range(l):
                                ops += 1
                                if pp[i + t] != pp[cand + t]:
                                    matched = False
                                    break
                            if matched and pp[n] != pp[cand + length]:
                                matched = False
                            if matched and l > 0:
                                sfx = self._sfx
                                for value in pp[sfx.size + 1 : n]:  # catch up from the stored stream
                                    sfx.append(value)
                                matched = sfx.is_suffix_prefix_of_suffix(i, l, n - 1)
                        if matched:
                            break
                        if not cand:  # no smaller candidate: reject
                            return self._fail(n)

                    # step down to the next smaller candidate; the loop asks
                    # the height query first, as a fresh slope may end at once
                    k -= 1
                    cand = stored[k] if k >= 0 else 0
                    if not cand:  # 0 is final: feed it now
                        push_slope(0, 0, stored)

            return Verdict(True, None, emb.max_alphabet if len(pp) > 1 else 0)
        finally:
            self._i, self._cand, self._head_stored, self._cand_idx = i, cand, stored, k
            self._ops_total, self._dom_ops = ops, dom_ops

    # -- outputs ---------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Counted work: ``total_ops`` is this engine's own work plus the
        suffix index's (``query_ops_max`` and ``indexed`` report the index
        apart), ``embedded_ops`` the embedded validator's ``total_ops``, and
        ``dominance_ops`` the dominance-list inserts and removals."""
        sfx = self._sfx.stats()
        return {
            "total_ops": self._ops_total + sfx["total_ops"],
            "dominance_ops": self._dom_ops,
            "embedded_ops": self._emb.stats()["total_ops"],
            "query_ops_max": sfx["query_ops_max"],
            "indexed": self._sfx.size,
        }


def validate_g_stream(values):
    """Validate a stream under the shifted convention g[i] = A'[i-1] + 1.

    The first value must be 0 (the empty prefix has strict value -1); each
    later g[k] is fed as A'[k-1] = g[k] - 1.  Returns (verdict, validator);
    positions in the verdict use g's indexing.
    """
    pp = SlopeValidator()
    values = iter(values)
    if next(values, 0) != 0:  # an empty stream passes
        pp._fail(0)  # g[1] is A'[0]
        return Verdict(False, position=1), pp
    verdict = pp.push_many(g - 1 for g in values)
    if not verdict.valid:  # g[k] is A'[k-1]: shift the position by one
        verdict = verdict._replace(position=verdict.position + 1)
    return verdict, pp
