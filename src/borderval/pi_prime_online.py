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
supplies witness letters, the minimal alphabet, and the descending candidate
list for each new slope head.  A fresh slope head whose candidate reaches 0
is fed immediately: 0 is final, any later conflict rejects the stream.

The engine is online, not real-time: the O(n log n) bound on counted work
(acceptance criterion C9) holds for the stream in total, not per push.  A
push that ends a slope commits the whole run to the embedded validator in
that one call.  On the Fibonacci word's strict array (n = 39,737), the push
at position 28,655 commits 10,946 values and takes 30-60 ms, while the
median push takes 3-5 us (a 2-vCPU Xeon, cyclic GC off).
"""

from __future__ import annotations

from collections import deque

from .pi_online import OnlineValidator, PushAfterFailure, StateInvalid, Verdict
from .suffix_structure import OnlineSuffixIndex

__all__ = ["SlopeValidator", "validate_g_stream"]


class SlopeValidator:
    def __init__(self, debug: bool = False):
        self._pp: list[int] = []  # strict values read, 0-based storage
        self._committed: list[int] = []  # A[1..i-1]
        self._i = 1  # first position of the last slope
        self._cand = 0  # current A[i]; position 1 is pinned to 0
        self._cand_list: list[int] = [0]  # candidates at i, descending
        self._cand_idx = 0
        self._start_fed = True  # slope head already in the embedded validator
        self._emb = OnlineValidator()
        self._emb.push(0)  # A[1] = 0 is forced and final
        self._sfx = OnlineSuffixIndex()
        self._dom: deque[int] = deque()
        self._dom_ops = 0  # dominance-list inserts and removals
        self._ops_total = 0
        self.failed_at: int | None = None
        self.debug = debug

    # -- array views ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._pp)

    def _pp_at(self, j: int) -> int:
        """A'[j] with the empty-prefix sentinel A'[0] = -1."""
        return -1 if j == 0 else self._pp[j - 1]

    def _a_at(self, j: int) -> int:
        return self._committed[j - 1] if j < self._i else self._cand + (j - self._i)

    def recovered_pi(self) -> list[int]:
        """The maximal consistent border array, positions 1..n+1."""
        if self.failed_at is not None:
            raise StateInvalid("recovered array of a failed stream")
        n = len(self._pp)
        return [self._a_at(j) for j in range(1, n + 2)]

    @property
    def max_alphabet(self) -> int:
        """Minimal alphabet of the prefix fed to the embedded validator; 0
        before the first push, where its forced A[1] = 0 would read 1."""
        return self._emb.max_alphabet if self._pp else 0

    # -- helpers ---------------------------------------------------------------

    def _fail(self, pos: int) -> Verdict:
        self.failed_at = pos
        return Verdict(False, position=pos, max_alphabet=self._emb.max_alphabet)

    def _feed_embedded(self, value: int) -> None:
        verdict = self._emb.push(value)
        assert verdict.valid, "committed prefix rejected by the embedded validator"

    def _birth_slope(self, start: int) -> None:
        """Start a fresh slope at ``start``; candidate list from the embedded
        validator, all values below the slope-end successor, descending."""
        self._i = start
        entry = self._committed[-1] + 1
        cands = sorted((c for c in self._emb.candidates_for_next() if c < entry), reverse=True)
        self._cand_list = cands
        self._cand_idx = 0
        self._cand = cands[0]
        self._start_fed = False
        if self._cand == 0:
            self._feed_embedded(0)
            self._start_fed = True

    def _step_candidate(self) -> bool:
        """Move to the next smaller candidate; False when exhausted (below 0)."""
        if self._cand == 0:
            return False
        self._cand_idx += 1
        if self._cand_idx >= len(self._cand_list):
            return False
        self._cand = self._cand_list[self._cand_idx]
        if self._cand == 0 and not self._start_fed:
            self._feed_embedded(0)
            self._start_fed = True
        return True

    def _commit(self, j: int) -> None:
        """Freeze slope values on [i..j] and feed them to the embedded
        validator; the next slope starts at j+1."""
        ops = 0
        for m in range(self._i, j + 1):
            value = self._cand + (m - self._i)
            self._committed.append(value)
            if m == self._i and self._start_fed:
                continue
            self._feed_embedded(value)
            ops += 1
        self._ops_total += ops
        self._birth_slope(j + 1)

    # -- queries ---------------------------------------------------------------

    def height_query(self) -> int | None:
        """Smallest j in [i..n] with A'[j] >= A[j], or None.

        Answered from the dominance-list head alone; between pushes the
        accepted state never has a conflict, so this returns None — the
        interesting calls happen inside the adjustment loop (shadow-checked
        against a linear scan in debug mode)."""
        head = self._height_head()
        if head is not None and self._pp_at(head) >= self._a_at(head):
            return head
        return None

    def value_query(self) -> bool:
        """Does A'[i..n] equal A'[A[i]..A[i]+(n-i)] (with A'[0] = -1)?

        Reference semantics, evaluated directly; the push path answers the
        same question through the anchored decomposition."""
        i, c, n = self._i, self._cand, len(self._pp)
        return all(self._pp_at(i + t) == self._pp_at(c + t) for t in range(n - i + 1))

    def _dominates(self, jp: int, j: int) -> bool:
        return self._pp_at(jp) - self._pp_at(j) > jp - j

    def _height_head(self) -> int | None:
        """Head of the dominance list within [i..n]; testing it alone decides
        whether any j in [i..n] has A'[j] >= A[j]."""
        while self._dom and self._dom[0] < self._i:
            self._dom.popleft()
            self._dom_ops += 1
        head = self._dom[0] if self._dom else None
        if self.debug:
            lo = None
            for j in range(self._i, len(self._pp) + 1):
                if self._pp_at(j) >= self._a_at(j):
                    lo = j
                    break
            got = None
            if head is not None and self._pp_at(head) >= self._a_at(head):
                got = head
            if (lo is None) != (got is None):
                raise AssertionError(f"height query disagrees with scan: {lo} vs {got}")
            if lo is not None and got is not None:
                # on equality the head must be the minimal conflict
                if self._pp_at(got) == self._a_at(got) and lo != got:
                    raise AssertionError(f"height head {got} is not minimal ({lo})")
        return head

    def _value_query(self, c: int, n: int, q: int) -> bool:
        """A'[i..n] == A'[c..c+(n-i)], decomposed against the arrival anchor q."""
        i = self._i
        if i > n:
            return True
        ops = 2
        length = n - i
        l = q - c
        assert l >= 0, "candidate above the arrival-start value"
        result = True
        if l >= length:
            for t in range(length + 1):
                ops += 1
                if self._pp_at(i + t) != self._pp_at(c + t):
                    result = False
                    break
        else:
            for t in range(l):
                ops += 1
                if self._pp_at(i + t) != self._pp_at(c + t):
                    result = False
                    break
            if result and self._pp_at(n) != self._pp_at(c + length):
                result = False
            if result and l > 0:
                sfx = self._sfx
                for value in self._pp[sfx.size : n - 1]:  # catch up from the stored stream
                    sfx.append(value)
                result = sfx.is_suffix_prefix_of_suffix(i, l, n - 1)
        if self.debug:
            naive = all(self._pp_at(i + t) == self._pp_at(c + t) for t in range(length + 1))
            if naive != result:
                raise AssertionError(
                    f"value query decomposition wrong: i={i} c={c} n={n} q={q}"
                )
        self._ops_total += ops
        return result

    # -- the push ---------------------------------------------------------------

    def push(self, a_prime: int) -> Verdict:
        if self.failed_at is not None:
            raise PushAfterFailure(f"stream failed at {self.failed_at}")
        if a_prime < -1:
            return self._fail(len(self._pp) + 1)
        self._pp.append(a_prime)
        n = len(self._pp)
        self._ops_total += 1

        if a_prime > self._a_at(n):
            return self._fail(n)

        # dominance list: drop newly dominated tail entries, then insert n
        while self._dom and self._dominates(n, self._dom[-1]):
            self._dom.pop()
            self._dom_ops += 1
        self._dom.append(n)
        self._dom_ops += 1

        # arrival anchor: value the start-of-arrival slope assigns to the
        # current slope head (adjustments only ever go below it)
        anchor_i, anchor_c = self._i, self._cand

        while True:
            head = self._height_head()
            if head is not None and self._pp_at(head) >= self._a_at(head):
                if self._pp_at(head) > self._a_at(head):
                    return self._fail(n)
                j = head
                ok = True
                for t in range(j - self._i):
                    if self._pp_at(self._i + t) != self._pp_at(self._cand + t):
                        ok = False
                        break
                self._ops_total += j - self._i
                if not ok:
                    return self._fail(n)
                self._commit(j)
                continue  # the fresh slope may end immediately: height first
            q = anchor_c + (self._i - anchor_i)
            if self._value_query(self._cand, n, q):
                break
            if not self._step_candidate():
                return self._fail(n)

        return Verdict(True, max_alphabet=self._emb.max_alphabet)

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


def validate_g_stream(values, debug: bool = False):
    """Validate a stream under the shifted convention g[i] = A'[i-1] + 1.

    The first value must be 0 (the empty prefix has strict value -1); each
    later g[k] is fed as A'[k-1] = g[k] - 1.  Returns (verdict, validator);
    positions in the verdict use g's indexing.
    """
    pp = SlopeValidator(debug=debug)
    for k, g in enumerate(values, start=1):
        if k == 1:
            if g != 0:
                return Verdict(False, position=1), pp
            continue
        verdict = pp.push(g - 1)
        if not verdict.valid:
            return Verdict(False, position=k, max_alphabet=verdict.max_alphabet), pp
    return Verdict(True, max_alphabet=pp.max_alphabet), pp
