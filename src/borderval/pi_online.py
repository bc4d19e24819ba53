"""Online border-array validation with explicit candidate sets.

One value is pushed at a time; the validator accepts or rejects immediately,
maintains a witness word over a minimal alphabet, and exposes the live
candidate set (the strict-array validator builds on that).

The candidate bookkeeping: each accepted position p stores the sorted tuple

    stored[p] = (stored[f] - {A[f]}) | {f},      f = A[p-1] + 1

and a pushed value a is accepted iff a == 0 or a is in stored[p].  The set
inherited at p is stored unconditionally, also when a == 0; storing an empty
set at fresh-letter positions (as a literal reading of the recurrence would
do) rejects valid arrays, e.g. [0, 0, 1, 1] with witness "abaa".

Every engine in the package (this one, ``RealTimeValidator``,
``SuccinctValidator`` and ``SlopeValidator``) speaks one protocol:

* ``push_many(values)`` pushes the values in order and stops at the first
  rejection.  It returns that rejection's ``Verdict``, or one valid
  ``Verdict`` for the whole call, carrying the current ``max_alphabet``.
  No per-value ``Verdict`` is built; the witness letters are read from
  ``witness()``.
* ``push(a)`` is ``push_many((a,))``: the same code path, one value.
* Either raises ``PushAfterFailure`` once the stream has failed.

``OnlineValidator.push_slope(head, count, stored)`` is the strict engine's
commit of one slope: its head, then a run of values each equal to its
father, accepted without building verdicts.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Verdict", "PushAfterFailure", "StateInvalid", "WitnessTracker", "OnlineValidator"]


class PushAfterFailure(RuntimeError):
    """The stream already failed; no further values may be pushed."""


class StateInvalid(RuntimeError):
    """Witness or report requested from a failed validator."""


class Verdict(NamedTuple):
    """Outcome of a push: valid-so-far or invalid at a 1-based position."""

    valid: bool
    position: int | None = None  # set when invalid
    max_alphabet: int = 0


class WitnessTracker:
    """Failure, alphabet and witness bookkeeping shared by the border-array
    engines.

    All of them build the same minimal-alphabet witness word and differ only
    in how they test a pushed value.  Each engine appends the letter and
    path alphabet returned by ``_next_letter`` to ``_letter`` and ``_alph``
    itself, one entry per accepted position.
    """

    def __init__(self):
        self._letter: list[int] = []
        self._alph: list[int] = []  # distinct letters on the root path
        self.max_alphabet = 0
        self.failed_at: int | None = None

    @property
    def n(self) -> int:
        return len(self._letter)

    def _fail(self, pos: int) -> Verdict:
        self.failed_at = pos
        return Verdict(False, position=pos, max_alphabet=self.max_alphabet)

    def _next_letter(self, a: int, f: int) -> tuple[int, int]:
        """Letter and path alphabet of an accepted value ``a`` whose father
        is ``f`` (0 at position 1): a fresh letter one past the father's
        path alphabet when a == 0, else the letter at position a."""
        if a:
            return self._letter[a - 1], self._alph[f - 1]
        alph = self._alph[f - 1] + 1 if f else 1
        if alph > self.max_alphabet:
            self.max_alphabet = alph
        return alph, alph

    def witness(self) -> tuple[int, ...]:
        """A canonical word whose border array equals the accepted stream,
        over exactly ``max_alphabet`` distinct symbols."""
        if self.failed_at is not None:
            raise StateInvalid("witness of a failed stream")
        return tuple(self._letter)


class OnlineValidator(WitnessTracker):
    """Streaming border-array validator; linear memory, O(min(n, sigma)) delay.

    ``push_many`` and ``push`` follow the engine protocol of this module's
    docstring.  ``push_slope(head, count, stored)`` appends a slope head and
    the run head+1, ..., head+count after it in one call.  The head is 0 or
    in its stored set, and each run value equals its father, so every value
    is valid: the call builds no verdicts and leaves the same state as
    pushing its values one by one.
    """

    def __init__(self):
        super().__init__()
        self._a: list[int] = []
        self._stored: list[tuple[int, ...]] = []  # positive candidates per position

    def candidates_for_next(self) -> tuple[int, ...]:
        """Valid values for the next position, 0 included, sorted ascending."""
        if self.failed_at is not None:
            raise StateInvalid("validator already failed")
        return (0,) + self._next_stored(self._a[-1] + 1 if self._a else 0)

    # -- core ---------------------------------------------------------------

    def _next_stored(self, f: int) -> tuple[int, ...]:
        """Stored candidate set (positive values only) for the next position,
        whose father is f; empty at position 1 (f = 0).  Every entry of
        stored[f] is at most f's own father, so below f, and f is appended
        last: the tuple stays sorted.  An accepted A[f] > 0 is in stored[f]
        (a run value ends its own set), so it is spliced out by index."""
        if not f:
            return ()
        base = self._stored[f - 1]
        af = self._a[f - 1]
        if af > 0:
            i = base.index(af)
            return base[:i] + base[i + 1 :] + (f,)
        return base + (f,)

    def push(self, a: int) -> Verdict:
        return self.push_many((a,))

    def push_many(self, values) -> Verdict:
        if self.failed_at is not None:
            raise PushAfterFailure(f"stream failed at {self.failed_at}")
        a_list, stored_list, letters, alphs = self._a, self._stored, self._letter, self._alph
        next_stored, next_letter = self._next_stored, self._next_letter
        f = a_list[-1] + 1 if a_list else 0
        for a in values:
            if a < 0 or a > f:
                return self._fail(len(a_list) + 1)
            stored = next_stored(f)
            if a and a not in stored:
                return self._fail(len(a_list) + 1)
            letter, alph = next_letter(a, f)
            a_list.append(a)
            stored_list.append(stored)
            letters.append(letter)
            alphs.append(alph)
            f = a + 1
        return Verdict(True, None, self.max_alphabet)

    def push_slope(self, head: int, count: int, stored: tuple[int, ...] | None = None) -> None:
        """Accept a slope the strict engine committed: ``head`` at the next
        position, with ``stored`` its stored set as ``_next_stored`` gives
        it, then the ``count`` values head+1, head+2, ..., each equal to its
        father f, so each has letter ``letter[f-1]`` and path alphabet
        ``alph[f-1]``.  Without ``stored`` the head is already the last
        accepted value and only the run is appended."""
        if self.failed_at is not None:
            raise PushAfterFailure(f"stream failed at {self.failed_at}")
        a, stored_list, letter, alph = self._a, self._stored, self._letter, self._alph
        if stored is None:
            if not a or a[-1] != head:
                raise ValueError(f"a run must start one above the last value, got {head + 1}")
        else:
            if head and head not in stored:
                raise ValueError(f"slope head {head} is neither 0 nor in its stored set {stored}")
            f = a[-1] + 1 if a else 0
            head_letter, head_alph = self._next_letter(head, f)
            a.append(head)
            stored_list.append(stored)
            letter.append(head_letter)
            alph.append(head_alph)
        next_stored = self._next_stored
        for f in range(head + 1, head + 1 + count):
            stored_list.append(next_stored(f))  # reads positions below f only
            a.append(f)  # the stored tuple holds this same int object
            letter.append(letter[f - 1])
            alph.append(alph[f - 1])

    # -- outputs ------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Counted work and declared memory.  An accepted push costs one op
        plus one per stored candidate, so both op counts follow from the
        stored sets.  ``memory_bits`` is one 64-bit word for each of the
        value, father, letter and path-alphabet fields plus one per
        candidate entry."""
        ops = [1 + len(s) for s in self._stored]
        return {
            "max_delay_ops": max(ops, default=0),
            "total_ops": sum(ops),
            "memory_bits": 64 * (3 * len(ops) + sum(ops)),
        }
