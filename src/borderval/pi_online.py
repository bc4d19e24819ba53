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
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Verdict", "PushAfterFailure", "StateInvalid", "WitnessTracker", "OnlineValidator"]


class PushAfterFailure(RuntimeError):
    """The stream already failed; no further values may be pushed."""


class StateInvalid(RuntimeError):
    """Witness or report requested from a failed validator."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a single push: valid-so-far or invalid at a 1-based position."""

    valid: bool
    position: int | None = None  # set when invalid
    max_alphabet: int = 0
    letter: int | None = None  # witness letter assigned to this position

    def __bool__(self) -> bool:
        return self.valid


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
    """Streaming border-array validator; linear memory, O(min(n, sigma)) delay."""

    def __init__(self, debug: bool = False, instrument: bool = False):
        super().__init__()
        self._a: list[int] = []
        self._stored: list[tuple[int, ...]] = []  # positive candidates per position
        self.debug = debug
        self.instrument = instrument
        self.ops_total = 0
        self.ops_push_max = 0

    def candidates_for_next(self) -> tuple[int, ...]:
        """Valid values for the next position, 0 included, sorted ascending."""
        if self.failed_at is not None:
            raise StateInvalid("validator already failed")
        return (0,) + self._next_stored(self._a[-1] + 1 if self._a else 0)

    # -- core ---------------------------------------------------------------

    def _next_stored(self, f: int) -> tuple[int, ...]:
        """Stored candidate set (positive values only) for the next position,
        whose father is f; empty at position 1 (f = 0)."""
        if not f:
            return ()
        base = self._stored[f - 1]
        af = self._a[f - 1]
        if af > 0:
            merged = tuple(v for v in base if v != af and v < f) + (f,)
        else:
            merged = tuple(v for v in base if v < f) + (f,)
        return merged

    def push(self, a: int) -> Verdict:
        if self.failed_at is not None:
            raise PushAfterFailure(f"stream failed at {self.failed_at}")
        p = len(self._a) + 1
        f = self._a[-1] + 1 if self._a else 0
        if a < 0 or a > f:
            return self._fail(p)
        stored = self._next_stored(f)
        if a and a not in stored:
            return self._fail(p)
        letter, alph = self._next_letter(a, f)
        self._a.append(a)
        self._stored.append(stored)
        self._letter.append(letter)
        self._alph.append(alph)
        if self.debug:
            assert len(stored) <= self.max_alphabet + 1, (
                "candidate set exceeded alphabet bound",
                p,
                stored,
            )
        self._note_ops(1 + len(stored))
        return Verdict(True, max_alphabet=self.max_alphabet, letter=letter)

    def _note_ops(self, ops: int) -> None:
        if self.instrument:
            self.ops_total += ops
            if ops > self.ops_push_max:
                self.ops_push_max = ops

    # -- outputs ------------------------------------------------------------

    def footprint_bits(self, word_bits: int = 64) -> int:
        """Declared-layout memory: one machine word for each of the value,
        father, letter and path-alphabet fields plus one per candidate entry."""
        entries = sum(len(s) for s in self._stored)
        return word_bits * (4 * len(self._a) + entries)
