import gc
import tracemalloc

import pytest

from borderval.pi_online import OnlineValidator, PushAfterFailure, Verdict
from borderval.pi_prime_online import SlopeValidator


def local_streams(n):
    """All integer streams of length n with a1 = 0 and 0 <= ai <= a(i-1)+1
    (the locally consistent border-array shapes)."""

    def rec(pref):
        if len(pref) == n:
            yield tuple(pref)
            return
        hi = (pref[-1] + 1) if pref else 0
        for v in range(0, hi + 1):
            yield from rec(pref + [v])

    yield from rec([])


def drive(validator, stream):
    """Push values until rejection; returns the 1-based failure position or None."""
    for v in stream:
        verdict = validator.push(v)
        if not verdict.valid:
            return verdict.position
    return None


def heap_per_position(make, arr):
    """tracemalloc bytes held by a live engine after pushing arr, per value."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine = make()
        assert engine.push_many(arr).valid
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held / len(arr)


def validator_state(v):
    """Everything an OnlineValidator reports about its accepted stream."""
    return v.witness(), v.max_alphabet, v.candidates_for_next(), v.stats()


_push_slope = OnlineValidator.push_slope


def _checked_push_slope(self, head, count, stored=None):
    """``OnlineValidator.push_slope`` under its contract: a given stored set
    is the one ``_next_stored`` computes for the head's position, and no
    stored set of the slope exceeds the alphabet bound."""
    if stored is not None and self.failed_at is None:
        assert stored == self._next_stored(self._a[-1] + 1 if self._a else 0), "stored set of another position"
    _push_slope(self, head, count, stored)
    bound = self.max_alphabet + 1
    assert all(len(s) <= bound for s in self._stored[-(count + 1) :]), "candidate set exceeded alphabet bound"


@pytest.fixture(scope="module")
def checked_push_slope():
    """Every ``push_slope`` of the module's tests runs under its contract
    checks; module-scoped, so that property tests can use it too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OnlineValidator, "push_slope", _checked_push_slope)
        yield


class ReferenceSlopeValidator(SlopeValidator):
    """The slope engine's push as a plain loop: every height answer comes
    from ``height_query()`` and every value answer from ``value_query()``,
    with no dominance list, no anchored decomposition and no suffix index.
    Committed slopes reach the embedded validator through ``push_many``,
    not ``push_slope``.
    Verdicts, failure positions, alphabets and recovered arrays must equal
    ``SlopeValidator``'s; counters are not kept."""

    def __init__(self):
        super().__init__()
        self._cands: list[int] = []  # the slope head's untried candidates, ascending

    def push_many(self, values):
        if self.failed_at is not None:
            raise PushAfterFailure(f"stream failed at {self.failed_at}")
        pp, emb = self._pp, self._emb
        for a_prime in values:
            n = len(pp)
            if a_prime < -1:
                return self._fail(n)
            pp.append(a_prime)
            if a_prime > self._cand + (n - self._i):
                return self._fail(n)
            while True:
                i, cand = self._i, self._cand
                j = self.height_query()
                if j is not None:  # the slope ends at j: commit A[i..j], start after it
                    count = j - i
                    if pp[j] > cand + count or pp[i:j] != pp[cand : cand + count]:
                        return self._fail(n)
                    committed = emb.push_many(range(cand or 1, cand + count + 1))  # a 0 head is fed
                    assert committed.valid
                    self._i = j + 1
                    self._cands = list(emb.candidates_for_next()[:-1])  # the father is no candidate
                elif i > n or self.value_query():
                    break
                elif not self._cands:
                    return self._fail(n)
                self._cand = self._cands.pop()  # the largest untried candidate
                if self._cand == 0:  # 0 is final: feed it now
                    emb.push(0)
        return Verdict(True, None, self.max_alphabet)


@pytest.fixture
def fig_word():
    from borderval.border_core import text_to_word

    return text_to_word("aabaabaaabaac")
