import pytest


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


def validator_state(v):
    """Everything an OnlineValidator reports about its accepted stream."""
    return v.witness(), v.max_alphabet, v.candidates_for_next(), v.stats()


@pytest.fixture
def fig_word():
    from borderval.border_core import text_to_word

    return text_to_word("aabaabaaabaac")
