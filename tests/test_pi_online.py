import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderval.border_core import compute_pi
from borderval.families import fibonacci_word, random_valid_pi
from borderval.oracle import enumerate_valid_pi, min_alphabet_bruteforce
from borderval.pi_online import OnlineValidator, PushAfterFailure, StateInvalid

from conftest import drive, local_streams, validator_state

# every push_slope below runs under its contract checks
pytestmark = pytest.mark.usefixtures("checked_push_slope")

FIG_PI = [0, 1, 0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 0]


def alphabet_bound_holds(v):
    """The candidate set offered next, 0 left out, has at most
    ``max_alphabet + 1`` entries."""
    return len(v.candidates_for_next()) - 1 <= v.max_alphabet + 1


def test_start_state():
    v = OnlineValidator()
    assert v.n == 0
    assert v.push(0).valid and v.witness()[-1] == 1
    assert v.push(0).valid and v.witness()[-1] == 2  # fresh letter at a second zero


def test_first_value_must_be_zero():
    v = OnlineValidator()
    r = v.push(1)
    assert not r.valid and r.position == 1
    with pytest.raises(PushAfterFailure):
        v.push(0)


def test_fig_array_accepted():
    v = OnlineValidator()
    for a in FIG_PI:
        assert v.push(a).valid
    assert v.max_alphabet == 3
    assert compute_pi(v.witness()) == FIG_PI


def test_zero_one_one_rejected_at_three():
    v = OnlineValidator()
    assert v.push(0).valid
    assert v.push(1).valid
    r = v.push(1)
    assert not r.valid and r.position == 3


def test_all_zero_needs_two_letters():
    v = OnlineValidator()
    for _ in range(6):
        assert v.push(0).valid
    assert v.max_alphabet == 2


def test_witness_examples():
    v = OnlineValidator()
    for a in (0, 1, 2):
        v.push(a)
    assert v.witness() == (1, 1, 1)
    v = OnlineValidator()
    for a in (0, 0, 0):
        v.push(a)
    assert v.witness() == (1, 2, 2)  # "abb"
    v.push(2)
    with pytest.raises(StateInvalid):
        v.witness()


def test_valid_array_with_zero_father_history():
    # [0,0,1,1] exercises inheritance through a fresh-letter node
    v = OnlineValidator()
    for a in (0, 0, 1, 1):
        assert v.push(a).valid
    assert compute_pi(v.witness()) == [0, 0, 1, 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_exactness(n):
    valid = enumerate_valid_pi(n)
    for s in local_streams(n):
        v = OnlineValidator()
        for pos, a in enumerate(s, start=1):
            if not v.push(a).valid:
                break
            assert alphabet_bound_holds(v), s
        else:
            pos = None
        assert (pos is None) == (s in valid), (s, pos)


@pytest.mark.parametrize("n", range(1, 9))
def test_witness_soundness(n):
    for s in enumerate_valid_pi(n):
        v = OnlineValidator()
        for a in s:
            assert v.push(a).valid
        w = v.witness()
        assert tuple(compute_pi(w)) == s
        assert v.max_alphabet == min_alphabet_bruteforce(list(s))


def test_prefix_closure():
    # every accepted prefix is itself accepted when replayed standalone
    import random

    rng = random.Random(5)
    for _ in range(50):
        v = OnlineValidator()
        stream = []
        for _ in range(30):
            c = rng.choice(v.candidates_for_next())
            stream.append(c)
            assert v.push(c).valid
        for cut in (5, 17, 30):
            assert drive(OnlineValidator(), stream[:cut]) is None


def test_candidate_sets_follow_inheritance():
    v = OnlineValidator()
    for a in (0, 1, 1):
        if v.failed_at is None:
            before = v.candidates_for_next()
            r = v.push(a)
            if not r.valid:
                assert a not in before


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=600),
    seed=st.integers(min_value=0, max_value=10**6),
    source=st.sampled_from(["sampled", "biased", "fibonacci"]),
)
def test_stored_candidates_lie_below_their_position(n, seed, source):
    # the set stored at position q holds q's candidates, each at most q's
    # father A[q-1] + 1 <= q - 1; so no entry of a stored set needs
    # filtering against the position that inherits it
    if source == "fibonacci":
        arr = compute_pi(fibonacci_word(n))
    else:
        arr = random_valid_pi(n, seed, unary_bias=0.7 if source == "biased" else 0.0)
    v = OnlineValidator()
    for q, a in enumerate(arr, start=1):
        father = arr[q - 2] + 1 if q > 1 else 0
        assert max(v.candidates_for_next()) <= father < q
        assert v.push(a).valid
        assert alphabet_bound_holds(v)


# -- the run commit ------------------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=10**6),
    bias=st.sampled_from([0.0, 0.5, 0.9]),
    run=st.integers(min_value=0, max_value=400),
    data=st.data(),
)
def test_push_slope_matches_single_pushes(n, seed, bias, run, data):
    prefix = random_valid_pi(n, seed, unary_bias=bias)
    one_by_one = OnlineValidator()
    assert drive(one_by_one, prefix) is None
    head = data.draw(st.sampled_from(one_by_one.candidates_for_next()))
    stored = one_by_one._next_stored(prefix[-1] + 1)
    assert drive(one_by_one, range(head, head + run + 1)) is None
    bulk = OnlineValidator()
    assert drive(bulk, prefix) is None
    bulk.push_slope(head, run, stored)
    assert validator_state(bulk) == validator_state(one_by_one)
    # later pushes and slopes continue from the same state; a head already
    # pushed takes its run without a stored set
    assert bulk.push(0) == one_by_one.push(0)
    bulk.push_slope(0, 5)
    assert drive(one_by_one, [1, 2, 3, 4, 5]) is None
    assert validator_state(bulk) == validator_state(one_by_one)


def test_push_slope_preconditions():
    v = OnlineValidator()
    with pytest.raises(ValueError):
        v.push_slope(0, 2)  # nothing pushed yet: no head to run from
    v.push_slope(0, 0, ())  # position 1 has an empty stored set
    with pytest.raises(ValueError):
        v.push_slope(1, 1)  # the last value is 0: a run starts at 1
    v.push_slope(0, 3)
    assert v.witness() == (1, 1, 1, 1)
    stored = v._next_stored(4)
    assert stored == (4,)
    with pytest.raises(ValueError):
        v.push_slope(2, 0, stored)  # neither 0 nor in its stored set
    assert v.n == 4  # a refused slope leaves the state as it was
    v.push_slope(4, 1, stored)
    assert v.witness() == (1,) * 6
    assert not v.push(7).valid
    with pytest.raises(PushAfterFailure):
        v.push_slope(0, 0, (1,))
