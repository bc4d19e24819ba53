"""Differential property tests: every border-array engine gives the same
verdict on the same stream, push by push; and on every engine one
``push_many`` call, ``push_many`` over chunks and one ``push`` per value
leave the same verdict, counters and witness or recovered array.

Streams are valid border arrays of a few hundred values (sampled arrays,
arrays of random words and of periodic words with a few letters changed),
then up to three values are replaced.  Lazy copying runs with budgets 2
and 8; a budget of 1 can miss a copy deadline, which is asserted and
pinned in tests/test_pi_succinct.py.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderval.border_core import compute_pi, pi_to_pi_prime
from borderval.cli import ENGINES
from borderval.families import fibonacci_word, long_query_word, random_valid_pi, random_word
from borderval.pi_online import OnlineValidator, PushAfterFailure, Verdict
from borderval.pi_prime_online import SlopeValidator
from borderval.pi_succinct import SuccinctValidator

from conftest import ReferenceSlopeValidator
from test_pi_prime_online import mutated_pi_prime_streams

# every engine configuration, and lazy copying with a budget of 2 besides its default 8
LAZY_2 = {"succinct_lazy_2": lambda n: SuccinctValidator(n_max=n, lazy=True, beta=2)}
ALL_ENGINES = {name: e.make for name, e in ENGINES.items()} | LAZY_2
PI_ENGINES = {name: e.make for name, e in ENGINES.items() if "pi" in e.kinds} | LAZY_2


@st.composite
def mutated_streams(draw):
    n = draw(st.integers(min_value=100, max_value=500))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    source = draw(st.sampled_from(["sampled", "biased", "word", "periodic", "periodic"]))
    if source == "sampled":
        arr = random_valid_pi(n, seed)
    elif source == "biased":
        arr = random_valid_pi(n, seed, unary_bias=0.7)
    elif source == "word":
        arr = compute_pi(random_word(n, draw(st.integers(min_value=2, max_value=3)), seed))
    else:  # a random period repeated, a few letters changed: long border chains
        period = random_word(draw(st.integers(min_value=1, max_value=30)), 2, seed)
        word = [period[i % len(period)] for i in range(n)]
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            word[draw(st.integers(min_value=0, max_value=n - 1))] = draw(st.integers(min_value=1, max_value=3))
        arr = compute_pi(word)
    base = list(arr)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=1, max_value=n - 1))
        # one past a border of the unmutated prefix (a candidate, valid or
        # not), any value in 0..A[i-1]+1, or a value out of range
        chain, k = [0], base[i - 1]
        while k > 0:
            chain.append(k)
            k = base[k - 1]
        border = draw(st.sampled_from(chain))
        local = draw(st.integers(min_value=0, max_value=arr[i - 1] + 1))
        arr[i] = draw(st.sampled_from([border + 1, border + 1, local, local, -1, arr[i - 1] + 2]))
    return arr


def run(engine, stream):
    """Verdicts up to and including the first rejection."""
    verdicts = []
    for a in stream:
        verdicts.append(engine.push(a))
        if not verdicts[-1].valid:
            break
    return verdicts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_streams())
def test_engines_agree(stream):
    basic = OnlineValidator()
    expected = run(basic, stream)
    accepted = expected[-1].valid
    if accepted:
        assert compute_pi(basic.witness()) == stream
    for name, make in PI_ENGINES.items():
        engine = make(len(stream))
        assert run(engine, stream) == expected, name
        if accepted:
            if isinstance(engine, SuccinctValidator):
                engine.finish()  # drains lazy copies; a no-op when eager
            assert engine.witness() == basic.witness(), name


# -- push_many against push ---------------------------------------------------------

def push_one_by_one(engine, stream):
    for a in stream:
        verdict = engine.push(a)
        if not verdict.valid:
            break
    return verdict


def push_in_chunks(engine, stream, cuts):
    """One ``push_many`` call per chunk, up to the first rejecting chunk."""
    bounds = [0, *cuts, len(stream)]
    for lo, hi in zip(bounds, bounds[1:]):
        verdict = engine.push_many(stream[lo:hi])
        if not verdict.valid:
            break
    return verdict


def report(engine, verdict):
    """Everything an engine reports once its stream ended or failed."""
    if not verdict.valid:
        result = None
    elif isinstance(engine, SlopeValidator):
        result = engine.recovered_pi()
    else:
        result = engine.witness()
    return verdict, engine.failed_at, engine.stats(), result


def check_push_many_matches_push(make, stream, cuts):
    one_by_one = make()
    expected = report(one_by_one, push_one_by_one(one_by_one, stream))
    whole = make()
    assert report(whole, whole.push_many(stream)) == expected
    chunked = make()
    assert report(chunked, push_in_chunks(chunked, stream, cuts)) == expected


def chunk_cuts(data, stream):
    cut = st.integers(min_value=1, max_value=len(stream) - 1)
    return sorted(data.draw(st.lists(cut, max_size=8, unique=True)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutated_streams(), st.data())
def test_push_many_matches_push(stream, data):
    cuts = chunk_cuts(data, stream)
    for make in PI_ENGINES.values():
        check_push_many_matches_push(lambda: make(len(stream)), stream, cuts)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutated_pi_prime_streams(), st.data())
def test_slope_push_many_matches_push(case, data):
    stream, _ = case
    check_push_many_matches_push(SlopeValidator, stream, chunk_cuts(data, stream))


# -- the slope engine against its reference ------------------------------------------


def slope_report(make, stream):
    """Verdict, failure position, alphabet and, on a valid stream, the
    recovered array after one ``push_many`` call."""
    engine = make()
    verdict = engine.push_many(stream)
    return verdict, engine.failed_at, engine.max_alphabet, engine.recovered_pi() if verdict.valid else None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutated_pi_prime_streams())
def test_slope_matches_reference(case):
    stream, _ = case
    assert slope_report(SlopeValidator, stream) == slope_report(ReferenceSlopeValidator, stream)


@pytest.mark.parametrize(
    "word",
    [fibonacci_word(2001), long_query_word(3), long_query_word(32), long_query_word(512)],
    ids=["fibonacci", "long_query_3", "long_query_32", "long_query_512"],
)
def test_slope_matches_reference_on_words(word):
    stream = pi_to_pi_prime(compute_pi(word))[:2000]
    assert slope_report(SlopeValidator, stream) == slope_report(ReferenceSlopeValidator, stream)


@pytest.mark.parametrize("name", ALL_ENGINES)
def test_push_many_contract(name):
    make = ALL_ENGINES[name]
    assert make(16).push_many([]) == Verdict(True, max_alphabet=0)
    engine = make(16)
    failed = engine.push_many([0, 5, 0])
    assert not failed.valid and failed.position == engine.failed_at
    for values in ([], [0]):
        with pytest.raises(PushAfterFailure):
            engine.push_many(values)
