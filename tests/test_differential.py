"""Differential property test: every border-array engine gives the same
verdict on the same stream, push by push.

Streams are valid border arrays of a few hundred values (sampled arrays,
arrays of random words and of periodic words with a few letters changed),
then up to three values are replaced.  Lazy copying runs with budgets 2
and 8; a budget of 1 can miss a copy deadline, which is asserted and
pinned in tests/test_pi_succinct.py.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from borderval.border_core import compute_pi
from borderval.families import random_valid_pi, random_word
from borderval.pi_online import OnlineValidator
from borderval.pi_realtime import RealTimeValidator
from borderval.pi_succinct import SuccinctValidator

ENGINES = {  # compared against OnlineValidator (basic)
    "realtime": lambda n: RealTimeValidator(n_max=n),
    "succinct": lambda n: SuccinctValidator(n_max=n),
    "succinct_lazy_2": lambda n: SuccinctValidator(n_max=n, lazy=True, beta=2),
    "succinct_lazy_8": lambda n: SuccinctValidator(n_max=n, lazy=True, beta=8),
}


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
    for name, make in ENGINES.items():
        engine = make(len(stream))
        assert run(engine, stream) == expected, name
        if accepted:
            if isinstance(engine, SuccinctValidator):
                engine.finish()  # drains lazy copies; a no-op when eager
            assert engine.witness() == basic.witness(), name
