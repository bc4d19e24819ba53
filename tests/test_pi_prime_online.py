import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderval.border_core import compute_pi, pi_to_pi_prime
from borderval.families import fibonacci_word, long_query_word, random_valid_pi, random_valid_pi_prime, random_word
from borderval.oracle import enumerate_pi_prime_prefix_witnesses, iter_canonical_pi
from borderval.pi_online import OnlineValidator, PushAfterFailure
from borderval.pi_prime_online import SlopeValidator, validate_g_stream

from conftest import drive

FIG_PI = [0, 1, 0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 0]
FIG_PP = [-1, 1, -1, -1, 1, -1, -1, 5, 1, -1, -1, 5, 0]


def run(stream, debug=True):
    v = SlopeValidator(debug=debug)
    for x in stream:
        r = v.push(x)
        if not r.valid:
            return r.position, v
    return None, v


def test_two_minus_ones_recover_unary():
    pos, v = run([-1, -1])
    assert pos is None
    assert v.recovered_pi() == [0, 1, 2]


def test_first_value_one_rejected():
    pos, _ = run([1])
    assert pos == 1
    assert enumerate_pi_prime_prefix_witnesses(1) == {(-1,), (0,)}


def test_fig_stream_recovers_fig_pi():
    pos, v = run(FIG_PP)
    assert pos is None
    rec = v.recovered_pi()
    assert rec[: len(FIG_PP)] == FIG_PI
    assert pi_to_pi_prime(rec)[: len(FIG_PP)] == FIG_PP
    assert v.max_alphabet == 3


def test_push_after_failure():
    v = SlopeValidator()
    assert not v.push(5).valid
    with pytest.raises(PushAfterFailure):
        v.push(-1)


@pytest.mark.parametrize("k", range(1, 8))
def test_exactness(k):
    witnesses = {j: enumerate_pi_prime_prefix_witnesses(j) for j in range(1, k + 1)}

    def dfs(prefix):
        j = len(prefix)
        if j:
            pos, v = run(prefix)
            ok = pos is None
            assert ok == (tuple(prefix) in witnesses[j]), (prefix, pos)
            if not ok:
                return
        if j == k:
            return
        for x in range(-1, j + 1):
            dfs(prefix + [x])

    dfs([])


@pytest.mark.parametrize("k", range(1, 7))
def test_invariants_and_maximality(k):
    by_prefix = {}
    for _, pi in iter_canonical_pi(k + 1):
        by_prefix.setdefault(tuple(pi_to_pi_prime(pi)[:k]), []).append(pi)
    for prefix, pis in by_prefix.items():
        pos, v = run(list(prefix))
        assert pos is None
        rec = v.recovered_pi()
        # I1: a valid border array
        assert drive(OnlineValidator(), rec) is None
        # I2: strict values reproduce the input
        assert pi_to_pi_prime(rec)[:k] == list(prefix)
        # I3: pointwise above every witness
        for pw in pis:
            assert all(rec[t] >= pw[t] for t in range(k + 1)), (prefix, rec, pw)


def test_public_queries_on_settled_states():
    v = SlopeValidator()
    for x in FIG_PP:
        assert v.push(x).valid
        # a settled state has its slope strictly above the strict values
        assert v.height_query() is None
        assert v.value_query() is True


def test_committed_prefix_never_changes():
    stream = random_valid_pi_prime(400, seed=21)
    v = SlopeValidator(debug=True)
    snapshots = []
    for x in stream:
        assert v.push(x).valid
        committed = list(v._committed)
        snapshots.append(committed)
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert later[: len(earlier)] == earlier


def test_dominance_budget():
    stream = random_valid_pi_prime(3000, seed=5)
    v = SlopeValidator()
    for x in stream:
        assert v.push(x).valid
    assert v.stats()["dominance_ops"] <= 2 * len(stream)


def test_random_streams_with_shadow_oracles():
    for seed in range(25):
        stream = random_valid_pi_prime(150, seed=seed)
        pos, v = run(stream, debug=True)  # debug = height/value shadow checks
        assert pos is None
        rec = v.recovered_pi()
        assert pi_to_pi_prime(rec)[: len(stream)] == stream


def test_g_validation():
    verdict, _ = validate_g_stream([0, 0, 3])
    assert not verdict.valid and verdict.position == 3
    verdict, v = validate_g_stream([0, 0, 0, 3])
    assert verdict.valid
    assert v.recovered_pi()[:3] == [0, 1, 2]
    verdict, _ = validate_g_stream([1])
    assert not verdict.valid and verdict.position == 1
    verdict, _ = validate_g_stream([])
    assert verdict.valid


def test_g_matches_shifted_enumeration():
    # valid g prefixes = 0 followed by shifted strict prefixes
    for k in range(1, 6):
        witnesses = enumerate_pi_prime_prefix_witnesses(k)
        shifted = {(0,) + tuple(x + 1 for x in w) for w in witnesses}

        def dfs(prefix):
            j = len(prefix)
            if j:
                verdict, _ = validate_g_stream(prefix)
                want = j == 1 and prefix == [0] or tuple(prefix) in {
                    s[: j] for s in shifted
                }
                assert verdict.valid == want, prefix
                if not verdict.valid:
                    return
            if j == k + 1:
                return
            for x in range(0, j + 1):
                dfs(prefix + [x])

        dfs([])


# -- the suffix index is built on demand -------------------------------------------

INDEX_SEEDS = (6, 14, 39)  # random_valid_pi_prime(300, seed) makes l > 0 value queries


def _push_counting_index(stream):
    """Push with shadow checks; the index never holds more than was pushed."""
    v = SlopeValidator(debug=True)
    for pushed, x in enumerate(stream, start=1):
        verdict = v.push(x)
        assert v.stats()["indexed"] <= pushed
        if not verdict.valid:
            break
    return v


def test_fibonacci_stream_builds_no_index():
    pi = compute_pi(fibonacci_word(3001))
    v = SlopeValidator()
    assert drive(v, pi_to_pi_prime(pi)[:3000]) is None
    assert v.stats()["indexed"] == 0


@pytest.mark.parametrize("seed", INDEX_SEEDS)
def test_index_caught_up_on_demand(seed):
    base = random_valid_pi_prime(300, seed)
    v = _push_counting_index(base)
    assert v.failed_at is None
    assert v.stats()["query_ops_max"] > 0
    queried = 0
    for p in range(1, len(base) + 1, 7):
        for x in {-1, 0, base[p - 1] + 1} - {base[p - 1]}:
            mutated = base[: p - 1] + [x] + base[p:]
            queried += _push_counting_index(mutated).stats()["query_ops_max"] > 0
    assert queried > 0


@pytest.mark.parametrize("k", (3, 8, 32, 512))
def test_long_query_word_reaches_the_index(k):
    word = long_query_word(k)
    pi = compute_pi(word)
    v = SlopeValidator(debug=True)
    assert drive(v, pi_to_pi_prime(pi)) is None
    stats = v.stats()
    assert stats["indexed"] > 0
    # one query with l = 2 and a True answer: one op plus 2k - 3 compared symbols
    assert stats["query_ops_max"] == 2 * k - 2
    assert v.recovered_pi()[: len(word)] == pi

    near_miss = (1, 2) * k + (1, 3) + (1, 2) * k + (2,)
    v = SlopeValidator(debug=True)
    assert drive(v, pi_to_pi_prime(compute_pi(near_miss))) is None
    assert v.stats()["indexed"] == 0


# -- property test: recovery round trip and the g convention -----------------------


@st.composite
def mutated_pi_prime_streams(draw):
    """pi' of a valid array (sampled, biased or of a random word), n 100-500,
    with up to three values replaced; returns (stream, unmutated)."""
    n = draw(st.integers(min_value=100, max_value=500))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    source = draw(st.sampled_from(["sampled", "biased", "word"]))
    if source == "sampled":
        pi = random_valid_pi(n + 1, seed)
    elif source == "biased":
        pi = random_valid_pi(n + 1, seed, unary_bias=0.7)
    else:
        pi = compute_pi(random_word(n + 1, draw(st.integers(min_value=2, max_value=3)), seed))
    base = pi_to_pi_prime(pi)[:n]
    stream = list(base)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=1, max_value=n - 1))
        # near the old value, any in-range value, one seen elsewhere, or -2
        near = draw(st.sampled_from([base[i] - 1, base[i] + 1, -1, 0]))
        anywhere = draw(st.integers(min_value=-1, max_value=i))
        elsewhere = base[draw(st.integers(min_value=0, max_value=n - 1))]
        stream[i] = draw(st.sampled_from([near, near, anywhere, elsewhere, -2]))
    return stream, stream == base


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_pi_prime_streams())
def test_recovery_round_trip_and_g_convention(case):
    stream, unmutated = case
    v = SlopeValidator()
    for x in stream:
        verdict = v.push(x)
        if not verdict.valid:
            break
    assert verdict.valid or not unmutated
    if verdict.valid:
        rec = v.recovered_pi()
        assert drive(OnlineValidator(), rec) is None
        assert pi_to_pi_prime(rec)[: len(stream)] == stream
    g_verdict, _ = validate_g_stream([0] + [x + 1 for x in stream])
    position = None if verdict.valid else verdict.position + 1
    assert (g_verdict.valid, g_verdict.position, g_verdict.max_alphabet) == (
        verdict.valid,
        position,
        verdict.max_alphabet,
    )
