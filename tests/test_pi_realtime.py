import random

import pytest

from borderval.border_core import pi_to_pi_prime
from borderval.families import random_valid_pi
from borderval.level_ancestor import JumpPointerLA
from borderval.oracle import enumerate_valid_pi
from borderval.pi_online import OnlineValidator
from borderval.pi_realtime import RealTimeValidator

from conftest import drive, local_streams

FIG_PI = [0, 1, 0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 0]


def test_unary_family_accepted():
    v = RealTimeValidator(n_max=1024)
    for a in range(200):
        assert v.push(a).valid


def test_matches_basic_on_examples():
    for stream in ([0, 1, 1], FIG_PI, [0, 0, 1, 1], [0, 1, 0, 2]):
        p1 = drive(OnlineValidator(), stream)
        p2 = drive(RealTimeValidator(n_max=64), stream)
        assert p1 == p2, stream


def test_fig_letters_match_basic(fig_word):
    b, r = OnlineValidator(), RealTimeValidator(n_max=64)
    for a in FIG_PI:
        b.push(a)
        r.push(a)
    assert b.witness() == r.witness()
    assert r.max_alphabet == 3


_la = JumpPointerLA.la


def _checked_la(self, node, delta):
    """``JumpPointerLA.la``, checked against the father-chain walk."""
    j = _la(self, node, delta)
    assert j == self.naive_la(node, delta), ("level-ancestor mismatch", node, delta)
    return j


@pytest.mark.parametrize("n", range(1, 9))
def test_exhaustive_equivalence(n, monkeypatch):
    monkeypatch.setattr(JumpPointerLA, "la", _checked_la)
    valid = enumerate_valid_pi(n)
    for s in local_streams(n):
        p1 = drive(OnlineValidator(), s)
        p2 = drive(RealTimeValidator(n_max=32), s)
        assert p1 == p2, s
        assert (p1 is None) == (s in valid)


def test_random_valid_and_mutated():
    rng = random.Random(17)
    for rep in range(200):
        arr = random_valid_pi(rng.randint(1, 120), seed=rep)
        assert drive(RealTimeValidator(n_max=256), arr) is None
        # mutate one position within the locally consistent range
        i = rng.randrange(len(arr))
        hi = arr[i - 1] + 1 if i else 0
        alt = rng.randint(0, hi)
        mutated = arr[:i] + [alt] + arr[i + 1 :]
        # keep local consistency of the suffix
        for j in range(i + 1, len(mutated)):
            mutated[j] = min(mutated[j], mutated[j - 1] + 1)
        assert drive(OnlineValidator(), mutated) == drive(
            RealTimeValidator(n_max=256), mutated
        )


def test_equivalence_at_scale():
    # one long random-valid array plus a batch of locally consistent mutants
    arr = random_valid_pi(10**5, seed=23)
    assert drive(RealTimeValidator(n_max=10**5), arr) is None
    rng = random.Random(23)
    for _ in range(1000):
        cut = rng.randint(2, 3000)
        mutated = arr[:cut]
        i = rng.randrange(1, cut)
        mutated[i] = rng.randint(0, mutated[i - 1] + 1)
        for j in range(i + 1, cut):
            mutated[j] = min(mutated[j], mutated[j - 1] + 1)
        assert drive(OnlineValidator(), mutated) == drive(
            RealTimeValidator(n_max=4096), mutated
        )


def test_dprime_matches_direct_forest_depth():
    for rep in range(60):
        arr = random_valid_pi(80, seed=1000 + rep)
        v = RealTimeValidator(n_max=128)
        for a in arr:
            assert v.push(a).valid
        pp = pi_to_pi_prime(arr)
        n = len(arr)
        # strict forest father: sf[i] = pp[i-2]+1 for i >= 2, roots where 0
        depth = [0] * (n + 1)
        depth[1] = 1
        for i in range(2, n + 1):
            sf = pp[i - 2] + 1
            depth[i] = 1 + (depth[sf] if sf >= 1 else 0)
        assert v.dprime_values() == depth[1:]


def test_halving_on_valid_inputs():
    for rep in range(40):
        arr = random_valid_pi(300, seed=2000 + rep)
        pp = pi_to_pi_prime(arr)
        n = len(arr)
        sf = [0] * (n + 1)
        for i in range(2, n + 1):
            sf[i] = pp[i - 2] + 1
        for i in range(2, n + 1):
            f1 = sf[i]
            f2 = sf[f1] if f1 >= 2 else 0
            f3 = sf[f2] if f2 >= 2 else 0
            if f1 > 0 and f2 > 0 and f3 > 0:
                assert f3 < f1 / 2, (i, f1, f2, f3)


def test_constant_core_delay_small_grid():
    for n in (100, 1000, 5000):
        v = RealTimeValidator(n_max=n)
        for a in random_valid_pi(n, seed=3):
            v.push(a)
        assert v.stats()["max_delay_ops"] <= 8


def test_push_after_failure_raises():
    from borderval.pi_online import PushAfterFailure

    v = RealTimeValidator(n_max=16)
    v.push(0)
    assert not v.push(2).valid
    with pytest.raises(PushAfterFailure):
        v.push(0)
