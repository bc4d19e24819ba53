"""The acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are fixed here,
not tuned at runtime:

  C7_CORE_OPS_MAX = 8      frozen regression bound for the constant-delay engine
  C8_RATIO_TOL    = 0.25   allowed drift of memory / (n loglog n) between sizes
  C9_OPS_COEFF    = 1.0    slope-engine budget: ops <= c * n * log2(n)
"""

import math
import time

import pytest

from borderval.border_core import (
    compute_pi,
    naive_pi,
    naive_pi_prime,
    pi_prime_to_pi,
    pi_to_pi_prime,
)
from borderval.families import (
    fibonacci_word,
    long_query_word,
    lowerbound_pair,
    random_valid_pi,
    random_valid_pi_prime,
    random_word,
    thue_morse_word,
    unary_pi,
)
from borderval.oracle import (
    canonical_words,
    enumerate_pi_prime_prefix_witnesses,
    enumerate_valid_pi,
    iter_canonical_pi,
    min_alphabet_bruteforce,
)
from borderval.pi_online import OnlineValidator
from borderval.pi_prime_online import SlopeValidator
from borderval.pi_realtime import RealTimeValidator
from borderval.pi_succinct import SuccinctValidator, window_distinct_check

from conftest import drive, local_streams

pytestmark = pytest.mark.acceptance

C7_CORE_OPS_MAX = 8
C8_RATIO_TOL = 0.25
C9_OPS_COEFF = 1.0


def _report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS — {detail}")


# -- 1 & 2 --------------------------------------------------------------------

_oracle_arrays: set[tuple[int, ...]] = set()


def test_criterion_1_oracle_equality():
    t0 = time.time()
    words = mismatches = 0
    for n in range(1, 13):
        for w in canonical_words(n, 4):
            words += 1
            pi = compute_pi(w)
            if pi != naive_pi(w):
                mismatches += 1
            if pi_to_pi_prime(pi) != naive_pi_prime(w):
                mismatches += 1
            _oracle_arrays.add(tuple(pi))
    assert mismatches == 0
    _report(1, "oracle equality", f"0 mismatches over {words} canonical words "
            f"({time.time() - t0:.0f}s)")


def test_criterion_2_bijection():
    assert _oracle_arrays, "criterion 1 must run first"
    bad = 0
    for pi in _oracle_arrays:
        if pi_prime_to_pi(pi_to_pi_prime(list(pi))) != list(pi):
            bad += 1
    assert bad == 0
    _report(2, "bijection", f"0 mismatches over {len(_oracle_arrays)} distinct arrays")


# -- 3 ------------------------------------------------------------------------


def test_criterion_3_pi_validator_exactness():
    t0 = time.time()
    streams = disagreements = 0
    for n in range(1, 11):
        valid = enumerate_valid_pi(n)
        for s in local_streams(n):
            streams += 1
            engines = [
                OnlineValidator(),
                RealTimeValidator(n_max=32),
                SuccinctValidator(n_max=32),
            ]
            positions = [drive(e, s) for e in engines]
            if len(set(positions)) != 1:
                disagreements += 1
                continue
            accepted = positions[0] is None
            if accepted != (s in valid):
                disagreements += 1
                continue
            if accepted:
                basic = engines[0]
                w = basic.witness()
                if tuple(compute_pi(w)) != s:
                    disagreements += 1
                elif basic.max_alphabet != min_alphabet_bruteforce(list(s)):
                    disagreements += 1
                elif engines[1].witness() != w or engines[2].witness() != w:
                    disagreements += 1
    assert disagreements == 0
    _report(3, "pi validator exactness",
            f"0 disagreements over {streams} streams, n<=10 ({time.time() - t0:.0f}s)")


# -- 4 ------------------------------------------------------------------------


def test_criterion_4_pi_prime_exactness():
    t0 = time.time()
    max_k = 9
    witnesses = {k: enumerate_pi_prime_prefix_witnesses(k) for k in range(1, max_k + 1)}
    # elementwise maxima of witness border arrays, for the maximality check
    hull: dict[tuple[int, ...], list[int]] = {}
    for k in range(1, max_k + 1):
        for _, pi in iter_canonical_pi(k + 1):
            key = tuple(pi_to_pi_prime(pi)[:k])
            cur = hull.get(key)
            if cur is None:
                hull[key] = list(pi)
            else:
                for t in range(k + 1):
                    if pi[t] > cur[t]:
                        cur[t] = pi[t]

    stats = {"streams": 0, "bad": 0}

    def dfs(prefix):
        k = len(prefix)
        if k:
            stats["streams"] += 1
            v = SlopeValidator()
            pos = drive(v, prefix)
            ok = pos is None
            if ok != (tuple(prefix) in witnesses[k]):
                stats["bad"] += 1
                return
            if not ok:
                return
            rec = v.recovered_pi()
            if pi_to_pi_prime(rec)[:k] != list(prefix):
                stats["bad"] += 1
            mx = hull[tuple(prefix)]
            if any(rec[t] < mx[t] for t in range(k + 1)):
                stats["bad"] += 1
        if k == max_k:
            return
        for x in range(-1, k + 1):
            dfs(list(prefix) + [x])

    dfs([])
    assert stats["bad"] == 0
    _report(4, "pi-prime validator exactness",
            f"0 disagreements over {stats['streams']} pruned streams, k<=9 "
            f"({time.time() - t0:.0f}s)")


# -- 5 ------------------------------------------------------------------------


def _halving_violations(pp):
    n = len(pp)
    sf = [0] * (n + 1)
    for i in range(2, n + 1):
        sf[i] = pp[i - 2] + 1
    bad = 0
    for i in range(2, n + 1):
        f1 = sf[i]
        f2 = sf[f1] if f1 >= 2 else 0
        f3 = sf[f2] if f2 >= 2 else 0
        if f1 > 0 and f2 > 0 and f3 > 0 and not f3 < f1 / 2:
            bad += 1
    return bad


def test_criterion_5_halving():
    bad = checked = 0
    for n in range(1, 11):
        for _, pi in iter_canonical_pi(n):
            bad += _halving_violations(pi_to_pi_prime(pi))
            checked += 1
    for pp in (
        pi_to_pi_prime(random_valid_pi(10**5, seed=5)),
        pi_to_pi_prime(compute_pi(fibonacci_word(10**5))),
    ):
        bad += _halving_violations(pp)
        checked += 1
    assert bad == 0
    _report(5, "halving lemma", f"0 violations across {checked} arrays "
            "(exhaustive n<=10 plus 1e5 random and Fibonacci)")


# -- 6 ------------------------------------------------------------------------


def test_criterion_6_window_lemma():
    n = 10**5
    observed = 0
    for word in (
        random_word(n, 2, seed=6),
        fibonacci_word(n),
        thue_morse_word(n),
    ):
        got = window_distinct_check(pi_to_pi_prime(compute_pi(word)))
        observed = max(observed, got)
        assert got <= 48
    _report(6, "window lemma", f"0 violations; observed maximum {observed} (cap 48)")


# -- 7 ------------------------------------------------------------------------


def test_criterion_7_constant_delay():
    t0 = time.time()
    families = {
        "unary": unary_pi,
        "fibonacci": lambda m: compute_pi(fibonacci_word(m)),
        "random_valid": lambda m: random_valid_pi(m, seed=3),
    }
    worst = {}
    la_worst = {}
    for name, gen in families.items():
        for n in (10**3, 10**4, 10**5, 10**6):
            arr = gen(n)
            v = RealTimeValidator(n_max=n)
            for a in arr:
                assert v.push(a).valid
            c = v.stats()
            worst[(name, n)] = c["max_delay_ops"]
            la_worst[(name, n)] = c["la_ops_max"]
            assert c["max_delay_ops"] <= C7_CORE_OPS_MAX, (name, n, c)
    _report(7, "constant delay",
            f"core ops/push <= {C7_CORE_OPS_MAX} on all families and sizes "
            f"(observed max {max(worst.values())}; level-ancestor fallback "
            f"ops/push up to {max(la_worst.values())}, reported separately) "
            f"({time.time() - t0:.0f}s)")


# -- 8 ------------------------------------------------------------------------


def test_criterion_8_memory_scaling():
    t0 = time.time()
    ratios = {}
    for n in (10**5, 10**6):
        arr = random_valid_pi(n, seed=7)
        sc = SuccinctValidator(n_max=n)
        for a in arr:
            assert sc.push(a).valid
        bits = sc.stats()["memory_bits"]
        ratios[n] = bits / (n * math.log2(math.log2(n)))
        basic = OnlineValidator()
        for a in arr:
            basic.push(a)
        basic_bits = basic.stats()["memory_bits"]
        assert bits <= basic_bits / 4, (n, bits, basic_bits)
        # lazy mode: the scheduler asserts its own deadlines on every push
        lazy = SuccinctValidator(n_max=n, lazy=True)
        for a in arr:
            assert lazy.push(a).valid
        lazy.finish()
    lo, hi = min(ratios.values()), max(ratios.values())
    assert (hi - lo) / hi < C8_RATIO_TOL, ratios
    _report(8, "memory scaling",
            f"bits/(n loglog n) = {ratios[10**5]:.2f} @1e5 vs {ratios[10**6]:.2f} @1e6 "
            f"(drift {(hi - lo) / hi:.1%} < {C8_RATIO_TOL:.0%}); both <= basic/4; "
            f"no copy-deadline misses ({time.time() - t0:.0f}s)")


# -- 9 ------------------------------------------------------------------------


def test_criterion_9_pi_prime_time_bound():
    t0 = time.time()
    coeffs = {}
    # w_2048 (n = 8196) makes one suffix-index query whose length is about n/2
    streams = {
        "1e4": random_valid_pi_prime(10**4, seed=11),
        "1e5": random_valid_pi_prime(10**5, seed=11),
        "w_2048": pi_to_pi_prime(compute_pi(long_query_word(2048))),
    }
    for name, stream in streams.items():
        n = len(stream)
        v = SlopeValidator()
        for x in stream:
            assert v.push(x).valid
        stats = v.stats()
        total = stats["total_ops"] + stats["embedded_ops"]
        coeffs[name] = total / (n * math.log2(n))
        assert coeffs[name] <= C9_OPS_COEFF, (name, coeffs[name])
        assert stats["dominance_ops"] <= 2 * n
    _report(9, "pi-prime time bound",
            f"ops/(n log2 n) = {coeffs['1e4']:.2f} @1e4, {coeffs['1e5']:.2f} @1e5, "
            f"{coeffs['w_2048']:.2f} on w_2048 "
            f"(budget {C9_OPS_COEFF}); dominance ops within 2n ({time.time() - t0:.0f}s)")


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_lowerbound_pairs():
    engines = (
        lambda n: OnlineValidator(),
        lambda n: RealTimeValidator(n_max=2 * n),
        lambda n: SuccinctValidator(n_max=2 * n),
    )
    for seed in range(100):
        n = 6 + (seed * 2) % 195
        valid, invalid, pos = lowerbound_pair(n, seed)
        for make in engines:
            assert drive(make(n), valid) is None, (seed, "valid member rejected")
            assert drive(make(n), invalid) == pos, (seed, "wrong failure position")
    _report(10, "lower-bound pairs",
            "100 pairs (n<=200): every engine accepts exactly the declared member")
