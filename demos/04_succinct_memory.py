"""Validating in far less memory than the candidate-set engine.

The packed engine stores a few narrow fields per position plus word-sized
data only in per-window blocks keyed by strict-father values.  This table
shows its accounted bits against the basic engine's word-per-field layout,
and the near-constant ratio to n * loglog n.
"""

import math

from borderval import OnlineValidator, SuccinctValidator
from borderval.families import random_valid_pi, unary_pi

print(f"{'family':>12} {'n':>8} {'packed bits':>12} {'basic bits':>12} {'packed/(n loglog n)':>20}")
for name, gen in [("random", lambda n: random_valid_pi(n, seed=7)), ("unary", unary_pi)]:
    for n in (10**4, 10**5):
        arr = gen(n)
        sc = SuccinctValidator(n_max=n)
        bv = OnlineValidator()
        for a in arr:
            sc.push(a)
            bv.push(a)
        bits = sc.stats()["memory_bits"]
        ratio = bits / (n * math.log2(math.log2(n)))
        print(f"{name:>12} {n:>8} {bits:>12} {bv.stats()['memory_bits']:>12} {ratio:>20.2f}")

print("\nComponent breakdown at n = 1e5 (random):")
arr = random_valid_pi(10**5, seed=7)
sc = SuccinctValidator(n_max=10**5)
for a in arr:
    sc.push(a)
for key, value in sc.stats().items():
    print(f"  {key:>26} = {value}")

print("\nLazy copying (worst-case delay variant) gives identical verdicts;")
print("its scheduler asserts that every block is filled within one window.")
lazy = SuccinctValidator(n_max=10**5, lazy=True)
for a in arr:
    lazy.push(a)
lazy.finish()
print("lazy run ok; longest in-flight chase:", lazy.stats()["chase_max"])
