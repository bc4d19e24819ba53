"""Validating in far less memory than the candidate-set engine.

The packed engine stores a few narrow fields per position plus word-sized
data only in per-window blocks keyed by strict-father values.  This table
shows, for both engines, the declared bits per position (the layout's
accounting) beside the real heap bytes per position that ``tracemalloc``
counts for the live engine, and the packed engine's near-constant ratio
to n * loglog n.
"""

import gc
import math
import tracemalloc

from borderval import OnlineValidator, SuccinctValidator
from borderval.families import random_valid_pi, unary_pi


def run(make, arr):
    """A live engine after pushing arr, and the heap bytes it holds."""
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    engine = make()
    engine.push_many(arr)
    held = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    return engine, held


print("per position: declared bits and real heap bytes (tracemalloc)")
print(
    f"{'family':>8} {'n':>7} {'packed bits':>12} {'packed B':>9}"
    f" {'basic bits':>11} {'basic B':>8} {'packed bits/(n loglog n)':>25}"
)
for name, gen in [("random", lambda n: random_valid_pi(n, seed=7)), ("unary", unary_pi)]:
    for n in (10**4, 10**5):
        arr = gen(n)
        sc, sc_heap = run(lambda: SuccinctValidator(n_max=n), arr)
        bv, bv_heap = run(OnlineValidator, arr)
        bits = sc.stats()["memory_bits"]
        ratio = bits / (n * math.log2(math.log2(n)))
        print(
            f"{name:>8} {n:>7} {bits / n:>12.1f} {sc_heap / n:>9.1f}"
            f" {bv.stats()['memory_bits'] / n:>11.1f} {bv_heap / n:>8.1f} {ratio:>25.2f}"
        )
        del sc, bv

print("\nComponent breakdown at n = 1e5 (random):")
arr = random_valid_pi(10**5, seed=7)
sc = SuccinctValidator(n_max=10**5)
sc.push_many(arr)
for key, value in sc.stats().items():
    print(f"  {key:>26} = {value}")

print("\nLazy copying (worst-case delay variant) gives identical verdicts;")
print("its scheduler asserts that every block is filled within one window.")
lazy = SuccinctValidator(n_max=10**5, lazy=True)
lazy.push_many(arr)
lazy.finish()
print("lazy run ok; longest in-flight chase:", lazy.stats()["chase_max"])
