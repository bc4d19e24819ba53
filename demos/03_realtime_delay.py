"""How much work does one push cost?

The real-time engine replaces candidate sets with depth bookkeeping, one
level-ancestor probe and two bit flips, so its core work per value is a small
constant regardless of input length or shape.  The level-ancestor structure
is skew-binary jump pointers: one op per added leaf and O(log n) per query,
still counted apart from the core ops.
"""

from borderval import RealTimeValidator, compute_pi
from borderval.families import fibonacci_word, random_valid_pi, unary_pi

FAMILIES = {
    "unary": unary_pi,
    "fibonacci": lambda n: compute_pi(fibonacci_word(n)),
    "random_valid": lambda n: random_valid_pi(n, seed=3),
}

print(f"{'family':>14} {'n':>8} {'core ops/push (max)':>20} {'LA ops/push (max)':>18}")
for name, gen in FAMILIES.items():
    for n in (10**3, 10**4, 10**5):
        v = RealTimeValidator(n_max=n)
        for a in gen(n):
            v.push(a)
        c = v.stats()
        print(f"{name:>14} {n:>8} {c['max_delay_ops']:>20} {c['la_ops_max']:>18}")

print("\nThe core column stays flat.  The LA column is one op per added leaf")
print("plus the steps of a probe push's one query, logarithmic in the depth.")
