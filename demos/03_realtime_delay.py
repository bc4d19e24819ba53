"""How much work does one push cost?

The real-time engine replaces candidate sets with depth bookkeeping, one
level-ancestor probe and two bit flips, so its core work per value is a small
constant regardless of input length or shape.  The level-ancestor structure
used here is the jump-pointer fallback, whose own (logarithmic) costs are
tracked separately.
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

print("\nThe core column stays flat; the LA column grows with log n on the")
print("unary family, which is exactly the documented fallback cost.")
