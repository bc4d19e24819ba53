"""Validating an integer stream as a border array, one value at a time.

Is there a word whose failure function equals the values seen so far?  The
validator answers after every push, and on acceptance can always exhibit a
witness word over the smallest possible alphabet.
"""

from borderval import OnlineValidator, compute_pi, word_to_text
from borderval.cli import ENGINES

GOOD = [0, 1, 0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 0]
BAD = [0, 1, 0, 1, 1]  # 1 is not a legal value at position 5

print("streaming", GOOD)
v = OnlineValidator()
for i, a in enumerate(GOOD, start=1):
    verdict = v.push(a)
    assert verdict.valid
print("accepted; minimal alphabet:", v.max_alphabet)
print("witness:", word_to_text(v.witness()), "-> pi:", compute_pi(v.witness()))

print("\nstreaming", BAD)
v = OnlineValidator()
for i, a in enumerate(BAD, start=1):
    verdict = v.push(a)
    if not verdict.valid:
        print(f"rejected at position {verdict.position}")
        break

# every border-array engine configuration: same language, same failure positions
print("\nengine agreement on the bad stream:")
for name, spec in ENGINES.items():
    if "pi" not in spec.kinds:
        continue
    eng = spec.make(64)
    pos = None
    for a in BAD:
        r = eng.push(a)
        if not r.valid:
            pos = r.position
            break
    print(f"  {name:<13} -> invalid at {pos}")
