"""Why a read-once validator cannot run in tiny memory.

Two streams share everything except one early value; after a long camouflage
run, a single probe value is legal after one history and illegal after the
other.  Any validator that forgot the difference must answer both the same
way and be wrong once — so linear-in-n bits of state are unavoidable for
exact streaming validation.  Our engines keep the needed state and always
tell the pair apart.
"""

from borderval.cli import ENGINES
from borderval.families import lowerbound_pair

valid, invalid, pos = lowerbound_pair(28, seed=4)
diff = next(i for i, (a, b) in enumerate(zip(valid, invalid)) if a != b)
print("valid   :", valid)
print("invalid :", invalid)
print(f"streams differ only at position {diff + 1}; probe sits at {pos}")

for name, spec in ENGINES.items():
    if "pi" not in spec.kinds:
        continue
    outcomes = []
    for stream in (valid, invalid):
        v = spec.make(64)
        failed = None
        for a in stream:
            r = v.push(a)
            if not r.valid:
                failed = r.position
                break
        outcomes.append("accepts" if failed is None else f"rejects at {failed}")
    print(f"{name:>13}: {outcomes[0]} / {outcomes[1]}")
