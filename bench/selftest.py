"""Self-test of the traced run's memory attribution.

    python3 bench/selftest.py

On the border array of the Fibonacci word at n = 1e5, the real bytes per
position that the traced run attributes to each module must match the
baselines recorded in ROADMAP.md: basic 118 (pi_online), realtime 217
(level_ancestor 136 + pi_realtime 81) and succinct 293 (pi_succinct).  A
split that lands in the wrong module, or bytes lost to it, shows here.
Exit code 0 when every figure matches after rounding, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
N = 100_000
BASELINES = {  # engine -> {module: bytes per position}
    "basic": {"pi_online": 118},
    "realtime": {"level_ancestor": 136, "pi_realtime": 81},
    "succinct": {"pi_succinct": 293},
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from borderval import families
    from borderval.border_core import compute_pi, pi_to_pi_prime

    import layers
    from checks import Checks
    from workloads import ENGINES, Workload

    full = compute_pi(families.fibonacci_word(N + 1))
    workload = Workload("fibonacci", full[:N], pi_to_pi_prime(full)[:N])
    checks = Checks(workload, ENGINES[0])
    failures = 0
    for eng in ENGINES:
        if eng.name not in BASELINES:
            continue
        sizes, kept = layers.bytes_by_module(eng, workload.values(eng), checks)
        for module, want in BASELINES[eng.name].items():
            got = sizes.get(module, 0) / kept
            ok = round(got) == want
            failures += not ok
            print(f"{eng.name:<9} {module:<15} {got:8.2f} B/pos  baseline {want}  {'ok' if ok else 'MISMATCH'}")
    for problem in checks.problems:
        print(f"MISMATCH {problem}")
    failures += checks.failed
    print("selftest " + ("passed" if failures == 0 else f"failed ({failures})"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
