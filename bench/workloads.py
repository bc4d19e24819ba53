"""Seeded workload inputs and the engine configurations the benchmark runs.

Every workload yields a valid border array ``pi`` for the pi engines and a
valid strict array ``pi_prime`` for the slope engine, both taken from one
word (or one valid border array), so every engine runs on every workload.
The pi engines read ``pi[:n]`` and the slope engine reads ``pi_to_pi_prime``
of the array one longer, cut to n: strict values below the top depend on the
next border value.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from borderval import OnlineValidator, RealTimeValidator, SlopeValidator, SuccinctValidator, families
from borderval.border_core import compute_pi, pi_to_pi_prime

WORKLOADS = ("pi_random", "pi_periodic")

# Sizes: one round (every engine once as a child process and once
# in-process) takes a few seconds, so a run of the declared length holds
# several rounds and its medians settle.
N_RANDOM = 40_000
N_PERIODIC = 40_000
RANDOM_START = 10


@dataclass(frozen=True)
class Engine:
    """One engine configuration: its ``borderval validate`` flags, the same
    engine built in-process with the CLI's defaults, and its input kind."""

    name: str
    kind: str  # "pi" or "pi_prime"
    flags: tuple[str, ...]
    make: Callable[[], object]


ENGINES = (
    Engine("basic", "pi", ("--engine", "basic"), OnlineValidator),
    Engine("realtime", "pi", ("--engine", "realtime"), RealTimeValidator),
    Engine("succinct", "pi", ("--engine", "succinct"), SuccinctValidator),
    Engine("succinct_lazy", "pi", ("--engine", "succinct", "--lazy-copy"), lambda: SuccinctValidator(lazy=True)),
    Engine("slope", "pi_prime", ("--engine", "slope"), SlopeValidator),
)


@dataclass
class Workload:
    name: str
    pi: list[int]
    pi_prime: list[int]

    def values(self, engine: Engine) -> list[int]:
        return self.pi if engine.kind == "pi" else self.pi_prime


def make(name: str, seed: int) -> Workload:
    if name == "pi_random":
        return _from_pi(name, random_valid_pi(N_RANDOM + 1, seed), N_RANDOM)
    if name == "pi_periodic":
        n = fibonacci_cut(seed)
        return _from_pi(name, compute_pi(families.fibonacci_word(n + 1)), n)
    raise ValueError(f"unknown workload {name!r}")


def _from_pi(name: str, full: list[int], n: int) -> Workload:
    return Workload(name, full[:n], pi_to_pi_prime(full)[:n])


def random_valid_pi(n: int, seed: int) -> list[int]:
    """A valid border array walking the live candidate set, as
    ``families.random_valid_pi`` does, after a fixed start.

    Every fresh letter sends the walk back near the root, where the
    candidate sets are those of the first few positions, so those few values
    set the shares of fresh, slope and probe pushes for the whole stream
    (probe pushes ranged over 4-19 % across seeds at n = 1e5).  The start is
    fixed to the first values of ``families.random_valid_pi(_, 1)``, so seeds
    differ in their choices but not in that mix.
    """
    rng = random.Random(seed)
    validator = OnlineValidator()
    out = []
    for a in families.random_valid_pi(RANDOM_START, 1):
        validator.push(a)
        out.append(a)
    while len(out) < n:
        a = rng.choice(validator.candidates_for_next())
        validator.push(a)
        out.append(a)
    return out


def fibonacci_cut(seed: int) -> int:
    """Length of the seeded Fibonacci prefix: within 1 % of N_PERIODIC.

    The costs on a Sturmian word depend on where the prefix ends in the
    word's hierarchy of standard words: at n = 4e4 over seeded slopes or
    offsets, blocks created and suffix-tree bytes were bimodal (about 12k
    against 24k blocks).  Moving only the cut point inside one Fibonacci
    level (F_22 = 28657 < n < F_23 = 46368) keeps them within about 1 %.
    """
    return random.Random(seed).randint(N_PERIODIC * 99 // 100, N_PERIODIC * 101 // 100)


def properties(w: Workload) -> dict:
    """Input properties the engines' costs depend on, measured on pi: shares
    of fresh-letter (a = 0), slope (a = f) and probe (0 < a < f) pushes,
    with f = A[p-1] + 1, and the largest value."""
    fresh = slope = 0
    for i in range(1, len(w.pi)):
        a = w.pi[i]
        if a == 0:
            fresh += 1
        elif a == w.pi[i - 1] + 1:
            slope += 1
    pushes = max(1, len(w.pi) - 1)
    return {
        "n": len(w.pi),
        "fresh_share": fresh / pushes,
        "slope_share": slope / pushes,
        "probe_share": (pushes - fresh - slope) / pushes,
        "max_value": max(w.pi),
    }


def parse_report(text: str) -> dict[str, str]:
    """Fields of a ``borderval validate`` report (``key=value`` lines); the
    verdict line is kept whole under ``verdict``."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key] = line if key == "verdict" else value
    return fields
