"""Golden reports: the full ``validate`` and ``bench`` output of every engine
configuration on fixed streams, pinned byte for byte except ``wall_ms``.

The pinned texts live in ``golden_reports.json`` beside this file.  They
cover the verdict line, failure positions, witness letters, the recovered
border array and every ``--instrument`` field, so a change to an engine's
internals that alters any reported number shows here.  To rewrite them
after a deliberate change of the report format:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from borderval import families
from borderval.border_core import compute_pi, pi_to_pi_prime
from borderval.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")
N = 300

CONFIGS = {  # name -> (kind, validate flags)
    "basic": ("pi", ["--engine", "basic", "--emit-witness"]),
    "realtime": ("pi", ["--engine", "realtime", "--emit-witness"]),
    "succinct": ("pi", ["--engine", "succinct", "--emit-witness"]),
    "succinct_lazy": ("pi", ["--engine", "succinct", "--lazy-copy", "--emit-witness"]),
    "slope": ("pi_prime", ["--engine", "slope", "--emit-pi"]),
}


def _mutated(values, pos, value):
    out = list(values)
    out[pos - 1] = value
    return out


def _streams():
    rnd = families.random_valid_pi(N, 2)
    fib = compute_pi(families.fibonacci_word(N + 1))
    prnd = families.random_valid_pi_prime(N, 2)
    pfib = pi_to_pi_prime(fib)[:N]
    fib = fib[:N]
    return {
        "pi": {
            "random": rnd,
            "random_mutated": _mutated(rnd, 215, 2),
            "fibonacci": fib,
            "fibonacci_mutated": _mutated(fib, 200, 110),
        },
        "pi_prime": {
            "random": prnd,
            "random_mutated": _mutated(prnd, 200, -1),
            "fibonacci": pfib,
            "fibonacci_mutated": _mutated(pfib, 200, -1),
        },
    }


BENCH = {  # name -> bench arguments
    "basic": ["--engine", "basic", "--family", "random_valid_pi"],
    "realtime": ["--engine", "realtime", "--family", "random_valid_pi"],
    "succinct": ["--engine", "succinct", "--family", "fibonacci"],
    "succinct_lazy": ["--engine", "succinct", "--lazy-copy", "--family", "fibonacci"],
    "slope": ["--engine", "slope", "--family", "random_pi_prime"],
}


def _run(argv, stdin_text=""):
    old_in = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old_in
    return code, out.getvalue()


def _without_wall(command: str, text: str) -> str:
    """The report minus its ``wall_ms`` line; for ``bench``, the rows minus
    their last column (the wall time)."""
    lines = text.splitlines()
    if command == "bench":
        return "\n".join(lines[:1] + [line.rsplit(" ", 1)[0] for line in lines[1:]])
    return "\n".join(line for line in lines if not line.startswith("wall_ms="))


def _cases():
    streams = _streams()
    for config, (kind, flags) in CONFIGS.items():
        for stream, values in streams[kind].items():
            argv = ["validate", "--kind", kind, "--instrument", *flags, "-"]
            yield f"validate/{config}/{stream}", argv, " ".join(map(str, values))
    g = [0] + [v + 1 for v in streams["pi_prime"]["random"]]
    yield "validate/g/random", ["validate", "--kind", "g", "--engine", "slope", "--instrument", "--emit-pi", "-"], " ".join(map(str, g))
    for config, args in BENCH.items():
        yield f"bench/{config}", ["bench", *args, "--seed", "3", "--n-list", "100,300"], ""


def _report(argv, stdin_text):
    code, out = _run(argv, stdin_text)
    return f"exit={code}\n{_without_wall(argv[0], out)}"


CASES = list(_cases())


@pytest.mark.parametrize("case", [c[0] for c in CASES])
def test_golden_report(case):
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))
    _, argv, stdin_text = next(c for c in CASES if c[0] == case)
    assert _report(argv, stdin_text) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _report(argv, text) for name, argv, text in CASES}, indent=1) + "\n", encoding="ascii")
