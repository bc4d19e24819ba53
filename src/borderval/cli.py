"""Command-line front end: compute, validate, gen, bench.

Input conventions: arrays are whitespace/newline-separated signed decimal
integers; words are ASCII letters, or integers with --ints.  "-" reads stdin.
Reports are plain text key=value lines led by a format=1 header; the verdict
line is byte-identical across the border-array engines on identical input.

Exit codes: 0 valid, 1 invalid, 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, NamedTuple

from . import families
from .border_core import compute_pi, pi_to_pi_prime, text_to_word
from .pi_online import OnlineValidator, Verdict
from .pi_prime_online import SlopeValidator, validate_g_stream
from .pi_realtime import RealTimeValidator
from .pi_succinct import SuccinctValidator

__all__ = ["main"]

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise CliError(f"{path}: not ASCII") from None
    if not text.isascii():  # stdin decodes with the locale's encoding
        raise CliError(f"{path}: not ASCII")
    return text


def _parse_ints(text: str, path: str) -> list[int]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split():
            try:
                out.append(int(tok))
            except ValueError:
                raise CliError(f"{path}:{lineno}: not an integer: {tok!r}") from None
    return out


def _parse_word(text: str, path: str, as_ints: bool):
    if as_ints:
        word = tuple(_parse_ints(text, path))
        if any(s < 1 for s in word):
            raise CliError(f"{path}: word symbols must be positive integers")
        return word
    letters = "".join(text.split())
    try:
        return text_to_word(letters)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------


def _cmd_compute(args) -> int:
    word = _parse_word(_read_text(args.input), args.input, args.ints)
    values = compute_pi(word)
    if args.kind == "pi_prime":
        values = pi_to_pi_prime(values)
    print("\n".join(str(v) for v in values))
    return EXIT_VALID


class _Engine(NamedTuple):
    """A ``--engine`` choice: the stream kinds it validates, its constructor
    from (n_max, lazy, instrument), the fields ``validate --instrument``
    prints, in order, and its counter snapshot (a superset of them)."""

    kinds: tuple[str, ...]
    make: Callable[[int, bool, bool], object]
    fields: tuple[str, ...]
    stats: Callable[[object], dict[str, int]]


def _realtime_stats(engine) -> dict[str, int]:
    c = engine.op_counters()
    return {
        "max_delay_ops": c["core_push_max"],
        "la_ops_max": c["la_push_max"],
        "total_ops": c["core_total"] + c["la_total"],
    }


def _succinct_stats(engine) -> dict[str, int]:
    m = engine.memory_bits()
    return {
        "memory_bits": m["total_used"],
        "memory_bits_allocated": m["blocks_allocated_formula"] + m["per_position"],
        "blocks_created": m["blocks_created"],
        "chase_max": engine.chase_max,
        "total_ops": engine.ops_total,
    }


ENGINES = {
    "basic": _Engine(
        ("pi",),
        lambda n_max, lazy, instrument: OnlineValidator(instrument=instrument),
        ("max_delay_ops", "total_ops", "memory_bits"),
        lambda e: {"max_delay_ops": e.ops_push_max, "total_ops": e.ops_total, "memory_bits": e.footprint_bits()},
    ),
    "realtime": _Engine(
        ("pi",),
        lambda n_max, lazy, instrument: RealTimeValidator(n_max=n_max, instrument=instrument),
        ("max_delay_ops", "la_ops_max", "total_ops"),
        _realtime_stats,
    ),
    "succinct": _Engine(
        ("pi",),
        lambda n_max, lazy, instrument: SuccinctValidator(n_max=n_max, lazy=lazy, instrument=instrument),
        ("memory_bits", "memory_bits_allocated", "blocks_created", "chase_max"),
        _succinct_stats,
    ),
    "slope": _Engine(
        ("pi_prime", "g"),
        lambda n_max, lazy, instrument: SlopeValidator(instrument=instrument),
        ("total_ops", "dominance_ops"),
        lambda e: {"total_ops": e.ops_total + e.suffix_ops()["total"], "dominance_ops": e.dom_inserts + e.dom_removals},
    ),
}

BENCH_FAMILIES = {  # name -> (stream kind, generator of (n, seed))
    "unary": ("pi", lambda n, seed: families.unary_pi(n)),
    "fibonacci": ("pi", lambda n, seed: compute_pi(families.fibonacci_word(n))),
    "random_valid_pi": ("pi", families.random_valid_pi),
    "random_pi_prime": ("pi_prime", families.random_valid_pi_prime),
}


def _engine(name: str, kind: str) -> _Engine:
    spec = ENGINES[name]
    if kind not in spec.kinds:
        raise CliError(f"engine {name} validates {' or '.join(spec.kinds)} streams only")
    return spec


def _push_all(engine, values) -> Verdict:
    """Push until the first rejection; the last verdict (valid when empty)."""
    verdict = Verdict(True, max_alphabet=0)
    for v in values:
        verdict = engine.push(v)
        if not verdict.valid:
            break
    return verdict


def _cmd_validate(args) -> int:
    spec = _engine(args.engine, args.kind)
    values = _parse_ints(_read_text(args.input), args.input)
    if len(values) > args.n_max:
        raise CliError(f"{args.input}: {len(values)} values exceed --n-max {args.n_max}")
    t0 = time.perf_counter()

    if args.kind == "g":
        verdict, engine = validate_g_stream(values)
    else:
        engine = spec.make(args.n_max, args.lazy_copy, args.instrument)
        verdict = _push_all(engine, values)
    wall = time.perf_counter() - t0

    lines = ["format=1", f"kind={args.kind}", f"engine={args.engine}"]
    if verdict.valid:
        lines.append(f"verdict=valid n={len(values)} min_alphabet={verdict.max_alphabet}")
    else:
        lines.append(f"verdict=invalid@{verdict.position} n={len(values)}")
    if verdict.valid and args.emit_pi and args.kind in ("pi_prime", "g"):
        rec = engine.recovered_pi()
        lines.append("recovered_pi=" + " ".join(str(v) for v in rec))
    if verdict.valid and args.emit_witness and args.kind == "pi":
        lines.append("witness=" + " ".join(str(s) for s in engine.witness()))
    if args.instrument:
        stats = spec.stats(engine)
        lines.extend(f"{field}={stats[field]}" for field in spec.fields)
    lines.append(f"wall_ms={wall * 1000:.1f}")
    print("\n".join(lines))
    return EXIT_VALID if verdict.valid else EXIT_INVALID


def _cmd_gen(args) -> int:
    n, seed = args.n, args.seed
    if n < 1:
        raise CliError("--n must be >= 1")
    fam = args.family
    if fam == "lowerbound_pair":
        try:
            valid, invalid, pos = families.lowerbound_pair(n, seed)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        if not args.out:
            raise CliError("lowerbound_pair needs --out PREFIX (writes two files)")
        for name, arr in (("a", valid), ("b", invalid)):
            with open(f"{args.out}.{name}.txt", "w", encoding="ascii") as fh:
                fh.write("\n".join(str(v) for v in arr) + "\n")
        # declare the valid member by actually validating, not by construction
        ok_a = _push_all(OnlineValidator(), valid).valid
        print(f"format=1\nfamily=lowerbound_pair n={n} seed={seed}")
        print(f"valid_member={'a' if ok_a else 'b'}")
        print(f"invalid_position={pos}")
        return EXIT_VALID

    if fam == "unary":
        values = families.unary_pi(n)
        word = None
    elif fam == "random_valid_pi":
        values = families.random_valid_pi(n, seed, unary_bias=args.unary_bias)
        word = None
    elif fam == "fibonacci":
        word = families.fibonacci_word(n)
        values = None
    elif fam == "thue_morse":
        word = families.thue_morse_word(n)
        values = None
    else:  # random_word
        word = families.random_word(n, args.sigma, seed)
        values = None

    emit = args.emit
    if emit == "auto":
        emit = "pi" if word is None else "word"
    if emit == "word":
        if word is None:
            raise CliError(f"family {fam} generates an array, not a word")
        print("\n".join(str(s) for s in word))
    else:
        if values is None:
            values = compute_pi(word)
            if emit == "pi_prime":
                values = pi_to_pi_prime(values)
        elif emit == "pi_prime":
            values = pi_to_pi_prime(values)
        print("\n".join(str(v) for v in values))
    return EXIT_VALID


def _cmd_bench(args) -> int:
    kind, generate = BENCH_FAMILIES[args.family]
    spec = _engine(args.engine, kind)
    ns = [int(tok) for tok in args.n_list.split(",")]
    print("engine family n verdict max_delay_ops la_ops_max total_ops memory_bits wall_ms")
    for n in ns:
        arr = generate(n, args.seed)
        eng = spec.make(n, args.lazy_copy, True)
        t0 = time.perf_counter()
        verdict = _push_all(eng, arr)
        wall = (time.perf_counter() - t0) * 1000
        stats = spec.stats(eng)
        delay, la_max, total, mem = (stats.get(k, 0) for k in ("max_delay_ops", "la_ops_max", "total_ops", "memory_bits"))
        word = "valid" if verdict.valid else f"invalid@{verdict.position}"
        print(f"{args.engine} {args.family} {n} {word} {delay} {la_max} {total} {mem} {wall:.1f}")
    return EXIT_VALID


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="borderval", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="border or strict array of a word")
    p.add_argument("--kind", choices=["pi", "pi_prime"], required=True)
    p.add_argument("--ints", action="store_true", help="word given as integer symbols")
    p.add_argument("input", help="word file or - for stdin")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("validate", help="stream an array through a validator")
    p.add_argument("--kind", choices=["pi", "pi_prime", "g"], required=True)
    p.add_argument("--engine", choices=list(ENGINES), required=True)
    p.add_argument("--emit-pi", action="store_true", help="print the recovered border array")
    p.add_argument("--emit-witness", action="store_true", help="print a witness word")
    p.add_argument("--format", choices=["text"], default="text")
    p.add_argument("--instrument", action="store_true")
    p.add_argument("--lazy-copy", action="store_true")
    p.add_argument("--n-max", type=int, default=2**32, help="longest stream accepted; sizes realtime and succinct")
    p.add_argument("input", help="array file or - for stdin")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen", help="emit a test family")
    p.add_argument(
        "--family",
        choices=["unary", "fibonacci", "thue_morse", "random_word", "random_valid_pi", "lowerbound_pair"],
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=int, default=2)
    p.add_argument("--unary-bias", type=float, default=0.0)
    p.add_argument("--emit", choices=["auto", "word", "pi", "pi_prime"], default="auto")
    p.add_argument("--out", help="output prefix (required for lowerbound_pair)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="instrumentation table over an n range")
    p.add_argument("--engine", choices=list(ENGINES), required=True)
    p.add_argument("--family", choices=list(BENCH_FAMILIES), required=True)
    p.add_argument("--n-list", required=True, help="comma-separated sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lazy-copy", action="store_true")
    p.set_defaults(func=_cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
