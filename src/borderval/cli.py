"""Command-line front end: compute, validate, gen.

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


def _int_token(tok: str) -> int:
    """The integer a token spells as ``[+-]?[0-9]+``; ValueError otherwise.
    int() alone also reads "1_0" as 10, and digits of other scripts."""
    digits = tok[1:] if tok[:1] in ("+", "-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(tok)
    return int(tok)


def _int_option(text: str) -> int:
    """argparse type of the integer options: the input files' token rule."""
    try:
        return _int_token(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _float_option(text: str) -> float:
    """argparse type of --unary-bias: float() on ASCII text without "_";
    float() alone also reads "0.2_5" as 0.25, and digits of other scripts."""
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _parse_ints(text: str, path: str) -> list[int]:
    # on ASCII text without "_", int() accepts exactly the tokens _int_token does
    if "_" not in text:
        try:
            return list(map(int, text.split()))
        except ValueError:
            pass
    # splitting line by line gives the same tokens: rescan to name the bad one's line
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split():
            try:
                _int_token(tok)
            except ValueError:
                raise CliError(f"{path}:{lineno}: not an integer: {tok!r}") from None
    raise CliError(f"{path}: not an integer")


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
    """One engine configuration: the stream kinds it validates, its
    ``validate`` flags, and its constructor from ``n_max``."""

    kinds: tuple[str, ...]
    flags: tuple[str, ...]
    make: Callable[[int], object]


# Every engine configuration, under the names the benchmark reports.
ENGINES = {
    "basic": _Engine(("pi",), ("--engine", "basic"), lambda n_max: OnlineValidator()),
    "realtime": _Engine(("pi",), ("--engine", "realtime"), lambda n_max: RealTimeValidator(n_max=n_max)),
    "succinct": _Engine(("pi",), ("--engine", "succinct"), lambda n_max: SuccinctValidator(n_max=n_max)),
    "succinct_lazy": _Engine(
        ("pi",), ("--engine", "succinct", "--lazy-copy"), lambda n_max: SuccinctValidator(n_max=n_max, lazy=True)
    ),
    "slope": _Engine(("pi_prime", "g"), ("--engine", "slope"), lambda n_max: SlopeValidator()),
}


def _push_each(engine, values) -> Verdict:
    """One ``push`` per value until the first rejection, so that a span or
    profiler wrapping ``push`` sees every value; the last verdict (valid
    when empty).  Verdict, position and every counter equal ``push_many``'s."""
    verdict = Verdict(True)
    push = engine.push
    for v in values:
        verdict = push(v)
        if not verdict.valid:
            break
    return verdict


def _cmd_validate(args) -> int:
    flags = ("--engine", args.engine, "--lazy-copy") if args.lazy_copy else ("--engine", args.engine)
    spec = next((e for e in ENGINES.values() if e.flags == flags), None)
    if spec is None:
        raise CliError(f"no engine configuration matches {' '.join(flags)}")
    if args.kind not in spec.kinds:
        raise CliError(f"engine {args.engine} validates {' or '.join(spec.kinds)} streams only")
    if args.n_max < 1:
        raise CliError(f"--n-max: must be at least 1, got {args.n_max}")
    if args.emit_witness and args.kind != "pi":
        raise CliError(f"--emit-witness applies to --kind pi only, not {args.kind}")
    if args.emit_pi and args.kind == "pi":
        raise CliError(f"--emit-pi applies to --kind pi_prime or g only, not {args.kind}")
    values = _parse_ints(_read_text(args.input), args.input)
    if len(values) > args.n_max:
        raise CliError(f"{args.input}: {len(values)} values exceed --n-max {args.n_max}")
    t0 = time.perf_counter()

    if args.kind == "g":
        verdict, engine = validate_g_stream(values)
    else:
        engine = spec.make(args.n_max)
        verdict = _push_each(engine, values) if args.instrument else engine.push_many(values)
    wall = time.perf_counter() - t0

    lines = ["format=1", f"kind={args.kind}", f"engine={args.engine}"]
    if verdict.valid:
        lines.append(f"verdict=valid n={len(values)} min_alphabet={verdict.max_alphabet}")
    else:
        lines.append(f"verdict=invalid@{verdict.position} n={len(values)}")
    if verdict.valid and args.emit_pi:
        rec = engine.recovered_pi()
        lines.append("recovered_pi=" + " ".join(str(v) for v in rec))
    if verdict.valid and args.emit_witness:
        lines.append("witness=" + " ".join(str(s) for s in engine.witness()))
    if args.instrument:
        lines.extend(f"{key}={value}" for key, value in engine.stats().items())
    lines.append(f"wall_ms={wall * 1000:.1f}")
    print("\n".join(lines))
    return EXIT_VALID if verdict.valid else EXIT_INVALID


def _cmd_gen(args) -> int:
    n, seed = args.n, args.seed
    if n < 1:
        raise CliError("--n must be >= 1")
    if args.sigma < 1:
        raise CliError(f"--sigma: must be at least 1, got {args.sigma}")
    if not 0 <= args.unary_bias <= 1:
        raise CliError(f"--unary-bias: must be within [0, 1], got {args.unary_bias}")
    fam = args.family
    if fam == "lowerbound_pair":
        try:
            valid, invalid, pos = families.lowerbound_pair(n, seed)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        if not args.out:
            raise CliError("lowerbound_pair needs --out PREFIX (writes two files)")
        for name, arr in (("a", valid), ("b", invalid)):
            path = f"{args.out}.{name}.txt"
            try:
                with open(path, "w", encoding="ascii") as fh:
                    fh.write("\n".join(str(v) for v in arr) + "\n")
            except OSError as exc:
                raise CliError(f"cannot write {path}: {exc}") from exc
        # declare the valid member by actually validating, not by construction
        ok_a = OnlineValidator().push_many(valid).valid
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
    p.add_argument("--engine", choices=list(dict.fromkeys(e.flags[1] for e in ENGINES.values())), required=True)
    p.add_argument("--emit-pi", action="store_true", help="print the recovered border array")
    p.add_argument("--emit-witness", action="store_true", help="print a witness word")
    p.add_argument(
        "--instrument",
        action="store_true",
        help="print every stats() counter of the engine; pi and pi_prime streams go through one push() per value",
    )
    p.add_argument("--lazy-copy", action="store_true", help="lazy copying (succinct only)")
    p.add_argument("--n-max", type=_int_option, default=2**32, help="longest stream accepted; sizes realtime and succinct")
    p.add_argument("input", help="array file or - for stdin")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen", help="emit a test family")
    p.add_argument(
        "--family",
        choices=["unary", "fibonacci", "thue_morse", "random_word", "random_valid_pi", "lowerbound_pair"],
        required=True,
    )
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--seed", type=_int_option, default=0)
    p.add_argument("--sigma", type=_int_option, default=2)
    p.add_argument("--unary-bias", type=_float_option, default=0.0)
    p.add_argument("--emit", choices=["auto", "word", "pi", "pi_prime"], default="auto")
    p.add_argument("--out", help="output prefix (required for lowerbound_pair)")
    p.set_defaults(func=_cmd_gen)
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
