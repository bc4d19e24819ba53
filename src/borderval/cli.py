r"""Command-line front end: compute, validate, gen.

Input conventions: arrays are signed decimal integers, [+-]?[0-9]+; words
are ASCII letters, or integers with --ints.  "-" reads stdin.  Tokens are
separated by ASCII whitespace only (space, \t, \n, \v, \f, \r), and a line
ends at \n only, so error messages number lines as grep -n does.  Input is
read in chunks of CHUNK_BYTES bytes; validate pushes each chunk's values
before it reads the next, and never holds the whole input.
Reports are plain text key=value lines led by a format=1 header; the verdict
line is byte-identical across the border-array engines on identical input.

Exit codes: 0 valid, 1 invalid, 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import Callable, Iterator, NamedTuple

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

# validate reads its input this many bytes at a time and pushes each chunk's
# values before it reads the next, so it never holds the whole input
CHUNK_BYTES = 4096


class CliError(Exception):
    pass


def _read_tokens(path: str) -> Iterator[tuple[bytes, int, list[bytes], int]]:
    """The input ("-" is stdin) CHUNK_BYTES at a time: for each chunk its
    text, the end of the whole tokens in it, those tokens, and the line the
    text starts on.  The text past that end is the start of a token the
    chunk cut; the next chunk's text begins with it."""
    carry, line = b"", 1
    try:
        if path == "-":  # left open; a text stream put in place of stdin reads str
            source = contextlib.nullcontext(getattr(sys.stdin, "buffer", sys.stdin))
        else:
            source = open(path, "rb")
        with source as fh:
            # reading at least the carry's length doubles the reads inside a
            # long token, so that copying and splitting it stays linear
            while data := fh.read(max(CHUNK_BYTES, len(carry))):
                if isinstance(data, str):
                    data = data.encode()
                text = carry + data
                tokens = text.split()
                carry = tokens.pop() if tokens and not text[-1:].isspace() else b""
                yield text, len(text) - len(carry), tokens, line
                line += text.count(b"\n")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    yield carry, len(carry), [carry] if carry else [], line


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


def _parse_ints(text: bytes, end: int, tokens: list[bytes], line: int, path: str) -> list[int]:
    """The integers of one chunk that _read_tokens reads."""
    # on ASCII text without "_", int() accepts exactly the tokens _int_token does
    if text.isascii() and b"_" not in text:
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    # splitting line by line gives the same tokens: check each, naming the first bad one's line
    for lineno, line_text in enumerate(text[:end].split(b"\n"), start=line):
        if not line_text.isascii():
            raise CliError(f"{path}: not ASCII")
        for tok in line_text.split():
            try:
                _int_token(tok.decode())
            except ValueError:
                raise CliError(f"{path}:{lineno}: not an integer: {tok.decode()!r}") from None
    return list(map(int, tokens))  # what failed the fast check lies past end


def _read_ints(path: str) -> Iterator[list[int]]:
    """The input's integers, one list per chunk that _read_tokens reads."""
    for chunk in _read_tokens(path):
        yield _parse_ints(*chunk, path)


def _parse_word(path: str, as_ints: bool):
    if as_ints:
        word = tuple(s for values in _read_ints(path) for s in values)
        if any(s < 1 for s in word):
            raise CliError(f"{path}: word symbols must be positive integers")
        return word
    letters = b"".join(tok for _, _, tokens, _ in _read_tokens(path) for tok in tokens)
    if not letters.isascii():  # a non-ASCII byte is never a separator
        raise CliError(f"{path}: not ASCII")
    try:
        return text_to_word(letters.decode())
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------


def _cmd_compute(args) -> int:
    word = _parse_word(args.input, args.ints)
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
    engine = spec.make(args.n_max)
    verdict, n, wall = Verdict(True), 0, 0.0
    for values in _read_ints(args.input):
        # after a rejection, or past --n-max, read on without pushing: n= counts
        # every value, and a later parse error still exits 2
        if values and verdict.valid and n + len(values) <= args.n_max:
            t0 = time.perf_counter()
            if args.kind != "g":
                verdict = _push_each(engine, values) if args.instrument else engine.push_many(values)
            elif n == 0:  # this chunk holds g[1]
                verdict, engine = validate_g_stream(values)
            else:  # what validate_g_stream pushes for g[2:]: A'[k-1] = g[k] - 1
                verdict = engine.push_many(g - 1 for g in values)
                if not verdict.valid:
                    verdict = verdict._replace(position=verdict.position + 1)
            wall += time.perf_counter() - t0
        n += len(values)
    if n > args.n_max:
        raise CliError(f"{args.input}: {n} values exceed --n-max {args.n_max}")

    lines = ["format=1", f"kind={args.kind}", f"engine={args.engine}"]
    if verdict.valid:
        lines.append(f"verdict=valid n={n} min_alphabet={verdict.max_alphabet}")
    else:
        lines.append(f"verdict=invalid@{verdict.position} n={n}")
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
