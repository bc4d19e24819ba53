import io
import sys

import pytest

from borderval.cli import EXIT_INVALID, EXIT_USAGE, EXIT_VALID, main


def run_cli(argv, stdin_text=""):
    old_in, old_out, old_err = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old_in, old_out, old_err


FIG_WORD = "aabaabaaabaac"
FIG_PI = "0 1 0 1 2 3 4 5 2 3 4 5 0"


def test_compute_pi():
    code, out, _ = run_cli(["compute", "--kind", "pi", "-"], FIG_WORD)
    assert code == EXIT_VALID
    assert out.split() == FIG_PI.split()


def test_compute_pi_single_letter():
    code, out, _ = run_cli(["compute", "--kind", "pi", "-"], "a")
    assert code == EXIT_VALID and out.split() == ["0"]


def test_compute_pi_prime():
    code, out, _ = run_cli(["compute", "--kind", "pi_prime", "-"], "aaa")
    assert code == EXIT_VALID and out.split() == ["-1", "-1", "2"]


def test_compute_parse_error_cites_line():
    code, _, err = run_cli(["compute", "--kind", "pi", "-"], "ab9")
    assert code == EXIT_USAGE and "-" in err


def test_validate_exit_codes():
    code, out, _ = run_cli(["validate", "--kind", "pi", "--engine", "basic", "-"], "0 1 1")
    assert code == EXIT_INVALID
    assert "verdict=invalid@3 n=3" in out
    code, out, _ = run_cli(["validate", "--kind", "pi", "--engine", "realtime", "-"], FIG_PI)
    assert code == EXIT_VALID
    assert "verdict=valid n=13 min_alphabet=3" in out


def test_validate_usage_errors():
    code, _, err = run_cli(["validate", "--kind", "pi", "--engine", "slope", "-"], "0")
    assert code == EXIT_USAGE and "error:" in err
    code, _, _ = run_cli(["validate", "--kind", "pi", "--engine", "basic", "/nonexistent"])
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["validate"])
    assert code == EXIT_USAGE


def test_verdict_line_identical_across_engines():
    lines = {}
    for engine in ("basic", "realtime", "succinct"):
        code, out, _ = run_cli(["validate", "--kind", "pi", "--engine", engine, "-"], FIG_PI)
        assert code == EXIT_VALID
        lines[engine] = [l for l in out.splitlines() if l.startswith("verdict=")]
    assert lines["basic"] == lines["realtime"] == lines["succinct"]
    for engine in ("basic", "realtime", "succinct"):
        code, out, _ = run_cli(
            ["validate", "--kind", "pi", "--engine", engine, "-"], "0 1 1"
        )
        assert code == EXIT_INVALID
        lines[engine] = [l for l in out.splitlines() if l.startswith("verdict=")]
    assert lines["basic"] == lines["realtime"] == lines["succinct"]


def test_validate_slope_emit_pi():
    stream = "-1 1 -1 -1 1 -1 -1 5 1 -1 -1 5 0"
    code, out, _ = run_cli(
        ["validate", "--kind", "pi_prime", "--engine", "slope", "--emit-pi", "-"], stream
    )
    assert code == EXIT_VALID
    assert "recovered_pi=0 1 0 1 2 3 4 5 2 3 4 5 0 0" in out


def test_validate_g():
    code, out, _ = run_cli(["validate", "--kind", "g", "--engine", "slope", "-"], "0 0 0 3")
    assert code == EXIT_VALID
    code, out, _ = run_cli(["validate", "--kind", "g", "--engine", "slope", "-"], "1")
    assert code == EXIT_INVALID and "invalid@1" in out


def test_gen_unary():
    code, out, _ = run_cli(["gen", "--family", "unary", "--n", "5"])
    assert code == EXIT_VALID and out.split() == ["0", "1", "2", "3", "4"]


def test_gen_random_valid_accepted_by_all_engines():
    code, out, _ = run_cli(["gen", "--family", "random_valid_pi", "--n", "500", "--seed", "7"])
    assert code == EXIT_VALID
    for engine in ("basic", "realtime", "succinct"):
        rc, _, _ = run_cli(["validate", "--kind", "pi", "--engine", engine, "-"], out)
        assert rc == EXIT_VALID


def test_gen_lowerbound_pair(tmp_path):
    prefix = str(tmp_path / "pair")
    code, out, _ = run_cli(
        ["gen", "--family", "lowerbound_pair", "--n", "20", "--seed", "1", "--out", prefix]
    )
    assert code == EXIT_VALID
    assert "valid_member=a" in out
    a = (tmp_path / "pair.a.txt").read_text()
    b = (tmp_path / "pair.b.txt").read_text()
    assert run_cli(["validate", "--kind", "pi", "--engine", "basic", "-"], a)[0] == EXIT_VALID
    assert run_cli(["validate", "--kind", "pi", "--engine", "basic", "-"], b)[0] == EXIT_INVALID


def test_gen_word_emit_conversion():
    code, pi_out, _ = run_cli(["gen", "--family", "fibonacci", "--n", "10", "--emit", "pi"])
    assert code == EXIT_VALID
    code, w_out, _ = run_cli(["gen", "--family", "fibonacci", "--n", "10"])
    assert code == EXIT_VALID and len(w_out.split()) == 10


def test_bench_table_shape():
    code, out, _ = run_cli(
        ["bench", "--engine", "realtime", "--family", "unary", "--n-list", "100,200"]
    )
    assert code == EXIT_VALID
    lines = out.strip().splitlines()
    assert lines[0].split() == [
        "engine", "family", "n", "verdict", "max_delay_ops",
        "la_ops_max", "total_ops", "memory_bits", "wall_ms",
    ]
    assert len(lines) == 3
    assert lines[1].split()[:4] == ["realtime", "unary", "100", "valid"]


def test_report_roundtrip():
    code, out, _ = run_cli(
        ["validate", "--kind", "pi", "--engine", "succinct", "--instrument", "-"], FIG_PI
    )
    assert code == EXIT_VALID
    fields = dict(
        tok.split("=", 1) for line in out.splitlines() for tok in line.split() if "=" in tok
    )
    assert fields["format"] == "1"
    assert fields["verdict"] == "valid"
    assert int(fields["memory_bits"]) > 0



def _fib_streams():
    from borderval import families
    from borderval.border_core import compute_pi, pi_to_pi_prime

    pi = compute_pi(families.fibonacci_word(3001))
    return {"pi": pi[:3000], "pi_prime": pi_to_pi_prime(pi)[:3000]}


@pytest.mark.parametrize(
    "kind,engine",
    [("pi", "basic"), ("pi", "realtime"), ("pi", "succinct"), ("pi_prime", "slope"), ("g", "slope")],
)
def test_validate_enforces_n_max(kind, engine):
    streams = _fib_streams()
    values = streams["pi"] if kind == "pi" else streams["pi_prime"]
    if kind == "g":
        values = [0] + [v + 1 for v in values]
    text = " ".join(map(str, values))
    code, out, err = run_cli(["validate", "--kind", kind, "--engine", engine, "--n-max", "4", "-"], text)
    assert code == EXIT_USAGE and err.startswith("error:") and "--n-max 4" in err
    assert out == ""
    code, out, _ = run_cli(["validate", "--kind", kind, "--engine", engine, "--n-max", str(len(values)), "-"], text)
    assert code == EXIT_VALID and "verdict=valid" in out


def test_validate_rejects_non_ascii_input(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("0 1 é\n", encoding="utf-8")
    code, _, err = run_cli(["validate", "--kind", "pi", "--engine", "basic", str(path)])
    assert code == EXIT_USAGE and err == f"error: {path}: not ASCII\n"
    code, _, err = run_cli(["validate", "--kind", "pi", "--engine", "basic", "-"], "0 1 é")
    assert code == EXIT_USAGE and err == "error: -: not ASCII\n"


@pytest.mark.parametrize("stream", ["", "0"])
def test_validate_g_with_empty_word(stream):
    code, out, _ = run_cli(["validate", "--kind", "g", "--engine", "slope", "-"], stream)
    assert code == EXIT_VALID
    assert f"verdict=valid n={len(stream.split())} min_alphabet=0" in out.splitlines()
