import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import borderval
from borderval import families
from borderval.cli import ENGINES, EXIT_INVALID, EXIT_USAGE, EXIT_VALID, main


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

PI_FLAGS = [e.flags for e in ENGINES.values() if "pi" in e.kinds]
KIND_ENGINE = [(kind, name) for name, e in ENGINES.items() for kind in e.kinds]


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


def test_validate_parse_error_names_line_and_token(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n2 3\n\n\t0 1 x7 2\n0\n")
    argv = ["validate", "--kind", "pi", "--engine", "basic"]
    code, out, err = run_cli([*argv, str(path)])
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {path}:4: not an integer: 'x7'\n")
    code, out, err = run_cli([*argv, "-"], "0\r\n1\r\n0 1.5\r\n")
    assert (code, out, err) == (EXIT_USAGE, "", "error: -:3: not an integer: '1.5'\n")
    # int() reads underscore digit groups; the input format has none
    code, out, err = run_cli([*argv, "-"], "0 1_0")
    assert (code, out, err) == (EXIT_USAGE, "", "error: -:1: not an integer: '1_0'\n")
    code, out, err = run_cli([*argv, "--emit-witness", "-"], "0 +1 0_0")
    assert (code, out, err) == (EXIT_USAGE, "", "error: -:1: not an integer: '0_0'\n")
    code, out, err = run_cli(["compute", "--kind", "pi", "--ints", "-"], "1\n0_2\n")
    assert (code, out, err) == (EXIT_USAGE, "", "error: -:2: not an integer: '0_2'\n")


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


@pytest.mark.parametrize("kind,engine", [("pi", "basic"), ("pi", "realtime"), ("pi_prime", "slope")])
def test_validate_rejects_lazy_copy_outside_succinct(kind, engine):
    code, out, err = run_cli(["validate", "--kind", kind, "--engine", engine, "--lazy-copy", "-"], "0 1 0")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: no engine configuration matches --engine {engine} --lazy-copy\n"


def test_verdict_line_identical_across_engines():
    for stream, expected in ((FIG_PI, EXIT_VALID), ("0 1 1", EXIT_INVALID)):
        lines = set()
        for flags in PI_FLAGS:
            code, out, _ = run_cli(["validate", "--kind", "pi", *flags, "-"], stream)
            assert code == expected
            lines.add(tuple(l for l in out.splitlines() if l.startswith("verdict=")))
        assert len(lines) == 1


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
    for flags in PI_FLAGS:
        rc, _, _ = run_cli(["validate", "--kind", "pi", *flags, "-"], out)
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


def test_gen_lowerbound_pair_unwritable_out(tmp_path):
    prefix = str(tmp_path / "missing" / "pair")
    code, out, err = run_cli(
        ["gen", "--family", "lowerbound_pair", "--n", "20", "--seed", "1", "--out", prefix]
    )
    assert code == EXIT_USAGE and err.startswith(f"error: cannot write {prefix}.a.txt: ")
    assert out == ""


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
    from borderval.border_core import compute_pi, pi_to_pi_prime

    pi = compute_pi(families.fibonacci_word(3001))
    return {"pi": pi[:3000], "pi_prime": pi_to_pi_prime(pi)[:3000]}


@pytest.mark.parametrize("kind,engine", KIND_ENGINE)
def test_validate_enforces_n_max(kind, engine):
    streams = _fib_streams()
    values = streams["pi"] if kind == "pi" else streams["pi_prime"]
    if kind == "g":
        values = [0] + [v + 1 for v in values]
    text = " ".join(map(str, values))
    argv = ["validate", "--kind", kind, *ENGINES[engine].flags, "--n-max"]
    code, out, err = run_cli([*argv, "4", "-"], text)
    assert code == EXIT_USAGE and err.startswith("error:") and "--n-max 4" in err
    assert out == ""
    code, out, _ = run_cli([*argv, str(len(values)), "-"], text)
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


def test_validate_g_instrument_counts_the_suffix_index():
    # this stream reaches the suffix index, so its ops are part of total_ops
    values = families.random_valid_pi_prime(2000, 11)
    totals = {}
    for kind, stream in (("pi_prime", values), ("g", [0] + [v + 1 for v in values])):
        code, out, _ = run_cli(
            ["validate", "--kind", kind, "--engine", "slope", "--instrument", "-"],
            " ".join(map(str, stream)),
        )
        assert code == EXIT_VALID
        totals[kind] = [l for l in out.splitlines() if l.startswith("total_ops=")]
    assert totals["g"] == totals["pi_prime"] != []


@pytest.mark.parametrize(
    "kind,name", KIND_ENGINE, ids=[name if kind == ENGINES[name].kinds[0] else kind for kind, name in KIND_ENGINE]
)
def test_instrument_prints_every_stats_key(kind, name):
    # seed 11 reaches the slope engine's suffix index, so every slope key moves
    values = families.random_valid_pi(2000, 11) if kind == "pi" else families.random_valid_pi_prime(2000, 11)
    engine = ENGINES[name].make(len(values))
    for v in values:
        engine.push(v)
    stream = [0] + [v + 1 for v in values] if kind == "g" else values
    code, out, _ = run_cli(
        ["validate", "--kind", kind, *ENGINES[name].flags, "--n-max", str(len(stream)), "--instrument", "-"],
        " ".join(map(str, stream)),
    )
    assert code == EXIT_VALID
    lines = out.splitlines()
    assert lines[3].startswith("verdict=valid") and lines[-1].startswith("wall_ms=")
    assert lines[4:-1] == [f"{key}={value}" for key, value in engine.stats().items()]


@pytest.mark.parametrize("name", ENGINES)
def test_instrument_pushes_one_value_at_a_time(name, monkeypatch):
    # a span wrapping push() must see every pushed value, and the verdict
    # must be the one a plain run (one push_many call) reports
    spec = ENGINES[name]
    kind, cls = spec.kinds[0], type(spec.make(500))
    values = families.random_valid_pi(500, 11) if kind == "pi" else families.random_valid_pi_prime(500, 11)
    broken = values[:300] + [values[299] + 2] + values[301:]
    for stream, pushed, verdict in ((values, 500, "verdict=valid"), (broken, 301, "verdict=invalid@301")):
        text = " ".join(map(str, stream))
        argv = ["validate", "--kind", kind, *spec.flags, "--n-max", "500"]
        _, plain, _ = run_cli([*argv, "-"], text)
        calls = []
        push = cls.push
        monkeypatch.setattr(cls, "push", lambda self, a: calls.append(a) or push(self, a))
        code, each, _ = run_cli([*argv, "--instrument", "-"], text)
        monkeypatch.undo()
        assert code == (EXIT_VALID if pushed == 500 else EXIT_INVALID)
        assert calls == stream[:pushed]
        assert each.splitlines()[3].startswith(verdict)
        assert each.splitlines()[:4] == plain.splitlines()[:4]


@pytest.mark.parametrize("sigma", ["0", "-2"])
def test_gen_rejects_non_positive_sigma(sigma):
    code, out, err = run_cli(["gen", "--family", "random_word", "--n", "5", "--sigma", sigma])
    assert code == EXIT_USAGE and err == f"error: --sigma: must be at least 1, got {sigma}\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv,option,value",
    [
        (["gen", "--family", "unary"], "--n", "1_0"),
        (["gen", "--family", "unary"], "--n", "\uff11\uff10"),  # fullwidth digits, which int() reads as 10
        (["gen", "--family", "random_word", "--n", "3"], "--seed", "1_1"),
        (["gen", "--family", "random_word", "--n", "3"], "--sigma", "0_2"),
        (["validate", "--kind", "pi", "--engine", "basic", "-"], "--n-max", "1_0"),
    ],
    ids=["n", "n_fullwidth", "seed", "sigma", "n_max"],
)
def test_integer_options_take_the_input_token_rule(argv, option, value):
    # the options read integers as the input files do: [+-]?[0-9]+, no "_" digit groups
    code, out, err = run_cli([*argv, option, value], "0 1 0")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1].endswith(f"argument {option}: not an integer: {value!r}")


@pytest.mark.parametrize("n_max", ["0", "-5"])
@pytest.mark.parametrize("stream", ["", "0 1"])
def test_validate_rejects_non_positive_n_max(n_max, stream):
    code, out, err = run_cli(["validate", "--kind", "pi", "--engine", "basic", "--n-max", n_max, "-"], stream)
    assert code == EXIT_USAGE and err == f"error: --n-max: must be at least 1, got {n_max}\n"
    assert out == ""


@pytest.mark.parametrize("bias", ["2", "-1"])
def test_gen_rejects_unary_bias_outside_unit_interval(bias):
    code, out, err = run_cli(["gen", "--family", "random_valid_pi", "--n", "5", "--unary-bias", bias])
    assert code == EXIT_USAGE and err == f"error: --unary-bias: must be within [0, 1], got {float(bias)}\n"
    assert out == ""


def test_cli_import_leaves_dataclasses_out():
    # Verdict is a NamedTuple: a validate child never pays for importing
    # dataclasses (and inspect behind it)
    src = str(Path(borderval.__file__).resolve().parents[1])
    probe = "import sys, borderval.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": src}, capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\n"


def test_bench_engines_match_the_table(monkeypatch):
    # the benchmark keeps its own engine list; it must name, flag and build
    # each configuration as the table does (imported without writing bytecode)
    root = Path(__file__).resolve().parents[1]
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks its module up
    spec.loader.exec_module(workloads)
    assert {eng.name for eng in workloads.ENGINES} == set(ENGINES)
    for eng in workloads.ENGINES:
        table = ENGINES[eng.name]
        assert (eng.kind, eng.flags) == (table.kinds[0], table.flags)
        built, made = eng.make(), table.make(2**32)  # the CLI's default --n-max
        assert type(built) is type(made)
        assert getattr(built, "lazy", None) == getattr(made, "lazy", None)
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    names = {m["name"].removeprefix("validate_s.") for m in metrics if m["name"].startswith("validate_s.")}
    assert names == set(ENGINES)
