"""The borderval benchmark: one command, seeded inputs, every engine.

    python3 bench/run.py --workload pi_random --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the program is imported and run from its
``src`` directory, nothing needs installing.  With ``--trace 0`` it measures
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it runs
the traced per-layer pass instead (see layers.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

End-to-end measurement, in rounds until ``--seconds`` is spent (at least
MIN_ROUNDS rounds).  Each round takes every engine in turn, one at a time:

* ``borderval validate`` as a child process on the workload file: its wall
  time, its peak RSS (from ``os.wait4``, per child), and its set-up time,
  which is the wall time minus the push-loop ``wall_ms`` the CLI reports
  (interpreter start, import, reading and parsing, building the engine,
  printing the report);
* the same values pushed through a new engine's ``push()`` in this
  process, one caller in a closed loop, each push timed on its own, with
  the cyclic garbage collector off, as ``timeit`` does: its pauses depend
  on every object of the process and on the host's cache more than on the
  engine, and they made the p99 of identical runs wander.  The child
  processes keep it on, so ``validate_s`` still pays for it.

Reported: the median over rounds of each child's wall time and peak RSS,
the median set-up time over all children, and the median over windows of
WINDOW consecutive pushes of each window's p99 push delay; the p50, p99 and
highest well-sampled percentile of all pushes are printed beside it.
Inputs are made once per run, before any timed region.

Every input is valid by construction and every verdict must say so; every
accepted pi stream's witness must reproduce the input, the slope engine's
recovered border array must map back to its input, and the children's
``verdict=`` lines must match.  Any mismatch makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
MIN_ROUNDS = 3
TAIL_SAMPLES = 10  # the reported tail percentile keeps this many samples beyond it
# push_us_p99 is the median over windows of this many consecutive pushes of
# each window's p99: the host's speed drifts within seconds, and the median
# over many short windows follows its typical speed, not its slow spells.
WINDOW = 2000
RSS_ENGINES = ("basic", "realtime", "succinct", "slope")  # lazy copying shares the eager layout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "borderval" / "cli.py").is_file():
        print(f"error: no borderval sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        return run(args, None)
    launcher = Launcher()  # first, while this process is still small
    try:
        return run(args, launcher)
    finally:
        launcher.close()


def run(args, launcher: Launcher | None) -> int:
    sys.path.insert(0, str(SRC))
    import workloads  # these need borderval on the path
    from checks import Checks

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    workload = workloads.make(args.workload, args.seed)
    props = workloads.properties(workload)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        files = {}
        for eng in workloads.ENGINES:
            path = Path(tmp) / f"{eng.kind}.txt"
            if not path.exists():
                path.write_text("\n".join(map(str, workload.values(eng))) + "\n", encoding="ascii")
            files[eng.name] = path
        checks = Checks(workload, workloads.ENGINES[0])
        if args.trace:
            import layers

            metrics, notes, lines = layers.measure(workload, workloads.ENGINES, files, checks)
        else:
            metrics, notes, lines = measure_end_to_end(workload, workloads.ENGINES, files, args.seconds, launcher, checks)

    missing = units.keys() - metrics.keys()
    extra = metrics.keys() - units.keys()
    if missing or extra:
        print(f"error: metrics differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print("input " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in props.items()))
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name:<36} {metrics[name]:>12.6g} {unit:<7}  {notes.get(name, '')}")
    rate = checks.failed / max(1, checks.attempted)
    print(f"verdict_error_rate {rate:g} ratio  ({checks.failed} of {checks.attempted} verdicts checked)")
    for problem in checks.problems[:20]:
        print(f"MISMATCH {problem}")
    result = {
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


class Launcher:
    """The small process (spawn.py) that runs the children one at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawn.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list[str], env: dict[str, str], out: Path) -> dict:
        job = {"argv": argv, "env": env, "cwd": str(ROOT), "out": str(out)}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended early")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


class Child:
    """One ``borderval validate`` process: exit code, report, wall seconds,
    set-up seconds and peak RSS in MiB."""

    def __init__(self, launcher: Launcher, cmd: list[str], env: dict[str, str], out: Path):
        from workloads import parse_report

        done = launcher.run(cmd, env, out)
        self.code = done["code"]
        self.wall_s = done["wall_s"]
        self.rss_mb = done["rss_kib"] / 1024  # Linux reports KiB
        self.output = out.read_text(encoding="ascii", errors="replace")
        self.report = parse_report(self.output)
        wall_ms = self.report.get("wall_ms")
        self.setup_s = self.wall_s - float(wall_ms) / 1000 if wall_ms else math.nan


def timed_pushes(engine, values, samples: array):
    """Push until the first rejection, timing each push into ``samples``;
    returns (pushes made, last verdict)."""
    push = engine.push
    clock = time.perf_counter_ns
    verdict = None
    i = 0
    t = clock()
    for v in values:
        verdict = push(v)
        now = clock()
        samples[i] = now - t
        t = now
        i += 1
        if not verdict.valid:
            break
    return i, verdict


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_percentile(sorted_values) -> tuple[float, float]:
    """The highest of p99, p99.9, ... with at least TAIL_SAMPLES samples
    beyond it, and its value."""
    best = 0.99
    for q in (0.999, 0.9999, 0.99999):
        if len(sorted_values) * (1 - q) >= TAIL_SAMPLES:
            best = q
    return best, percentile(sorted_values, best)


def measure_end_to_end(workload, engines, files, seconds: float, launcher: Launcher, checks):
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def child_cmd(eng, path):
        return [sys.executable, "-m", "borderval.cli", "validate", "--kind", eng.kind, *eng.flags, str(path)]

    # Warm-up, untimed: compiles the program's bytecode and fills caches.
    tiny = files[engines[0].name].parent / "warmup.txt"
    tiny.write_text("0\n")
    out = tiny.parent / "child.out"
    Child(launcher, child_cmd(engines[0], tiny), env, out)

    wall = {e.name: [] for e in engines}
    rss = {e.name: [] for e in engines}
    p99 = {e.name: [] for e in engines}  # one per window of WINDOW pushes
    pooled = {e.name: array("q") for e in engines}
    setup = []
    start = time.perf_counter()
    round_s = []
    while True:
        t_round = time.perf_counter()
        for eng in engines:
            values = workload.values(eng)
            child = Child(launcher, child_cmd(eng, files[eng.name]), env, out)
            wall[eng.name].append(child.wall_s)
            rss[eng.name].append(child.rss_mb)
            setup.append(child.setup_s)
            checks.report(eng, child.code, child.report, "child")
            checks.expect(not math.isnan(child.setup_s), f"{eng.name} child: no wall_ms in {child.output!r}")

            gc.collect()
            engine = eng.make()
            samples = array("q", bytes(8 * len(values)))
            gc.disable()
            try:
                pushed, verdict = timed_pushes(engine, values, samples)
            finally:
                gc.enable()
            del samples[pushed:]
            for lo in range(0, pushed - WINDOW + 1, WINDOW):
                p99[eng.name].append(percentile(sorted(samples[lo : lo + WINDOW]), 0.99) / 1000)
            pooled[eng.name].extend(samples)
            del samples
            checks.engine(eng, engine, pushed, verdict)
            del engine
        round_s.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - start
        if len(round_s) >= MIN_ROUNDS and elapsed + statistics.median(round_s) > seconds:
            break

    metrics = {"setup_s": statistics.median(setup)}
    notes = {"setup_s": f"median of {len(setup)} children"}
    for eng in engines:
        name = eng.name
        metrics[f"validate_s.{name}"] = statistics.median(wall[name])
        notes[f"validate_s.{name}"] = f"median of {len(wall[name])} children"
        if name in RSS_ENGINES:
            metrics[f"peak_rss_mb.{name}"] = statistics.median(rss[name])
            notes[f"peak_rss_mb.{name}"] = f"median of {len(rss[name])} children"
        metrics[f"push_us_p99.{name}"] = statistics.median(p99[name])
        ordered = sorted(pooled[name])
        q, tail = tail_percentile(ordered)
        notes[f"push_us_p99.{name}"] = (
            f"median of {len(p99[name])} windows; all {len(ordered)} pushes: p50 {percentile(ordered, 0.5) / 1000:.3f},"
            f" p99 {percentile(ordered, 0.99) / 1000:.3f}, p{q * 100:g} {tail / 1000:.3f} us"
        )
        del ordered
    lines = [f"rounds={len(round_s)} measured_s={time.perf_counter() - start:.1f}"]
    return metrics, notes, lines


if __name__ == "__main__":
    sys.exit(main())
