"""The traced run: per-layer self time, call counts, counted ops and real
bytes per position, measured from outside the program.

Spans wrap the public methods of the public classes at each module boundary
(the program itself is not changed).  A span's self time is its duration
minus the spans nested inside it, so ``pi_realtime.push`` excludes its
level-ancestor calls and ``pi_prime_online.push`` excludes the embedded
validator and the suffix index.  Spans are aggregated in memory per name
(calls, inclusive and self nanoseconds) rather than kept one by one.

Counted ops come from ``borderval validate --instrument`` run in-process;
real bytes per position from a ``tracemalloc`` snapshot of a live engine,
grouped by the program's source files.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import statistics
import time
import tracemalloc
from pathlib import Path

import borderval
from borderval import OnlineSuffixIndex, OnlineValidator, RealTimeValidator, SlopeValidator, SuccinctValidator, cli
from borderval.level_ancestor import JumpPointerLA
from workloads import parse_report

PKG_DIR = Path(borderval.__file__).resolve().parent

SPANS = (
    (OnlineValidator, "push", "pi_online.push"),
    (RealTimeValidator, "push", "pi_realtime.push"),
    (JumpPointerLA, "add_leaf", "level_ancestor.add_leaf"),
    (JumpPointerLA, "la", "level_ancestor.la"),
    (SuccinctValidator, "push", "pi_succinct.push"),
    (SuccinctValidator, "finish", "pi_succinct.finish"),
    (SlopeValidator, "push", "pi_prime_online.push"),
    (OnlineSuffixIndex, "append", "suffix_structure.append"),
    (OnlineSuffixIndex, "is_suffix_prefix_of_suffix", "suffix_structure.query"),
)

# The outermost engine span of each configuration's push loop.
TOP_SPAN = {
    "basic": "pi_online.push",
    "realtime": "pi_realtime.push",
    "succinct": "pi_succinct.push",
    "succinct_lazy": "pi_succinct.push",
    "slope": "pi_prime_online.push",
}

# Modules whose real bytes are read from each engine's memory pass.
MEMORY_MODULES = {
    "basic": ("pi_online",),
    "realtime": ("pi_realtime", "level_ancestor"),
    "succinct": ("pi_succinct",),
    "slope": ("pi_prime_online", "suffix_structure"),
}

# Which end-to-end metric, on which workload, each per-layer metric should move.
TARGETS = {
    "cli.self_s": "setup_s on pi_random and pi_periodic",
    "pi_online.push_calls": "validate_s.basic, push_us_p99.basic on pi_random; validate_s.slope (embedded validator)",
    "pi_online.push_self_s": "validate_s.basic, push_us_p99.basic on pi_random; validate_s.slope (embedded validator)",
    "pi_online.ops_total": "validate_s.basic, push_us_p99.basic on pi_random",
    "pi_online.bytes_per_pos": "peak_rss_mb.basic on pi_random",
    "pi_realtime.push_self_s": "push_us_p99.realtime on pi_random",
    "pi_realtime.core_ops_push_max": "push_us_p99.realtime on pi_random",
    "pi_realtime.bytes_per_pos": "peak_rss_mb.realtime on pi_random",
    "level_ancestor.add_leaf_calls": "validate_s.realtime on pi_periodic",
    "level_ancestor.add_leaf_s": "validate_s.realtime on pi_periodic",
    "level_ancestor.ops_push_max": "validate_s.realtime on pi_periodic",
    "level_ancestor.bytes_per_pos": "peak_rss_mb.realtime on pi_periodic",
    "level_ancestor.la_calls": "push_us_p99.realtime on pi_random",
    "level_ancestor.la_s": "push_us_p99.realtime on pi_random",
    "pi_succinct.push_self_s": "validate_s.succinct on pi_periodic",
    "pi_succinct.blocks_created": "validate_s.succinct, peak_rss_mb.succinct on pi_periodic",
    "pi_succinct.declared_bits_per_pos": "peak_rss_mb.succinct on pi_periodic",
    "pi_succinct.bytes_per_pos": "peak_rss_mb.succinct on pi_periodic",
    "pi_succinct.lazy_push_self_s": "push_us_p99.succinct_lazy on pi_random",
    "pi_succinct.chase_max": "push_us_p99.succinct_lazy on pi_random",
    "pi_succinct.finish_s": "push_us_p99.succinct_lazy on pi_random",
    "pi_prime_online.push_self_s": "validate_s.slope, push_us_p99.slope on pi_random",
    "pi_prime_online.dominance_ops": "validate_s.slope, push_us_p99.slope on pi_random",
    "pi_prime_online.ops_coeff": "validate_s.slope, push_us_p99.slope on pi_random",
    "pi_prime_online.bytes_per_pos": "peak_rss_mb.slope on pi_random",
    "suffix_structure.append_calls": "validate_s.slope on pi_random",
    "suffix_structure.append_s": "validate_s.slope on pi_random",
    "suffix_structure.bytes_per_pos": "peak_rss_mb.slope on pi_random",
    "suffix_structure.query_calls": "validate_s.slope on pi_random (useful queries vs appends)",
    "suffix_structure.queries_per_append": "validate_s.slope on pi_random (useful queries vs appends)",
    "trace.overhead_s": "none: the cost of the spans themselves",
}


class Tracer:
    """Installs the spans while active; per span name keeps
    [calls, inclusive ns, self ns]."""

    def __init__(self):
        self.spans: dict[str, list[int]] = {}
        self._open: list[int] = []  # nested-span nanoseconds of each open span

    def _wrap(self, method, name):
        rec = self.spans.setdefault(name, [0, 0, 0])
        stack = self._open
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return method(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return span

    @contextlib.contextmanager
    def active(self):
        originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in SPANS]
        try:
            for (cls, attr, name), (_, _, method) in zip(SPANS, originals):
                setattr(cls, attr, self._wrap(method, name))
            yield self
        finally:
            for cls, attr, method in originals:
                setattr(cls, attr, method)

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0, 0])[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[2] / 1e9


def run_cli(args: list[str]) -> tuple[int, dict[str, str], float]:
    """``borderval validate`` in this process: exit code, report fields and
    seconds spent in ``cli.main``."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["validate", *args])
    elapsed = time.perf_counter() - t0
    return code, parse_report(buf.getvalue()), elapsed


def push_all(engine, values):
    """Push until the first rejection; returns (pushes made, last verdict)."""
    push = engine.push
    verdict = None
    pushed = 0
    for v in values:
        verdict = push(v)
        pushed += 1
        if not verdict.valid:
            break
    return pushed, verdict


def bytes_by_module(eng, values, checks) -> tuple[dict[str, int], int]:
    """Real bytes held by a live engine after the stream, per source module
    of the program, and the positions pushed."""
    gc.collect()
    tracemalloc.start()
    try:
        engine = eng.make()
        pushed, verdict = push_all(engine, values)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    checks.engine(eng, engine, pushed, verdict)
    sizes = {}
    for stat in snapshot.statistics("filename"):
        path = Path(stat.traceback[0].filename)
        if path.parent == PKG_DIR:
            sizes[path.stem] = stat.size
    return sizes, pushed


def measure(workload, engines, files, checks):
    """Per-layer metrics of one workload, a note per metric naming what it
    should move, and no further lines."""
    traced: dict[str, Tracer] = {}
    report: dict[str, dict[str, str]] = {}
    cli_self = []
    overhead = 0.0
    for eng in engines:
        args = ["--kind", eng.kind, "--instrument", *eng.flags, str(files[eng.name])]
        gc.collect()
        code, plain, _ = run_cli(args)
        checks.report(eng, code, plain, "in-process CLI")
        gc.collect()
        tracer = Tracer()
        with tracer.active():
            code, fields, main_s = run_cli(args)
        checks.report(eng, code, fields, "traced CLI")
        traced[eng.name] = tracer
        report[eng.name] = fields
        cli_self.append(main_s - tracer.total_s(TOP_SPAN[eng.name]))
        overhead += (float(fields["wall_ms"]) - float(plain["wall_ms"])) / 1000

    memory: dict[str, float] = {}
    for eng in engines:
        if eng.name in MEMORY_MODULES:
            sizes, kept = bytes_by_module(eng, workload.values(eng), checks)
            for module in MEMORY_MODULES[eng.name]:
                memory[module] = sizes.get(module, 0) / max(1, kept)

    lazy = next(e for e in engines if e.name == "succinct_lazy")
    engine = lazy.make()
    pushed, verdict = push_all(engine, workload.values(lazy))
    t0 = time.perf_counter()
    engine.finish()
    finish_s = time.perf_counter() - t0
    checks.engine(lazy, engine, pushed, verdict)
    del engine

    rt, sc, lz, sl = (traced[k] for k in ("realtime", "succinct", "succinct_lazy", "slope"))
    slope_pushes = sl.calls("pi_prime_online.push")
    sc_positions = sc.calls("pi_succinct.push")
    appends = sl.calls("suffix_structure.append")
    queries = sl.calls("suffix_structure.query")
    metrics = {
        "cli.self_s": statistics.median(cli_self),
        "pi_online.push_calls": sum(t.calls("pi_online.push") for t in traced.values()),
        "pi_online.push_self_s": sum(t.self_s("pi_online.push") for t in traced.values()),
        "pi_online.ops_total": int(report["basic"]["total_ops"]),
        "pi_online.bytes_per_pos": memory["pi_online"],
        "pi_realtime.push_self_s": rt.self_s("pi_realtime.push"),
        "pi_realtime.core_ops_push_max": int(report["realtime"]["max_delay_ops"]),
        "pi_realtime.bytes_per_pos": memory["pi_realtime"],
        "level_ancestor.add_leaf_calls": rt.calls("level_ancestor.add_leaf"),
        "level_ancestor.add_leaf_s": rt.self_s("level_ancestor.add_leaf"),
        "level_ancestor.ops_push_max": int(report["realtime"]["la_ops_max"]),
        "level_ancestor.bytes_per_pos": memory["level_ancestor"],
        "level_ancestor.la_calls": rt.calls("level_ancestor.la"),
        "level_ancestor.la_s": rt.self_s("level_ancestor.la"),
        "pi_succinct.push_self_s": sc.self_s("pi_succinct.push"),
        "pi_succinct.blocks_created": int(report["succinct"]["blocks_created"]),
        "pi_succinct.declared_bits_per_pos": int(report["succinct"]["memory_bits"]) / max(1, sc_positions),
        "pi_succinct.bytes_per_pos": memory["pi_succinct"],
        "pi_succinct.lazy_push_self_s": lz.self_s("pi_succinct.push"),
        "pi_succinct.chase_max": int(report["succinct_lazy"]["chase_max"]),
        "pi_succinct.finish_s": finish_s,
        "pi_prime_online.push_self_s": sl.self_s("pi_prime_online.push"),
        "pi_prime_online.dominance_ops": int(report["slope"]["dominance_ops"]),
        "pi_prime_online.ops_coeff": int(report["slope"]["total_ops"]) / (slope_pushes * math.log2(max(2, slope_pushes))),
        "pi_prime_online.bytes_per_pos": memory["pi_prime_online"],
        "suffix_structure.append_calls": appends,
        "suffix_structure.append_s": sl.self_s("suffix_structure.append"),
        "suffix_structure.bytes_per_pos": memory["suffix_structure"],
        "suffix_structure.query_calls": queries,
        "suffix_structure.queries_per_append": queries / max(1, appends),
        "trace.overhead_s": overhead,
    }
    return metrics, {name: f"moves {target}" for name, target in TARGETS.items()}, []
