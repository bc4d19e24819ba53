"""Correctness checks on every verdict the benchmark sees.

Every workload's inputs are valid by construction, so every verdict must
accept every value.  Beyond the verdict, an accepted pi stream's witness
must reproduce the input under ``compute_pi``, and the slope engine's
recovered border array must map back to its input under ``pi_to_pi_prime``.
The ``verdict=`` line must be the same from every pi engine.
"""

from __future__ import annotations

from borderval.border_core import compute_pi, pi_to_pi_prime


class Checks:
    """Verdicts checked against the expected result, and the mismatches."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # A valid pi stream's alphabet is read from an engine whose witness
        # is checked to reproduce it.
        engine = reference.make()
        for v in workload.pi:
            engine.push(v)
        self.expect(self._witness_ok(engine, workload.pi), f"{reference.name}: witness does not reproduce pi")
        self.lines = {"pi": f"verdict=valid n={len(workload.pi)} min_alphabet={engine.max_alphabet}"}
        # The slope engine reports the alphabet of its committed prefix only.
        self.lines["pi_prime"] = f"verdict=valid n={len(workload.pi_prime)} min_alphabet="

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def report(self, eng, code: int, fields: dict[str, str], source: str) -> None:
        """A ``borderval validate`` run: exit code and verdict line."""
        line = fields.get("verdict", "")
        want = self.lines[eng.kind]
        ok = line == want if eng.kind == "pi" else line.startswith(want)
        self.expect(ok and code == 0, f"{eng.name} {source}: exit {code}, {line!r}, expected {want!r}")

    def engine(self, eng, engine, pushed: int, verdict) -> None:
        """An in-process push loop that stopped after ``pushed`` values."""
        values = self.workload.values(eng)
        if verdict is None or not verdict.valid or pushed != len(values):
            self.expect(False, f"{eng.name} in-process: expected valid, got {verdict} after {pushed} pushes")
        elif eng.kind == "pi":
            self.expect(self._witness_ok(engine, values), f"{eng.name} in-process: witness does not reproduce the input")
        else:
            ok = pi_to_pi_prime(engine.recovered_pi())[: len(values)] == values
            self.expect(ok, f"{eng.name} in-process: recovered pi does not map back to the input")

    @staticmethod
    def _witness_ok(engine, values) -> bool:
        return compute_pi(list(engine.witness())) == values
