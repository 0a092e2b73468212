"""Independent reference values for every nlocalnet command the benchmark runs.

Nothing here imports nlocalnet: each expected value comes from the closed
forms of the canonical plan (all-sigma_z / all-sigma_x products at
intermediate nodes, cos(a) sigma_z +/- sin(a) sigma_x at extremal nodes).
Each check takes what the command printed or wrote and returns a one-line
problem, or None when the output is right.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path
from typing import Sequence

# The package reports a violation when S > 1 + 1e-9.
VIOLATION_TOLERANCE = 1e-9
VALUE_TOLERANCE = 1e-10
# Sweep CSV cells carry 9 significant digits.
CSV_TOLERANCE = 1e-8
LHV_TOLERANCE = 1e-9


def witness(thetas: Sequence[float], alphas: Sequence[float]) -> tuple[float, float, float]:
    """(I0, I1, S) of the canonical plan."""
    p = len(alphas)
    i0 = math.prod(math.cos(a) for a in alphas)
    i1 = (math.prod(math.sin(a) for a in alphas)
          * math.prod(math.sin(2.0 * t) for t in thetas))
    return i0, i1, abs(i0) ** (1.0 / p) + abs(i1) ** (1.0 / p)


def equal_angle_optimum(thetas: Sequence[float], p: int) -> tuple[float, float]:
    """(smax, alpha_star) with K = |prod sin 2 theta|^(1/p): sqrt(1 + K^2), atan K."""
    k = abs(math.prod(math.sin(2.0 * t) for t in thetas)) ** (1.0 / p)
    return math.sqrt(1.0 + k * k), math.atan(k)


def _off(name: str, got, want: float, tol: float) -> str | None:
    # `not <=` also rejects NaN.
    if isinstance(got, bool) or not isinstance(got, (int, float)) \
            or not abs(got - want) <= tol:
        return f"{name} = {got!r}, expected {want!r} within {tol:g}"
    return None


def _violation_off(got, s: float) -> str | None:
    # Too close to the threshold to tell; either answer is right.
    if abs(s - (1.0 + VIOLATION_TOLERANCE)) <= VALUE_TOLERANCE:
        return None
    want = s > 1.0 + VIOLATION_TOLERANCE
    return None if got is want else f"violated = {got!r}, expected {want!r}"


def check_evaluate(stdout: str, thetas: Sequence[float],
                   alphas: Sequence[float]) -> str | None:
    doc = json.loads(stdout)
    i0, i1, s = witness(thetas, alphas)
    return (_off("I0", doc["I0"], i0, VALUE_TOLERANCE)
            or _off("I1", doc["I1"], i1, VALUE_TOLERANCE)
            or _off("S", doc["S"], s, VALUE_TOLERANCE)
            or _violation_off(doc["violated"], s))


def check_maximize(stdout: str, thetas: Sequence[float], p: int) -> str | None:
    doc = json.loads(stdout)
    smax, _ = equal_angle_optimum(thetas, p)
    return (_off("smax", doc["smax"], smax, VALUE_TOLERANCE)
            or _violation_off(doc["violated"], smax))


def check_sweep(path: Path, grid: Sequence[float], n: int, p: int) -> str | None:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    want_rows = len(grid) ** n + 1
    if len(rows) != want_rows:
        return f"sweep has {len(rows)} lines, expected {want_rows} with the header"
    header = [f"theta_{r}" for r in range(1, n + 1)] + ["alpha_star", "smax", "violated"]
    if rows[0] != header:
        return f"sweep header {rows[0]!r}"
    sines = [math.sin(2.0 * t) for t in grid]
    cells = [f"{t:.9g}" for t in grid]
    index_rows = itertools.product(range(len(grid)), repeat=n)
    for line, (row, idx) in enumerate(zip(rows[1:], index_rows), start=2):
        if row[:n] != [cells[i] for i in idx]:
            return f"sweep line {line}: thetas {row[:n]!r} out of grid order"
        k = abs(math.prod(sines[i] for i in idx)) ** (1.0 / p)
        problem = _off(f"sweep line {line} smax", float(row[n + 1]),
                       math.sqrt(1.0 + k * k), CSV_TOLERANCE)
        if problem:
            return problem
    return None


def check_lhv(stdout: str) -> str | None:
    # The classical bound is 1 and the all-zero model reaches it.
    return _off("best_s", json.loads(stdout)["best_s"], 1.0, LHV_TOLERANCE)


def check_validate(stdout: str) -> str | None:
    return None if stdout.strip() == "ok" else f"validate printed {stdout.strip()[:80]!r}"


def check_generate(path: Path, n: int, m: int, p: int) -> str | None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    got = (doc["n"], doc["m"], doc["p"], len(doc["edges"]))
    if got != (n, m, p, n):
        return f"generated (n, m, p, edges) = {got}, expected {(n, m, p, n)}"
    return None


def judge(check, *args) -> str | None:
    """Run a check; output that is missing or cannot be parsed is a problem too."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def self_check(workdir: Path) -> list[str]:
    """Feed the checks right and wrong outputs; return what they misjudged."""
    problems = []

    def expect(label: str, should_fail: bool, check, *args) -> None:
        problem = judge(check, *args)
        if (problem is not None) != should_fail:
            problems.append(f"{label}: check returned {problem!r}")

    thetas, alphas = [0.3, 0.7, 1.1], [0.4, 0.9]
    i0, i1, s = witness(thetas, alphas)
    good = {"I0": i0, "I1": i1, "S": s, "violated": s > 1.0 + VIOLATION_TOLERANCE}
    expect("evaluate, right S", False, check_evaluate, json.dumps(good), thetas, alphas)
    bad = dict(good, S=s * (1.0 + 1e-6))
    expect("evaluate, perturbed S", True, check_evaluate, json.dumps(bad), thetas, alphas)

    grid, n, p = [0.2, 0.5, 0.785], 3, 2
    lines = [",".join([f"theta_{r}" for r in range(1, n + 1)]
                      + ["alpha_star", "smax", "violated"])]
    for combo in itertools.product(grid, repeat=n):
        smax, alpha = equal_angle_optimum(combo, p)
        lines.append(",".join([f"{t:.9g}" for t in combo] + [f"{alpha:.9g}", f"{smax:.9g}",
                              "true" if smax > 1.0 + VIOLATION_TOLERANCE else "false"]))
    path = workdir / "self_check_sweep.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expect("sweep, full CSV", False, check_sweep, path, grid, n, p)
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    expect("sweep, truncated CSV", True, check_sweep, path, grid, n, p)
    path.unlink()

    expect("lhv, best_s 1", False, check_lhv, '{"best_s": 1.0}')
    expect("lhv, best_s 1.01", True, check_lhv, '{"best_s": 1.01}')
    return problems
