"""Mutation testing of the package's modules: run the tests against small
changes to one module and list the changes that no test notices.

    python tools/mutate.py src/nlocalnet/builders.py src/nlocalnet/topology.py \
        [--root DIR] > survivors.json

Each mutant changes one place of one module file, found with the standard
library's `ast`:

- statement deletion: a statement (a whole block for `if`, `for`, `def` and
  the like) becomes `pass`; docstrings are left alone;
- constant +1 and constant -1: an integer literal (not a bool) moves by one;
- comparison flip: one comparison operator becomes its negation (`<` and
  `>=`, `>` and `<=`, `==` and `!=`, `in` and `not in`, `is` and `is not`).

The edit is made in the source text at the node's position, so the rest of
the file keeps its bytes.  A mutant that does not compile is counted as
invalid and not run.  A module is named by its path, absolute or relative
to --root (default: this checkout), and must be a file under src/nlocalnet/
of that tree.  For each mutant the whole tree is copied to a temporary
directory, the module file is replaced there, and pytest runs with the
copy's `src/` on PYTHONPATH, in the copy, stopping at the first failure;
the tree itself is never written.  It runs only the test files under
`tests/` that import the module, directly, through a name imported from the
package, or through another imported module of the package or of `tests/`.
A test file that runs the package in a child process is selected by what it
imports, like any other.  Mutants run as many at once as there are CPUs.

A mutant is killed when pytest fails, survives when it passes, and times out
when it runs longer than three times the unmutated run, plus 30 s.  The
unmutated run must pass first.  A summary goes to stderr; the survivors,
with the counts, go as JSON to stdout.  This is slow, about the test run
once per mutant, so it is not part of the tier-1 tests.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "nlocalnet"
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench_work")
NEGATED = {ast.Lt: ">=", ast.GtE: "<", ast.Gt: "<=", ast.LtE: ">", ast.Eq: "!=",
           ast.NotEq: "==", ast.In: "not in", ast.NotIn: "in", ast.Is: "is not",
           ast.IsNot: "is"}
OPERATOR_TEXT = re.compile(rb"not\s+in\b|is\s+not\b|\bin\b|\bis\b|==|!=|<=|>=|<|>")


class Mutant(NamedTuple):
    line: int
    operator: str
    start: int  # byte offsets into the module's source
    end: int
    replacement: bytes

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.replacement + source[self.end:]


def offset(line_starts: list[int], line: int, column: int) -> int:
    """The byte offset of an ast position (1-based line, column in UTF-8 bytes)."""
    return line_starts[line - 1] + column


def is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def mutants(source: bytes) -> list[Mutant]:
    """Every mutant of the module, in source order."""
    line_starts = [0]
    for text in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(text))
    tree = ast.parse(source)

    def span(node: ast.AST) -> tuple[int, int]:
        """Byte offsets of the node's text, its decorators' `@` included."""
        start = offset(line_starts, node.lineno, node.col_offset)
        for decorator in getattr(node, "decorator_list", []):
            start = min(start, source.rindex(b"@", 0, offset(
                line_starts, decorator.lineno, decorator.col_offset)))
        return start, offset(line_starts, node.end_lineno, node.end_col_offset)

    # Positions inside f-strings are not reliable before Python 3.12.
    in_fstrings = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                   for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in in_fstrings:
            continue
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            for stmt in block if isinstance(block, list) else []:
                if not is_docstring(stmt):
                    found.append(Mutant(stmt.lineno, "statement deletion", *span(stmt), b"pass"))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            for step, name in ((1, "constant +1"), (-1, "constant -1")):
                found.append(Mutant(node.lineno, name, *span(node),
                                    str(node.value + step).encode()))
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, before, after in zip(node.ops, operands, operands[1:]):
                match = OPERATOR_TEXT.search(source, span(before)[1], span(after)[0])
                found.append(Mutant(node.lineno, "comparison flip", match.start(),
                                    match.end(), NEGATED[type(op)].encode()))
    return sorted(found, key=lambda m: (m.start, m.end, m.operator))


def imported(path: Path, package_modules: dict[str, Path], homes: dict[str, str],
             test_modules: dict[str, Path]) -> set[str]:
    """Names of the package and tests modules that the file imports anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: inside the package
                base = f"{PACKAGE}.{node.module}" if node.module else PACKAGE
            else:
                base = node.module or ""
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
            if base == PACKAGE:
                targets += [homes[alias.name] for alias in node.names if alias.name in homes]
        else:
            continue
        for target in targets:
            if target in package_modules or target in test_modules:
                names.add(target)
    return names


def selected_tests(root: Path, module: str) -> list[Path]:
    """The test files that import module, those that import it directly first."""
    src = root / "src" / PACKAGE
    package_modules = {f"{PACKAGE}.{path.stem}": path for path in src.glob("*.py")}
    homes = {}  # a name defined at the top of a package module -> that module
    for name, path in package_modules.items():
        for node in ast.parse(path.read_bytes()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes.setdefault(node.name, name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        homes.setdefault(target.id, name)
    test_modules = {path.stem: path for path in (root / "tests").glob("*.py")}
    graph = {name: imported(path, package_modules, homes, test_modules)
             for name, path in {**package_modules, **test_modules}.items()}

    def reaches(name: str) -> bool:
        seen, stack = set(), [name]
        while stack:
            current = stack.pop()
            if current == module:
                return True
            if current not in seen:
                seen.add(current)
                stack.extend(graph.get(current, ()))
        return False

    tests = [name for name in sorted(test_modules) if name.startswith("test_") and reaches(name)]
    tests.sort(key=lambda name: module not in graph[name])
    return [test_modules[name].relative_to(root) for name in tests]


def run_tests(tree: Path, tests: list[Path], timeout: float) -> str:
    """'killed', 'survived' or 'timeout' for the tests run in the tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *map(str, tests)]
    try:
        result = subprocess.run(command, cwd=tree, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if result.returncode == 0 else "killed"


def run_mutant(root: Path, relative: Path, source: bytes, tests: list[Path],
               timeout: float | None) -> str:
    """Run the tests in a copy of root whose file at relative has source."""
    with tempfile.TemporaryDirectory(prefix="nlocalnet-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=IGNORED)
        (tree / relative).write_bytes(source)
        return run_tests(tree, tests, timeout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", type=Path,
                        help=f"module files under src/{PACKAGE}/ (relative to --root "
                             "or absolute)")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="the tree to copy and test (default: this checkout)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    started = time.perf_counter()
    report = {"root": str(root), "modules": [], "survivors": []}
    for name in args.modules:
        path = (root / name).resolve()
        if path.parent != root / "src" / PACKAGE or path.suffix != ".py" or not path.is_file():
            parser.error(f"{name} is not a module file under {root / 'src' / PACKAGE}/")
        relative = path.relative_to(root)
        module = f"{PACKAGE}.{path.stem}"
        tests = selected_tests(root, module)
        source = path.read_bytes()
        clock = time.perf_counter()
        if run_mutant(root, relative, source, tests, None) != "survived":
            print(f"error: the tests fail on the unmutated {relative}", file=sys.stderr)
            return 1
        timeout = 3 * (time.perf_counter() - clock) + 30
        candidates, invalid = [], 0
        for mutant in mutants(source):
            mutated = mutant.apply(source)
            try:
                compile(mutated, str(path), "exec")
            except SyntaxError:
                invalid += 1
                continue
            candidates.append((mutant, mutated))
        print(f"{relative}: {len(candidates)} mutants ({invalid} invalid), "
              f"{len(tests)} test files, {timeout:.0f} s timeout", file=sys.stderr)
        with ThreadPoolExecutor(os.cpu_count()) as pool:
            outcomes = list(pool.map(
                lambda item: run_mutant(root, relative, item[1], tests, timeout), candidates))
        counts = {outcome: outcomes.count(outcome) for outcome in ("killed", "survived",
                                                                  "timeout")}
        report["modules"].append({"module": str(relative), "mutants": len(candidates),
                                  "invalid": invalid, **counts,
                                  "tests": [str(test) for test in tests]})
        lines = source.decode().splitlines()
        for (mutant, _), outcome in zip(candidates, outcomes):
            if outcome != "killed":
                report["survivors"].append({
                    "module": str(relative), "line": mutant.line, "operator": mutant.operator,
                    "outcome": outcome, "replaced": source[mutant.start:mutant.end].decode(),
                    "by": mutant.replacement.decode(),
                    "source_line": lines[mutant.line - 1].strip()})
        print(f"{relative}: {counts['killed']} killed, {counts['survived']} survived, "
              f"{counts['timeout']} timed out", file=sys.stderr)
    report["seconds"] = round(time.perf_counter() - started, 1)
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
