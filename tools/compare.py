"""Run one fixed matrix of nlocalnet command lines against this tree and a git
revision, and stop at the first difference in what they print or write.

    python tools/compare.py REV [--allow ID]...

REV is exported with `git archive` into a temporary directory.  Each command
line runs in a fresh `python -m nlocalnet` process with PYTHONPATH set to the
tree's `src/` and no bytecode written, once per tree, the two at the same
time.  Each tree runs in its own work directory under the same relative file
names, so a message that prints a path reads the same on both sides.  After
each command the script compares exit code, stdout, stderr and every file in
the work directory that the command created, changed or removed.

The matrix covers every subcommand; every `generate` kind, to stdout and to
--output; usage errors, --help and each COMMAND --help; every set-up and pass
command of the benchmark's workloads at seeds 1 to 3, read from
`perfbench/workloads.py`; one invalid layout for each kind of issue line
that `validate` prints from a file; chain(100000) and star(100000) with
their angle lists in @FILE arguments; and tree(99999, 3).

--allow ID names a command line whose difference is intended, and the script
then goes on past it; an ID that shows no difference is an error, so the list
stays exact.  The exit code is 0 with no difference outside the list, 1 at a
difference (or an allowed ID without one), and 2 for a bad argument.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

BENCHMARK_SEEDS = (1, 2, 3)
TIMEOUT_S = 300
# A shown value is cut to this many characters.
SHOWN = 300

RELABELLED_CHAIN3 = ('[{"source":1,"ends":["A2","B2"]},{"source":2,"ends":["A1","A2"]},'
                     '{"source":3,"ends":["B1","A1"]}]')
# Input files written into both work directories before any command runs.
INPUTS = {
    "broken.json": '{"n": 3, "m": 2, "p": 2, "edges": [{"source": 1, "ends": ["B1", "A1"]}]}',
    "not-json.json": "{",
    "maximize.args": "--topology\nchain3.json\n--theta\n0.25pi,0.25pi,0.25pi\n",
    "chain100000.args": "--theta\n" + ",".join(["0.25pi"] * 100000)
                        + "\n--alpha\n0.25pi,0.3\n",
    "star100000.args": "--theta\n" + ",".join(["0.25pi"] * 100000)
                       + "\n--alpha\n" + ",".join(["0.3"] * 100000) + "\n",
    "star100000.theta": "--theta\n" + ",".join(["0.2pi"] * 100000) + "\n",
}
# Layouts that `validate` rejects, each for one kind of issue line: n, m, p
# and each source with its two ends.  A node of a kind other than A or B
# cannot be written in a file, so that line has no layout here.
BROKEN = {
    "n below 2": (1, 2, 2, [(1, "B1", "B2")]),
    "m below 2": (2, 1, 2, [(1, "B1", "A1"), (2, "A1", "B2")]),
    "p below 2": (2, 2, 1, [(1, "B1", "A1"), (2, "A1", "B2")]),
    "p above n": (2, 2, 10, [(1, "B1", "A1"), (2, "A1", "B2")]),
    "not divisible": (3, 2, 3, [(1, "B1", "A1"), (2, "A1", "B2"), (3, "A1", "B3")]),
    "source out of range": (2, 2, 2, [(1, "B1", "A1"), (7, "A1", "B2")]),
    "both ends at one node": (3, 2, 2, [(1, "B1", "A1"), (2, "A1", "A1"), (3, "A2", "B2")]),
    "intermediate range": (3, 2, 2, [(1, "B1", "A1"), (2, "A1", "A3"), (3, "A3", "B2")]),
    "extremal range": (3, 2, 2, [(1, "B1", "A1"), (2, "A1", "A2"), (3, "A2", "B3")]),
    "degree": (3, 2, 2, [(1, "B1", "A1"), (2, "A1", "B2"), (3, "B2", "A2")]),
    "cycle": (2, 2, 2, [(1, "A1", "A2"), (2, "A2", "A1")]),
    "disconnected": (4, 2, 4, [(1, "B1", "A1"), (2, "A1", "B2"), (3, "B3", "A2"),
                               (4, "A2", "B4")]),
}
INPUTS.update({
    f"{name.replace(' ', '-')}.json": json.dumps({"n": n, "m": m, "p": p, "edges": [
        {"source": r, "ends": [u, v]} for r, u, v in edges]})
    for name, (n, m, p, edges) in BROKEN.items()})
# Per layout: generate's arguments, then the source and extremal angles.
LAYOUTS = {
    "chain3": (["chain", "--n", "3"], "0.7853981633974483,0.6,0.3", "0.4,1.1"),
    "star4": (["star", "--n", "4"], "0.25pi,0.7,0.6,0.5", "0.2,0.4,0.6,0.8"),
    "tree7_3": (["tree", "--n", "7", "--m", "3"], "0.1,0.2,0.3,0.4,0.5,0.6,0.7",
                "0.3,0.6,0.9,1.2,1.5"),
    "relabelled": (["custom", "--n", "3", "--m", "2", "--p", "2", "--edges", RELABELLED_CHAIN3],
                   "0.7853981633974483,0.6,0.3", "0.4,1.1"),
}


def benchmark_runs():
    """(relative work directory, workload builder, seed) of each benchmark run."""
    return [(Path(f"{name}-{seed}"), build, seed)
            for name, build in WORKLOADS.items() for seed in BENCHMARK_SEEDS]


def matrix() -> list[tuple[str, list[str]]]:
    """(ID, argv) in the order they run; later commands read earlier files."""
    cases = []
    for name, (kind, _, _) in LAYOUTS.items():
        cases.append((f"generate {name}", ["generate", *kind]))
        cases.append((f"generate {name} --output", ["generate", *kind,
                                                    "--output", f"{name}.json"]))
    for name, (_, theta, alpha) in LAYOUTS.items():
        topo = ["--topology", f"{name}.json"]
        cases += [
            (f"validate {name}", ["validate", *topo]),
            (f"evaluate {name}", ["evaluate", *topo, "--theta", theta, "--alpha", alpha]),
            (f"maximize {name}", ["maximize", *topo, "--theta", theta]),
            (f"sweep {name}", ["sweep", *topo, "--grid", "0,0.25pi,0.3"]),
            (f"sweep {name} --output", ["sweep", *topo, "--grid", "0,0.25pi,0.3",
                                        "--output", f"{name}.csv"]),
            (f"lhv {name}", ["lhv", *topo]),
            (f"lhv {name} --output", ["lhv", *topo, "--output", f"{name}.model.json"]),
        ]
    chain3 = ["--topology", "chain3.json"]
    quarter = "0.25pi,0.25pi,0.25pi"
    cases += [
        ("evaluate no violation", ["evaluate", *chain3, "--theta", "0,0.25pi,0.25pi",
                                   "--alpha", "0.25pi,0.25pi"]),
        ("evaluate prefixes", ["evaluate", "--topo", "chain3.json", f"--th=-{quarter}",
                               "--al", "0.25pi,0.25pi"]),
        ("evaluate --", ["evaluate", "--theta", quarter, "--", "--alpha"]),
        ("generate --", ["generate", "--n", "3", "--", "chain"]),
        ("maximize @FILE", ["maximize", "@maximize.args"]),
        ("validate broken", ["validate", "--topology", "broken.json"]),
        ("evaluate broken", ["evaluate", "--topology", "broken.json", "--theta", quarter,
                             "--alpha", "0.25pi,0.25pi"]),
        ("lhv broken --output", ["lhv", "--topology", "broken.json", "--output", "x.json"]),
        *((f"validate {name}", ["validate", "--topology", f"{name.replace(' ', '-')}.json"])
          for name in BROKEN),
        ("evaluate extremal range", ["evaluate", "--topology", "extremal-range.json",
                                     "--theta", quarter, "--alpha", "0.25pi,0.25pi"]),
        ("validate not-json", ["validate", "--topology", "not-json.json"]),
        ("validate missing", ["validate", "--topology", "missing.json"]),
        ("evaluate wrong count", ["evaluate", *chain3, "--theta", quarter,
                                  "--alpha", "0.25pi"]),
        ("evaluate nan", ["evaluate", *chain3, "--theta", quarter, "--alpha", "nan,0.1"]),
        ("maximize two thetas", ["maximize", *chain3, "--theta", "0.1,0.2"]),
        ("sweep above the row cap", ["sweep", "--topology", "chain3.json", "--grid",
                                     ",".join(["0.1"] * 101), "--output", "capped.csv"]),
        ("sweep --output to a directory", ["sweep", *chain3, "--grid", "0.1",
                                           "--output", "."]),
        ("generate tree n < m", ["generate", "tree", "--n", "1", "--m", "2",
                                 "--output", "one.json"]),
        ("generate star --n 1", ["generate", "star", "--n", "1"]),
        ("generate custom bad edges", ["generate", "custom", "--n", "3", "--m", "2",
                                       "--p", "2", "--edges", "{"]),
        ("generate no kind", ["generate"]),
        ("generate ring", ["generate", "ring", "--n", "3"]),
        ("generate --n x", ["generate", "chain", "--n", "x"]),
        ("no command", []),
        ("unknown command", ["simulate"]),
        ("evaluate --bogus", ["evaluate", "--bogus"]),
        ("evaluate --t", ["evaluate", "--t", "chain3.json"]),
        ("evaluate --help=1", ["evaluate", "--help=1"]),
        ("evaluate -x", ["evaluate", "-x"]),
        ("maximize missing --theta", ["maximize", *chain3]),
        ("validate extra argument", ["validate", *chain3, "extra"]),
        ("missing @FILE", ["validate", "@missing.args"]),
        ("evaluate --expect-violation", ["evaluate", *chain3, "--theta", quarter,
                                         "--alpha", "0.25pi,0.25pi", "--expect-violation"]),
        ("evaluate --output", ["evaluate", *chain3, "--theta", quarter,
                               "--alpha", "0.25pi,0.25pi", "--output", "report.json"]),
        ("maximize --output", ["maximize", *chain3, "--theta", quarter,
                               "--output", "report.json"]),
        ("--help", ["--help"]),
        ("-h", ["-h"]),
    ]
    cases += [(f"{command} --help", [command, "--help"])
              for command in ("generate", "validate", "evaluate", "maximize", "sweep", "lhv")]
    for workdir, build, seed in benchmark_runs():
        workload = build(seed, workdir)
        for stage, commands in (("setup", workload.setup), ("pass", workload.commands)):
            cases += [(f"{workdir} {stage} {index}", list(command.args))
                      for index, command in enumerate(commands)]
    for kind in ("chain", "star"):
        topo = ["--topology", f"{kind}100000.json"]
        cases += [
            (f"generate {kind}100000", ["generate", kind, "--n", "100000",
                                        "--output", f"{kind}100000.json"]),
            (f"validate {kind}100000", ["validate", *topo]),
            (f"evaluate {kind}100000", ["evaluate", *topo, f"@{kind}100000.args"]),
            (f"lhv {kind}100000 --output", ["lhv", *topo, "--output",
                                            f"{kind}100000.model.json"]),
        ]
    cases += [
        ("generate tree99999", ["generate", "tree", "--n", "99999", "--m", "3",
                                "--output", "tree99999.json"]),
        ("validate tree99999", ["validate", "--topology", "tree99999.json"]),
    ]
    cases.append(("maximize star100000", ["maximize", "--topology", "star100000.json",
                                          "@star100000.theta"]))
    return cases


def changes(workdir: Path, known: dict) -> dict[str, str | None]:
    """The sha256 of each file whose bytes differ from known, or that is new, and
    None for each file removed; known, path -> ((size, mtime), sha256), is
    brought up to date.  A file whose size and mtime are as known is not read."""
    found = {}
    for path in workdir.rglob("*"):
        if path.is_file():
            name, stat = str(path.relative_to(workdir)), path.stat()
            key = (stat.st_size, stat.st_mtime_ns)
            found[name] = known[name] if known.get(name, (None,))[0] == key else (
                key, hashlib.sha256(path.read_bytes()).hexdigest())
    changed = {name: None for name in known.keys() - found.keys()}
    changed.update({name: digest for name, (_, digest) in found.items()
                    if known.get(name, (None, None))[1] != digest})
    known.clear()
    known.update(found)
    return changed


def run(trees: dict[str, Path], workdirs: dict[str, Path], known: dict,
        argv: list[str]) -> dict:
    """The outcome of argv on each tree, the trees' processes running side by side."""
    started = {}
    for side, tree in trees.items():
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        started[side] = subprocess.Popen([sys.executable, "-m", "nlocalnet", *argv],
                                         cwd=workdirs[side], env=env, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    outcomes = {}
    try:
        for side, process in started.items():
            stdout, stderr = process.communicate(timeout=TIMEOUT_S)
            outcomes[side] = {"exit code": process.returncode, "stdout": stdout,
                              "stderr": stderr, "files": changes(workdirs[side], known[side])}
    finally:  # a timeout leaves no process behind
        for process in started.values():
            process.kill()
            process.wait()
    return outcomes


def shown(value) -> str:
    text = repr(value)
    return text if len(text) <= SHOWN else text[:SHOWN] + f"... ({len(text)} characters)"


def first_difference(theirs, ours) -> tuple[str, str, str]:
    """Where two outcomes first differ, and what each side has there."""
    if isinstance(ours, bytes):
        lines = theirs.splitlines(keepends=True), ours.splitlines(keepends=True)
        index = next((i for i, pair in enumerate(zip(*lines)) if pair[0] != pair[1]),
                     min(map(len, lines)))
        return (f"line {index + 1}",
                *(shown(side[index]) if index < len(side) else "(no line)" for side in lines))
    if isinstance(ours, dict):
        name = min(name for name in theirs.keys() | ours.keys()
                   if theirs.get(name, "absent") != ours.get(name, "absent"))
        return (f"file {name}", *(shown(side.get(name, "not written"))
                                  for side in (theirs, ours)))
    return "", shown(theirs), shown(ours)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV", help="the git revision to compare with")
    parser.add_argument("--allow", metavar="ID", action="append", default=[],
                        help="a command line whose difference is intended (repeatable)")
    args = parser.parse_args(argv)
    cases = matrix()
    unknown = sorted(set(args.allow) - {case_id for case_id, _ in cases})
    if unknown:
        print(f"error: --allow names no command line of the matrix: {unknown}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="nlocalnet-compare-") as tmp:
        tmp = Path(tmp)
        trees = {args.rev: tmp / "rev", "this tree": ROOT}
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev, "src"],
                                 capture_output=True)
        if archive.returncode:
            print(f"error: git archive {args.rev}: {archive.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        trees[args.rev].mkdir()
        subprocess.run(["tar", "-x", "-C", str(trees[args.rev])], input=archive.stdout,
                       check=True)
        workdirs = {side: tmp / f"work-{index}" for index, side in enumerate(trees)}
        for workdir in workdirs.values():
            for subdir, _, _ in benchmark_runs():
                (workdir / subdir).mkdir(parents=True)
            for name, text in INPUTS.items():
                (workdir / name).write_text(text, encoding="utf-8")
        known = {side: {} for side in trees}
        for side in trees:
            changes(workdirs[side], known[side])
        allowed, files = [], 0
        for case_id, case_argv in cases:
            outcomes = run(trees, workdirs, known, case_argv)
            ours, theirs = outcomes["this tree"], outcomes[args.rev]
            files += len(ours["files"])
            differ = [key for key in ours if ours[key] != theirs[key]]
            if not differ:
                if case_id in args.allow:
                    print(f"allowed, but no difference: {case_id}")
                    return 1
                continue
            if case_id in args.allow:
                allowed.append(case_id)
                continue
            print(f"first difference: {case_id}: {shown(case_argv)}")
            for key in differ:
                where, their_text, our_text = first_difference(theirs[key], ours[key])
                print(f"  {key} {where}:\n    {args.rev}: {their_text}\n"
                      f"    this tree: {our_text}")
            return 1
    print(f"{len(cases)} command lines, {files} files written in this tree: "
          f"no difference from {args.rev} outside --allow")
    for case_id in allowed:
        print(f"  allowed difference: {case_id}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
