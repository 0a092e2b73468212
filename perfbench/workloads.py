"""The benchmark's workloads: which nlocalnet commands each runs, on which inputs.

A workload is built from a seed and a work directory.  Its `setup` commands
write the topology files through `nlocalnet generate` and end with one
warm-up command; its `commands` are one pass.  Commands only ever receive
the generated files and angles drawn from the seed, and each carries a
check from `oracle`.

Sizes are deliberate: no layout has more than 16 sources and no sweep more
than 59 049 rows.  A size cap at those limits still accepts every input, and
a tighter one shows up as failed commands.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import oracle


@dataclass(frozen=True)
class Command:
    """Arguments to `nlocalnet`, a check of its stdout, and the file it writes."""

    args: tuple[str, ...]
    check: Callable[[str], str | None]
    output: Path | None = None


@dataclass(frozen=True)
class Workload:
    setup: tuple[Command, ...]
    commands: tuple[Command, ...]


def _shape(kind: str, n: int, m: int | None = None) -> tuple[int, int, int]:
    """(n, m, p) of the built-in layouts."""
    if kind == "chain":
        return n, 2, 2
    if kind == "star":
        return n, n, n
    return n, m, n - (n - m) // (m - 1)


def _angles(rng: random.Random, count: int) -> list[float]:
    """Angles in (0, pi/2), so every source is entangled and no setting is trivial."""
    return [rng.uniform(0.01, math.pi / 2 - 0.01) for _ in range(count)]


def _text(values: Sequence[float]) -> str:
    # repr round-trips, so the command parses exactly the floats the oracle uses.
    return ",".join(repr(v) for v in values)


def _generate(path: Path, kind: str, n: int, m: int | None = None) -> Command:
    args = ["generate", kind, "--n", str(n)]
    if m is not None:
        args += ["--m", str(m)]
    shape = _shape(kind, n, m)
    return Command((*args, "--output", str(path)),
                   lambda _: oracle.check_generate(path, *shape), path)


def _generate_relabelled(path: Path, kind: str, n: int,
                         rng: random.Random) -> Command:
    """A chain or star written through `generate custom` with seeded labels.

    Source numbers, node numbers and the endpoint order of each source are
    permuted; the layout itself is unchanged.
    """
    _, m, p = _shape(kind, n)
    l = (2 * n - p) // m
    if kind == "chain":
        ends = ([("B1", "A1")] + [(f"A{r - 1}", f"A{r}") for r in range(2, n)]
                + [(f"A{n - 1}", "B2")])
    else:
        ends = [(f"B{r}", "A1") for r in range(1, n + 1)]
    numbers = {"A": rng.sample(range(1, l + 1), l), "B": rng.sample(range(1, p + 1), p)}
    edges = []
    for source, pair in zip(rng.sample(range(1, n + 1), n), ends):
        named = [f"{end[0]}{numbers[end[0]][int(end[1:]) - 1]}" for end in pair]
        if rng.random() < 0.5:
            named.reverse()
        edges.append({"source": source, "ends": named})
    edges.sort(key=lambda edge: edge["source"])
    args = ("generate", "custom", "--n", str(n), "--m", str(m), "--p", str(p),
            "--edges", json.dumps(edges), "--output", str(path))
    return Command(args, lambda _: oracle.check_generate(path, n, m, p), path)


def _validate(path: Path) -> Command:
    return Command(("validate", "--topology", str(path)), oracle.check_validate)


def _evaluate(path: Path, thetas: list[float], alphas: list[float]) -> Command:
    return Command(("evaluate", "--topology", str(path), "--theta", _text(thetas),
                    "--alpha", _text(alphas)),
                   lambda out: oracle.check_evaluate(out, thetas, alphas))


def witness(seed: int, workdir: Path) -> Workload:
    """`evaluate` on layouts of 10 to 16 sources: topology, correlators and the
    witness contraction do most of the work.

    A 2-point sweep on star(10) and an `lhv` on chain(2) at 3 grid steps are
    cheap, but they make every per-layer time a measured, non-zero value.
    """
    rng = random.Random(seed)
    layouts = [("star10", "star", 10, None), ("star11", "star", 11, None),
               ("tree15_3", "tree", 15, 3), ("tree16_4", "tree", 16, 4)]
    setup, commands = [], []
    for name, kind, n, m in layouts:
        path = workdir / f"{name}.json"
        setup.append(_generate(path, kind, n, m))
        _, _, p = _shape(kind, n, m)
        commands.append(_evaluate(path, _angles(rng, n), _angles(rng, p)))
    star10 = workdir / "star10.json"
    chain2 = workdir / "chain2.json"
    setup += [_generate(chain2, "chain", 2), _validate(star10)]
    grid = _angles(rng, 2)
    sweep_path = workdir / "sweep.csv"
    commands += [
        Command(("sweep", "--topology", str(star10), "--grid", _text(grid),
                 "--output", str(sweep_path)),
                lambda _: oracle.check_sweep(sweep_path, grid, 10, 10), sweep_path),
        Command(("lhv", "--topology", str(chain2), "--grid-steps", "3"), oracle.check_lhv),
    ]
    return Workload(tuple(setup), tuple(commands))


def cli_mix(seed: int, workdir: Path) -> Workload:
    """Every other subcommand once per pass.

    The light commands (generate, validate, evaluate, maximize) are mostly
    interpreter start-up and import.  The sweep runs 59 049 closed-form
    evaluations and a bulk CSV write.  The `lhv` commands spend their time in
    the classical search itself; the witness path only re-checks models.
    """
    rng = random.Random(seed)
    relabelled = {"chain3": ("chain", 3), "star3": ("star", 3),
                  "chain4": ("chain", 4), "chain2": ("chain", 2)}
    paths = {name: workdir / f"{name}.json" for name in (*relabelled, "chain5", "star5")}
    setup = (*(_generate_relabelled(paths[name], kind, n, rng)
               for name, (kind, n) in relabelled.items()),
             _generate(paths["chain5"], "chain", 5),
             _generate(paths["star5"], "star", 5),
             _validate(paths["chain3"]))
    max_thetas = _angles(rng, 5)
    grid = _angles(rng, 9)
    tree_path = workdir / "tree15_3.json"
    sweep_path = workdir / "sweep.csv"
    commands = (
        _generate(tree_path, "tree", 15, 3),
        _validate(tree_path),
        _evaluate(paths["chain3"], _angles(rng, 3), _angles(rng, 2)),
        Command(("maximize", "--topology", str(paths["chain5"]),
                 "--theta", _text(max_thetas)),
                lambda out: oracle.check_maximize(out, max_thetas, 2)),
        Command(("sweep", "--topology", str(paths["star5"]), "--grid", _text(grid),
                 "--output", str(sweep_path)),
                lambda _: oracle.check_sweep(sweep_path, grid, 5, 5), sweep_path),
        *(Command(("lhv", "--topology", str(paths[name]), *options), oracle.check_lhv)
          for name, options in (("chain3", ("--grid-steps", "11")),
                                ("star3", ("--grid-steps", "11")),
                                ("chain4", ("--grid-steps", "6")),
                                ("chain2", ("--alphabet-size", "3", "--grid-steps", "6")))),
    )
    return Workload(setup, commands)


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "witness": witness,
    "cli-mix": cli_mix,
}
