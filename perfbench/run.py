"""Benchmark of the nlocalnet command line on one workload.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 36 --trace 0

With --trace 0 each command runs as its own `python -m nlocalnet`
subprocess with this checkout's `src/` first on PYTHONPATH, one at a time:
a closed loop with one client, as a researcher running commands from a
shell.  The run reports the end-to-end metrics of BENCHMARK.json.  With
--trace 1 the same commands run in-process through `nlocalnet.cli.main`,
alternating untraced passes with passes traced by `spans`, and the run
reports the per-layer metrics.  Either way every output is checked against
`oracle`.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracle
import spans
from workloads import WORKLOADS, Command, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# The reference is interpreter start-up plus the third-party imports that
# nlocalnet uses.  It runs without this checkout on the path, so no change to
# the repository can move it.  Sampled through the run beside the passes, it
# tracks the speed of a shared machine, which drifts over seconds to minutes.
REFERENCE = ("-c", "import numpy, scipy.optimize")
REFERENCE_SAMPLES = 10
INTERP_REPEATS = 5
IMPORT_REPEATS = 3
# A command still running this long after the start of the run is killed and
# counts as failed, so that the run ends well within 180 s.
HARD_LIMIT_S = 150.0


def spawn(argv: list[str], env: dict[str, str], stdout: Path, stderr: Path,
          timeout: float) -> tuple[int, float, int]:
    """Run argv to completion: (exit code, wall seconds, max RSS in KiB).

    The RSS is this child's own, read with wait4.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_CLOSE, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    return os.waitstatus_to_exitcode(status), perf_counter() - start, usage.ru_maxrss


class Runner:
    """Runs commands one at a time and counts the attempted and failed ones."""

    def __init__(self, name: str, deadline: float):
        self.deadline = deadline
        self.stdout = WORK / f"{name}.stdout"
        self.stderr = WORK / f"{name}.stderr"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{SRC}:{path}" if path else str(SRC))
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {what[:160]}: {problem}", file=sys.stderr)

    def python(self, *args: str, check=None) -> tuple[float, int]:
        """Run the interpreter with args and check its stdout, if a check is
        given: (wall seconds, max RSS in KiB)."""
        code, wall, rss = spawn([sys.executable, *args], self.env, self.stdout,
                                self.stderr, self.deadline - perf_counter())
        problem = None
        if code:
            tail = self.stderr.read_text(encoding="utf-8", errors="replace")[-300:]
            problem = f"exit code {code}: {tail.strip()}"
        elif check is not None:
            problem = oracle.judge(check, self.stdout.read_text(encoding="utf-8"))
        self.record(" ".join(args), problem)
        return wall, rss

    def reference(self) -> float:
        """Wall seconds of one reference run."""
        code, wall, _ = spawn([sys.executable, *REFERENCE], dict(os.environ),
                              self.stdout, self.stderr, self.deadline - perf_counter())
        self.record("reference", f"exit code {code}" if code else None)
        return wall

    def run(self, command: Command) -> tuple[float, int]:
        """Run one nlocalnet command as a subprocess and check its output."""
        return self.python("-m", "nlocalnet", *command.args, check=command.check)

    def run_in_process(self, command: Command, tracer: spans.Tracer | None) -> float:
        """Run one command through nlocalnet.cli.main and check its output."""
        import nlocalnet.cli  # looked up per call, so a traced `main` is used

        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = nlocalnet.cli.main(list(command.args))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash inside the package fails this command only
            code = repr(exc)
        wall = perf_counter() - start
        text = out.getvalue()
        if code:
            problem = f"exit code {code}: {err.getvalue().strip()[-300:]}"
        else:
            problem = oracle.judge(command.check, text)
        self.record("in-process nlocalnet " + " ".join(command.args), problem)
        if tracer is not None:
            written = command.output.stat().st_size if (
                command.output and command.output.exists()) else 0
            tracer.counts["cli.output_bytes"] += len(text.encode()) + written
        return wall


def set_up(name: str, seed: int, runner: Runner) -> tuple[Workload, float]:
    """Fresh work directory, seeded inputs, topology files and one warm-up."""
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = perf_counter()
    workload = WORKLOADS[name](seed, workdir)
    for command in workload.setup:
        runner.run(command)
    return workload, perf_counter() - start


def end_to_end(args: argparse.Namespace, runner: Runner) -> dict[str, float]:
    """Set-ups and reference runs interleaved with the passes.

    Passes repeat until their summed time is about --seconds.  The gated
    `pass_rel` is the mean pass over the mean reference run of the same run,
    so that the drift of a shared machine cancels; `pass_s` is printed.  Means,
    not medians: the drift switches between a fast and a slow speed, and a
    mean weighs both by the time spent in each where a median jumps between
    them.
    """
    setups: list[float] = []
    passes: list[float] = []
    ops: list[float] = []
    references: list[float] = []
    peak_kib = 0
    measured = 0.0
    while True:
        if len(setups) < SETUP_REPEATS:
            workload, seconds = set_up(args.workload, args.seed, runner)
            setups.append(seconds)
        walls = []
        for command in workload.commands:
            wall, rss = runner.run(command)
            walls.append(wall)
            peak_kib = max(peak_kib, rss)
            measured += wall
            while len(references) < REFERENCE_SAMPLES * min(1.0, measured / args.seconds):
                references.append(runner.reference())
        passes.append(sum(walls))
        ops.extend(walls)
        if measured + passes[-1] / 2 >= args.seconds or perf_counter() >= runner.deadline:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(args.workload, args.seed, runner)[1])
    # Per-command percentiles are printed but not gated.  The commands of a
    # pass differ in cost, so the pooled median falls between two of them and
    # swings with both; and with fewer than 100 samples fewer than ten lie
    # beyond p90.
    pass_s = statistics.median(passes)
    reference_s = statistics.median(references)
    p50 = statistics.median(ops)
    p90 = statistics.quantiles(ops, n=10, method="inclusive")[8]
    print(f"passes: {len(passes)}; op samples: {len(ops)}; setups: {len(setups)}; "
          f"reference samples: {len(references)}")
    print(f"ungated: pass_s = {pass_s:.6g} s, reference_s = {reference_s:.6g} s, "
          f"op_p50_s = {p50:.6g} s, op_p90_s = {p90:.6g} s")
    samples = {"setup_s": setups, "pass_s": passes, "op_s": ops, "reference_s": references,
               "commands": [" ".join(c.args[:3]) for c in workload.commands]}
    (WORK / args.workload / "samples.json").write_text(json.dumps(samples), encoding="utf-8")
    return {
        "setup_s": statistics.median(setups),
        "pass_rel": statistics.fmean(passes) / statistics.fmean(references),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def layer_metrics(tracer: spans.Tracer, commands: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    stats = tracer.summary()

    def calls(span: str) -> int:
        return stats.get(span, (0, 0.0, 0.0))[0]

    def total(span: str) -> float:
        return stats.get(span, (0, 0.0, 0.0))[1]

    def own(span: str) -> float:
        return stats.get(span, (0, 0.0, 0.0))[2]

    return {
        "topology.validate.calls": calls("topology.validate"),
        "topology.validate.self_s": own("topology.validate"),
        "topology.validate.per_op": calls("topology.validate") / commands,
        "topology.attachments.calls": calls("topology.attachments"),
        "topology.attachments.self_s": own("topology.attachments"),
        "topology.parse_config.self_s": own("topology.parse_config"),
        "quantum.check_plan.calls": calls("quantum.check_plan"),
        "quantum.check_plan.self_s": own("quantum.check_plan"),
        "quantum.pair_expectation.calls": calls("quantum.pair_expectation"),
        "quantum.extremal_observable.calls": calls("quantum.extremal_observable"),
        "correlators.correlator_factorized.calls": calls("correlators.correlator_factorized"),
        "correlators.correlator_factorized.self_s": own("correlators.correlator_factorized"),
        "inequality.evaluate_S.total_s": total("inequality.evaluate_S"),
        "inequality.signed_y_average.self_s": own("inequality.signed_y_average"),
        "inequality.closed_form_smax.calls": calls("inequality.closed_form_smax"),
        "optimize.sweep.self_s": own("optimize.sweep"),
        "optimize.sweep.rows": tracer.counts["optimize.sweep.rows"],
        "optimize.optimize_alpha_equal.self_s": own("optimize.optimize_alpha_equal"),
        "lhv.lhv_best_S.self_s": own("lhv.lhv_best_S"),
        "lhv.refine.s": total("lhv.refine"),
        "lhv.refine.nfev": tracer.counts["lhv.refine.nfev"],
        "lhv.lhv_evaluate_S.calls": calls("lhv.lhv_evaluate_S"),
        "lhv.lhv_evaluate_S.total_s": total("lhv.lhv_evaluate_S"),
        "lhv.lhv_distribution.calls": calls("lhv.lhv_distribution"),
        "lhv.validate_model.calls": calls("lhv.validate_model"),
        "cli.main.self_s": own("cli.main"),
        "cli.output_bytes": tracer.counts["cli.output_bytes"],
    }


def traced(args: argparse.Namespace, runner: Runner) -> dict[str, float]:
    workload, _ = set_up(args.workload, args.seed, runner)
    interp = statistics.median(runner.python("-c", "pass")[0]
                               for _ in range(INTERP_REPEATS))
    imported = statistics.median(runner.python("-c", "import nlocalnet.cli")[0]
                                 for _ in range(IMPORT_REPEATS))
    plain: list[float] = []
    timed: list[float] = []
    tracers: list[spans.Tracer] = []
    start = perf_counter()
    while True:
        plain.append(sum(runner.run_in_process(c, None) for c in workload.commands))
        tracer = spans.Tracer()
        with spans.installed(tracer):
            walls = []
            for op, command in enumerate(workload.commands):
                tracer.current_op = op
                walls.append(runner.run_in_process(command, tracer))
        timed.append(sum(walls))
        tracers.append(tracer)
        elapsed = perf_counter() - start
        if elapsed + (plain[-1] + timed[-1]) / 2 >= args.seconds:
            break
    per_pass = [layer_metrics(t, len(workload.commands)) for t in tracers]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["cli.interp_s"] = interp
    metrics["cli.import_s"] = imported - interp
    metrics["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
    print(f"in-process passes: {len(plain)} untraced, {len(timed)} traced; "
          f"spans per traced pass: {[len(t.start) for t in tracers]}")
    for k, tracer in enumerate(tracers):
        tracer.save(WORK / args.workload / f"spans_{k}.npz")
    return metrics


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, if it can be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def provenance(seed: int) -> dict:
    """Machine, toolchain and source identity; imports nlocalnet from this checkout."""
    sys.path.insert(0, str(SRC))
    import nlocalnet
    import numpy
    import scipy

    package = Path(nlocalnet.__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise SystemExit(f"nlocalnet resolved to {package}, outside {SRC}")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
        commit = result.stdout.strip() or None
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nlocalnet_version": getattr(nlocalnet, "__version__", None),
        "nlocalnet_file": str(package.relative_to(ROOT.resolve())),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + HARD_LIMIT_S

    if not (SRC / "nlocalnet" / "__init__.py").is_file():
        print(f"error: no nlocalnet package under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    problems = oracle.self_check(WORK)
    if problems:
        print("error: oracle self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    print("provenance: " + json.dumps(provenance(args.seed)))

    runner = Runner(args.workload, deadline)
    metrics = traced(args, runner) if args.trace else end_to_end(args, runner)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"failed_frac: {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} commands)")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
