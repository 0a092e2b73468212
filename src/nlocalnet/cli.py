"""Command-line surface: build layouts, evaluate and maximize the witness,
run grid sweeps, and give the classical bound with the model that reaches it.

main(argv) is the one exit: it returns the exit code, never raises it, and
for 2 and 4 prints one "error:" or "resource limit:" line on stderr.  The
codes: 0 success, 2 bad input, 4 resource cap hit.  A usage error is an
InvalidParameterError; --help is the handler _help, which returns 0.  Angles
are radians, or multiples of pi with a "pi" suffix ("0.25pi").  Reports are
single-line JSON on stdout; sweeps are CSV.  generate and sweep write
--output, or else stdout, through _write once every check has passed; lhv
writes its model to --output; files are read through _read_text, capped at
MAX_FILE_BYTES.

Options are parsed in one pass by _options, with the grammar of
getopt.gnu_getopt, from one table, _COMMANDS, which also prints the help.
Every command reads or builds a layout, so topology is imported here; each
command imports the rest of what it calls in its own body, so it loads and
compiles only the modules it runs.
"""

import errno
import io
import json
import math
import os
import sys
from types import SimpleNamespace
from typing import Callable, Sequence, TextIO

from .errors import InvalidParameterError, ResourceLimitError
from .topology import (NetworkConfig, check_layout, config_from_doc, parse_config,
                       validate)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 4
# generate writes under 10 MB for a chain, star or tree at MAX_SOURCES.
MAX_FILE_BYTES = 64 << 20


def parse_angle(token: str) -> float:
    """Parse an angle in radians; a trailing 'pi' multiplies by pi."""
    text = token.strip().lower()
    if not text:
        raise InvalidParameterError("empty angle value")
    factor = 1.0
    if text.endswith("pi"):
        factor = math.pi
        text = text[:-2].strip() or "1"
        if text in ("+", "-"):
            text += "1"
    try:
        value = float(text) * factor
    except ValueError:
        raise InvalidParameterError(f"cannot parse angle {token!r}") from None
    if not math.isfinite(value):
        raise InvalidParameterError(f"angle {token!r} is not finite")
    return value


def parse_angle_list(text: str) -> list[float]:
    return [parse_angle(token) for token in text.split(",")]


def _nine_digits(value: float) -> float:
    return float(f"{value:.9g}")


def _read_text(path: str) -> str:
    """The file as open() in text mode reads it (UTF-8, universal newlines);
    ResourceLimitError once MAX_FILE_BYTES + 1 bytes are read, in reads that
    double from 64 KiB, so that no buffer is sized by the cap."""
    chunks, size = [], 0
    with open(path, "rb") as file:
        while chunk := file.read(min(max(size, 1 << 16), MAX_FILE_BYTES + 1 - size)):
            chunks.append(chunk)
            size += len(chunk)
    if size > MAX_FILE_BYTES:
        raise ResourceLimitError(
            f"file {path!r} is larger than the cap of {MAX_FILE_BYTES} bytes")
    data = b"".join(chunks)
    del chunks, size  # the file is held once, not twice, while it is decoded
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _read_config(path: str) -> NetworkConfig:
    try:
        text = _read_text(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read topology file: {exc}") from None
    return parse_config(text)


def _write(output: str | None, write: Callable[[TextIO], object]) -> None:
    """write(the --output file, opened for writing), or write(stdout)."""
    if output:
        with open(output, "w", encoding="utf-8", newline="") as file:
            write(file)
    else:
        write(sys.stdout)


def _emit(report: dict) -> None:
    """Print report as one line of strict JSON."""
    sys.stdout.write(json.dumps(report, allow_nan=False) + "\n")


def _cmd_generate(args: SimpleNamespace) -> int:
    from .builders import build_chain, build_star, build_tree, serialize_config

    if args.kind == "custom":
        try:
            edges_doc = json.loads(args.edges)
        except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or too many digits
            raise InvalidParameterError(f"--edges is not valid JSON: {exc}") from None
        config = config_from_doc(
            {"n": args.n, "m": args.m, "p": args.p, "edges": edges_doc})
        check_layout(config)
    else:
        build = {"chain": build_chain, "star": build_star, "tree": build_tree}[args.kind]
        config = build(*(getattr(args, name) for name in _KINDS[args.kind]))
    text = serialize_config(config)
    _write(args.output, lambda sink: sink.write(text))
    return EXIT_OK


def _cmd_validate(args: SimpleNamespace) -> int:
    issues = validate(_read_config(args.topology))
    if issues:
        print("\n".join(issues))
        raise InvalidParameterError(f"invalid topology: {len(issues)} issue(s)")
    print("ok")
    return EXIT_OK


def _cmd_evaluate(args: SimpleNamespace) -> int:
    from .inequality import closed_form_smax, evaluate_S

    config = _read_config(args.topology)
    thetas = parse_angle_list(args.theta)
    # evaluate_S validates the layout, then checks the angle counts
    result = evaluate_S(config, thetas, parse_angle_list(args.alpha))
    _, alpha_hint = closed_form_smax(thetas, config.p)
    report = {
        "I0": result.i0,
        "I1": result.i1,
        "S": result.s,
        "bound": 1,
        "violated": result.violated,
        "alpha_star_hint": _nine_digits(alpha_hint),
    }
    _emit(report)
    return EXIT_OK


def _cmd_maximize(args: SimpleNamespace) -> int:
    from .inequality import closed_form_smax, violates

    config = _read_config(args.topology)
    check_layout(config)
    thetas = parse_angle_list(args.theta)
    if len(thetas) != config.n:
        raise InvalidParameterError(f"need {config.n} theta values, got {len(thetas)}")
    smax, alpha_star = closed_form_smax(thetas, config.p)
    report = {
        "alpha_star": _nine_digits(alpha_star),
        "smax": smax,
        "violated": violates(smax),
    }
    _emit(report)
    return EXIT_OK


def _cmd_sweep(args: SimpleNamespace) -> int:
    from .inequality import sweep

    config = _read_config(args.topology)  # sweep validates it
    _write(args.output, sweep(config, parse_angle_list(args.grid)).write)
    return EXIT_OK


def _cmd_lhv(args: SimpleNamespace) -> int:
    from .lhv import lhv_best_S, write_vertex_model

    config = _read_config(args.topology)  # lhv_best_S validates it
    best = lhv_best_S(config)
    if args.output:
        _write(args.output, lambda sink: write_vertex_model(config, sink))
    _emit({"best_s": best, "bound": 1})
    return EXIT_OK


_TOPOLOGY = ("FILE", str, True, "topology JSON file")
_THETA = ("LIST", str, True, "comma-separated source angles")
# generate's kinds, each with the options it requires, in its builder's order.
_KINDS = {"chain": ("n",), "star": ("n",), "tree": ("n", "m"),
          "custom": ("n", "m", "p", "edges")}

# Per subcommand: its handler, one line of help, its positional argument as
# (name, {choice: the options that choice requires}) or None, and its
# options.  An option maps to (metavar, type, required, help) and takes a value.
_COMMANDS = {
    "generate": (_cmd_generate, "write a topology JSON file", ("kind", _KINDS), {
        "n": ("N", int, False, "source count"),
        "m": ("M", int, False, "particles per intermediate node"),
        "p": ("P", int, False, "extremal node count (custom only)"),
        "edges": ("JSON", str, False, "JSON edge list (custom only)"),
        "output": ("FILE", str, False, "file to write (stdout if omitted)")}),
    "validate": (_cmd_validate, "check a topology file", None, {"topology": _TOPOLOGY}),
    "evaluate": (_cmd_evaluate, "evaluate the witness for given angles", None, {
        "topology": _TOPOLOGY, "theta": _THETA,
        "alpha": ("LIST", str, True, "comma-separated extremal angles")}),
    "maximize": (_cmd_maximize, "best extremal angles for given sources", None, {
        "topology": _TOPOLOGY, "theta": _THETA}),
    "sweep": (_cmd_sweep, "tabulate the witness over a theta grid", None, {
        "topology": _TOPOLOGY,
        "grid": ("LIST", str, True, "comma-separated grid of source angles"),
        "output": ("FILE", str, False, "CSV file to write (stdout if omitted)")}),
    "lhv": (_cmd_lhv, "best classical witness (the closed-form bound 1) and the "
                      "vertex model reaching it", None, {
        "topology": _TOPOLOGY,
        "alphabet-size": ("C", int, False, "ignored (an integer); to be removed"),
        "grid-steps": ("K", int, False, "ignored (an integer); to be removed"),
        "output": ("FILE", str, False, "dump the model as JSON to this file")}),
}
_HELP = """usage: nlocalnet COMMAND [options]

Acyclic quantum network layouts and their n-local correlation inequalities.

commands:
{}
'nlocalnet COMMAND --help' lists the options of COMMAND.  An option may be
shortened to a unique prefix and takes its value as --opt VALUE or
--opt=VALUE; '--' ends the options.  An argument @FILE stands for the lines
of FILE, one argument per line.  An angle is in radians, or a multiple of pi
as in 0.25pi.
"""
# No command needs more than a few arguments; an @FILE of millions of lines
# is refused before it is split into a list.
_MAX_ARGS = 1000
# Where str.splitlines breaks a line.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _help(args: SimpleNamespace) -> int:
    """The handler of -h and --help: the help of args.command, or of nlocalnet."""
    if args.command is None:
        sys.stdout.write(_HELP.format("".join(f"  {name:<10}{spec[1]}\n"
                                              for name, spec in _COMMANDS.items())))
        return EXIT_OK
    _, text, positional, options = _COMMANDS[args.command]
    choices = " {" + ",".join(positional[1]) + "}" if positional else ""
    lines = [f"usage: nlocalnet {args.command}{choices} [options]", "", text, "", "options:"]
    for name, (metavar, _, required, note) in options.items():
        note += " (required)" if required else ""
        lines.append(f"  {f'--{name} {metavar}':<22}{note}")
    sys.stdout.write("\n".join([*lines, f"  {'-h, --help':<22}show this help and exit\n"]))
    return EXIT_OK


def _expand_files(argv: Sequence[str]) -> list[str]:
    """argv with each @FILE argument replaced by the lines of FILE, read by
    _read_text; a line that starts with @ is kept as it is.  More than
    _MAX_ARGS arguments in all is a usage error, counted from the line breaks
    before any file is split into a list."""
    texts = {}
    count = 0
    for arg in argv:
        if not arg.startswith("@"):
            count += 1
            continue
        try:
            text = texts[arg] = _read_text(arg[1:])
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8
            raise InvalidParameterError(f"cannot read argument file {arg[1:]!r}: {exc}")
        # len(text.splitlines()): a last line needs no line break
        count += sum(map(text.count, _LINE_BREAKS)) + (text[-1:] not in _LINE_BREAKS)
    if count > _MAX_ARGS:
        raise InvalidParameterError(f"{count} arguments, above the cap {_MAX_ARGS}")
    return [line for arg in argv
            for line in (texts[arg].splitlines() if arg in texts else [arg])]


def _options(args: Sequence[str], valued: dict[str, bool]
             ) -> tuple[list[tuple[str, str]], list[str]]:
    """getopt.gnu_getopt(args, "h", [name + "=" * valued[name] for name in
    valued]) in one pass, POSIXLY_CORRECT aside; its errors are usage errors.
    A long option is its exact name, or else the one name it is a prefix of."""
    opts, rest, args = [], [], iter(args)
    for arg in args:
        if arg == "--":
            rest.extend(args)
        elif arg.startswith("--"):
            given, equals, value = arg[2:].partition("=")
            names = [given] if given in valued else [
                name for name in valued if name.startswith(given)]
            if len(names) != 1:
                raise InvalidParameterError(
                    f"option --{given} not {'a unique prefix' if names else 'recognized'}")
            name = names[0]
            if valued[name] and not equals:
                value = next(args, None)
                if value is None:
                    raise InvalidParameterError(f"option --{name} requires argument")
            elif equals and not valued[name]:
                raise InvalidParameterError(f"option --{name} must not have an argument")
            opts.append(("--" + name, value))
        elif arg.startswith("-") and arg != "-":
            for char in arg[1:]:
                if char != "h":
                    raise InvalidParameterError(f"option -{char} not recognized")
                opts.append(("-h", ""))
        else:
            rest.append(arg)
    return opts, rest


def _parse(argv: Sequence[str]) -> tuple[Callable[[SimpleNamespace], int],
                                         SimpleNamespace]:
    """The handler and its arguments, _help on -h or --help; an option not given is None."""
    argv = _expand_files(argv)
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return _help, SimpleNamespace(command=None)
    if command not in _COMMANDS:
        what = f"unknown command {command!r}" if argv else "no command"
        raise InvalidParameterError(f"{what}; the commands are {', '.join(_COMMANDS)}")
    run, _, positional, options = _COMMANDS[command]
    opts, rest = _options(argv[1:], {"help": False, **dict.fromkeys(options, True)})
    values = dict.fromkeys(options)
    for opt, value in opts:
        if opt in ("-h", "--help"):
            return _help, SimpleNamespace(command=command)
        name = opt[2:]
        try:
            values[name] = options[name][1](value)
        except ValueError:  # not an integer, or more digits than int() reads
            shown = repr(value) if len(value) <= 40 else f"{len(value)} characters"
            raise InvalidParameterError(f"option --{name} needs an integer, got {shown}")
    if positional:
        label, choices = positional
        if not rest or rest[0] not in choices:
            raise InvalidParameterError(f"{command} needs a {label} from {', '.join(choices)}"
                                        + (f", not {rest[0]!r}" if rest else ""))
        values[label] = rest.pop(0)
    if rest:
        raise InvalidParameterError(f"unexpected argument {rest[0]!r}")
    for name in choices[values[label]] if positional else ():
        if values[name] is None:
            raise InvalidParameterError(f"--{name} is required for {label} {values[label]!r}")
    missing = [f"--{name}" for name, spec in options.items()
               if spec[2] and values[name] is None]
    if missing:
        raise InvalidParameterError(f"{command} requires {', '.join(missing)}")
    return run, SimpleNamespace(**{name.replace("-", "_"): value
                                   for name, value in values.items()})


class _ClosedStdout:
    """Stands for sys.stdout, None when fd 1 is closed: each write fails."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, "standard output is closed")

    def flush(self) -> None:
        pass


def main(argv: Sequence[str] | None = None) -> int:
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    try:
        try:
            run, args = _parse(sys.argv[1:] if argv is None else argv)
            return run(args)
        finally:  # help and errors included: buffered output fails here, not at exit
            sys.stdout.flush()
    except (InvalidParameterError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # so the flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:  # a file under MAX_FILE_BYTES can still parse to too much
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
