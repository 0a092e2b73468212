"""Command-line surface: build layouts, evaluate and maximize the witness,
run grid sweeps, and build the classical model on the bound.

Exit codes: 0 success, 2 bad input, 3 expected violation absent, 4 resource
cap hit.  Angles are radians, or multiples of pi with a "pi" suffix
("0.25pi").  Reports are single-line JSON on stdout; sweeps are CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .errors import ConfigurationError, InvalidParameterError, ResourceLimitError
from .inequality import VIOLATION_TOLERANCE, closed_form_smax, evaluate_S
from .lhv import lhv_best_S, model_to_jsonable
from .optimize import sweep
from .quantum import canonical_plan
from .topology import (NetworkConfig, attachments, build_chain, build_star,
                       build_tree, parse_config, serialize_config, validate)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EXPECTATION = 3
EXIT_RESOURCE = 4


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


def _json_line(report: dict) -> str:
    return json.dumps(report, allow_nan=False) + "\n"


def _read_config(path: str) -> NetworkConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read topology file: {exc}") from None
    return parse_config(text)


def _checked(config: NetworkConfig) -> NetworkConfig:
    attachments(config)  # raises ConfigurationError on an invalid layout
    return config


def _load_topology(path: str) -> NetworkConfig:
    return _checked(_read_config(path))


def _emit(text: str, output: str | None) -> None:
    # The file first: an unwritable path fails before anything is printed.
    if output:
        Path(output).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "chain":
        _require_params(args, "n")
        config = build_chain(args.n)
    elif args.kind == "star":
        _require_params(args, "n")
        config = build_star(args.n)
    elif args.kind == "tree":
        _require_params(args, "n", "m")
        config = build_tree(args.n, args.m)
    else:
        _require_params(args, "n", "m", "p", "edges")
        try:
            edges_doc = json.loads(args.edges)
        except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or too many digits
            raise InvalidParameterError(f"--edges is not valid JSON: {exc}") from None
        config = _checked(parse_config(json.dumps(
            {"n": args.n, "m": args.m, "p": args.p, "edges": edges_doc})))
    text = serialize_config(config)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _require_params(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise InvalidParameterError(
                f"--{name} is required for kind {args.kind!r}")


def _cmd_validate(args: argparse.Namespace) -> int:
    issues = validate(_read_config(args.topology))
    if issues:
        print("\n".join(issues))
        raise InvalidParameterError(f"invalid topology: {len(issues)} issue(s)")
    print("ok")
    return EXIT_OK


def _angles(text: str, count: int, name: str) -> list[float]:
    values = parse_angle_list(text)
    if len(values) != count:
        raise InvalidParameterError(f"need {count} {name} values, got {len(values)}")
    return values


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _read_config(args.topology)  # evaluate_S validates it
    thetas = _angles(args.theta, config.n, "theta")
    alphas = _angles(args.alpha, config.p, "alpha")
    result = evaluate_S(config, thetas, canonical_plan(config, alphas))
    _, alpha_hint = closed_form_smax(thetas, config.p)
    report = {
        "I0": result.i0,
        "I1": result.i1,
        "S": result.s,
        "bound": 1,
        "violated": result.violated,
        "alpha_star_hint": _nine_digits(alpha_hint),
    }
    _emit(_json_line(report), args.output)
    if args.expect_violation and not result.violated:
        return EXIT_EXPECTATION
    return EXIT_OK


def _cmd_maximize(args: argparse.Namespace) -> int:
    config = _load_topology(args.topology)
    thetas = _angles(args.theta, config.n, "theta")
    smax, alpha_star = closed_form_smax(thetas, config.p)
    report = {
        "alpha_star": _nine_digits(alpha_star),
        "smax": smax,
        "violated": smax > 1.0 + VIOLATION_TOLERANCE,
    }
    _emit(_json_line(report), args.output)
    return EXIT_OK


class _OpenedOnFirstWrite:
    """Text sink that opens its file, truncating it, at the first write.

    sweep writes nothing before its checks pass, so a sweep that fails them
    leaves an existing --output file as it was.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.file = None

    def write(self, text: str) -> int:
        if self.file is None:
            self.file = open(self.path, "w", encoding="utf-8", newline="")
        return self.file.write(text)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_topology(args.topology)
    grid = parse_angle_list(args.grid)
    if args.output:
        sink = _OpenedOnFirstWrite(args.output)
        try:
            sweep(config, grid, sink)
        finally:
            sink.close()
    else:
        sweep(config, grid, sys.stdout)
    return EXIT_OK


def _cmd_lhv(args: argparse.Namespace) -> int:
    config = _read_config(args.topology)  # lhv_best_S validates it
    best, model = lhv_best_S(config, alphabet_size=args.alphabet_size)
    report = {
        "best_s": best,
        "bound": 1,
        "alphabet_size": args.alphabet_size,
        "weight_grid_steps": args.grid_steps,
    }
    if args.output:
        Path(args.output).write_text(
            json.dumps(model_to_jsonable(model), indent=2, allow_nan=False) + "\n",
            encoding="utf-8")
    sys.stdout.write(_json_line(report))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line and exit 2; subparsers inherit the class."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def _list_help(what: str) -> str:
    # argparse reads a separate value that starts with "-" as an option.
    return (f"comma-separated {what}; a list that starts with a minus sign "
            "needs '=', as in --%(dest)s=-0.3,0.2")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlocalnet",
        description="Acyclic quantum network layouts and their n-local "
                    "correlation inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a topology JSON file")
    gen.add_argument("kind", choices=["chain", "star", "tree", "custom"])
    gen.add_argument("--n", type=int, help="source count")
    gen.add_argument("--m", type=int, help="particles per intermediate node")
    gen.add_argument("--p", type=int, help="extremal node count (custom only)")
    gen.add_argument("--edges", help="JSON edge list (custom only)")
    gen.add_argument("--output", help="file to write (stdout if omitted)")
    gen.set_defaults(run=_cmd_generate)

    val = sub.add_parser("validate", help="check a topology file")
    val.add_argument("--topology", required=True)
    val.set_defaults(run=_cmd_validate)

    ev = sub.add_parser("evaluate", help="evaluate the witness for given angles")
    ev.add_argument("--topology", required=True)
    ev.add_argument("--theta", required=True, help=_list_help("source angles"))
    ev.add_argument("--alpha", required=True, help=_list_help("extremal angles"))
    ev.add_argument("--expect-violation", action="store_true",
                    help="exit 3 unless the bound is violated")
    ev.add_argument("--output", help="also write the report to this file")
    ev.set_defaults(run=_cmd_evaluate)

    mx = sub.add_parser("maximize", help="best extremal angles for given sources")
    mx.add_argument("--topology", required=True)
    mx.add_argument("--theta", required=True, help=_list_help("source angles"))
    mx.add_argument("--output", help="also write the report to this file")
    mx.set_defaults(run=_cmd_maximize)

    sw = sub.add_parser("sweep", help="tabulate the witness over a theta grid")
    sw.add_argument("--topology", required=True)
    sw.add_argument("--grid", required=True, help=_list_help("grid of source angles"))
    sw.add_argument("--output", help="CSV file to write (stdout if omitted)")
    sw.set_defaults(run=_cmd_sweep)

    lh = sub.add_parser("lhv", help="best classical witness (the closed-form "
                                    "bound 1) and the vertex model reaching it")
    lh.add_argument("--topology", required=True)
    lh.add_argument("--alphabet-size", type=int, default=2)
    lh.add_argument("--grid-steps", type=int, default=11,
                    help="ignored: only echoed in the report; to be removed")
    lh.add_argument("--output", help="dump the model as JSON to this file")
    lh.set_defaults(run=_cmd_lhv)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (InvalidParameterError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
