"""Property test of the command line over random, often malformed, argv.

Every run must end with a documented exit code (0, 2 or 4) and no other
exception.  Stdout must be strict JSON (no NaN or Infinity), a CSV table of
finite numbers, or the validate report; a failure (2 or 4) writes exactly one
line to stderr.  Inputs stay small: layouts have at most four sources.
`lhv` reads --alphabet-size and --grid-steps as integers and ignores them.
The raw-text topology documents, the edge actions and the byte prefix are
drawn rarely, so explicit tests also run each of them through every
subcommand that reads a topology.  The options sometimes come from an @FILE
argument, whole or damaged.  Each kind of topology damage and of argument
file is reported as a hypothesis event (pytest --hypothesis-show-statistics).
A second property draws command lines token by token, -h, --help and usage
errors among them, and checks that main returns one of those codes and
raises nothing.  A third compares the option parser with getopt.gnu_getopt.
"""

import contextlib
import csv
import getopt
import io
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nlocalnet import (InvalidParameterError, build_chain, build_star, build_tree,
                       serialize_config)
from nlocalnet.cli import _COMMANDS, _options, main

LAYOUTS = [build_chain(2), build_chain(3), build_chain(4), build_star(3),
           build_star(4), build_tree(3, 3), build_tree(4, 2)]
GOOD_ANGLES = st.one_of(st.floats(-7.0, 7.0, allow_nan=False).map(repr),
                        st.sampled_from(["0", "pi", "-pi", "+pi", "0.25pi", " 0.5 pi "]))
BAD_ANGLE_TEXT = ["inf", "-inf", "nan", "infpi", "nanpi", "1e400", "1e400pi", "",
                  "two", "0x1p3", "pipi", "1e308", "-5e307pi"]
BAD_ANGLES = st.sampled_from(BAD_ANGLE_TEXT)
SIZES = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["1000000000000", "x", "1.5"]))
SUBCOMMANDS = ["generate", "validate", "evaluate", "maximize", "sweep", "lhv"]
RAW_TEXT = ["", "{", "[]", "null", '{"n": 2}', "NaN", "[" * 5000,
            '{"n": NaN, "m": 2, "p": 2, "edges": []}',
            '{"n": %s, "m": 2, "p": 2, "edges": []}' % ("1" * 5000)]
LONG_NAME = "A" + "1" * 5000
END_NAMES = ["A1", "A2", "B1", "B9", "A0", "X1", "B99999999999", LONG_NAME, 3, None]
SOURCE_NUMBERS = [0, -1, 7, "1", None, True]
BAD_PREFIX = b"\xff\xfe"  # not UTF-8
ARGUMENT_FILES = ["whole", "missing", "empty", "non-utf8", "nested"]


def often(draw) -> bool:
    """True about nine times in ten: keeps most runs on the paths that succeed."""
    return draw(st.sampled_from([True] * 9 + [False]))


def flag(draw, name, values) -> list[str]:
    return [name, draw(values)] if often(draw) else []


def angle_list(draw, count: int, longest: int = 5) -> str:
    """Mostly `count` well-formed angles; sometimes a wrong count or a bad token."""
    if not often(draw):
        count = draw(st.integers(1, longest))
    tokens = [draw(GOOD_ANGLES) for _ in range(count)]
    if not often(draw):
        tokens[draw(st.integers(0, count - 1))] = draw(BAD_ANGLES)
    return ",".join(tokens)


def topology_bytes(draw, config) -> bytes:
    """The layout as a topology file, sometimes damaged."""
    doc = json.loads(serialize_config(config))
    damage = "whole" if often(draw) else draw(st.sampled_from(
        ["field", "edge", "text", "bytes"]))
    event(f"topology damage: {damage}")
    if damage == "whole":
        return json.dumps(doc).encode()
    if damage == "field":
        doc[draw(st.sampled_from(["n", "m", "p", "edges"]))] = draw(st.one_of(
            st.integers(-2, 6), st.sampled_from([10 ** 12, "3", None, 2.5, []])))
    elif damage == "edge":
        index = draw(st.integers(0, len(doc["edges"]) - 1))
        action = draw(st.sampled_from(["drop", "copy", "end", "source"]))
        value, end = None, 0
        if action == "end":  # the name is drawn before the end it replaces
            value = draw(st.sampled_from(END_NAMES))
            end = draw(st.integers(0, 1))
        elif action == "source":
            value = draw(st.sampled_from(SOURCE_NUMBERS))
        damage_edge(doc["edges"], index, action, value, end)
    elif damage == "text":
        return draw(st.sampled_from(RAW_TEXT)).encode()
    else:
        return BAD_PREFIX + json.dumps(doc).encode()
    return json.dumps(doc).encode()


def damage_edge(edges: list, index: int, action: str, value=None, end: int = 0) -> None:
    """Drop or copy edge index, or set one of its ends or its source to value."""
    if action == "drop":
        del edges[index]
    elif action == "copy":
        edges.append(edges[index])
    elif action == "end":
        edges[index]["ends"][end] = value
    else:
        edges[index]["source"] = value


def through_a_file(draw, work: Path, argv: list[str]) -> list[str]:
    """argv as it is, or with its options moved into an @FILE argument; the
    file is sometimes missing, empty, not UTF-8, or ends in a nested @FILE."""
    kind = "inline" if often(draw) else draw(st.sampled_from(ARGUMENT_FILES))
    event(f"argument file: {kind}")
    if kind == "inline":
        return argv
    path = work / "argv.txt"
    text = "".join(f"{arg}\n" for arg in argv[1:]).encode()
    content = {"whole": text, "empty": b"", "non-utf8": b"\xff" + text,
               "nested": text + f"@{path}\n".encode()}.get(kind)
    if content is not None:  # a missing file is not written
        path.write_bytes(content)
    return [argv[0], f"@{path}"]


@st.composite
def command_lines(draw, work: Path) -> list[str]:
    command = draw(st.sampled_from(SUBCOMMANDS))
    config = draw(st.sampled_from(LAYOUTS))
    topology = work / "topology.json"
    topology.write_bytes(topology_bytes(draw, config))
    if command == "generate":
        argv = [command, draw(st.sampled_from(["chain", "star", "tree", "custom", "ring"]))]
        for name in ("--n", "--m", "--p"):
            argv += flag(draw, name, SIZES)
        argv += flag(draw, "--edges", st.sampled_from(
            ['[{"source": 1, "ends": ["B1", "A1"]}, {"source": 2, "ends": ["A1", "B2"]}]',
             "[]", "{", '[{"source": 1}]', "[NaN]", "[" * 5000]))
    else:
        where = str(topology) if often(draw) else draw(st.sampled_from(
            [str(work / "missing.json"), str(work)]))
        argv = [command, *flag(draw, "--topology", st.just(where))]
    if command in ("evaluate", "maximize"):
        argv += [f"--theta={angle_list(draw, config.n)}"] if often(draw) else []
    if command == "evaluate":
        argv += [f"--alpha={angle_list(draw, config.p)}"] if often(draw) else []
    if command == "sweep":
        grid = angle_list(draw, draw(st.integers(1, 3)), 3)
        argv += [f"--grid={grid}"] if often(draw) else []
    if command == "lhv":
        argv += flag(draw, "--alphabet-size", st.sampled_from(
            ["2", "3", "1", "0", "-1", "x", "1" + "0" * 400]))
        argv += ["--grid-steps", draw(st.sampled_from(["3", "2", "1", "-1"]))]
    if not often(draw):
        argv += {"maximize": ["--free"], "lhv": ["--seed", "1"]}.get(command, ["--no-refine"])
    if command in ("generate", "sweep", "lhv") and draw(st.booleans()):
        argv += ["--output", draw(st.sampled_from(
            [str(work / "out.txt"), str(work / "no" / "out.txt"), str(work)]))]
    return through_a_file(draw, work, argv)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_stdout(command, code, out):
    if not out:
        return
    if command == "validate":
        assert out == "ok\n" if code == 0 else out.strip()
    elif command == "sweep":
        header, *rows = csv.reader(io.StringIO(out))
        assert header[0] == "theta_1" and header[-3:] == ["alpha_star", "smax", "violated"]
        for row in rows:
            assert len(row) == len(header) and row[-1] in ("true", "false")
            assert all(math.isfinite(float(value)) for value in row[:-1])
    else:
        json.loads(out, parse_constant=reject_constant)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(data=st.data())
def test_cli_never_escapes_the_documented_exit_codes(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(command_lines(Path(tmp)))
        code, out, err = run(argv)
    assert code in (0, 2, 4), (argv, code, err)
    check_stdout(argv[0], code, out)
    if code in (2, 4):
        assert len(err.splitlines()) == 1, (argv, err)


# Usage-level argv tokens; {TOPO}, {MISSING} and {ARGS} stand for a chain(2)
# topology file, a missing file and an argument file holding "--help".
ARGV_TOKENS = st.sampled_from([
    *SUBCOMMANDS, "ring", "chain", "custom", "-h", "--help", "--he", "-hx", "-x", "-",
    "--", "---", "--bogus", "--t", "--topology", "{TOPO}", "--topology={TOPO}", "--theta",
    "--theta=0.1,0.2", "--alpha", "0.3,0.4", "--grid=0.1", "--expect-violation",
    "--expect-violation=1", "--n", "--n=x", "--alphabet-size", "2", "--output",
    "@{MISSING}", "@{ARGS}", "{MISSING}"])


@st.composite
def usage_argv(draw, work: Path) -> list[str]:
    """A command line of drawn tokens, -h, --help and usage errors among them."""
    topology = work / "chain2.json"
    topology.write_text(serialize_config(build_chain(2)), encoding="utf-8")
    (work / "args.txt").write_text("--help\n", encoding="utf-8")
    names = {"TOPO": str(topology), "MISSING": str(work / "missing.json"),
             "ARGS": str(work / "args.txt")}
    return [token.format(**names) for token in draw(st.lists(ARGV_TOKENS, max_size=8))]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_main_returns_every_exit_code(data):
    """main(argv) returns 0, 2 or 4 and raises nothing, help and usage
    errors included; 2 and 4 write one stderr line, 0 none."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(usage_argv(Path(tmp)))
        code, _, err = run(argv)
    event(f"exit {code}")
    assert code in (0, 2, 4), (argv, code, err)
    assert len(err.splitlines()) == (1 if code in (2, 4) else 0), (argv, err)


# Per table: the command it comes from, or None, and whether each long option
# takes a value.  The made-up names are prefixes of one another, which no
# command's are, so an exact name must beat a longer name it is a prefix of.
OPTION_TABLES = st.one_of(
    st.sampled_from([(command, {"help": False, **dict.fromkeys(options, True)})
                     for command, (_, _, _, options) in _COMMANDS.items()]),
    st.dictionaries(st.sampled_from(["a", "ab", "abc", "b", "ba", "help"]),
                    st.booleans(), min_size=1).map(lambda table: (None, table)))
OPTION_VALUES = st.sampled_from(["0.1", "-0.25pi,0.25pi", "-", "--", "-h", "--a", "x=y", ""])


@st.composite
def getopt_argv(draw, names) -> list[str]:
    """Option names, their prefixes and "=" forms, values that start with a
    minus sign, "--", and short options, "-h" among them."""
    prefix = st.tuples(st.sampled_from(names), st.integers(0, 16)).map(
        lambda pair: pair[0][:pair[1]])
    token = st.one_of(
        prefix.map(lambda text: "--" + text),
        st.tuples(prefix, OPTION_VALUES).map(lambda pair: f"--{pair[0]}={pair[1]}"),
        OPTION_VALUES,
        st.sampled_from(["--", "-", "-h", "-hh", "-x", "-hx", "--zz", "---", "chain"]))
    return draw(st.lists(token, max_size=8))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(data=st.data())
def test_the_option_parser_agrees_with_gnu_getopt(data):
    """Same options and values as gnu_getopt, or its error as one line, exit 2.
    Caught by hand mutations: a prefix match beating an exact match, a flag
    taking "=V", a value that starts with "-" refused."""
    command, table = data.draw(OPTION_TABLES)
    argv = data.draw(getopt_argv(list(table)))
    with mock.patch.dict(os.environ):
        os.environ.pop("POSIXLY_CORRECT", None)
        try:
            expected = getopt.gnu_getopt(argv, "h", [name + "=" * valued
                                                     for name, valued in table.items()])
        except getopt.GetoptError as exc:
            with pytest.raises(InvalidParameterError) as info:
                _options(argv, table)
            assert str(info.value) == exc.msg
            if command is not None:
                assert run([command, *argv]) == (2, "", f"error: {exc.msg}\n")
            event("rejected: " + exc.msg.split()[-1])
        else:
            event("accepted")
            assert _options(argv, table) == expected


LONG_NAME_DOC = serialize_config(build_chain(2)).replace('"A1"', json.dumps(LONG_NAME), 1)
TOPOLOGY_READERS = [
    ["validate"],
    ["evaluate", "--theta", "0.1,0.2", "--alpha", "0.3,0.4"],
    ["maximize", "--theta", "0.1,0.2"],
    ["sweep", "--grid", "0.1,0.2"],
    ["lhv"],
]


@pytest.mark.parametrize("document", [*RAW_TEXT, LONG_NAME_DOC], ids=[
    "empty", "open-brace", "list", "null", "n-only", "NaN", "deep-list", "n-NaN",
    "n-5000-digits", "node-name-5000-digits"])
@pytest.mark.parametrize("command", TOPOLOGY_READERS, ids=lambda argv: argv[0])
def test_every_raw_topology_text_is_one_line_exit_2(tmp_path, document, command):
    topology = tmp_path / "topology.json"
    topology.write_text(document, encoding="utf-8")
    argv = [command[0], "--topology", str(topology), *command[1:]]
    code, out, err = run(argv)
    assert code == 2, (argv, err)
    assert out == "" and len(err.splitlines()) == 1, (argv, out, err)


# chain(2)'s first edge joins B1 to A1.  Any other first end leaves B1 with no
# source, and any other source number repeats 2, is out of range or is no int.
EDGE_DAMAGE = [("drop", None), ("copy", None),
               *(("end", name) for name in END_NAMES if name != "B1"),
               *(("source", number) for number in SOURCE_NUMBERS)]


@pytest.mark.parametrize("damage", [*EDGE_DAMAGE, "bytes"], ids=lambda damage: (
    damage if isinstance(damage, str)
    else f"{damage[0]}-{damage[1]!r}"[:24]))
@pytest.mark.parametrize("command", TOPOLOGY_READERS, ids=lambda argv: argv[0])
def test_every_edge_and_byte_damage_is_one_line_exit_2(tmp_path, damage, command):
    """Each edge action and the byte prefix, which the draws above seldom make.

    validate prints the issues of a layout that parses, one a line, on stdout.
    """
    doc = json.loads(serialize_config(build_chain(2)))
    if damage == "bytes":
        document = BAD_PREFIX + json.dumps(doc).encode()
    else:
        damage_edge(doc["edges"], 0, *damage)
        document = json.dumps(doc).encode()
    topology = tmp_path / "topology.json"
    topology.write_bytes(document)
    argv = [command[0], "--topology", str(topology), *command[1:]]
    code, out, err = run(argv)
    assert code == 2 and len(err.splitlines()) == 1, (argv, err)
    if command[0] == "validate" and out:
        assert err == f"error: invalid topology: {len(out.splitlines())} issue(s)\n"
    else:
        assert out == "", (argv, out)


ANGLE_READERS = [
    ["evaluate", "--alpha", "0.3,0.4", "--theta"],
    ["maximize", "--theta"],
    ["sweep", "--grid"],
]


@pytest.mark.parametrize("bad", BAD_ANGLE_TEXT, ids=lambda text: text or "empty")
@pytest.mark.parametrize("command", ANGLE_READERS, ids=lambda argv: argv[0])
def test_every_bad_angle_is_one_line_exit_2(tmp_path, command, bad):
    """Each BAD_ANGLES entry, which the derandomized draws above mostly skip."""
    topology = tmp_path / "chain2.json"
    topology.write_text(serialize_config(build_chain(2)), encoding="utf-8")
    argv = [command[0], "--topology", str(topology), *command[1:], f"0.1,{bad}"]
    code, out, err = run(argv)
    assert code == 2, (argv, err)
    assert out == "" and len(err.splitlines()) == 1, (argv, out, err)
