import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import nlocalnet.cli
import nlocalnet.lhv
import nlocalnet.topology
from helpers import run_fresh
from nlocalnet import build_chain, closed_form_S, parse_config, serialize_config
from nlocalnet.cli import main, parse_angle, parse_angle_list
from nlocalnet.inequality import MAX_SWEEP_ROWS
from nlocalnet.lhv import lhv_best_S
from oracles import model_to_jsonable, vertex_model


def test_parse_angle_forms():
    assert parse_angle("1.5") == 1.5
    assert parse_angle("0.25pi") == pytest.approx(math.pi / 4, abs=1e-15)
    assert parse_angle("pi") == pytest.approx(math.pi, abs=1e-15)
    assert parse_angle("-0.5PI") == pytest.approx(-math.pi / 2, abs=1e-15)
    assert (parse_angle("-pi"), parse_angle("+pi")) == (-math.pi, math.pi)
    assert parse_angle_list("0,0.5pi") == [0.0, pytest.approx(math.pi / 2)]
    from nlocalnet import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        parse_angle("two")
    for token in ("", " "):
        with pytest.raises(InvalidParameterError, match="^empty angle value$"):
            parse_angle(token)
    for token in ("inf", "-inf", "nan", "infpi", "1e400"):
        with pytest.raises(InvalidParameterError):
            parse_angle(token)


def test_generate_chain(tmp_path, capsys):
    out = tmp_path / "chain.json"
    assert main(["generate", "chain", "--n", "3", "--output", str(out)]) == 0
    config = parse_config(out.read_text())
    assert (config.n, config.m, config.p) == (3, 2, 2)
    assert main(["generate", "chain", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["edges"][0] == {"source": 1, "ends": ["B1", "A1"]}


STAR3_JSON = """{
  "n": 3,
  "m": 3,
  "p": 3,
  "edges": [
    {
      "source": 1,
      "ends": [
        "B1",
        "A1"
      ]
    },
    {
      "source": 2,
      "ends": [
        "B2",
        "A1"
      ]
    },
    {
      "source": 3,
      "ends": [
        "B3",
        "A1"
      ]
    }
  ]
}
"""


def test_generate_star_bytes(capsys):
    assert main(["generate", "star", "--n", "3"]) == 0
    assert capsys.readouterr().out == STAR3_JSON


def test_generate_tree_and_errors(tmp_path, capsys):
    out = tmp_path / "tree.json"
    assert main(["generate", "tree", "--n", "15", "--m", "3",
                 "--output", str(out)]) == 0
    assert parse_config(out.read_text()).p == 9

    assert main(["generate", "tree", "--n", "6", "--m", "3"]) == 2
    err = capsys.readouterr().err
    assert "divisible" in err

    # (n - m) % (m - 1) is 0 for n = 1, m = 2: only the n >= m check stops a
    # layout with n = 1 and two extremal nodes.
    one = tmp_path / "tree1.json"
    assert main(["generate", "tree", "--n", "1", "--m", "2", "--output", str(one)]) == 2
    assert capsys.readouterr() == ("", "error: tree needs n >= m, got n=1, m=2\n")
    assert not one.exists()

    assert main(["generate", "chain", "--n", "1"]) == 2


def test_generate_custom(tmp_path, capsys):
    edges = json.dumps([
        {"source": 1, "ends": ["B1", "A1"]},
        {"source": 2, "ends": ["A1", "B2"]},
    ])
    out = tmp_path / "custom.json"
    assert main(["generate", "custom", "--n", "2", "--m", "2", "--p", "2",
                 "--edges", edges, "--output", str(out)]) == 0
    assert parse_config(out.read_text()).n == 2
    bad = json.dumps([{"source": 1, "ends": ["B1", "A1"]},
                      {"source": 2, "ends": ["B2", "A1"]},
                      {"source": 3, "ends": ["A1", "B3"]}])
    assert main(["generate", "custom", "--n", "3", "--m", "2", "--p", "3",
                 "--edges", bad]) == 2
    # Nested lists around the depth where decoding stops: the document that
    # holds the edges must not be encoded again, a level deeper.
    capsys.readouterr()
    for depth in range(700, 1101):
        assert main(["generate", "custom", "--n", "2", "--m", "2", "--p", "2",
                     "--edges", "[" * depth + "]" * depth]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (depth, err)


@pytest.mark.parametrize("argv, missing", [
    (["chain"], "n"), (["star"], "n"), (["tree", "--n", "15"], "m"),
    (["custom", "--n", "2", "--m", "2", "--edges", "[]"], "p"),
], ids=["chain", "star", "tree", "custom"])
def test_generate_names_the_missing_parameter(capsys, argv, missing):
    assert main(["generate", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --{missing} is required for kind {argv[0]!r}"]


def test_validate_command(tmp_path, capsys):
    good = tmp_path / "good.json"
    main(["generate", "star", "--n", "3", "--output", str(good)])
    assert main(["validate", "--topology", str(good)]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    bad = tmp_path / "bad.json"
    doc = json.loads(good.read_text())
    doc["m"] = 2
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--topology", str(bad)]) == 2
    assert capsys.readouterr().out.strip()

    assert main(["validate", "--topology", str(tmp_path / "missing.json")]) == 2


def test_evaluate_command(tmp_path, capsys):
    topo = tmp_path / "chain2.json"
    main(["generate", "chain", "--n", "2", "--output", str(topo)])

    assert main(["evaluate", "--topology", str(topo),
                 "--theta", "0.25pi,0.25pi", "--alpha", "0.25pi,0.25pi"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["S"] == pytest.approx(math.sqrt(2), abs=1e-9)
    assert report["violated"] is True
    assert report["bound"] == 1
    assert report["alpha_star_hint"] == pytest.approx(math.pi / 4, abs=1e-8)

    assert main(["evaluate", "--topology", str(topo),
                 "--theta", "0,0.25pi", "--alpha", "0.25pi,0.25pi"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["S"] <= 1.0 and report["violated"] is False

    # a list that starts with a minus sign, with "=" or as the next argument
    outputs = []
    for theta in (["--theta=-0.3,0.2"], ["--theta", "-0.3,0.2"]):
        assert main(["evaluate", "--topology", str(topo), *theta,
                     "--alpha", "-0.5,0.6"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["S"] == pytest.approx(
        closed_form_S([-0.3, 0.2], [-0.5, 0.6], 2), abs=1e-12)

    # wrong alpha count
    assert main(["evaluate", "--topology", str(topo),
                 "--theta", "0.25pi,0.25pi", "--alpha", "0.25pi"]) == 2


# chain(3) written through `generate custom` with its sources, A's and B's
# renumbered and two sources' endpoints swapped.
RELABELLED_CHAIN3 = ('[{"source":1,"ends":["A2","B2"]},{"source":2,"ends":["A1","A2"]},'
                     '{"source":3,"ends":["B1","A1"]}]')


def test_evaluate_prints_the_same_bytes_on_a_relabelled_layout(tmp_path, capsys):
    chain = tmp_path / "chain3.json"
    custom = tmp_path / "custom.json"
    assert main(["generate", "chain", "--n", "3", "--output", str(chain)]) == 0
    assert main(["generate", "custom", "--n", "3", "--m", "2", "--p", "2",
                 "--edges", RELABELLED_CHAIN3,
                 "--output", str(custom)]) == 0
    capsys.readouterr()
    outputs = []
    for topo in (chain, custom):
        assert main(["evaluate", "--topology", str(topo),
                     "--theta", "0.1,0.2,0.3", "--alpha", "0.4,0.5"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_evaluate_checks_the_layout_before_the_angle_counts(tmp_path, capsys):
    # evaluate_S validates the layout before it counts the angles, so an
    # invalid layout is reported as such, with the line maximize prints.
    topo = tmp_path / "bad.json"
    chain2, chain3 = (json.loads(serialize_config(build_chain(n))) for n in (2, 3))
    for doc in ({**chain2, "m": 10 ** 30}, {**chain3, "n": 5, "m": 3},
                {**chain2, "m": 0}):
        topo.write_text(json.dumps(doc))
        assert main(["evaluate", "--topology", str(topo),
                     "--theta", "0.1,0.2", "--alpha", "0.3,0.4"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: invalid network layout: ")
        assert main(["maximize", "--topology", str(topo), "--theta", "0.1,0.2"]) == 2
        assert capsys.readouterr().err == err


def test_maximize_command(tmp_path, capsys):
    topo = tmp_path / "star3.json"
    main(["generate", "star", "--n", "3", "--output", str(topo)])
    assert main(["maximize", "--topology", str(topo),
                 "--theta", "0.25pi,0.25pi,0.25pi"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["smax"] == pytest.approx(math.sqrt(2), abs=1e-9)
    assert report["alpha_star"] == pytest.approx(math.pi / 4, abs=1e-8)
    assert report["violated"] is True
    assert main(["maximize", "--topology", str(topo), "--theta", "0.25pi,0.25pi"]) == 2
    assert capsys.readouterr() == ("", "error: need 3 theta values, got 2\n")


def test_sweep_command(tmp_path):
    topo = tmp_path / "chain2.json"
    main(["generate", "chain", "--n", "2", "--output", str(topo)])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--topology", str(topo),
                 "--grid", "0,0.125pi,0.25pi", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta_1,theta_2,alpha_star,smax,violated"
    assert len(lines) == 10


def test_sweep_prints_the_bytes_that_it_writes_to_output(tmp_path):
    # generate and sweep write --output and stdout through one writer.
    topo = tmp_path / "chain3.json"
    generate = ["generate", "chain", "--n", "3"]
    assert main([*generate, "--output", str(topo)]) == 0
    out = tmp_path / "sweep.csv"
    # 15 625 rows, more than one block of writes.
    grid = ",".join(["-0.0", "2"] + [f"{0.13 * k - 1:.2f}" for k in range(23)])
    sweep = ["sweep", "--topology", str(topo), "--grid", grid]
    assert main([*sweep, "--output", str(out)]) == 0
    for argv, written in ((generate, topo), (sweep, out)):
        done = subprocess.run([sys.executable, "-m", "nlocalnet", *argv],
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                              capture_output=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, b""), argv
        assert done.stdout == written.read_bytes(), argv
    assert done.stdout.count(b"\n") == 25 ** 3 + 1


def test_failed_sweep_leaves_the_output_file_alone(tmp_path, capsys):
    topo = tmp_path / "chain6.json"
    main(["generate", "chain", "--n", "6", "--output", str(topo)])
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"theta_1,earlier result\n")
    grid = ",".join(str(0.1 * k) for k in range(11))  # 11^6 rows, above the cap
    for output in (keep, tmp_path / "new.csv"):
        assert main(["sweep", "--topology", str(topo), "--grid", grid,
                     "--output", str(output)]) == 4
    assert keep.read_bytes() == b"theta_1,earlier result\n"
    assert not (tmp_path / "new.csv").exists()
    assert capsys.readouterr().err.startswith("resource limit: ")


@pytest.mark.parametrize("command", [
    ["evaluate", "--topology", "TOPO", "--theta", "0.1,0.2,0.3", "--alpha", "0.4,0.5"],
    ["lhv", "--topology", "TOPO"],
    ["maximize", "--topology", "TOPO", "--theta", "0.1,0.2,0.3"],
    ["sweep", "--topology", "TOPO", "--grid", "0.1,0.2"],
    ["validate", "--topology", "TOPO"],
    ["generate", "custom", "--n", "2", "--m", "2", "--p", "2", "--edges",
     '[{"source": 1, "ends": ["B1", "A1"]}, {"source": 2, "ends": ["A1", "B2"]}]'],
], ids=["evaluate", "lhv", "maximize", "sweep", "validate", "generate-custom"])
def test_each_command_walks_the_layout_once(tmp_path, capsys, monkeypatch, command):
    topo = tmp_path / "chain3.json"
    main(["generate", "chain", "--n", "3", "--output", str(topo)])
    calls = []
    real_walk = nlocalnet.topology._walk

    def counting_walk(config):
        calls.append(config)
        return real_walk(config)

    monkeypatch.setattr(nlocalnet.topology, "_walk", counting_walk)
    assert main([str(topo) if arg == "TOPO" else arg for arg in command]) == 0
    assert len(calls) == 1


BIG = "1" * 5000  # above the interpreter's 4300-digit limit on int()


@pytest.mark.parametrize("command, document", [
    (["validate", "--topology", "TOPO"],
     '{"n": %s, "m": 2, "p": 2, "edges": []}' % BIG),
    (["validate", "--topology", "TOPO"],
     '{"n": 2, "m": 2, "p": 2, "edges": [{"source": %s, "ends": ["B1", "A1"]}]}' % BIG),
    (["validate", "--topology", "TOPO"],
     '{"n": 2, "m": 2, "p": 2, "edges": [{"source": 1, "ends": ["B1", "A%s"]}]}' % BIG),
    (["generate", "custom", "--n", "2", "--m", "2", "--p", "2", "--edges",
      '[{"source": %s, "ends": ["B1", "A1"]}]' % BIG], None),
    (["generate", "custom", "--n", "2", "--m", "2", "--p", "2", "--edges",
      '[{"source": 1, "ends": ["B1", "A%s"]}]' % BIG], None),
], ids=["n", "source", "node-index", "edges-source", "edges-node-index"])
def test_integers_above_the_digit_limit_exit_2(tmp_path, capsys, command, document):
    topo = tmp_path / "big.json"
    if document is not None:
        topo.write_text(document)
    assert main([str(topo) if arg == "TOPO" else arg for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


NINES = "9" * 4300  # the longest integer int() reads


@pytest.mark.parametrize("m", ["1", "2"])
def test_derived_integers_above_the_digit_limit_exit_2(tmp_path, capsys, m):
    """p = -NINES is read, but l (m = 1) and 2n - p (m = 2) have 4301 digits."""
    topo = tmp_path / "huge.json"
    topo.write_text('{"n": 3, "m": %s, "p": -%s, "edges": []}' % (m, NINES))
    for command in (["validate", "--topology", str(topo)],
                    ["generate", "custom", "--n", "3", "--m", m, "--p", "-" + NINES,
                     "--edges", "[]"]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert "<14285-bit integer>" in captured.out + captured.err


def test_lhv_command(tmp_path, capsys):
    topo = tmp_path / "chain2.json"
    main(["generate", "chain", "--n", "2", "--output", str(topo)])
    model_path = tmp_path / "model.json"
    assert main(["lhv", "--topology", str(topo), "--grid-steps", "5",
                 "--output", str(model_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"best_s": 1.0, "bound": 1}
    model_doc = json.loads(model_path.read_text())
    assert set(model_doc) == {"alphabet_size", "weights", "intermediate",
                              "extremal"}

    big = tmp_path / "tree.json"
    main(["generate", "tree", "--n", "15", "--m", "3", "--output", str(big)])
    assert main(["lhv", "--topology", str(big)]) == 0
    assert json.loads(capsys.readouterr().out)["best_s"] == 1.0


def test_lhv_ignores_its_alphabet_and_grid_options(tmp_path, capsys):
    # both are read as integers and change neither the report nor the model
    # file
    topo = tmp_path / "chain3.json"
    main(["generate", "chain", "--n", "3", "--output", str(topo)])
    outputs = []
    for extra in ([], ["--alphabet-size", "3", "--grid-steps", "6"]):
        model_path = tmp_path / f"model{len(extra)}.json"
        assert main(["lhv", "--topology", str(topo), *extra,
                     "--output", str(model_path)]) == 0
        outputs.append((capsys.readouterr(), model_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == ('{"best_s": 1.0, "bound": 1}\n', "")
    assert main(["lhv", "--topology", str(topo), "--alphabet-size", "x"]) == 2
    assert capsys.readouterr().err == "error: option --alphabet-size needs an integer, got 'x'\n"


def test_outputs_are_byte_stable(tmp_path, capsys):
    topo_a = tmp_path / "a.json"
    topo_b = tmp_path / "b.json"
    main(["generate", "tree", "--n", "7", "--m", "3", "--output", str(topo_a)])
    main(["generate", "tree", "--n", "7", "--m", "3", "--output", str(topo_b)])
    assert topo_a.read_bytes() == topo_b.read_bytes()

    args = ["evaluate", "--topology", str(topo_a),
            "--theta", "0.1,0.2,0.3,0.4,0.5,0.6,0.7",
            "--alpha", "0.3,0.6,0.9,1.2,1.5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first

    sweep_a = tmp_path / "sa.csv"
    sweep_b = tmp_path / "sb.csv"
    chain = tmp_path / "chain.json"
    main(["generate", "chain", "--n", "2", "--output", str(chain)])
    main(["sweep", "--topology", str(chain), "--grid", "0,0.2,0.25pi",
          "--output", str(sweep_a)])
    main(["sweep", "--topology", str(chain), "--grid", "0,0.2,0.25pi",
          "--output", str(sweep_b)])
    assert sweep_a.read_bytes() == sweep_b.read_bytes()

    model_a = tmp_path / "ma.json"
    model_b = tmp_path / "mb.json"
    main(["lhv", "--topology", str(chain), "--grid-steps", "5",
          "--output", str(model_a)])
    main(["lhv", "--topology", str(chain), "--grid-steps", "5",
          "--output", str(model_b)])
    capsys.readouterr()
    assert model_a.read_bytes() == model_b.read_bytes()


# Per layout: generate's arguments, then the source and extremal angles,
# each the repr of a float, so that every angle parses to one exact double.
PINNED_LAYOUTS = {
    "chain3": (["chain", "--n", "3"], "0.7853981633974483,0.6,0.3", "0.4,1.1"),
    "star4": (["star", "--n", "4"], "0.7853981633974483,0.7,0.6,0.5",
              "0.2,0.4,0.6,0.8"),
    "tree7_3": (["tree", "--n", "7", "--m", "3"], "0.1,0.2,0.3,0.4,0.5,0.6,0.7",
                "0.3,0.6,0.9,1.2,1.5"),
}
# The sha256 of what each command prints and of the file it writes, taken
# from an earlier version of the package, so that a changed byte fails here
# and not only a difference between two runs of the same code.
PINNED_SHA256 = {
    "chain3": {
        "generate stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "generate topology.json":
            "30fbebcdc352cd4ab1d9042db8fe83cf91189bbbcd7df3408323ea42f97e974b",
        "evaluate stdout":
            "14fe0fa3ea774f2068865da289467009da997b575b832d3d3df83d9613a3784a",
        "maximize stdout":
            "9cf0612d3d22fc387f879cceebc2d2d4d925b26ec64a1db9fdce8efd2affdee0",
        "lhv stdout":
            "7cec6dddf6d1416fd37c11723a34498fc2bfab304e2aa0901297e7adcc98c450",
        "lhv model.json":
            "68d10b9c313985674463ea4ec2d28cbe2ee1fcf8485ed5d8efc85fce34a8a319",
        "sweep stdout":
            "7bc66584f27fe48943ab1819fe5b9f0347572acb4ad77b363d7d5e4e91643988",
    },
    "star4": {
        "generate stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "generate topology.json":
            "f50e6e62c062ede6bca0cd50f628ef87967606bbacc9ec68d2d5aefc683d1a6b",
        "evaluate stdout":
            "e5d773a04bc68e5f7f705bc9e6a1f63973c38a07e915de813c53342b30be9200",
        "maximize stdout":
            "45aaf1e0df4de4bf24741f2e02f28f4f883fedd00c194db9a6d2e765b1d19506",
        "lhv stdout":
            "7cec6dddf6d1416fd37c11723a34498fc2bfab304e2aa0901297e7adcc98c450",
        "lhv model.json":
            "0dead2e4af8847c31b5873641d78397ece77a1a9e588f1e587e2255f2717d930",
    },
    "tree7_3": {
        "generate stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "generate topology.json":
            "3004289c41352a13630f3fe14b9577a26a2f42b335b5a3b0b85625c974cd280f",
        "evaluate stdout":
            "dbd937de548fb5a02c2cb1cb38651648b67f4539bbabdd83695bb75d74640dc0",
        "maximize stdout":
            "8be191430c4483ac471055160aa8af2e27a6f79964d7c0b786182b3c2e08fc32",
        "lhv stdout":
            "7cec6dddf6d1416fd37c11723a34498fc2bfab304e2aa0901297e7adcc98c450",
        "lhv model.json":
            "954c10b1b334d2e43a92fe97c57248f186c07bca0ed72e752bd1ffeb2ccc1f5c",
    },
}


@pytest.mark.parametrize("layout", sorted(PINNED_LAYOUTS))
def test_outputs_match_their_pinned_sha256(tmp_path, capsys, layout):
    kind, theta, alpha = PINNED_LAYOUTS[layout]
    topo = str(tmp_path / "topology.json")
    commands = [
        ("generate", ["generate", *kind], "topology.json"),
        ("evaluate", ["evaluate", "--topology", topo, "--theta", theta,
                      "--alpha", alpha], None),
        ("maximize", ["maximize", "--topology", topo, "--theta", theta], None),
        ("lhv", ["lhv", "--topology", topo], "model.json"),
    ]
    if layout == "chain3":
        commands.append(("sweep", ["sweep", "--topology", topo, "--grid", "0,0.25pi,0.3"],
                         None))
    digests = {}
    capsys.readouterr()
    for name, argv, written in commands:
        output = ["--output", str(tmp_path / written)] if written else []
        assert main([*argv, *output]) == 0, argv
        digests[f"{name} stdout"] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
        if written:
            digests[f"{name} {written}"] = hashlib.sha256(
                (tmp_path / written).read_bytes()).hexdigest()
    assert digests == PINNED_SHA256[layout]


@pytest.mark.parametrize("argv, option", [
    (["evaluate", "--theta", "0.3,0.4", "--alpha", "0.5,0.6", "--expect-violation"],
     "--expect-violation"),
    (["evaluate", "--theta", "0.3,0.4", "--alpha", "0.5,0.6", "--output", "F"], "--output"),
    (["maximize", "--theta", "0.3,0.4", "--output", "F"], "--output"),
], ids=["evaluate --expect-violation", "evaluate --output", "maximize --output"])
def test_removed_report_options_are_usage_errors(tmp_path, capsys, argv, option):
    # Reports go to stdout alone: `> F` replaces --output F, and a check of
    # "violated" in the report replaces --expect-violation.
    topo = tmp_path / "chain2.json"
    main(["generate", "chain", "--n", "2", "--output", str(topo)])
    report = tmp_path / "report.json"
    argv = [argv[0], "--topology", str(topo),
            *(str(report) if arg == "F" else arg for arg in argv[1:])]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: option {option} not recognized\n")
    assert not report.exists()


@pytest.mark.parametrize("command, angles", [
    ("evaluate", ["--theta", "0.25pi,0.25pi", "--alpha", "0.25pi,inf"]),
    ("evaluate", ["--theta", "0.25pi,0.25pi", "--alpha", "0.25pi,nan"]),
    ("maximize", ["--theta", "nan,0.4"]),
    # finite, but 2 theta overflows inside sin(2 theta)
    ("evaluate", ["--theta", "1e308,0.25pi", "--alpha", "0.25pi,0.25pi"]),
    ("maximize", ["--theta", "0.4,1e308"]),
    ("sweep", ["--grid", "0.1,1e308"]),
    ("maximize", ["--theta", "0.4,-5e307pi"]),
])
def test_non_finite_angles_exit_2(tmp_path, capsys, command, angles):
    topo = tmp_path / "chain2.json"
    main(["generate", "chain", "--n", "2", "--output", str(topo)])
    assert main([command, "--topology", str(topo), *angles]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert "not finite" in captured.err
    assert "NaN" not in captured.out and "Infinity" not in captured.out


def test_evaluate_command_on_a_large_star(tmp_path, capsys):
    topo = tmp_path / "star200.json"
    main(["generate", "star", "--n", "200", "--output", str(topo)])
    thetas = ",".join(f"{0.2 + 0.005 * r:.6f}" for r in range(200))
    alphas = ",".join(f"{0.3 + 0.004 * j:.6f}" for j in range(200))
    assert main(["evaluate", "--topology", str(topo),
                 "--theta", thetas, "--alpha", alphas]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["S"] == pytest.approx(closed_form_S(
        [float(t) for t in thetas.split(",")],
        [float(a) for a in alphas.split(",")], 200), abs=1e-10)


@pytest.mark.parametrize("argv", [
    ["maximize", "--topology", "TOPO", "--theta", "0.1,0.2", "--free"],
    ["lhv", "--topology", "TOPO", "--seed", "1"],
    ["lhv", "--topology", "TOPO", "--no-refine"],
    ["lhv"],
    ["lhv", "--topology", "TOPO", "--max-work", "10"],
    [],
    ["simulate", "--topology", "TOPO"],
    ["validate", "--topology", "TOPO", "--verbose"],
    ["maximize", "--theta", "0.1,0.2", "--topology"],
    ["maximize", "--topology", "TOPO"],
    ["generate", "chain", "--n", "x"],
    ["generate", "chain", "--n", BIG],
    ["validate", "--topology", "TOPO", "extra"],
    ["generate", "ring", "--n", "3"],
    ["evaluate", "--t", "TOPO", "--alpha", "0.3,0.4"],
    ["evaluate", "--topology", "TOPO", "--theta", "0.1,0.2", "--alpha", "0.3,0.4",
     "--help=1"],
])
def test_usage_errors_are_one_line(tmp_path, capsys, argv):
    topo = tmp_path / "chain2.json"
    main(["generate", "chain", "--n", "2", "--output", str(topo)])
    assert main([str(topo) if arg == "TOPO" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_a_unique_prefix_stands_for_its_option(tmp_path, capsys):
    topo = tmp_path / "chain2.json"
    main(["generate", "chain", "--n", "2", "--output", str(topo)])
    assert main(["evaluate", "--topology", str(topo), "--theta", "0.3,0.4",
                 "--alpha", "0.5,0.6"]) == 0
    full = capsys.readouterr().out
    assert main(["evaluate", "--topo", str(topo), "--th=0.3,0.4", "--al", "0.5,0.6"]) == 0
    assert capsys.readouterr().out == full


OPTIONS = {
    "generate": ["--n", "--m", "--p", "--edges", "--output"],
    "validate": ["--topology"],
    "evaluate": ["--topology", "--theta", "--alpha"],
    "maximize": ["--topology", "--theta"],
    "sweep": ["--topology", "--grid", "--output"],
    "lhv": ["--topology", "--alphabet-size", "--grid-steps", "--output"],
}


REQUIRED = {"generate": [], "validate": ["--topology"],
            "evaluate": ["--topology", "--theta", "--alpha"],
            "maximize": ["--topology", "--theta"], "sweep": ["--topology", "--grid"],
            "lhv": ["--topology"]}


@pytest.mark.parametrize("argv", [["--help"], ["-h"], *([command, "--help"]
                                                         for command in OPTIONS)],
                         ids=lambda argv: " ".join(argv))
def test_help_exits_0_and_names_every_option(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if len(argv) == 1:
        assert all(f"  {command} " in captured.out for command in OPTIONS)
    else:
        assert all(f"  {option} " in captured.out for option in OPTIONS[argv[0]])
        marked = [line.split()[0] for line in captured.out.splitlines()
                  if line.endswith(" (required)")]
        assert marked == REQUIRED[argv[0]]


def test_an_argument_file_carries_a_list_above_the_argument_limit(tmp_path, capsys):
    # Linux caps one argument at 128 KB; chain(20000)'s angles take 140 KB.
    topo = tmp_path / "chain.json"
    main(["generate", "chain", "--n", "20000", "--output", str(topo)])
    args = tmp_path / "angles.args"
    thetas = ",".join(["0.25pi"] * 20000)
    assert len(thetas) > 128 * 1024
    args.write_text(f"--theta\n{thetas}\n--alpha\n0.25pi,0.25pi\n", encoding="utf-8")
    assert main(["evaluate", "--topology", str(topo), f"@{args}"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["S"] - math.sqrt(2)) <= 1e-12 and report["violated"] is True


def test_evaluate_finds_the_violation_below_the_double_range(tmp_path, capsys):
    # star(15000) at alpha = 0.3: I1 = sin(0.3)^15000 is far below 2^-1022
    # and prints as 0.0, yet S = cos(0.3) + sin(0.3) = 1.25086.
    topo = tmp_path / "star.json"
    main(["generate", "star", "--n", "15000", "--output", str(topo)])
    args = tmp_path / "angles.args"
    args.write_text("--theta\n" + ",".join(["0.25pi"] * 15000)
                    + "\n--alpha\n" + ",".join(["0.3"] * 15000) + "\n", encoding="utf-8")
    assert main(["evaluate", "--topology", str(topo), f"@{args}"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["S"] == pytest.approx(math.cos(0.3) + math.sin(0.3), rel=1e-12)
    assert report["violated"] is True and report["I1"] == 0.0
    assert report["I0"] == pytest.approx(math.cos(0.3) ** 15000, rel=1e-10)


def test_maximize_and_sweep_agree_below_the_double_range(tmp_path, capsys):
    # prod sin(2 theta) = sin(0.4 pi)^15000 is far below 2^-1022, but
    # K = sin(0.4 pi) on a star, so smax = sqrt(1 + sin^2(0.4 pi)).
    topo = tmp_path / "star.json"
    main(["generate", "star", "--n", "15000", "--output", str(topo)])
    expected = math.sqrt(1 + math.sin(0.4 * math.pi) ** 2)
    args = tmp_path / "theta.args"
    args.write_text("--theta\n" + ",".join(["0.2pi"] * 15000) + "\n", encoding="utf-8")
    assert main(["maximize", "--topology", str(topo), f"@{args}"]) == 0
    assert json.loads(capsys.readouterr().out)["smax"] == pytest.approx(expected, rel=1e-12)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--topology", str(topo), "--grid", "0.2pi",
                 "--output", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header.endswith("theta_15000,alpha_star,smax,violated")
    *_, smax, violated = row.split(",")
    assert (float(smax), violated) == (pytest.approx(expected, rel=1e-8), "true")


@pytest.mark.parametrize("content", [None, b"--theta\n\xff0.1,0.2\n", b"", b"@NESTED\n",
                                     b"--theta\n0.1,0.2\n" * 50_000],
                         ids=["missing", "not-utf8", "empty", "nested", "100000-lines"])
def test_a_bad_argument_file_is_one_line_exit_2(tmp_path, capsys, content):
    # An @file inside an @file is not read: its name reaches the option parser.
    # The option parser takes time quadratic in the argument count, so a
    # long argument list is refused before it is parsed.
    topo = tmp_path / "chain2.json"
    main(["generate", "chain", "--n", "2", "--output", str(topo)])
    nested = tmp_path / "nested.args"
    nested.write_text("--theta\n0.1,0.2\n", encoding="utf-8")
    args = tmp_path / "bad.args"
    if content is not None:
        args.write_bytes(content.replace(b"NESTED", bytes(nested)))
    assert main(["maximize", "--topology", str(topo), f"@{args}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["validate", "--topology", "/dev/zero"],
    ["evaluate", "@/dev/zero"],
], ids=["topology", "argument-file"])
def test_an_endless_input_file_is_one_line_exit_4(argv):
    # The child's address space is capped at 400 MB, so reading all of
    # /dev/zero would end in a MemoryError traceback, exit 1.
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
            "from nlocalnet.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    done = run_fresh(code, *argv)
    assert (done.returncode, done.stdout) == (4, ""), done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("resource limit: ")


def test_a_topology_that_parses_to_too_much_is_one_line_exit_4(tmp_path):
    # 15 MB, under MAX_FILE_BYTES, decodes to 5 million dicts: more than the
    # child's 256 MiB address space holds, a MemoryError inside json.loads.
    topo = tmp_path / "dicts.json"
    topo.write_text("[" + "{}," * 5_000_000 + "{}]", encoding="utf-8")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
            "from nlocalnet.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    done = run_fresh(code, "validate", "--topology", str(topo))
    assert (done.returncode, done.stdout) == (4, ""), done.stderr
    assert done.stderr == "resource limit: out of memory\n"


def test_input_files_are_read_up_to_the_cap(tmp_path, capsys, monkeypatch):
    topo = tmp_path / "chain2.json"
    main(["generate", "chain", "--n", "2", "--output", str(topo)])
    args = tmp_path / "theta.args"
    args.write_text("--theta\n0.1,0.2\n", encoding="utf-8")
    argv = ["maximize", "--topology", str(topo), f"@{args}"]
    monkeypatch.setattr(nlocalnet.cli, "MAX_FILE_BYTES",
                        max(topo.stat().st_size, args.stat().st_size))
    assert main(argv) == 0
    capsys.readouterr()
    for path in (topo, args):
        monkeypatch.setattr(nlocalnet.cli, "MAX_FILE_BYTES", path.stat().st_size - 1)
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("resource limit: ")
        assert len(captured.err.splitlines()) == 1 and str(path) in captured.err


def test_reading_a_file_holds_at_most_its_bytes_and_its_text(tmp_path):
    path = tmp_path / "four-mib.txt"
    path.write_bytes(b"x" * (4 << 20))
    tracemalloc.start()
    try:
        text = nlocalnet.cli._read_text(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == 4 << 20
    assert peak < 9 << 20  # bytes and text: 8 MiB; 12 MiB with the chunks still held


def test_a_long_argument_file_is_refused_before_it_is_split(tmp_path, capsys):
    # 10^6 line breaks: split into lines, a list of 8 MB.  Read at the real
    # cap: a reader's buffer sized from the cap would add 64 MiB to the peak.
    args = tmp_path / "breaks.args"
    args.write_bytes(b"\n" * 10 ** 6)
    tracemalloc.start()
    try:
        code = main(["maximize", f"@{args}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 4_000_000
    assert capsys.readouterr().err == "error: 1000001 arguments, above the cap 1000\n"


def test_size_caps_exit_4(tmp_path, capsys, monkeypatch):
    star = tmp_path / "star10.json"
    main(["generate", "star", "--n", "10", "--output", str(star)])
    grid = ",".join(str(0.1 * k) for k in range(10))
    assert main(["sweep", "--topology", str(star), "--grid", grid]) == 4
    assert capsys.readouterr().out == ""

    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10 ** 12, "m": 2, "p": 2, "edges": []}))
    assert main(["validate", "--topology", str(huge)]) == 4
    assert main(["maximize", "--topology", str(huge), "--theta", "0.1,0.2"]) == 4
    assert main(["generate", "chain", "--n", "1000000000"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("resource limit: ") for line in err)

    # an edge list longer than the cap, whatever n says
    monkeypatch.setattr(nlocalnet.topology, "MAX_SOURCES", 3)
    edges = [{"source": r, "ends": ["B1", "A1"]} for r in range(1, 5)]
    topo = tmp_path / "edges.json"
    topo.write_text(json.dumps({"n": 2, "m": 2, "p": 2, "edges": edges}))
    assert main(["validate", "--topology", str(topo)]) == 4
    assert main(["generate", "custom", "--n", "2", "--m", "2", "--p", "2",
                 "--edges", json.dumps(edges)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource limit: layout has 4 sources, above the cap 3\n" * 2


@pytest.mark.parametrize("n, alphabet", [(24, "2"), (200, "2"), (1000, "2"),
                                         (2, "1" + "0" * 400)],
                         ids=["star24", "star200", "star1000", "alphabet1e400"])
def test_lhv_cap_on_large_stars_is_one_short_line(tmp_path, capsys, n, alphabet):
    # The vertex model has one symbol and no cap on its cells, and an
    # --alphabet-size is read as an integer and ignored: large stars and a
    # huge alphabet print the report and nothing else.
    topo = tmp_path / "star.json"
    main(["generate", "star", "--n", str(n), "--output", str(topo)])
    start = time.perf_counter()
    assert main(["lhv", "--topology", str(topo), "--alphabet-size", alphabet]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == ('{"best_s": 1.0, "bound": 1}\n', "")


@pytest.mark.parametrize("n", [12, 23])
def test_lhv_on_large_stars_is_exactly_one(tmp_path, capsys, n):
    topo = tmp_path / "star.json"
    main(["generate", "star", "--n", str(n), "--output", str(topo)])
    assert main(["lhv", "--topology", str(topo)]) == 0
    assert json.loads(capsys.readouterr().out)["best_s"] == 1.0


def test_lhv_output_is_one_digit_per_cell(tmp_path, capsys):
    # the one-symbol vertex model has one cell per row, so star(20)'s model
    # file is a few KB
    topo = tmp_path / "star.json"
    main(["generate", "star", "--n", "20", "--output", str(topo)])
    model_path = tmp_path / "model.json"
    assert main(["lhv", "--topology", str(topo), "--output", str(model_path)]) == 0
    assert json.loads(capsys.readouterr().out)["best_s"] == 1.0
    assert model_path.stat().st_size < 3_000
    doc = json.loads(model_path.read_text())
    assert doc["alphabet_size"] == 1
    assert doc["weights"] == {str(r): [1.0] for r in range(1, 21)}
    tables = [doc["intermediate"]["A1"], *doc["extremal"].values()]
    assert tables == [["0", "0"]] * 21


def test_lhv_output_is_written_as_it_is_encoded(tmp_path, capsys, monkeypatch):
    # star(20000)'s model file is 1.5 MB.  Rendered as one string before it
    # was written, the file took 17 MB above the memory held once the layout
    # was checked; encoded by json.dump as it was written, 6 MB; written one
    # section at a time, 4 MB.
    topo = tmp_path / "star.json"
    main(["generate", "star", "--n", "20000", "--output", str(topo)])
    model_path = tmp_path / "model.json"
    held = []

    def traced_lhv_best_S(config):
        result = lhv_best_S(config)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(nlocalnet.lhv, "lhv_best_S", traced_lhv_best_S)
    tracemalloc.start()
    try:
        code = main(["lhv", "--topology", str(topo), "--output", str(model_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak - held[0] < 10_000_000
    assert capsys.readouterr() == ('{"best_s": 1.0, "bound": 1}\n', "")
    model = vertex_model(parse_config(topo.read_text()))
    assert model_path.read_text(encoding="utf-8") == json.dumps(
        model_to_jsonable(model), indent=2) + "\n"


@pytest.mark.parametrize("command", [
    ["generate", "chain", "--n", "2"],
    ["sweep", "--topology", "TOPO", "--grid", "0.1,0.2"],
    ["lhv", "--topology", "TOPO"],
], ids=["generate", "sweep", "lhv"])
def test_unwritable_output_prints_no_report(tmp_path, capsys, command):
    topo = tmp_path / "chain2.json"
    main(["generate", "chain", "--n", "2", "--output", str(topo)])
    # a directory cannot be written as a file
    assert main([str(topo) if arg == "TOPO" else arg for arg in command]
                + ["--output", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_import_pulls_in_no_scipy(tmp_path):
    """Nor numpy: with numpy made unimportable, every public name resolves
    and every subcommand exits 0."""
    code = """if True:
        import contextlib, io, sys
        sys.modules["numpy"] = None  # any import of numpy now raises ImportError
        import nlocalnet, nlocalnet.cli
        resolved = {name: getattr(nlocalnet, name) for name in nlocalnet.__all__}
        topo, model = sys.argv[1:]
        angles = "0.25pi,0.25pi"
        runs = [["generate", "chain", "--n", "2", "--output", topo],
                ["validate", "--topology", topo],
                ["evaluate", "--topology", topo, "--theta", angles,
                 "--alpha", angles],
                ["maximize", "--topology", topo, "--theta", angles],
                ["sweep", "--topology", topo, "--grid", "0,0.25pi"],
                ["lhv", "--topology", topo, "--output", model]]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [nlocalnet.cli.main(argv) for argv in runs]
        print(len(resolved), codes, sorted(m for m, module in sys.modules.items()
                                        if module is not None
                                        and m.split(".")[0] in ("numpy", "scipy")))
    """
    done = run_fresh(code, str(tmp_path / "chain2.json"), str(tmp_path / "model.json"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "20 [0, 0, 0, 0, 0, 0] []"


@pytest.mark.parametrize("module", ["nlocalnet", "nlocalnet.cli"])
def test_each_entry_module_runs_the_cli(module, tmp_path, capsys):
    """Help, a usage error and a resource cap: the same exit code, stdout and
    stderr from `python -m MODULE` as from main in process."""
    src = Path(nlocalnet.cli.__file__).resolve().parents[1]
    topo = tmp_path / "chain3.json"
    topo.write_text(serialize_config(build_chain(3)))
    grid = ",".join(map(str, range(101)))
    assert 101 ** 3 > MAX_SWEEP_ROWS
    cases = [(["--help"], 0, "usage: nlocalnet COMMAND [options]\n"),
             (["evaluate", "--bogus"], 2, "error: option --bogus not recognized\n"),
             (["sweep", "--topology", str(topo), "--grid", grid], 4, "resource limit: ")]
    for argv, code, start in cases:
        done = subprocess.run([sys.executable, "-m", module, *argv],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert main(argv) == code
        in_process = capsys.readouterr()
        assert (done.returncode, done.stdout, done.stderr) == (
            code, in_process.out, in_process.err)
        if code == 0:
            assert done.stdout.startswith(start) and done.stderr == ""
        else:
            assert done.stdout == "" and done.stderr.startswith(start)
            assert len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("module", ["nlocalnet", "nlocalnet.cli"])
def test_the_process_entry_freezes_the_collector_once_main_returns(module, tmp_path):
    """`python -m MODULE` ends through cli.run, which freezes the collector,
    so the collections at interpreter exit skip what the process loaded."""
    topo = tmp_path / "chain3.json"
    topo.write_text(serialize_config(build_chain(3)))
    code = """if True:
        import contextlib, gc, io, runpy, sys
        module, topo = sys.argv[1:]
        sys.argv = ["nlocalnet", "validate", "--topology", topo]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                runpy.run_module(module, run_name="__main__")
        except SystemExit as exc:
            print(repr(exc.code), gc.get_freeze_count() > 0, repr(out.getvalue()))
    """
    done = run_fresh(code, module, str(topo))
    assert (done.stdout, done.stderr) == ("0 True 'ok\\n'\n", "")


def test_main_in_process_leaves_the_collector_alone(tmp_path):
    topo = tmp_path / "chain3.json"
    topo.write_text(serialize_config(build_chain(3)))
    code = """if True:
        import contextlib, gc, io, sys
        from nlocalnet.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate", "--topology", sys.argv[1]])
        print(code, gc.get_freeze_count())
    """
    done = run_fresh(code, str(topo))
    assert (done.stdout, done.stderr) == ("0 0\n", "")


def test_the_console_script_is_the_process_entry():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one table by hand
        table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
        scripts = dict(re.findall(r'^(\S+) = "([^"]*)"$', table.group(1), re.M))
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
    assert scripts == {"nlocalnet": "nlocalnet.cli:run"}


def test_files_are_read_under_a_64_mib_address_space(tmp_path):
    # A read sized by MAX_FILE_BYTES reserved 64 MiB before it read a byte,
    # so even chain(3) ran out of memory under this limit.
    topo, args = tmp_path / "chain3.json", tmp_path / "maximize.args"
    topo.write_text(serialize_config(build_chain(3)))
    args.write_text(f"--topology\n{topo}\n--theta\n0.25pi,0.25pi,0.25pi\n")
    code = """if True:
        import contextlib, io, resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))
        from nlocalnet.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            print([main(["validate", "--topology", sys.argv[1]]),
                   main(["maximize", "@" + sys.argv[2]])], file=sys.__stdout__)
    """
    done = run_fresh(code, str(topo), str(args))
    assert (done.stdout, done.stderr) == ("[0, 0]\n", "")


def test_the_bare_install_script_passes(tmp_path):
    """ci/bare_install.sh, the bare-install CI job's checks, run with this
    interpreter as the nlocalnet command.  -S leaves out site-packages and
    its .pth hooks, as a bare install has none; a hook may import pathlib,
    which the script refuses at start-up."""
    script = Path(__file__).resolve().parents[1] / "ci" / "bare_install.sh"
    src = Path(nlocalnet.cli.__file__).resolve().parents[1]
    done = subprocess.run(["bash", str(script), sys.executable, "-S", "-m", "nlocalnet"],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("bare install: every check passed\n")


LAYOUT_MODULES = {"nlocalnet", "nlocalnet.cli", "nlocalnet.errors", "nlocalnet.topology"}
WITNESS_MODULES = LAYOUT_MODULES | {"nlocalnet.inequality"}


@pytest.mark.parametrize("argv, modules", [
    (["generate", "chain", "--n", "3"], LAYOUT_MODULES | {"nlocalnet.builders"}),
    (["validate"], LAYOUT_MODULES),
    (["evaluate", "--theta", "0.25pi,0.25pi,0.25pi", "--alpha", "0.25pi,0.25pi"],
     WITNESS_MODULES),
    (["maximize", "--theta", "0.25pi,0.25pi,0.25pi"], WITNESS_MODULES),
    (["sweep", "--grid", "0,0.25pi"], WITNESS_MODULES | {"nlocalnet.table"}),
    (["lhv"], LAYOUT_MODULES | {"nlocalnet.lhv"}),
], ids=["generate", "validate", "evaluate", "maximize", "sweep", "lhv"])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    topo = tmp_path / "chain3.json"
    main(["generate", "chain", "--n", "3", "--output", str(topo)])
    if argv[0] != "generate":
        argv = [*argv, "--topology", str(topo)]
    # Modules the command loads beyond those of a bare interpreter.
    code = """if True:
        import sys
        bare = set(sys.modules)
        import contextlib, io, json
        from nlocalnet.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(sys.argv[1:])
        print(json.dumps([code, sorted(set(sys.modules) - bare)]))
    """
    done = run_fresh(code, *argv)
    assert done.returncode == 0, done.stderr
    exit_code, loaded = json.loads(done.stdout)
    assert exit_code == 0
    assert {m for m in loaded if m.split(".")[0] == "nlocalnet"} == modules
    assert [m for m in loaded if m.split(".")[0] in (
        "__future__", "argparse", "dataclasses", "gettext", "getopt", "locale", "numpy",
        "pathlib", "scipy")] == []


@pytest.mark.parametrize("stdout", ["closed-pipe", "closed-fd"])
@pytest.mark.parametrize("argv", [
    ["generate", "chain", "--n", "3"],
    ["validate", "--topology", "TOPO"],
    ["evaluate", "--topology", "TOPO", "--theta", "0.1,0.2,0.3", "--alpha", "0.3,0.4"],
    ["sweep", "--topology", "TOPO", "--grid", "0.1,0.2"],
    ["--help"],
], ids=["generate", "validate", "evaluate", "sweep", "help"])
def test_an_unwritable_stdout_is_one_line_exit_2(tmp_path, argv, stdout):
    """Buffered stdout, as by default: a pipe nobody reads, or fd 1 closed."""
    topo = tmp_path / "chain3.json"
    main(["generate", "chain", "--n", "3", "--output", str(topo)])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    command = [sys.executable, "-m", "nlocalnet",
               *(str(topo) if arg == "TOPO" else arg for arg in argv)]
    if stdout == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, text=True, timeout=60)
        finally:
            os.close(write_end)
    else:
        done = subprocess.run(command, stderr=subprocess.PIPE, env=env, text=True,
                              timeout=60, preexec_fn=lambda: os.close(1))
    assert done.returncode == 2, done.stderr
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
