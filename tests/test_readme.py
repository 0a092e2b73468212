"""README's library example and CLI block run and print what their comments say."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from nlocalnet import build_tree
from nlocalnet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_what_its_comments_say():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    s_line, best_line, hub_line = out.getvalue().splitlines()
    assert s_line == "1.414213562373095 True"
    assert best_line == "1.0"
    assert hub_line == "{'A1': ['0', '0']}"
    assert "# 1.0, the classical bound" in block and f"# {hub_line}" in block


def test_cli_block_runs_and_evaluate_prints_what_its_comment_says(
        tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("nlocalnet ")]
    assert [argv[0] for argv in commands] == [
        "generate", "generate", "validate", "evaluate", "maximize", "sweep", "lhv"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0, argv
        if argv[0] == "evaluate":
            report = json.loads(capsys.readouterr().out)
    comment = lines[next(i for i, line in enumerate(lines)
                         if line.startswith("nlocalnet evaluate ")) + 1]
    assert '"S": 1.414...' in comment and '"violated": true' in comment
    assert str(report["S"]).startswith("1.414") and report["violated"] is True


def test_tree_numbering_example_matches_the_built_tree():
    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"`generate tree --n N --m M` numbers(.*?)\n\n", text, re.S).group(1)
    examples = re.findall(r"source\s+(\d+)\s+joins\s+(\w+)\s+to\s+(\w+)", paragraph)
    assert len(examples) == 3
    edges = build_tree(15, 3).edges
    for r, first, second in examples:
        assert [node.name for node in edges[int(r)]] == [first, second]
