"""tools/mutate.py on a tree of one tiny module and one test: every mutant is
run in a copy, so the tree keeps its bytes and the test kills each one."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
SPEC = importlib.util.spec_from_file_location("mutate", TOOL)
mutate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutate)

MODULE = b"def one():\n    return True\n"


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "src" / "nlocalnet").mkdir(parents=True)
    (tmp_path / "src" / "nlocalnet" / "__init__.py").write_bytes(b"")
    (tmp_path / "src" / "nlocalnet" / "mod.py").write_bytes(MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from nlocalnet.mod import one\n\n\ndef test_one():\n    assert one() is True\n")
    return tmp_path


def test_an_absolute_module_path_mutates_the_copy_and_not_the_tree(tree, capsys):
    module = tree / "src" / "nlocalnet" / "mod.py"
    assert mutate.main([str(module), "--root", str(tree)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert module.read_bytes() == MODULE
    # The function deleted, and its return deleted.
    assert report["modules"] == [{
        "module": "src/nlocalnet/mod.py", "mutants": 2, "invalid": 0, "killed": 2,
        "survived": 0, "timeout": 0, "tests": ["tests/test_mod.py"]}]
    assert report["survivors"] == []
