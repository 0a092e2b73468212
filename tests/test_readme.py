"""README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_what_its_comments_say():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    s_line, best_line, hub_line, oracle_line = out.getvalue().splitlines()
    assert s_line == "1.414213562373095 True"
    assert best_line == "1.0"
    assert hub_line.count("b'" + r"\x00" * 8 + "'") == 2
    assert abs(float(oracle_line) - 2 ** -1.5) <= 1e-12
