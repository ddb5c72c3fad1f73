"""The README's Python examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "clamped to grid edge" in capsys.readouterr().out
