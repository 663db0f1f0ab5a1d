"""The README's documented library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LIBRARY_OUTPUT = """\
verified
proc max2(in a, in b, out max) {
    if (a > b) {
        max := a;
    }
}
"""


def test_library_example_prints_verdict_and_slice(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert block, "no python block opens the Library section"
    monkeypatch.chdir(ROOT)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == LIBRARY_OUTPUT
