"""The README's python examples run and print what their comments say.

Each ``print(...)`` line of a python block ends in a comment whose first
word is the printed line; any words after it explain the value.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_print_what_their_comments_say():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        comments = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        printed = out.getvalue().splitlines()
        assert len(printed) == len(comments)
        for line, comment in zip(printed, comments):
            assert comment == line or comment.startswith(line + " "), (line, comment)
