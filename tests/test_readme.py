"""The README's python examples run and print what their comments say,
and its command-line docs name only options the parser has.

Each ``print(...)`` line of a python block ends in a comment whose first
word is the printed line; any words after it explain the value.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
from pathlib import Path

from ncphase.cli import build_parser

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


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """The option strings of ``parser`` and of every subparser below it."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _option_strings(sub)
    return options


def test_command_line_docs_name_only_real_options():
    text = README.read_text(encoding="utf-8")
    docs = text[text.index("\n## Command line\n"):text.index("\n## Numerical conventions\n")]
    # A wildcard such as --nc-* reads as a token ending in "-".
    tokens = {t for t in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", docs) if not t.endswith("-")}
    assert len(tokens) > 30
    assert tokens - _option_strings(build_parser()) == set()
