"""README's examples run, and every value they show is the one they print.

In a Python block, a value comment ends a line of code: `g.vertex_count  # 110`
claims that the expression's repr is `110`. A comment on a line of its own is
prose. In the command-line block, a comment line that follows a command shows
the start of its output, up to `...`. Each row of the refusal table is a call
and the exception class it raises.
"""

from __future__ import annotations

import ast
import builtins
import io
import re
import shlex
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import polyhex
from polyhex.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def value_comments(source: str) -> dict[int, str]:
    """The text of each comment that ends a line of code, by line number."""
    return {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT and token.line[: token.start[1]].strip()
    }


def test_every_value_comment_is_the_repr_of_its_expression():
    namespace: dict = {}
    claims = []
    for source in python_blocks():  # in order: later blocks use earlier names
        comments = value_comments(source)
        for statement in ast.parse(source).body:
            comment = comments.pop(statement.end_lineno, None)
            if comment is None:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
                continue
            assert isinstance(statement, ast.Expr), f"value comment on a statement: {comment}"
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            assert repr(value) == comment
            claims.append(comment)
        assert not comments, f"value comments inside a statement: {comments}"
    assert len(claims) == 9


def cli_examples() -> list[tuple[list[str], str | None]]:
    """The argv of each `polyhex` line of the command-line block, and the output shown below it."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```$", text, re.S | re.M).group(1)
    examples: list = []
    for line in block.splitlines():
        if line.startswith("polyhex "):
            examples.append((shlex.split(line, comments=True)[1:], None))
        elif line.startswith("# "):
            examples[-1] = (examples[-1][0], line[2:])
    return examples


def test_every_cli_example_runs_and_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # sweep writes its --out file here
    examples = cli_examples()
    shown = [output for _, output in examples if output is not None]
    assert len(examples) == 9 and len(shown) == 1
    for argv, output in examples:
        # verify exits 1: the published forms disagree with the oracle
        assert main(argv) == (1 if argv[0] == "verify" else 0), argv
        out = capsys.readouterr().out
        if output is not None:
            assert out.startswith(output.split("...")[0]), argv


def refusal_rows() -> list[tuple[str, str]]:
    """The call and the exception name of each row of the Refusals table."""
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^### Refusals\n.*?^\| Call \| Raises \|.*?\n\|[-|]+\|\n((?:\|.*\n)+)",
                      text, re.S | re.M).group(1)
    return re.findall(r"^\| `(.+?)` \| `(\w+)` \|", table, re.M)


ROWS = refusal_rows()


def test_refusal_table_is_read_whole():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("### Refusals"):]
    assert len(ROWS) == len(re.findall(r"^\| `", table, re.M)) == 39


@pytest.mark.parametrize("call, raises", ROWS, ids=[call for call, _ in ROWS])
def test_every_refusal_row_raises_its_exception(call, raises):
    namespace = {name: getattr(polyhex, name) for name in polyhex.__all__}
    namespace["Fraction"] = Fraction
    expected = namespace.get(raises) or getattr(builtins, raises)
    assert issubclass(expected, ValueError)
    try:
        eval(call, namespace)
    except Exception as exc:
        assert type(exc) is expected, f"{call} raised {exc!r}"
    else:
        raise AssertionError(f"{call} raised nothing")
