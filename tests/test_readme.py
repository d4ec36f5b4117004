"""README's Python examples run, and every value they show is the one they print.

A value comment ends a line of code: `g.vertex_count  # 110` claims that
the expression's repr is `110`. A comment on a line of its own is prose.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

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
