"""The README's worked examples print what the README says they print.

Each example is read from ``README.md`` itself, so an edit to either the
text or the engine that makes them disagree fails here.
"""

from __future__ import annotations

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from malgebra.cli import main

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _fenced_block_after(marker: str) -> str:
    """The body of the first fenced code block after ``marker``."""
    start = _README.index("```", _README.index(marker))
    body = _README.index("\n", start) + 1
    return _README[body : _README.index("```", body)]


def _run(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_solve_trace_block(capsys):
    expected = _fenced_block_after("`solve --trace` prints one line per step")
    assert _run(capsys, ["solve", "2x = 3(4x + 5)", "--trace"]) == expected


def test_command_line_arrow_comments(capsys):
    # lines such as ``malgebra classify "..."   # -> T9``
    examples = re.findall(r"^malgebra (.+?)\s+# -> (.+)$",
                          _fenced_block_after("## Command line"), re.MULTILINE)
    assert [shlex.split(cmd)[0] for cmd, _ in examples] == ["classify", "malsolve"]
    for cmd, printed in examples:
        assert _run(capsys, shlex.split(cmd)).strip() == printed, cmd


def test_library_use_comments():
    # a comment on an expression's last line, or on the line below it,
    # is that expression's repr
    code = _fenced_block_after("## Library use")
    lines = code.splitlines()
    comments = {tok.start[0]: tok.string.lstrip("# ")
                for tok in tokenize.generate_tokens(io.StringIO(code).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(code).body:
        end = stmt.end_lineno
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        note = comments.get(end)
        if note is None and end < len(lines) and lines[end].lstrip().startswith("#"):
            note = comments[end + 1]
        if note is not None:
            assert repr(value) == note, ast.unparse(stmt)
            checked.append(note)
    assert len(checked) == 3
