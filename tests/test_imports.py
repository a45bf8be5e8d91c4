"""Every import in the package is used, and a module imports its siblings at
its top, not inside a function.  One search walks a node's correct edges
beside the walk: only the node expansion and the walk (``misconceptions``)
and the path search (``solution_space``) read ``CORRECT_OUT``.  One reader
in ``evaluation`` takes each diagnose candidate's walk: it alone calls
``steps``, and ``walk`` runs there only with no rules.  A node keeps no
engine error, so ``misconceptions`` copies none, and one draw loop,
``sample_instance``, serves every sampler.

One call-time import stays: ``reduction.reduce`` delegates to the walk in
``misconceptions``, which imports ``reduction`` itself, and perfbench's
tracer wraps ``reduction.reduce`` by its module's name.
"""

from __future__ import annotations

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "malgebra"


def _trees() -> list[tuple[str, ast.Module]]:
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(_SRC.glob("*.py"))]


def _exported(tree: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts}
    return set()


def test_every_import_is_used():
    unused = []
    for name, tree in _trees():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{name}:{node.lineno} {b}" for b in bound if b not in used]
    assert unused == []


def test_siblings_are_imported_at_the_top():
    local = set()
    for name, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").startswith("malgebra")):
                    local.add((name, fn.name, node.module, *(a.name for a in node.names)))
                elif isinstance(node, ast.Import) and any(
                        a.name.startswith("malgebra") for a in node.names):
                    local.add((name, fn.name, *(a.name for a in node.names)))
    assert local == {("reduction.py", "reduce", "misconceptions", "reduce_with_misconceptions")}


def test_one_search_reads_the_correct_edges():
    readers = {name for name, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id == "CORRECT_OUT"
               or isinstance(node, ast.alias) and node.name == "CORRECT_OUT"}
    assert readers == {"misconceptions.py", "solution_space.py"}


def test_one_reader_takes_each_diagnose_walk():
    tree = dict(_trees())["evaluation.py"]

    def calls(node: ast.AST, name: str) -> list[ast.Call]:
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == name]

    readers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and calls(fn, "steps")}
    assert readers == {"_read"}
    rule_sets = [ast.unparse(call.args[1]) for call in calls(tree, "walk")]
    assert rule_sets and set(rule_sets) == {"()"}, rule_sets


def test_no_kept_error_and_one_draw_loop():
    trees = dict(_trees())
    imported = {a.name for node in ast.walk(trees["misconceptions.py"])
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert "copy" not in imported
    child = next(fn for fn in ast.walk(trees["misconceptions.py"])
                 if isinstance(fn, ast.FunctionDef) and fn.name == "child")
    assert not [n for n in ast.walk(child) if isinstance(n, ast.Try)]
    sampler = next(fn for fn in ast.walk(trees["datasets.py"])
                   if isinstance(fn, ast.FunctionDef) and fn.name == "sample_for_misconception")
    assert not [n for n in ast.walk(sampler) if isinstance(n, (ast.For, ast.While))]
    assert "accept" not in {a.arg for a in ast.walk(sampler.args) if isinstance(a, ast.arg)}
