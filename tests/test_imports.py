"""Every import in the package is used, and a module imports its siblings at
its top, not inside a function.  One search walks a node's correct edges
beside the walk: only the node expansion and the walk (``misconceptions``)
and the path search (``solution_space``) read ``CORRECT_OUT``.  One reader
in ``evaluation`` takes each diagnose candidate's walk: it alone calls
``steps``, and ``walk`` runs there only with no rules.  A node keeps no
engine error, so ``misconceptions`` copies none, and one draw loop,
``sample_instance``, serves every sampler.  Each replay rule has one copy:
only the path search, ``leaf_paths``, compares written steps with whole
engine paths, guided by them (``_read`` counts how many leading lines
agree), for correct steps, for ``grade``'s firing paths and for
``diagnose``'s full sets alike; and in ``datasets`` only ``_breaks_rule``
reads which rules a record's trace fired.
A draw has one path: no ``InstanceSampler`` stands beside ``generate``'s own
seeding, ``datasets`` folds a draw's signs without ``_joined``, no rewrite
reads the problem type, and only ``errors`` splits a file into lines.
Every name the package exports has a user outside the tests: the CLI, the
README, a demo or the benchmark.

One call-time import stays: ``reduction.reduce`` delegates to the walk in
``misconceptions``, which imports ``reduction`` itself, and perfbench's
tracer wraps ``reduction.reduce`` by its module's name.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import malgebra

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "malgebra"


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


def test_one_copy_of_each_replay_rule():
    trees = dict(_trees())

    def functions(module: str) -> dict[str, ast.FunctionDef]:
        return {fn.name: fn for fn in ast.walk(trees[module]) if isinstance(fn, ast.FunctionDef)}

    def callers(fns: dict[str, ast.FunctionDef], name: str) -> set[str]:
        return {caller for caller, fn in fns.items() for n in ast.walk(fn)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name}

    evaluation = functions("evaluation.py")
    assert not {"_replays_correct", "_writes"} & set(evaluation)
    # the written steps are compared with whole engine paths in one place,
    # the path search they guide; ``_read`` only counts leading lines, and
    # names no set full
    whole = {name for name, fn in evaluation.items() for n in ast.walk(fn)
             if isinstance(n, ast.Compare) and any(
                 isinstance(x, ast.Name) and x.id == "model" for x in (n.left, *n.comparators))}
    assert whole == set()
    assert "full" not in {n.value for n in ast.walk(evaluation["_read"])
                          if isinstance(n, ast.Constant)}
    search = functions("solution_space.py")["leaf_paths"]
    readers = {fn.name for fn in trees["solution_space.py"].body for n in ast.walk(fn)
               if isinstance(n, ast.Name) and n.id == "written"}
    assert readers == {"leaf_paths"}
    assert callers(evaluation, "leaf_paths") == {"_writes_correct", "_mal_outcomes", "_diagnosis"}
    # correct steps are read against every correct path, in grade and in
    # diagnose, by the one path search; grade takes no walk of its own
    assert callers(evaluation, "_writes_correct") == {"grade", "_diagnosis"}
    assert "walk" not in {n.func.id for n in ast.walk(evaluation["grade"])
                          if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    params = [a.arg for a in ast.walk(search.args) if isinstance(a, ast.arg)]
    assert params == ["root", "rules", "cap", "fired_to_solve", "written"]

    datasets = functions("datasets.py")
    readers = {name for name, fn in datasets.items() for n in ast.walk(fn)
               if isinstance(n, ast.Attribute) and n.attr == "misconceptions_used"}
    assert readers == {"_breaks_rule"}
    assert callers(datasets, "_breaks_rule") == {"sample_instance", "_replay"}


def test_one_draw_path_and_view_only_rewrites():
    trees = dict(_trees())
    defined = {name for name, tree in trees.items() for n in ast.walk(tree)
               if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == "InstanceSampler"
               or isinstance(n, ast.Name) and n.id == "InstanceSampler"}
    assert defined == set()
    assert not [n for n in ast.walk(trees["datasets.py"])
                if isinstance(n, ast.Name) and n.id == "_joined"
                or isinstance(n, ast.alias) and n.name == "_joined"]
    typed = [fn.name for fn in ast.walk(trees["misconceptions.py"])
             if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_rw_")
             and "t" in {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}]
    assert typed == []
    splitters = {name for name, tree in trees.items() for n in ast.walk(tree)
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                 and n.func.attr == "split" and n.args
                 and isinstance(n.args[0], ast.Constant) and n.args[0].value == "\n"}
    assert splitters == {"errors.py"}


def test_every_exported_name_has_a_user_outside_the_tests():
    users = [_SRC / "cli.py", _ROOT / "README.md",
             *sorted((_ROOT / "demos").glob("*.py")), *sorted((_ROOT / "perfbench").glob("*.py"))]
    text = "\n".join(path.read_text(encoding="utf-8") for path in users)
    unused = [name for name in malgebra.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []
