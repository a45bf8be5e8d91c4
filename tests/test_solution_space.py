from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from conftest import Corpus

from malgebra.cli import main
from malgebra.equations import closed_form_solution, parse_equation
from malgebra.errors import BudgetExceededError, ZeroCoefficientError
from malgebra.evaluation import GRADE_OTHER, Transcript, _mal_outcomes, grade
from malgebra.misconceptions import CATALOG, Node, get_misconception, try_apply, walk
from malgebra.reduction import reduce, reduce_step, solve_terminal
from malgebra import solution_space
from malgebra.solution_space import enumerate_tree, leaf_answers, to_dot, to_json_dict
from malgebra.taxonomy import (
    DEAD_END,
    ORDERED_TYPES,
    ProblemType,
    SOLVED,
    classify,
    correct_successors,
)


def brute_force_leaves(eq, mid: str, cap: int):
    """Independent oracle: enumerate edge-choice vectors, replaying each from
    the root through the public single-step operations."""
    m = get_misconception(mid)

    def options(state, label, used: bool):
        if label in (SOLVED, DEAD_END):
            return []
        opts = []
        if label is ProblemType.T1:
            opts.append(("solve", None))
        else:
            for _, rule_id in correct_successors(label):
                opts.append(("correct", rule_id))
        if not used and cap >= 1 and try_apply(m, Node(state, label)) is not None:
            opts.append(("mal", m.id))
        return opts

    results = []
    stack = [()]
    while stack:
        vec = stack.pop()
        state, label = parse_equation(str(eq)), classify(eq)
        used = False
        mals: tuple[str, ...] = ()
        alive = True
        for kind, ident in vec:
            if kind == "solve":
                try:
                    value = solve_terminal(state)
                except ZeroCoefficientError:
                    label = DEAD_END
                    break
                state = parse_equation(f"x = {value}")
                label = SOLVED
            elif kind == "correct":
                state, label = reduce_step(state, label, ident)
            else:
                kid = try_apply(m, Node(state, label))
                state, label = kid.equation, kid.label
                used = True
                mals = mals + (ident,)
        opts = options(state, label, used)
        if not opts:
            if label is SOLVED:
                results.append((state.rhs.value, mals))
            elif label is DEAD_END:
                results.append((None, mals))
            else:  # T1 jammed on a zero coefficient
                results.append((None, mals))
        else:
            for opt in opts:
                stack.append(vec + (opt,))
    return Counter(results)


def test_two_leaf_example():
    tree = enumerate_tree(parse_equation("2x = 3(4x + 5)"), ["M2_S3"], 1)
    answers = leaf_answers(tree)
    assert answers == [
        (Fraction(-3, 2), ()),
        (Fraction(-1, 2), ("M2_S3",)),
    ]


def test_single_path_tree():
    tree = enumerate_tree(parse_equation("3x = 12"), [], 0)
    assert leaf_answers(tree) == [(Fraction(4), ())]


def test_three_leaf_solve_rules():
    # note the correct answer of 4x = 12 is 3
    tree = enumerate_tree(parse_equation("4x = 12"), ["M19", "M21"], 1)
    assert leaf_answers(tree) == [
        (Fraction(3), ()),
        (Fraction(16), ("M19",)),
        (Fraction(-8), ("M21",)),
    ]


def test_zero_coefficient_walk_raises_tree_keeps_leaf():
    # the one place the walk and the tree differ: on 0x = B the walk raises,
    # while the tree records a leaf and still tries the rules at that node
    with pytest.raises(ZeroCoefficientError):
        reduce(parse_equation("0x = 5"))

    def leaves(text, ms, cap):
        tree = enumerate_tree(parse_equation(text), ms, cap)
        return [(l.node_id, l.answer, l.dead_end, l.misconceptions) for l in tree.leaves]

    assert leaves("0x = 5", ["M19", "M21"], 1) == [
        (0, None, "zero x coefficient", ()),
        (1, Fraction(5), None, ("M19",)),
        (2, Fraction(-5), None, ("M21",)),
    ]
    assert leaves("4x = 3(4x + 5)", ["M8", "M19"], 2) == [
        (3, Fraction(-15, 8), None, ()),
        (4, Fraction(7), None, ("M19",)),
        (6, None, "zero x coefficient", ("M8",)),
        (7, Fraction(15), None, ("M8", "M19")),
    ]

    # the one policy the tree and grading differ in: grading takes no path
    # that ends on a zero coefficient, so answering that leaf's line is other
    lines = ("4x = 3(4x + 5)", "4x = 4x + 15", "0x = 15")
    tree = enumerate_tree(parse_equation(lines[0]), ["M8"], 1)
    assert [(l.dead_end, l.equations) for l in tree.leaves if l.misconceptions] == [
        ("zero x coefficient", lines)]
    for steps in (None, lines):
        for mode in ("answer", "steps"):
            assert grade(Transcript("T9", lines[0], lines[-1], steps), "M8", mode) == GRADE_OTHER


def test_correct_leaf_matches_oracle_and_default_path_unique(sampler):
    for t in ORDERED_TYPES:
        eq = sampler.sample(t, f"tree:{t.name}")
        tree = enumerate_tree(eq, ["M19"], 1)
        oracle = closed_form_solution(eq)
        correct_leaves = [l for l in tree.leaves if not l.misconceptions]
        assert all(l.answer == oracle for l in correct_leaves)
        default_lines = tuple(reduce(eq).equation_lines())
        assert sum(1 for l in correct_leaves if l.equations == default_lines) == 1


def test_replay_soundness(sampler):
    # re-walking each leaf's edge sequence reproduces its equations exactly
    for t in ORDERED_TYPES:
        for i in range(3):
            eq = sampler.sample(t, f"replay:{t.name}:{i}")
            tree = enumerate_tree(eq, ["M12_S15", "M20_S20"], 2)
            for leaf in tree.leaves:
                # recover the root-to-leaf node path
                path = [leaf.node_id]
                while tree.parents[path[-1]] != -1:
                    path.append(tree.parents[path[-1]])
                path.reverse()
                assert path[0] == 0
                assert tuple(str(tree.nodes[n].equation) for n in path) == leaf.equations


@pytest.mark.parametrize("mid", ["M2_S3", "M12_S15", "M19", "M16", "M13"])
def test_brute_force_equivalence(mid, sampler):
    m = get_misconception(mid)
    types = [t for t in ORDERED_TYPES if t in m.applicable_types][:3]
    for t in types:
        for i in range(5):
            eq = sampler.sample(t, f"brute:{mid}:{t.name}:{i}")
            tree = enumerate_tree(eq, [mid], 1)
            got = Counter(
                (l.answer, l.misconceptions) for l in tree.leaves
            )
            brute = brute_force_leaves(eq, mid, 1)
            assert got == brute
            # grading's firing search, against the same oracle
            correct = closed_form_solution(eq)
            fired = Counter(end for end, _ in _mal_outcomes(Node(eq), m, correct)
                            if isinstance(end, Fraction))
            assert fired == Counter({a: k for (a, ms), k in brute.items()
                                     if ms == (mid,) and a is not None and a != correct})


def test_count_law_single_spine(sampler):
    # single-successor types: leaves = 1 + (nodes where the rule fires)
    for t, mid in ((ProblemType.T9, "M2_S3"), (ProblemType.T5, "M12_S15")):
        for i in range(10):
            eq = sampler.sample(t, f"count:{t.name}:{i}")
            spine = reduce(eq)
            m = get_misconception(mid)
            k = sum(
                1
                for s in spine.steps
                if isinstance(s.label, ProblemType) and try_apply(m, s)
            )
            tree = enumerate_tree(eq, [mid], 1)
            assert len(tree.leaves) == 1 + k


def test_node_budget_guard(monkeypatch):
    monkeypatch.setattr(solution_space, "NODE_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        enumerate_tree(
            parse_equation("2x = 3 + 4(5x + 6)"),
            ["M1", "M2_S3", "M3", "M5", "M8"],
            3,
        )


def test_node_root_grows_the_tree_of_its_equation():
    # the golden corpus: a typed root, fresh or already expanded by its
    # correct walk, grows the same tree as its bare equation
    sampler = Corpus(seed=77)
    every = [m.id for m in CATALOG]
    for t in ORDERED_TYPES:
        for i in range(6):
            eq = sampler.sample(t, f"golden:{t.name}:{i}")
            want = to_json_dict(enumerate_tree(eq, every, 2))
            root = Node(eq, classify(eq))
            assert to_json_dict(enumerate_tree(root, every, 2)) == want
            walked = Node(eq, classify(eq))
            walk(walked, ())
            assert to_json_dict(enumerate_tree(walked, every, 2)) == want


def test_mid_walk_root_has_no_incoming_edge():
    eq = parse_equation("2x = 3(4x + 5)")
    mid = walk(Node(eq, classify(eq)), [get_misconception("M2_S3")]).steps[1]
    assert mid.via is not None
    tree = enumerate_tree(mid, ["M19"], 1)
    assert tree.nodes[0] is mid and tree.parents[0] == -1
    doc = to_json_dict(tree)
    assert all(e["child"] != 0 for e in doc["edges"])
    assert doc == to_json_dict(enumerate_tree(mid.equation, ["M19"], 1))
    assert " -> n0 " not in to_dot(tree)


def test_exports_are_deterministic():
    eq = parse_equation("2x = 3(4x + 5)")
    one = to_json_dict(enumerate_tree(eq, ["M8"], 1))
    two = to_json_dict(enumerate_tree(eq, ["M8"], 1))
    assert one == two
    dot = to_dot(enumerate_tree(eq, ["M8"], 1))
    assert "style=dashed" in dot and 'label="M8"' in dot and "digraph" in dot


# sha256 over the ``tree`` command's JSON and dot output and over ``to_dot``
# for the corpus below, recorded before trees were built from walk states
_TREE_OUTPUT_SHA256 = "326d5c98ebfd063c55fb7da8f54dd8a64311c77d229122e3f2b156d169752ffe"


def _tree_corpus():
    """(root, rule ids, cap): sampled roots of every type at ±9 and ±10^19,
    each with every rule at cap 2, three rules at cap 1 and none at cap 0."""
    every = [m.id for m in CATALOG]
    for bound in (9, 10**19):
        sampler = Corpus(21, -bound, bound)
        for t in ORDERED_TYPES:
            for i in range(2):
                eq = sampler.sample(t, f"tree-output:{t.name}:{i}")
                for ids, cap in ((every, 2), (["M1", "M13", "M19"], 1), ([], 0)):
                    yield eq, ids, cap


def test_tree_output_matches_pinned_digest(capsys):
    digest = hashlib.sha256()
    for eq, ids, cap in _tree_corpus():
        for fmt in ("json", "dot"):
            argv = ["tree", "--format", fmt, "--cap", str(cap), "--misconceptions", ",".join(ids)]
            assert main(argv + ["--", str(eq)]) == 0
            digest.update(capsys.readouterr().out.encode())
        digest.update(to_dot(enumerate_tree(eq, ids, cap)).encode())
    assert digest.hexdigest() == _TREE_OUTPUT_SHA256
