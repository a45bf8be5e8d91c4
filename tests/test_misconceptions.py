"""Catalog fidelity: every rule, on every type it applies to, transforms a
sampled instance exactly as its expression says.  Case fixtures live in
``fidelity.py`` so the acceptance suite can reuse them at full volume.
"""

from __future__ import annotations

import gc
from fractions import Fraction

import pytest

from malgebra.equations import parse_equation
from malgebra.errors import EngineError, MisconceptionNotApplicableError, ZeroCoefficientError
from malgebra.misconceptions import (
    CATALOG,
    Node,
    apply_misconception,
    get_misconception,
    reduce_with_misconceptions,
    resolve_set,
    walk,
)
from malgebra.reduction import reduce
from malgebra.taxonomy import DEAD_END, ORDERED_TYPES, ProblemType, SOLVED, classify

from conftest import Corpus
from fidelity import _CASES, _SOLVE_FORMULAS, fidelity_cases

T = ProblemType


@pytest.mark.parametrize("mid", sorted(_CASES), ids=str)
def test_rewrite_matches_expression_structurally(mid):
    covered = set()
    for t, text, expected in fidelity_cases(mid, 30):
        covered.add(t)
        result, label = apply_misconception(mid, parse_equation(text))
        assert result == parse_equation(expected), (mid, t.name, text, str(result), expected)
        if label not in (SOLVED, DEAD_END):
            assert isinstance(label, ProblemType)
    assert covered == set(get_misconception(mid).applicable_types)


@pytest.mark.parametrize("mid", sorted(_SOLVE_FORMULAS), ids=str)
def test_solve_step_rules_fire_on_every_type(mid, sampler):
    from malgebra.reduction import t1_parts

    formula = _SOLVE_FORMULAS[mid]
    for t in ORDERED_TYPES:
        for i in range(10):
            eq = sampler.sample(t, f"solve:{mid}:{t.name}:{i}")
            trace = reduce_with_misconceptions(eq, [mid])
            if mid == "M22_S1" and trace.misconceptions_used == ():
                # A/B is undefined when the walk reaches Ax = 0; the rule
                # stands down and the correct solve runs instead
                assert t1_parts(*(side.view for side in trace.steps[-2].sides))[1] == 0
                continue
            assert trace.misconceptions_used == (mid,)
            # the bad solve consumes the preceding T1 state per the formula
            mal_index = next(
                i for i, s in enumerate(trace.steps)
                if s.via and s.via.kind == "misconception"
            )
            prev = trace.steps[mal_index - 1]
            assert prev.label is T.T1
            a, b = t1_parts(*(side.view for side in prev.sides))
            assert trace.answer == formula(a, b)


def test_applicability_matches_the_table():
    assert T.T9 in get_misconception("M8").applicable_types
    assert T.T5 not in get_misconception("M8").applicable_types
    assert T.T3 in get_misconception("M19").applicable_types
    expected = {
        "M1": {"T8", "T9", "T10", "T12"},
        "M2_S3": {"T9", "T12"},
        "M3": {"T10", "T12"},
        "M4": {"T8"},
        "M5": {"T9", "T12"},
        "M6": {"T9", "T12"},
        "M8": {"T9", "T12"},
        "M11": {"T14"},
        "M12_S15": {"T5", "T6", "T7", "T9", "T12"},
        "M13": {"T5", "T6", "T7", "T9", "T12"},
        "M14": {"T2", "T4"},
        "M15": {"T2", "T4"},
        "M16": {"T3", "T10"},
        "M17": {"T2", "T4"},
        "M18": {"T2", "T4"},
        "M19": {t.name for t in ORDERED_TYPES},
        "M20_S20": {t.name for t in ORDERED_TYPES},
        "M21": {t.name for t in ORDERED_TYPES},
        "M22_S1": {t.name for t in ORDERED_TYPES},
    }
    assert len(CATALOG) == 19
    for m in CATALOG:
        assert {t.name for t in m.applicable_types} == expected[m.id]
        # each row carries its one body: a rewrite, or a solve-step formula
        assert (m.rewrite is None) != (m.solve is None), m.id
        assert m.at_solve == (m.id in {"M19", "M20_S20", "M21", "M22_S1"}), m.id


def test_apply_misconception_spot_anchors():
    eq = parse_equation("2x = 3(4x + 5)")
    assert str(apply_misconception("M2_S3", eq)[0]) == "2x = 12x + 5"
    assert str(apply_misconception("M8", eq)[0]) == "2x = 4x + 15"
    solved, label = apply_misconception("M22_S1", parse_equation("4x = 12"))
    assert str(solved) == "x = 1/3"
    assert label is SOLVED
    bad, label = apply_misconception("M20_S20", parse_equation("4x = 12"))
    assert str(bad) == "x = 12"
    # the group's inner sign folds into the first factor, as the correct fold does
    neg = parse_equation("2x = 3(-(4 * 5))")
    assert str(apply_misconception("M4", neg)[0]) == "2x = 3 * -4 * 3 * 5"
    assert reduce_with_misconceptions(neg, ["M4"]).answer == -90


def test_apply_misconception_rejects_wrong_type():
    with pytest.raises(MisconceptionNotApplicableError):
        apply_misconception("M8", parse_equation("4x + 5 = 9"))
    # applicable type but the instance lacks the site
    with pytest.raises(MisconceptionNotApplicableError):
        apply_misconception("M6", parse_equation("2x = 3(4x + 5)"))
    with pytest.raises(MisconceptionNotApplicableError):
        apply_misconception("M14", parse_equation("5x = 3 - 4"))


def test_reduce_with_misconceptions_trace():
    trace = reduce_with_misconceptions(parse_equation("2x = 3(4x + 5)"), ["M2_S3"])
    assert trace.equation_lines() == [
        "2x = 3(4x + 5)",
        "2x = 12x + 5",
        "-10x = 5",
        "x = -1/2",
    ]
    assert trace.answer == Fraction(-1, 2)
    kinds = [s.via.kind for s in trace.steps if s.via]
    assert kinds == ["misconception", "correct", "solve"]


def test_empty_set_degenerates_to_plain_reduce(sampler):
    for t in ORDERED_TYPES:
        for i in range(20):
            eq = sampler.sample(t, f"degen:{t.name}:{i}")
            assert reduce_with_misconceptions(eq, []) == reduce(eq)


def test_walks_from_one_root_equal_walks_from_fresh_roots(sampler):
    def result(fn, *args):
        try:
            trace = fn(*args)
        except EngineError as exc:
            return type(exc)
        # states compare as printed; their equations compare as trees
        return trace, [s.equation for s in trace.steps]

    # M8 leaves 0x = 15: the solve edge, which keeps no error, raises again
    # on every walk through that node, while M19 still fires there
    eq = parse_equation("4x = 3(4x + 5)")
    root = Node(eq, classify(eq))
    for _ in range(3):
        with pytest.raises(ZeroCoefficientError):
            walk(root, resolve_set(["M8"]))
        assert walk(root, resolve_set(["M8", "M19"])).misconceptions_used == ("M8", "M19")

    sets = [()] + [(m,) for m in CATALOG] + [(a, b) for a in CATALOG for b in CATALOG if a is not b]
    for eq in [eq] + [sampler.sample(t, f"shared-root:{t.name}") for t in ORDERED_TYPES]:
        root = Node(eq, classify(eq))
        for ms in sets + sets[::-1]:
            assert result(walk, root, ms) == result(reduce_with_misconceptions, eq, ms), (eq, ms)


def test_a_walk_that_raises_frees_its_states():
    # a node keeps no edge's error: the raised error's traceback reaches the
    # node through its frames, so keeping that error would make each such
    # walk a reference cycle that only the garbage collector frees
    gc.disable()
    try:
        gc.collect()
        root = Node(parse_equation("0x = 5"), ProblemType.T1)
        for _ in range(2):  # the raise, then the edge run again
            try:
                walk(root, ())
            except ZeroCoefficientError:
                pass
        del root
        assert gc.collect() == 0  # nothing left for the collector to free
    finally:
        gc.enable()


def test_a_node_keeps_no_error():
    # after a walk that raises, every state reached keeps only nodes and
    # None: the edge that raised is run again on the next walk
    root = Node(parse_equation("4x = 3(4x + 5)"))
    with pytest.raises(ZeroCoefficientError):
        walk(root, resolve_set(["M8"]))
    nodes, kept = [root], []
    while nodes:
        kids = list(nodes.pop()._kids.values())
        kept += kids
        nodes += [kid for kid in kids if isinstance(kid, Node)]
    assert kept and all(kid is None or isinstance(kid, Node) for kid in kept)


def test_m20_answer_is_rhs():
    trace = reduce_with_misconceptions(parse_equation("4x = 12"), ["M20_S20"])
    assert trace.answer == 12


def test_dead_end_traces():
    trace = reduce_with_misconceptions(parse_equation("4x + 5 = 9"), ["M13"])
    assert trace.answer is None
    assert trace.dead_end == "variable eliminated"
    assert trace.equation_lines() == ["4x + 5 = 9", "9 = 9"]


def test_single_fire_and_termination(sampler):
    every = [m.id for m in CATALOG]
    for t in ORDERED_TYPES:
        for i in range(10):
            eq = sampler.sample(t, f"fire:{t.name}:{i}")
            try:
                trace = reduce_with_misconceptions(eq, every)
            except Exception:
                continue  # degenerate continuations are exercised elsewhere
            used = trace.misconceptions_used
            assert len(used) == len(set(used))
            assert len(trace.steps) - 1 <= 12


def test_misconception_can_fire_downstream_of_its_type():
    # T14 is outside M12_S15's set, but the walk reaches T7 where it applies
    trace = reduce_with_misconceptions(parse_equation("4x + 5 = 2x + 9"), ["M12_S15"])
    assert trace.misconceptions_used == ("M12_S15",)
    assert trace.equation_lines() == ["4x + 5 = 2x + 9", "4x = 2x + 4", "4x = 6x", "-2x = 0", "x = 0"]


def test_resolve_set_rejects_duplicates():
    with pytest.raises(MisconceptionNotApplicableError, match="duplicate misconception ids"):
        resolve_set(["M8", "M8"])


def test_multi_misconception_combination():
    trace = reduce_with_misconceptions(
        parse_equation("2x = 3(4x + 5)"), ["M2_S3", "M19"]
    )
    assert trace.misconceptions_used == ("M2_S3", "M19")
    # 2x = 12x + 5 -> -10x = 5, then the bad solve: x = -10 + 5
    assert trace.answer == -5


# sha256 over every tree and every rewrite of the golden corpus below,
# recorded before the rewrite helpers were shared between rule bodies
_GOLDEN_REWRITES_SHA256 = "d3599d503f3b1536f3c7366f13b8579e7a6ae5601c69e7c046c95a637ddd6f82"


def _golden_rewrite_lines():
    import json

    from malgebra.misconceptions import try_apply
    from malgebra.solution_space import enumerate_tree, to_json_dict

    sampler = Corpus(seed=77)
    every = [m.id for m in CATALOG]
    for t in ORDERED_TYPES:
        for i in range(6):
            eq = sampler.sample(t, f"golden:{t.name}:{i}")
            tree = enumerate_tree(eq, every, 2)
            yield json.dumps(to_json_dict(tree), sort_keys=True)
            for nid, node in enumerate(tree.nodes):
                if not isinstance(node.label, ProblemType):
                    continue
                for m in CATALOG:
                    try:
                        res = try_apply(m, node)
                    except Exception as exc:
                        res = f"raise {type(exc).__name__}: {exc}"
                    else:
                        if res is not None:
                            res = (repr(res.equation), str(res.label))
                    yield f"{nid} {m.id} {res}"


def test_rewrites_match_golden_digest():
    """Every rewrite on every state of a seeded corpus, including states that
    only arise after another misconception, is pinned byte for byte."""
    import hashlib

    digest = hashlib.sha256()
    for line in _golden_rewrite_lines():
        digest.update(line.encode())
        digest.update(b"\n")
    assert digest.hexdigest() == _GOLDEN_REWRITES_SHA256
