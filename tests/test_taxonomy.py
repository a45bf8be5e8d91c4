from __future__ import annotations

import itertools

import pytest

from malgebra.equations import Mul, Paren, closed_form_solution, parse_equation, render
from malgebra.errors import UnclassifiableFormError
from malgebra.datasets import type_graph
from malgebra.reduction import apply_step
from malgebra.taxonomy import (
    CORRECT_EDGES,
    ORDERED_TYPES,
    ProblemType,
    _match_patterns,
    _signature,
    classify,
    correct_successors,
    reachable,
    split_terms,
    surface_atoms,
)

T = ProblemType

CANONICAL = {
    T.T1: "3x = 12",
    T.T2: "5x = 3 + 4",
    T.T3: "5x = 3 * 4",
    T.T4: "4x + 2x = 18",
    T.T5: "4x + 5 = 9",
    T.T6: "3 + 4x = 7",
    T.T7: "2x = 12x + 15",
    T.T8: "2x = 3(4 * 5)",
    T.T9: "2x = 3(4x + 5)",
    T.T10: "5x = 3 + 4 * 2",
    T.T11: "3 + 4x + 2x = 7",
    T.T12: "2x = 3 + 4(5x + 6)",
    T.T14: "4x + 5 = 2x + 7",
    T.T15: "4x + 2x = 3 + 5",
    T.T16: "2x = 4x + 3 + 5",
}


@pytest.mark.parametrize("t", ORDERED_TYPES, ids=lambda t: t.name)
def test_canonical_instances_classify(t):
    assert classify(parse_equation(CANONICAL[t])) is t


def test_there_are_fifteen_types_and_no_t13():
    assert len(ORDERED_TYPES) == 15
    assert not hasattr(ProblemType, "T13")


def test_subtraction_variants_classify_like_their_pattern():
    assert classify(parse_equation("5x = 3 - 4")) is T.T2
    assert classify(parse_equation("2x = 3(4x - 5)")) is T.T9
    assert classify(parse_equation("2x = 3 - 4(5x - 6)")) is T.T12
    assert classify(parse_equation("4x - 5 = 2x - 7")) is T.T14


def test_zero_slot_fallbacks():
    # forms only rewrites produce: nearest pattern with zero slots
    assert classify(parse_equation("2x = 17x")) is T.T7
    assert classify(parse_equation("0x = 5")) is T.T1
    assert classify(parse_equation("2x = 0")) is T.T1
    # flat constant chains fold into the two-constant shape
    assert classify(parse_equation("5x = 3 + 4 + 2")) is T.T2
    assert classify(parse_equation("2x = 4x + 3 + 5 + 6")) is T.T16
    # spliced bare parens
    assert classify(parse_equation("2x = 3 + (4x + 5)")) is T.T16
    assert classify(parse_equation("2x = 3 + (4 * 5)")) is T.T10
    assert classify(parse_equation("5x = 3 + 4 + (2)")) is T.T2
    # constant multiple of a one-term paren folds
    assert classify(parse_equation("2x = 3(9x)")) is T.T7
    assert classify(parse_equation("2x = 3(9)")) is T.T3
    # x-first reordering rescues transposed chains
    assert classify(parse_equation("2x = 3 + 20x + 6")) is T.T16
    assert classify(parse_equation("2x = 3 + 44x")) is T.T7


def test_unclassifiable_forms():
    with pytest.raises(UnclassifiableFormError):
        classify(parse_equation("7 = 12"))
    with pytest.raises(UnclassifiableFormError):
        classify(parse_equation("2x + 3x = 4x + 5"))


def test_mutual_exclusivity_on_sampled_instances(sampler):
    for t in ORDERED_TYPES:
        for i in range(50):
            eq = sampler.sample(t, f"excl:{t.name}:{i}")
            assert classify(eq) is t


def test_correct_successors_table():
    assert correct_successors(T.T9) == [(T.T7, "distribute")]
    assert correct_successors(T.T1) == []
    assert correct_successors(T.T14) == [(T.T7, "move-const"), (T.T5, "move-x")]
    assert correct_successors(T.T15) == [(T.T4, "fold-sum"), (T.T2, "combine-x")]
    assert correct_successors(T.T16) == [(T.T7, "fold-sum"), (T.T2, "move-x")]


def test_graph_is_acyclic_topological_order():
    order: list[ProblemType] = []
    remaining = set(ORDERED_TYPES)
    edges = {(src, dst) for src, _, dst in CORRECT_EDGES}
    while remaining:
        sinks = [
            t for t in remaining
            if all(dst not in remaining for src, dst in edges if src is t)
        ]
        assert sinks, "cycle detected in correct edges"
        for s in sinks:
            remaining.discard(s)
            order.append(s)
    assert set(order) == set(ORDERED_TYPES)


def test_all_paths_converge_to_t1():
    for t in ORDERED_TYPES:
        assert ProblemType.T1 in reachable(t)


def test_no_correct_edge_leaves_t1():
    assert all(src is not ProblemType.T1 for src, _, _ in CORRECT_EDGES)


def _variant_side(rng, side) -> str:
    """``side`` as text of equal value: terms wrapped in ``(…)``, ``-(-(…))``
    or ``1(…)``, a group's inside varied alike, terms sometimes reordered and
    the whole side sometimes parenthesized."""
    terms = []
    for sign, node in split_terms(side):
        if isinstance(node, Mul) and isinstance(node.right, Paren):
            text = f"{render(node.left)}({_variant_side(rng, node.right.inner)})"
        else:
            text = render(node)
        terms.append((sign, rng.choice(["{}", "{}", "({})", "-(-({}))", "1({})"]).format(text)))
    if rng.random() < 0.3:
        rng.shuffle(terms)
    (s0, t0), rest = terms[0], terms[1:]
    text = (t0 if s0 > 0 else f"-({t0})") + "".join(f" {'+-'[s < 0]} {t}" for s, t in rest)
    return f"({text})" if rng.random() < 0.2 else text


def test_every_correct_edge_preserves_the_solution(sampler, rng):
    # A correct step's type is its edge's target and is never classified
    # again, so every edge out of a drawn instance, or out of a parsed variant
    # of it, must land on an equation the classifier types as that target.
    fallback_only = 0
    for src, rule_id, _ in CORRECT_EDGES:
        for i in range(100):
            eq = sampler.sample(src, f"edge:{src.name}:{rule_id}:{i}")
            assert classify(eq) is src
            before = closed_form_solution(eq)
            variants = [parse_equation(f"{_variant_side(rng, eq.lhs)} = "
                                       f"{_variant_side(rng, eq.rhs)}") for _ in range(2)]
            for form in (eq, *variants):
                assert closed_form_solution(form) == before
                try:
                    t = classify(form)
                except UnclassifiableFormError:
                    continue
                surface = map(_signature, (surface_atoms(form.lhs), surface_atoms(form.rhs)))
                fallback_only += _match_patterns(*surface) is None
                for dst, rule in correct_successors(t):
                    after_eq, after_t = apply_step(form, t, rule)
                    assert closed_form_solution(after_eq) == before
                    assert after_t is dst and classify(after_eq) is dst, (str(form), rule)
    assert fallback_only >= 1000


def test_type_graph_records():
    records = type_graph()["edges"]
    correct = [r for r in records if r["kind"] == "correct"]
    mal = [r for r in records if r["kind"] == "misconception"]
    assert len(correct) == len(CORRECT_EDGES)
    # 15 rows of 4 solve-step rules + the type-specific entries
    assert {"source": "T9", "target": "T7", "kind": "correct", "id": "distribute"} in correct
    assert any(r["source"] == "T9" and r["id"] == "M8" for r in mal)


def _if_chain_reference(lhs: tuple[str, ...], rhs: tuple[str, ...]) -> ProblemType | None:
    """The shape matcher as an explicit if-chain, kept as the reference for
    the table that ``taxonomy`` reads from the type patterns."""
    n = len(rhs)
    if lhs == ("x",):
        if n >= 1 and all(k == "c" for k in rhs):
            return T.T1 if n == 1 else T.T2
        if rhs == ("p",):
            return T.T3
        if rhs == ("g[p]",):
            return T.T8
        if rhs == ("g[x c]",):
            return T.T9
        if rhs == ("c", "p"):
            return T.T10
        if rhs == ("c", "g[x c]"):
            return T.T12
        if rhs and rhs[0] == "x" and all(k == "c" for k in rhs[1:]):
            if n == 1:
                return T.T7  # zero-constant variant, Ax = Bx
            return T.T7 if n == 2 else T.T16
    if lhs == ("x", "x"):
        if n >= 1 and all(k == "c" for k in rhs):
            return T.T4 if n == 1 else T.T15
    if lhs == ("x", "c"):
        if rhs == ("c",):
            return T.T5
        if rhs == ("x", "c"):
            return T.T14
    if lhs == ("c", "x") and rhs == ("c",):
        return T.T6
    if lhs == ("c", "x", "x") and rhs == ("c",):
        return T.T11
    return None


def test_shape_table_matches_if_chain_reference():
    kinds = ("x", "c", "p", "g[p]", "g[x c]", "g[x]", "?")

    def signatures(max_len: int) -> list[tuple[str, ...]]:
        return [sig for n in range(max_len + 1) for sig in itertools.product(kinds, repeat=n)]

    rhs_all = signatures(4)
    pairs = 0
    for lhs in signatures(3):
        for rhs in rhs_all:
            assert _match_patterns(lhs, rhs) is _if_chain_reference(lhs, rhs), (lhs, rhs)
            pairs += 1
    assert pairs == 400 * 2801
