from __future__ import annotations

import collections
import functools
import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from conftest import Corpus

from malgebra.cli import main
from malgebra.datasets import sample_instance
from malgebra.equations import (
    Add,
    Const,
    Equation,
    Expr,
    Mul,
    Neg,
    Paren,
    Sub,
    XTerm,
    closed_form_solution,
    degree,
    parse_equation,
    render,
)
from malgebra.errors import EngineError, RuleNotApplicableError, ZeroCoefficientError
from malgebra.misconceptions import (
    CATALOG,
    CORRECT_OUT,
    RULE_EDGE,
    Node,
    reduce_with_misconceptions,
)
from malgebra.reduction import (
    _RULE_BODIES,
    EdgeRef,
    at_first,
    reduce,
    reduce_step,
    signed_sum,
    t1_parts,
)
from malgebra.solution_space import enumerate_tree
from malgebra.taxonomy import (
    CAtom,
    DEAD_END,
    GroupAtom,
    ORDERED_TYPES,
    OpaqueAtom,
    ProblemType,
    ProdAtom,
    SOLVED,
    Side,
    XAtom,
    _atomize,
    _signature,
    classify,
    group_view,
    rebuild,
    split_terms,
    surface_atoms,
)

from test_fuzz import _mutate, _seeds

T = ProblemType


def view_atoms(e: Expr) -> list:
    """The reference reader of a side's view, read off its expression: bare
    parens spliced, signs pushed inward, constant multiples of single-term
    parens folded, term order preserved.  ``Side.view`` reads the same off
    a side's terms."""
    out: list = []
    for sign, node in split_terms(e):
        out.extend(_view_term(sign, node))
    return out


def _view_term(sign: int, node: Expr) -> list:
    if isinstance(node, Paren):
        return [(sign * s, a) for s, a in view_atoms(node.inner)]
    if isinstance(node, Neg):
        return [(-sign * s, a) for s, a in _view_term(1, node.inner)]
    atom = _atomize(node)
    if isinstance(atom, GroupAtom):
        inner_view: list = []
        for s, a in atom.inner:
            if isinstance(a, OpaqueAtom):
                inner_view.extend(_view_term(s, a.node))
            else:
                inner_view.append((s, a))
        return [(sign, group_view(atom.multiplier, inner_view))]
    return [(sign, atom)]


# Reference bodies of the three correct rules whose sites the misconceptions
# share, each finding its site by hand rather than through a site reader.


def _ref_fold_product(lhs: list, rhs: list):
    if not any(isinstance(a, ProdAtom) for _, a in rhs):
        return None
    return None, [(s, CAtom(prod(a.factors)) if isinstance(a, ProdAtom) else a) for s, a in rhs]


def _ref_fold_inner_product(lhs: list, rhs: list):
    def fold(s, g):
        if len(g.inner) != 1 or not isinstance(g.inner[0][1], ProdAtom):
            return None
        s1, inner = g.inner[0]
        return [(s, ProdAtom((g.multiplier, s1 * prod(inner.factors))))]

    return at_first(rhs, GroupAtom, fold)


def _ref_distribute(lhs: list, rhs: list):
    def spread(s, g):
        m = g.multiplier if s > 0 else -g.multiplier
        out = []
        for s1, a in g.inner:
            kind = type(a)
            if kind is not XAtom and kind is not CAtom:
                return None
            v = m * (a.coef if kind is XAtom else a.value)
            out.append((1, kind(v if s1 > 0 else -v)))
        return out

    return at_first(rhs, GroupAtom, spread)


_REFERENCE_BODIES = {"fold-product": _ref_fold_product,
                     "fold-inner-product": _ref_fold_inner_product,
                     "distribute": _ref_distribute}


def test_reduce_step_distribute():
    eq, t = reduce_step(parse_equation("2x = 3(4x + 5)"), T.T9, "distribute")
    assert str(eq) == "2x = 12x + 15"
    assert t is T.T7


def test_reduce_step_move_x():
    eq, t = reduce_step(parse_equation("2x = 12x + 15"), T.T7, "move-x")
    assert str(eq) == "-10x = 15"
    assert t is T.T1
    assert closed_form_solution(eq) == Fraction(-3, 2)


def test_reduce_step_rejects_t1():
    with pytest.raises(RuleNotApplicableError):
        reduce_step(parse_equation("3x = 12"), T.T1, "move-x")


def test_reduce_step_rejects_wrong_type():
    with pytest.raises(RuleNotApplicableError):
        reduce_step(parse_equation("3x = 12"), T.T9, "distribute")


def test_reduce_step_checks_its_input_type():
    # the move-const body alone turns this T6 instance into a valid "2x = 2";
    # only the input check refuses it as T5
    with pytest.raises(RuleNotApplicableError):
        reduce_step(parse_equation("3 + 2x = 5"), T.T5, "move-const")


def test_solve_edge():
    # the divide-through step x = B/A is T1's one edge out, and no other
    # type's; solving 0x = B raises
    solve = EdgeRef("solve", "solve")
    assert [t for t in ProblemType if solve in CORRECT_OUT[t]] == [T.T1]
    assert CORRECT_OUT[T.T1] == (solve,)
    assert Node(parse_equation("3x = 12")).child(solve).line == "x = 4"
    assert reduce(parse_equation("-10x = 15")).answer == Fraction(-3, 2)
    with pytest.raises(ZeroCoefficientError):
        Node(parse_equation("0x = 5")).child(solve)


# (canonical XTerm = Const, a parenthesized or negated spelling of it)
_T1_PAIRS = [("4x = 12", "(4x) = 12"), ("4x = 12", "4x = (12)"), ("4x = 12", "-(-4x) = 12"),
             ("-x = 0", "-(x) = 0"), ("1/2x = -3", "((1/2x)) = -(3)")]


@pytest.mark.parametrize("canonical, variant", _T1_PAIRS)
def test_t1_parts_direct_read_matches_the_view(capsys, canonical, variant):
    eq, var = parse_equation(canonical), parse_equation(variant)
    assert classify(eq) is classify(var) is T.T1
    # (A, B) read directly off the canonical form's XTerm = Const, and the
    # view sums of both forms, agree
    assert isinstance(eq.lhs, XTerm) and isinstance(eq.rhs, Const)
    assert not (isinstance(var.lhs, XTerm) and isinstance(var.rhs, Const))
    sums = [t1_parts(view_atoms(e.lhs), view_atoms(e.rhs)) for e in (eq, var)]
    assert (eq.lhs.coef, eq.rhs.value) == sums[0] == sums[1]
    for argv in (["solve"], ["malsolve", "--misconceptions", "M19"]):
        printed = []
        for text in (canonical, variant):
            assert main([argv[0], text, *argv[1:]]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1], argv


def test_t1_built_from_ints_solves_exactly():
    # 7/3 and 3/7 have no float that compares equal to them
    eq = Equation(XTerm(3), Const(7))
    assert reduce(eq).answer == closed_form_solution(eq) == Fraction(7, 3)
    assert reduce_with_misconceptions(eq, ["M22_S1"]).answer == Fraction(3, 7)


def test_reduce_trace_t9():
    trace = reduce(parse_equation("2x = 3(4x + 5)"))
    assert [s.label for s in trace.steps] == [T.T9, T.T7, T.T1, SOLVED]
    assert trace.answer == Fraction(-3, 2)
    assert trace.equation_lines() == [
        "2x = 3(4x + 5)",
        "2x = 12x + 15",
        "-10x = 15",
        "x = -3/2",
    ]


def test_reduce_base_case():
    trace = reduce(parse_equation("3x = 12"))
    assert [s.label for s in trace.steps] == [T.T1, SOLVED]
    assert trace.answer == 4


def test_reduce_t4():
    trace = reduce(parse_equation("4x + 2x = 18"))
    assert [s.label for s in trace.steps] == [T.T4, T.T1, SOLVED]
    assert trace.answer == 3


def test_reduce_matches_oracle_everywhere(sampler):
    for t in ORDERED_TYPES:
        for i in range(100):
            eq = sampler.sample(t, f"oracle:{t.name}:{i}")
            assert reduce(eq).answer == closed_form_solution(eq)


def _node_count(e: Expr) -> int:
    if isinstance(e, (Const, XTerm)):
        return 1
    if isinstance(e, (Neg, Paren)):
        return 1 + _node_count(e.inner)
    if isinstance(e, (Add, Sub, Mul)):
        return 1 + _node_count(e.left) + _node_count(e.right)
    raise TypeError(e)


def _rhs_x_count(e: Expr) -> int:
    if isinstance(e, XTerm):
        return 1
    if isinstance(e, (Neg, Paren)):
        return _rhs_x_count(e.inner)
    if isinstance(e, (Add, Sub, Mul)):
        return _rhs_x_count(e.left) + _rhs_x_count(e.right)
    return 0


def _size(eq: Equation) -> tuple[int, int]:
    # node count, refined by RHS x-terms so zero-slot variants like
    # "Ax = Bx" -> "Cx = 0" still strictly descend
    return _node_count(eq.lhs) + _node_count(eq.rhs), _rhs_x_count(eq.rhs)


def test_each_step_strictly_shrinks_the_ast(sampler):
    for t in ORDERED_TYPES:
        for i in range(25):
            eq = sampler.sample(t, f"mono:{t.name}:{i}")
            trace = reduce(eq)
            rewrites = [s for s in trace.steps if s.label is not SOLVED]
            sizes = [_size(s.equation) for s in rewrites]
            assert all(a > b for a, b in zip(sizes, sizes[1:])), trace.equation_lines()


def test_reduction_depth_bound(sampler):
    for t in ORDERED_TYPES:
        for i in range(50):
            eq = sampler.sample(t, f"depth:{t.name}:{i}")
            trace = reduce(eq)
            assert len(trace.steps) <= 7  # the root, at most five rewrites, the solve
            assert trace.steps[-1].label is SOLVED


def test_rebuild_sign_rules():
    F = Fraction
    # later terms link by + or -, whatever sign the atom value carries
    assert rebuild([(1, CAtom(F(2))), (-1, CAtom(F(-5))), (1, XAtom(F(-4)))]) == Sub(
        Add(Const(F(2)), Const(F(5))), XTerm(F(4))
    )
    # a leading minus folds into an x or constant value, or a constant left factor ...
    assert rebuild([(-1, XAtom(F(3)))]) == XTerm(F(-3))
    assert rebuild([(-1, ProdAtom((F(3), F(4))))]) == Mul(Const(F(-3)), Const(F(4)))
    group = GroupAtom(F(3), ((1, XAtom(F(1))),))
    assert rebuild([(-1, group)]) == Mul(Const(F(-3)), Paren(XTerm(F(1))))
    # ... and otherwise wraps the term in Neg
    three = Mul(Mul(Const(F(3)), Const(F(4))), Const(F(5)))
    assert rebuild([(-1, ProdAtom((F(3), F(4), F(5))))]) == Neg(three)
    assert rebuild([(-1, OpaqueAtom(Paren(XTerm(F(1)))))]) == Neg(Paren(XTerm(F(1))))
    with pytest.raises(ValueError):
        rebuild([])
    # a leading negated group reaches the two-factor fold through a correct step
    trace = reduce(parse_equation("2x = -(3(4 * 5))"))
    assert trace.steps[1].equation.rhs == Mul(Const(F(-3)), Const(F(20)))


def _exact_atoms(atoms: list, where: object) -> None:
    """Every sign in ``atoms``, group contents included, is 1 or -1; every
    atom value and both signed sums are Fractions, never an int or a float."""
    for kind in (XAtom, CAtom):
        assert type(signed_sum(atoms, kind)[0]) is Fraction, where
    atoms = list(atoms)
    while atoms:
        s, a = atoms.pop()
        assert type(s) is int and s in (1, -1), where
        if isinstance(a, GroupAtom):
            atoms.extend(a.inner)
            values = [a.multiplier]
        elif isinstance(a, ProdAtom):
            values = list(a.factors)
        elif isinstance(a, OpaqueAtom):
            values = []
        else:
            values = [a.coef if isinstance(a, XAtom) else a.value]
        assert all(type(v) is Fraction for v in values), where


# parsed roots whose untouched side a step keeps as written
_NON_CANONICAL = ("(2x) = 3 + 4", "-(2x) = 4", "2x = -(3 + 4)", "2x = -(3(4 * 5))")


@functools.lru_cache(maxsize=None)
def _lemma_roots() -> tuple[tuple[Node, ...], tuple[Node, ...]]:
    """The lemma corpora as (drawn, parsed) roots.  Drawn: the golden
    corpus's roots and roots of every type at +-9, [-2, 1] and +-10^19, each
    the walk state ``sample_instance`` builds from its draw.  Parsed: fuzz
    roots that classify, and non-canonical roots."""
    golden = Corpus(seed=77)
    draws = [(golden, t, f"golden:{t.name}:{i}") for t in ORDERED_TYPES for i in range(6)]
    draws += [(Corpus(seed, lo, hi), t, "lemma") for seed in range(20)
              for lo, hi in ((-9, 9), (-2, 1), (-10**19, 10**19)) for t in ORDERED_TYPES]
    drawn = [sample_instance(t, s.rng_for(key), s.coeff_min, s.coeff_max)[0] for s, t, key in draws]
    rng, seeds = random.Random(4), _seeds()
    parsed = [parse_equation(text) for text in _NON_CANONICAL]
    while len(parsed) < 1000 + len(_NON_CANONICAL):
        try:
            eq = parse_equation(_mutate(rng, rng.choice(seeds)))
            classify(eq)
        except EngineError:
            continue
        parsed.append(eq)
    return tuple(drawn), tuple(Node(eq, classify(eq)) for eq in parsed)


@functools.lru_cache(maxsize=None)
def _fired_edges() -> tuple[tuple[Node, str, Node], ...]:
    """(state, rule id, result) for every edge that fires out of every typed
    state that a lemma root reaches with at most one misconception."""
    drawn, parsed = _lemma_roots()
    out = []
    for root in (*drawn, *parsed):
        todo = [(root, 0)]
        while todo:
            node, used = todo.pop()
            if not isinstance(node.label, ProblemType):
                continue
            for edge in (*CORRECT_OUT[node.label], *RULE_EDGE.values()):
                try:
                    kid = node.child(edge)
                except EngineError:
                    continue
                if kid is None:
                    continue
                out.append((node, edge.rule_id, kid))
                if (k := used + (edge.kind == "misconception")) <= 1:
                    todo.append((kid, k))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _emitted_sides() -> tuple[tuple[str, Side], ...]:
    """(where, side) for both sides of each drawn root, and for every side
    that a correct body, the solve edge or a rewrite emits on a fired edge."""
    drawn, _ = _lemma_roots()
    out = [((root.line, "draw"), side) for root in drawn for side in root.sides]
    out += [((node.line, rule_id), new) for node, rule_id, kid in _fired_edges()
            for old, new in zip(node.sides, kid.sides) if new is not old]
    return tuple(out)


def test_emitted_atoms_read_as_their_built_side():
    # the lemma under atom-native walk states: a side a draw or a step makes
    # is read off its atoms exactly as the expression rebuilt from them reads;
    # a drawn side's text is the line the pool tested
    sides = _emitted_sides()
    assert len(sides) > 20_000
    kinds = {type(a) for _, side in sides for _, a in side.terms}
    assert kinds == {XAtom, CAtom, ProdAtom, GroupAtom, OpaqueAtom}
    negated = 0
    for where, side in sides:
        built = rebuild(side.terms)
        assert view_atoms(built) == side.view, where
        assert render(built) == side.text, where
        # classify's exact pass reads a built side's surface off its atoms,
        # except that a minus left on the first term prints as a negation,
        # which the surface reads as one opaque term
        surface = _signature(surface_atoms(built))
        if side.terms[0][0] < 0:
            negated += 1
            assert surface == ("?", *_signature(side.terms)[1:]), where
        else:
            assert surface == _signature(side.terms), where
    assert negated  # M4 on -(3(4 * 5)) leaves -3 * 4 * 3 * 5
    # a parsed root's untouched side prints as written
    for text, want in (("(2x) = 3 + 4", "(2x) = 7"), ("2x = -(3 + 4)", "2x = -7")):
        assert reduce(parse_equation(text)).equation_lines()[:2] == [text, want]


# a group in a group stays raw in the view; a group's interior keeps its signs
_PARSED_FORMS = ("x = 3(4(5x))", "x = -(3(4(5x)))", "2x = -(3(4 * 5))", "x = 3(-(2x) + 1)",
                 "x = -3(4x + -5)", "x = (x)(2)")


def test_a_parsed_side_reads_as_its_expression():
    # a parsed side is its surface atoms: read off them, its view is the
    # reference reader's view of its expression, and its text prints it
    rng, seeds = random.Random(6), _seeds()
    golden = Corpus(seed=77)
    eqs = [parse_equation(text) for text in _PARSED_FORMS]
    eqs += [golden.sample(t, f"golden:{t.name}:{i}") for t in ORDERED_TYPES for i in range(6)]
    while len(eqs) < 2000:
        try:
            eqs.append(parse_equation(_mutate(rng, rng.choice(seeds))))
        except EngineError:
            continue
    for eq in eqs:
        for e in (eq.lhs, eq.rhs):
            side = Side(surface_atoms(e), expr=e)
            assert side.view == view_atoms(e), eq
            assert side.text == render(e), eq
            assert side.expr is e
    # read as written: M6 fires only on a written inner subtraction, and a
    # group directly inside a group types as no pattern
    assert reduce_with_misconceptions(parse_equation("x = -3(4x + -5)"), ["M6"]).misconceptions_used == ()
    assert reduce_with_misconceptions(parse_equation("x = -3(4x - 5)"), ["M6"]).misconceptions_used == ("M6",)
    with pytest.raises(EngineError, match="no problem type matches"):
        classify(parse_equation("x = 3(4(5x))"))


_WRITTEN = (lambda t: f"({t})", lambda t: f"-(-({t}))", lambda t: f"1({t})")


def _walks(eq: Equation, t: ProblemType) -> list:
    """(labels and edges, answer, dead end) of the correct walk from ``eq``
    and of each single rule applicable to ``t``, or the error it raised."""
    out = []
    for ms in ((), *((m,) for m in CATALOG if t in m.applicable_types)):
        try:
            trace = reduce_with_misconceptions(eq, ms)
        except EngineError as exc:
            out.append(type(exc))
            continue
        out.append(([(s.label, s.via) for s in trace.steps], trace.answer, trace.dead_end))
    return out


def test_a_wrapped_term_types_and_walks_as_written_bare():
    # each term of a drawn root written as (t), -(-(t)) or 1(t): the variant
    # types as its root and every walk from it is alike, except 1(t) around a
    # constant, a product or a group, which reads as a product or a nested
    # group (README's grammar section) and types otherwise or not at all
    drawn, _ = _lemma_roots()
    roots = {t: [n for n in drawn if n.label is t][:10] for t in ORDERED_TYPES}
    compared = unclassifiable = mistyped = 0
    for t, nodes in roots.items():
        for node in nodes:
            eq = node.equation
            want = _walks(eq, t)
            sides = [split_terms(eq.lhs), split_terms(eq.rhs)]
            for k, i, (w, write) in itertools.product((0, 1), range(4), enumerate(_WRITTEN)):
                if i >= len(sides[k]):
                    continue
                texts = []
                for side_k, terms in enumerate(sides):
                    texts.append("".join(
                        (" - " if s < 0 else " + ") * bool(j)
                        + (write(render(n)) if (side_k, j) == (k, i) else render(n))
                        for j, (s, n) in enumerate(terms)))
                variant = parse_equation(" = ".join(texts))
                exempt = w == 2 and not isinstance(sides[k][i][1], XTerm)
                try:
                    got = classify(variant)
                except EngineError:
                    assert exempt, variant
                    unclassifiable += 1
                    continue
                if got is not t:
                    assert exempt, (variant, got)
                    mistyped += 1
                    continue
                assert not exempt, variant
                walks = _walks(variant, t)
                assert walks == want, variant
                compared += len(walks)
    assert (compared, unclassifiable, mistyped) == (7960, 210, 30)


def test_a_rewrite_is_typed_from_its_sides_as_its_equation_is():
    # try_apply types a rewrite's result from the sides it built, and a
    # result with no x term on either side is a dead end: the same label the
    # equation rebuilt from those sides gets
    rewrites = dead_ends = 0
    for node, rule_id, kid in _fired_edges():
        if kid.via.kind != "misconception" or kid.label == SOLVED:
            continue
        rewrites += 1
        eq = kid.equation
        if degree(eq.lhs) or degree(eq.rhs):
            assert kid.label is classify(eq), (node.line, rule_id)
        else:
            dead_ends += 1
            assert kid.label == DEAD_END, (node.line, rule_id)
    assert rewrites > 10_000 and dead_ends


# parsed sites whose interiors are signed or wrapped, and the line the
# correct step out of each leaves
_SIGNED_SITES = (("2x = 3((4x) - -5)", T.T9, "2x = 12x + 15"),
                 ("2x = -3(-(4x) + 5)", T.T9, "2x = 12x - 15"),
                 ("x = 2(-(3 * 4))", T.T8, "x = 2 * -12"),
                 ("x = -2(3 * -4)", T.T8, "x = -2 * -12"),
                 ("x = 1 + -2 * 3", T.T10, "x = 1 - 6"),
                 ("2x = 7 - 3(4x - 5)", T.T12, "2x = 7 - 12x + 15"))


def test_correct_bodies_emit_what_their_hand_found_sites_did():
    # distribute, fold-inner-product and fold-product find their sites with
    # the readers their malrules use; on every typed state the lemma walks
    # reach, and on each signed site, a body emits what its reference does
    states = {id(n): n for node, _, kid in _fired_edges() for n in (node, kid)
              if isinstance(n.label, ProblemType)}
    signed = [Node(parse_equation(text)) for text, _, _ in _SIGNED_SITES]
    compared = collections.Counter()
    for node in (*states.values(), *signed):
        lhs, rhs = node.sides
        for edge in CORRECT_OUT[node.label]:
            if (ref := _REFERENCE_BODIES.get(edge.rule_id)) is not None:
                want, got = ref(lhs.view, rhs.view), _RULE_BODIES[edge.rule_id](lhs.view, rhs.view)
                assert want is not None and got == want, (node.line, edge.rule_id)
                compared[edge.rule_id] += 1
    assert min(compared.values()) > 100, compared
    for node, (text, t, line) in zip(signed, _SIGNED_SITES):
        assert node.label is t, text
        assert node.child(CORRECT_OUT[t][0]).line == line, text


def test_view_signs_are_unit_and_sums_exact():
    # signed_sum adds or subtracts each term by its sign instead of
    # multiplying by it, which holds only while every view sign is 1 or -1
    roots = [Corpus(seed, -bound, bound).sample(t, "sums")
             for seed in range(20) for bound in (2, 9, 10**19) for t in ORDERED_TYPES]
    rng, seeds = random.Random(4), _seeds()
    parsed = 0
    while parsed < 2000:
        try:
            roots.append(parse_equation(_mutate(rng, rng.choice(seeds))))
        except EngineError:
            continue
        parsed += 1
    # every state the trees reach on the golden rewrite corpus
    golden = Corpus(seed=77)
    for t in ORDERED_TYPES:
        for i in range(6):
            tree = enumerate_tree(golden.sample(t, f"golden:{t.name}:{i}"), CATALOG, 2)
            roots += [node.equation for node in tree.nodes]
    for eq in roots:
        for side in (eq.lhs, eq.rhs):
            _exact_atoms(view_atoms(side), eq)
    # every atom list a step emits, and the view a state holds of it
    for where, side in _emitted_sides():
        _exact_atoms(side.terms, where)
        _exact_atoms(side.view, where)
