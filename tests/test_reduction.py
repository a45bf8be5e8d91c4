from __future__ import annotations

import random
from fractions import Fraction

import pytest

from malgebra.cli import main
from malgebra.datasets import InstanceSampler
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
    parse_equation,
)
from malgebra.errors import EngineError, RuleNotApplicableError, ZeroCoefficientError
from malgebra.misconceptions import CATALOG, reduce_with_misconceptions
from malgebra.reduction import rebuild, reduce, reduce_step, signed_sum, solve_terminal, t1_parts
from malgebra.solution_space import enumerate_tree
from malgebra.taxonomy import (
    CAtom,
    GroupAtom,
    ORDERED_TYPES,
    OpaqueAtom,
    ProblemType,
    ProdAtom,
    SOLVED,
    XAtom,
    classify,
    view_atoms,
)

from test_fuzz import _mutate, _seeds

T = ProblemType


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


def test_solve_terminal():
    assert solve_terminal(parse_equation("3x = 12")) == 4
    assert solve_terminal(parse_equation("-10x = 15")) == Fraction(-3, 2)
    with pytest.raises(ZeroCoefficientError):
        solve_terminal(parse_equation("0x = 5"))
    with pytest.raises(RuleNotApplicableError):
        solve_terminal(parse_equation("2x = 3 + 4"))


# (canonical XTerm = Const, a parenthesized or negated spelling of it)
_T1_PAIRS = [("4x = 12", "(4x) = 12"), ("4x = 12", "4x = (12)"), ("4x = 12", "-(-4x) = 12"),
             ("-x = 0", "-(x) = 0"), ("1/2x = -3", "((1/2x)) = -(3)")]


@pytest.mark.parametrize("canonical, variant", _T1_PAIRS)
def test_t1_parts_direct_read_matches_the_view(capsys, canonical, variant):
    eq, var = parse_equation(canonical), parse_equation(variant)
    assert classify(eq) is classify(var) is T.T1
    # the canonical form takes the direct read, the variant the view sums
    assert isinstance(eq.lhs, XTerm) and isinstance(eq.rhs, Const)
    assert not (isinstance(var.lhs, XTerm) and isinstance(var.rhs, Const))
    view = signed_sum(view_atoms(eq.lhs), XAtom)[0], signed_sum(view_atoms(eq.rhs), CAtom)[0]
    assert t1_parts(eq) == view == t1_parts(var)
    for argv in (["solve"], ["malsolve", "--misconceptions", "M19"]):
        printed = []
        for text in (canonical, variant):
            assert main([argv[0], text, *argv[1:]]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1], argv


def test_t1_built_from_ints_solves_exactly():
    # 7/3 and 3/7 have no float that compares equal to them
    eq = Equation(XTerm(3), Const(7))
    assert reduce(eq).answer == solve_terminal(eq) == closed_form_solution(eq) == Fraction(7, 3)
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
            assert trace.reduction_count <= 5
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


def _exact_sums(eq: Equation) -> None:
    """Every sign the view gives, group contents included, is 1 or -1; every
    atom value and both signed sums of each side are Fractions, never an int
    or a float."""
    for side in (eq.lhs, eq.rhs):
        atoms = view_atoms(side)
        for kind in (XAtom, CAtom):
            assert type(signed_sum(atoms, kind)[0]) is Fraction, eq
        while atoms:
            s, a = atoms.pop()
            assert type(s) is int and s in (1, -1), eq
            if isinstance(a, GroupAtom):
                atoms.extend(a.inner)
                values = [a.multiplier]
            elif isinstance(a, ProdAtom):
                values = list(a.factors)
            elif isinstance(a, OpaqueAtom):
                values = []
            else:
                values = [a.coef if isinstance(a, XAtom) else a.value]
            assert all(type(v) is Fraction for v in values), eq


def test_view_signs_are_unit_and_sums_exact():
    # signed_sum adds or subtracts each term by its sign instead of
    # multiplying by it, which holds only while every view sign is 1 or -1
    roots = [InstanceSampler(seed, -bound, bound).sample(t, "sums")
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
    golden = InstanceSampler(seed=77)
    for t in ORDERED_TYPES:
        for i in range(6):
            tree = enumerate_tree(golden.sample(t, f"golden:{t.name}:{i}"), CATALOG, 2)
            roots += [node.equation for node in tree.nodes]
    for eq in roots:
        _exact_sums(eq)
