from __future__ import annotations

from fractions import Fraction

import pytest

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
from malgebra.errors import RuleNotApplicableError, ZeroCoefficientError
from malgebra.reduction import rebuild, reduce, reduce_step, solve_terminal
from malgebra.taxonomy import (
    CAtom,
    GroupAtom,
    ORDERED_TYPES,
    OpaqueAtom,
    ProblemType,
    ProdAtom,
    SOLVED,
    XAtom,
)

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
