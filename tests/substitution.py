"""The substitution oracle: an equation's two sides evaluated at a value of
x, straight from its expression tree.  It lives beside the tests, apart from
the package, so that it stays independent of the engine it checks."""

from __future__ import annotations

from fractions import Fraction

from malgebra.equations import Add, Const, Equation, Expr, Mul, Neg, Paren, Sub, XTerm


def evaluate(e: Expr, x: Fraction) -> Fraction:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, XTerm):
        return e.coef * x
    if isinstance(e, Neg):
        return -evaluate(e.inner, x)
    if isinstance(e, Add):
        return evaluate(e.left, x) + evaluate(e.right, x)
    if isinstance(e, Sub):
        return evaluate(e.left, x) - evaluate(e.right, x)
    if isinstance(e, Mul):
        return evaluate(e.left, x) * evaluate(e.right, x)
    if isinstance(e, Paren):
        return evaluate(e.inner, x)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_sides(eq: Equation, x) -> tuple[Fraction, Fraction]:
    x = Fraction(x)
    return evaluate(eq.lhs, x), evaluate(eq.rhs, x)
