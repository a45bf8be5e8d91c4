"""Correct single-step reduction down to T1 plus the terminal solve step.

Each rule performs exactly one algebraic operation and strictly shrinks the
AST, so every correct trace reaches T1 within five rewrites and ends with the
divide-through solve step ``x = B/A``.  Misconception handling lives
elsewhere; everything here is solution-preserving and serves as the oracle
side of the engine.  The step loop itself is ``misconceptions.walk``, run
with an empty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, Any, Callable, Literal, Sequence

from .equations import Add, Const, Equation, Expr, Mul, Neg, Paren, Sub, XTerm, render
from .errors import RuleNotApplicableError, ZeroCoefficientError
from .taxonomy import (
    CAtom,
    CORRECT_EDGES,
    GroupAtom,
    OpaqueAtom,
    ProblemType,
    ProdAtom,
    SignedAtom,
    XAtom,
    classify,
    group_view,
    view_atoms,
)

if TYPE_CHECKING:
    from .misconceptions import Node


@dataclass(frozen=True)
class EdgeRef:
    """How a trace state was produced: a correct rule, a misconception, or
    the terminal solve."""

    kind: Literal["correct", "misconception", "solve"]
    rule_id: str


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[Node, ...]  # each has .line, .label and .via (None first)
    answer: Fraction | None
    dead_end: str | None = None

    @property
    def misconceptions_used(self) -> tuple[str, ...]:
        return tuple(
            s.via.rule_id for s in self.steps if s.via and s.via.kind == "misconception"
        )

    def equation_lines(self) -> list[str]:
        return [s.line for s in self.steps]


# ---------------------------------------------------------------------------
# One side's atoms as an expression, as a view and as text; site helpers
# ---------------------------------------------------------------------------


def _joined(atoms: Sequence[SignedAtom]) -> list[SignedAtom]:
    """Each term of the chain ``atoms`` as (the sign it joins by, the atom it
    prints): the one place that folds signs.  A later x or constant term joins
    by the sign of its signed value and holds its size (never ``a + -b``), the
    first holds its signed value; a later product or group keeps its sign and
    lead factor (``1 - -3 * 4``); a leading minus folds into a group's or a
    two-factor product's lead factor.  Any other term passes as it is, the
    same tuple."""
    out: list[SignedAtom] = []
    for i, term in enumerate(atoms):
        s, a = term
        k = type(a)
        if k is XAtom or k is CAtom:
            v = a.coef if k is XAtom else a.value
            if i and v.numerator < 0:  # an int compare: much faster than a Fraction's
                out.append((-s, k(-v)))
            elif not i and s < 0:
                out.append((1, k(-v)))
            else:
                out.append(term if s > 0 or v else (1, a))  # minus zero joins by plus
        elif i or s > 0 or k is OpaqueAtom or k is ProdAtom and len(a.factors) > 2:
            out.append(term)
        elif k is ProdAtom:
            out.append((1, ProdAtom((-a.factors[0], *a.factors[1:]))))
        else:
            out.append((1, GroupAtom(-a.multiplier, a.inner)))
    return out


def rebuild(atoms: Sequence[SignedAtom]) -> Expr:
    """The left-associated +/- chain of ``_joined(atoms)``, a minus it leaves
    on the first term as a ``Neg``; every Expr chain the engine builds comes
    from here."""
    if not atoms:
        raise ValueError("empty chain")
    out: Expr | None = None
    for s, a in _joined(atoms):
        k = type(a)
        if k is XAtom or k is CAtom:
            node: Expr = XTerm(a.coef) if k is XAtom else Const(a.value)
        elif k is ProdAtom:
            node = Const(a.factors[0])
            for f in a.factors[1:]:
                node = Mul(node, Const(f))
        elif k is GroupAtom:
            node = Mul(Const(a.multiplier), Paren(rebuild(a.inner)))
        else:
            node = a.node
        if out is not None:
            out = Add(out, node) if s > 0 else Sub(out, node)
        else:
            out = node if s > 0 else Neg(node)
    return out


def rebuilt_view(terms: Sequence[SignedAtom]) -> list[SignedAtom]:
    """``view_atoms(rebuild(atoms))``, read off ``terms = _joined(atoms)``."""
    out: list[SignedAtom] = []
    for term in terms:
        s, a = term
        if type(a) is OpaqueAtom:
            out += [(s * s1, b) for s1, b in view_atoms(a.node)]
        else:
            out.append((s, group_view(a.multiplier, rebuilt_view(_joined(a.inner))))
                       if type(a) is GroupAtom else term)
    return out


def rebuilt_text(terms: Sequence[SignedAtom]) -> str:
    """``render(rebuild(atoms))``, printed from ``terms = _joined(atoms)``."""
    out = []
    for i, (s, a) in enumerate(terms):
        if i:
            out.append(" + " if s > 0 else " - ")
        elif s < 0:
            out.append("-")  # the Neg rebuild puts round the first term
        k = type(a)
        if k is XAtom:
            c = str(a.coef)
            out.append("x" if c == "1" else "-x" if c == "-1" else c + "x")
        elif k is CAtom:
            out.append(str(a.value))
        elif k is ProdAtom:
            out.append(" * ".join(map(str, a.factors)))
        elif k is GroupAtom:
            out.append(f"{a.multiplier}({rebuilt_text(_joined(a.inner))})")
        else:
            out.append(render(a.node))
    return "".join(out)


def at_first(
    rhs: Sequence[SignedAtom], kind: type, edit: Callable[[int, Any], list[SignedAtom] | None]
) -> Emitted | None:
    """The step that puts ``edit(sign, atom)`` for the first ``kind`` atom of
    the right side; None where there is no such atom or ``edit`` gives None."""
    for i, (s, a) in enumerate(rhs):
        if isinstance(a, kind):
            new = edit(s, a)
            return None if new is None else (None, [*rhs[:i], *new, *rhs[i + 1 :]])
    return None


_ZERO = Fraction(0)


def signed_sum(
    atoms: Sequence[SignedAtom], kind: type[XAtom | CAtom]
) -> tuple[Fraction, int, list[SignedAtom]]:
    """(total, count, rest): the signed total of the ``kind`` atoms (x
    coefficients or constants), how many there are, and the other atoms.
    The total is a ``Fraction`` even where the atoms hold ints."""
    total, count, rest = _ZERO, 0, []
    for s, a in atoms:
        if isinstance(a, kind):
            v = a.coef if kind is XAtom else a.value
            if count:
                total = total + v if s > 0 else total - v  # every view sign is 1 or -1
            else:
                total = v if s > 0 else -v
            count += 1
        else:
            rest.append((s, a))
    return (total if type(total) is Fraction else Fraction(total)), count, rest


def _plus_const(rest: list[SignedAtom], total: Fraction) -> list[SignedAtom]:
    """``rest`` then the constant ``total``, dropped where zero beside others."""
    return rest if rest and total == 0 else rest + [(1, CAtom(total))]


class Side:
    """One side of a walk state, from which ``view`` (the normalized atoms
    every rule reads), ``text`` (as printed) and ``expr`` are each made at
    most once.  A side a step built holds the atoms it emitted, joins them
    once (``terms``) and reads all three off them; a drawn root's side holds
    its atoms and its text; a parsed side holds its expression.  A step
    shares each side it leaves alone."""

    __slots__ = ("atoms", "terms", "_view", "_text", "_expr")

    def __init__(self, atoms: list[SignedAtom] | None, text: str | None = None,
                 expr: Expr | None = None) -> None:
        self.atoms, self._text, self._expr, self._view = atoms, text, expr, None
        self.terms = None if atoms is None else _joined(atoms)

    @property
    def view(self) -> list[SignedAtom]:
        if self._view is None:
            self._view = view_atoms(self._expr) if self.atoms is None else rebuilt_view(self.terms)
        return self._view

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = render(self._expr) if self.atoms is None else rebuilt_text(self.terms)
        return self._text

    @property
    def expr(self) -> Expr:
        if self._expr is None:
            self._expr = rebuild(self.atoms)
        return self._expr


Sides = tuple[Side, Side]
# what a step emits: the atoms of each side it rewrites, None for a side it keeps
Emitted = tuple[list[SignedAtom] | None, list[SignedAtom] | None]


def sides_of(eq: Equation) -> Sides:
    return Side(None, expr=eq.lhs), Side(None, expr=eq.rhs)


def after(sides: Sides, new: Emitted) -> Sides:
    """``sides`` after a step that emitted ``new``."""
    lhs, rhs = new
    return sides[0] if lhs is None else Side(lhs), sides[1] if rhs is None else Side(rhs)


# ---------------------------------------------------------------------------
# Rule bodies: each is one algebraic operation, generic over source shape,
# and maps an instance's views to what it emits, or None where it has no site
# ---------------------------------------------------------------------------


def _fold_sum(lhs: list[SignedAtom], rhs: list[SignedAtom]) -> Emitted | None:
    """Combine all top-level constant terms of the RHS into one."""
    total, count, rest = signed_sum(rhs, CAtom)
    return None if count < 2 else (None, _plus_const(rest, total))


def _fold_product(lhs: list[SignedAtom], rhs: list[SignedAtom]) -> Emitted | None:
    """Fold each explicit constant product on the RHS into a constant."""
    if not any(isinstance(a, ProdAtom) for _, a in rhs):
        return None
    return None, [(s, CAtom(prod(a.factors)) if isinstance(a, ProdAtom) else a) for s, a in rhs]


def _fold_inner_product(lhs: list[SignedAtom], rhs: list[SignedAtom]) -> Emitted | None:
    """T8: fold the product inside the parentheses, keeping the multiplier."""

    def fold(s: int, g: GroupAtom) -> list[SignedAtom] | None:
        if len(g.inner) != 1 or not isinstance(g.inner[0][1], ProdAtom):
            return None
        s1, inner = g.inner[0]
        return [(s, ProdAtom((g.multiplier, s1 * prod(inner.factors))))]

    return at_first(rhs, GroupAtom, fold)


def _combine_x(lhs: list[SignedAtom], rhs: list[SignedAtom]) -> Emitted | None:
    """Combine all x-terms on the LHS into a single term."""
    total, count, rest = signed_sum(lhs, XAtom)
    return None if count < 2 else (rest + [(1, XAtom(total))], None)


def _move_const(lhs: list[SignedAtom], rhs: list[SignedAtom]) -> Emitted | None:
    """Transpose the LHS constant terms onto the RHS constant, folding."""
    moved, count, keep = signed_sum(lhs, CAtom)
    if not count:
        return None
    const, _, rhs_rest = signed_sum(rhs, CAtom)
    return keep, _plus_const(rhs_rest, const - moved)


def _move_x(lhs: list[SignedAtom], rhs: list[SignedAtom]) -> Emitted | None:
    """Transpose the RHS x-terms onto the LHS coefficient, folding."""
    moved, count, keep = signed_sum(rhs, XAtom)
    if not count:
        return None
    coef, _, lhs_rest = signed_sum(lhs, XAtom)
    return [(1, XAtom(coef - moved))] + lhs_rest, keep or [(1, CAtom(_ZERO))]


def _distribute(lhs: list[SignedAtom], rhs: list[SignedAtom]) -> Emitted | None:
    """Multiply the first parenthesized group on the RHS through, in place."""

    def spread(s: int, g: GroupAtom) -> list[SignedAtom] | None:
        m = g.multiplier if s > 0 else -g.multiplier
        out: list[SignedAtom] = []
        for s1, a in g.inner:
            kind = type(a)
            if kind is not XAtom and kind is not CAtom:
                return None
            v = m * (a.coef if kind is XAtom else a.value)
            out.append((1, kind(v if s1 > 0 else -v)))
        return out

    return at_first(rhs, GroupAtom, spread)


_RULE_BODIES: dict[str, Callable[[list[SignedAtom], list[SignedAtom]], Emitted | None]] = {
    "fold-sum": _fold_sum,
    "fold-product": _fold_product,
    "fold-inner-product": _fold_inner_product,
    "combine-x": _combine_x,
    "move-const": _move_const,
    "move-x": _move_x,
    "distribute": _distribute,
}
_TARGETS = {(src, rule_id): dst for src, rule_id, dst in CORRECT_EDGES}


# ---------------------------------------------------------------------------
# Engine operations
# ---------------------------------------------------------------------------


def reduce_step(eq: Equation, t: ProblemType, rule_id: str) -> tuple[Equation, ProblemType]:
    """Apply one named correct edge out of ``t`` to ``eq``, checked to be a ``t``."""
    if classify(eq) is not t:
        raise RuleNotApplicableError(f"{eq} does not classify as {t}")
    (lhs, rhs), target = apply_step(sides_of(eq), t, rule_id)
    return Equation(lhs.expr, rhs.expr), target


def apply_step(sides: Sides, t: ProblemType, rule_id: str) -> tuple[Sides, ProblemType]:
    """``reduce_step`` on the sides of a walk state already typed ``t``: the
    result takes the edge's target as its type, which each body, reading the
    normalized view, reaches from any ``t``."""
    target = _TARGETS.get((t, rule_id))
    if target is None:
        raise RuleNotApplicableError(f"no correct edge '{rule_id}' out of {t}")
    lhs, rhs = sides
    new = _RULE_BODIES[rule_id](lhs.view, rhs.view)
    if new is None:
        raise RuleNotApplicableError(f"{rule_id} has no site on: {lhs.text} = {rhs.text}")
    return after(sides, new), target


def solve_terminal(eq: Equation) -> Fraction:
    """The divide-through step on a T1 instance: x = B/A."""
    if classify(eq) is not ProblemType.T1:
        raise RuleNotApplicableError(f"solve step requires a T1 instance, got: {eq}")
    return solve_t1(sides_of(eq))


def solve_t1(sides: Sides) -> Fraction:
    """x = B/A on the sides of a T1 instance."""
    lhs, rhs = sides
    coef, value = t1_parts(lhs.view, rhs.view)
    if coef == 0:
        raise ZeroCoefficientError(f"zero coefficient on x: {lhs.text} = {rhs.text}")
    return value / coef


def t1_parts(lhs: Sequence[SignedAtom], rhs: Sequence[SignedAtom]) -> tuple[Fraction, Fraction]:
    """(A, B) of a T1 instance Ax = B, as ``signed_sum`` totals its views."""
    return signed_sum(lhs, XAtom)[0], signed_sum(rhs, CAtom)[0]


_X = Side([(1, XAtom(Fraction(1)))])  # ``x``, shared by every solved state


def solved(value: Fraction) -> Sides:
    """The sides of the solved form ``x = value``."""
    return _X, Side([(1, CAtom(value))])


def reduce(eq: Equation) -> ReductionTrace:
    """Follow default correct edges to T1, then solve.

    This is the misconception-aware walk with an empty misconception set.
    The trace records every intermediate equation; the final step is the
    solved form ``x = value``.
    """
    from .misconceptions import reduce_with_misconceptions

    return reduce_with_misconceptions(eq, ())
