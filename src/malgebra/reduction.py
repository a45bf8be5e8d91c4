"""Correct single-step reduction down to T1 plus the terminal solve step.

Each rule performs exactly one algebraic operation and strictly shrinks the
AST, so every correct trace reaches T1 within five rewrites and ends with the
divide-through solve step ``x = B/A``.  Every body is solution-preserving
and serves as the oracle side of the engine.  The site readers (``at_first``,
``at_group``, ``at_product_group``) serve misconceptions too: a malrule at a
correct rule's site is another edit handed to that site's reader.  The step
loop itself is ``misconceptions.walk``, run with an empty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, Any, Callable, Literal, Sequence

from .equations import Equation
from .errors import RuleNotApplicableError, ZeroCoefficientError
from .taxonomy import (
    CAtom,
    CORRECT_EDGES,
    GroupAtom,
    ProblemType,
    ProdAtom,
    Side,
    Sides,
    SignedAtom,
    XAtom,
    _joined,
    classify,
    sides_of,
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
        return fired(self.steps)

    def equation_lines(self) -> list[str]:
        return [s.line for s in self.steps]


def fired(states: Sequence[Node]) -> tuple[str, ...]:
    """The misconceptions whose edges produced ``states``, in order."""
    return tuple(s.via.rule_id for s in states if s.via and s.via.kind == "misconception")


# ---------------------------------------------------------------------------
# Site helpers and the sides after a step
# ---------------------------------------------------------------------------


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


def xc(atoms: Sequence[SignedAtom]) -> tuple[Fraction, Fraction] | None:
    """Additive (x-coefficient, constant) of a two-term x/constant chain in
    either order: a whole side, or a ``(Bx +/- C)`` interior."""
    if len(atoms) != 2 or {type(a) for _, a in atoms} != {XAtom, CAtom}:
        return None
    return signed_sum(atoms, XAtom)[0], signed_sum(atoms, CAtom)[0]


def at_group(rhs: Sequence[SignedAtom], edit: Callable[..., Any]) -> Emitted | None:
    """The T9/T12 site: ``at_first``'s first group, where its interior is
    ``Bx +/- C``; ``edit(s, g, x, c)`` also gets the interior's ``xc``."""

    def site(s: int, g: GroupAtom) -> list[SignedAtom] | None:
        parts = xc(g.inner)
        return None if parts is None else edit(s, g, *parts)

    return at_first(rhs, GroupAtom, site)


def at_product_group(rhs: Sequence[SignedAtom], edit: Callable[..., Any]) -> Emitted | None:
    """The T8 site: ``at_first``'s first group, where its interior is one product
    ``(B*C)``; ``edit(s, g, factors)`` gets them, the interior's sign in the first."""

    def site(s: int, g: GroupAtom) -> list[SignedAtom] | None:
        if len(g.inner) != 1 or not isinstance(g.inner[0][1], ProdAtom):
            return None
        s1, p = g.inner[0]
        return edit(s, g, (s1 * p.factors[0], *p.factors[1:]))

    return at_first(rhs, GroupAtom, site)


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


# what a step emits: the atoms of each side it rewrites, None for a side it keeps
Emitted = tuple[list[SignedAtom] | None, list[SignedAtom] | None]


def after(sides: Sides, new: Emitted) -> Sides:
    """``sides`` after a step that emitted ``new``."""
    lhs, rhs = new
    return (sides[0] if lhs is None else Side(_joined(lhs)),
            sides[1] if rhs is None else Side(_joined(rhs)))


# ---------------------------------------------------------------------------
# Rule bodies: each is one algebraic operation, generic over source shape,
# and maps an instance's views to what it emits, or None where it has no site
# ---------------------------------------------------------------------------


def _fold_sum(lhs: list[SignedAtom], rhs: list[SignedAtom]) -> Emitted | None:
    """Combine all top-level constant terms of the RHS into one."""
    total, count, rest = signed_sum(rhs, CAtom)
    return None if count < 2 else (None, _plus_const(rest, total))


def _fold_product(lhs: list[SignedAtom], rhs: list[SignedAtom]) -> Emitted | None:
    """Fold the RHS's constant product (T3 and T10 hold one) into a constant."""
    return at_first(rhs, ProdAtom, lambda s, p: [(s, CAtom(prod(p.factors)))])


def _fold_inner_product(lhs: list[SignedAtom], rhs: list[SignedAtom]) -> Emitted | None:
    """T8: fold the product inside the parentheses, keeping the multiplier."""
    return at_product_group(rhs, lambda s, g, f: [(s, ProdAtom((g.multiplier, prod(f))))])


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

    def spread(s: int, g: GroupAtom, x: Fraction, c: Fraction) -> list[SignedAtom]:
        m = g.multiplier if s > 0 else -g.multiplier
        return [(1, XAtom(m * x)), (1, CAtom(m * c))]

    return at_group(rhs, spread)


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
    sides = sides_of(eq)
    if classify(sides) is not t:
        raise RuleNotApplicableError(f"{eq} does not classify as {t}")
    (lhs, rhs), target = apply_step(sides, t, rule_id)
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
