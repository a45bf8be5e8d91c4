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
from typing import TYPE_CHECKING, Any, Callable, Literal, Sequence

from .equations import Add, Const, Equation, Expr, Mul, Neg, Paren, Sub, XTerm
from .errors import RuleNotApplicableError, ZeroCoefficientError
from .taxonomy import (
    CAtom,
    CORRECT_EDGES,
    DEAD_END,
    GroupAtom,
    ProblemType,
    ProdAtom,
    SOLVED,
    SignedAtom,
    XAtom,
    classify,
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
    steps: tuple[Node, ...]  # each has .equation, .label and .via (None first)
    answer: Fraction | None
    dead_end: str | None = None

    @property
    def misconceptions_used(self) -> tuple[str, ...]:
        return tuple(
            s.via.rule_id for s in self.steps if s.via and s.via.kind == "misconception"
        )

    def equation_lines(self) -> list[str]:
        return [s.line for s in self.steps]

    @property
    def reduction_count(self) -> int:
        """Number of non-solve rewrites in the trace."""
        return sum(1 for s in self.steps if s.via is not None and s.label not in (SOLVED, DEAD_END))


# ---------------------------------------------------------------------------
# Site helpers shared by the correct rules and the misconception rewrites
# ---------------------------------------------------------------------------


def rebuild(atoms: Sequence[SignedAtom]) -> Expr:
    """The left-associated +/- chain for ``atoms``; every Expr chain the
    engine builds comes from here.

    X and C atoms render from their signed value, so ``(-1, CAtom(v))`` and
    ``(1, CAtom(-v))`` give the same node.  A later x or constant term joins
    by ``+`` or ``-`` with its value's sign folded in, so it never renders as
    ``a + -b``; a later product or group joins by its own sign and keeps its
    lead factor as written (``1 - -3 * 4``).  A leading minus folds into the
    first term: into its value, into a constant left factor, or else into a
    ``Neg`` around it.
    """
    if not atoms:
        raise ValueError("empty chain")
    out: Expr | None = None
    for sign, atom in atoms:
        if isinstance(atom, (XAtom, CAtom)):
            is_x = isinstance(atom, XAtom)
            value = atom.coef if is_x else atom.value
            if sign < 0:
                value = -value
            sign = 1
            if out is not None and value < 0:
                sign, value = -1, -value
            node: Expr = XTerm(value) if is_x else Const(value)
        elif isinstance(atom, ProdAtom):
            node = Const(atom.factors[0])
            for f in atom.factors[1:]:
                node = Mul(node, Const(f))
        elif isinstance(atom, GroupAtom):
            node = Mul(Const(atom.multiplier), Paren(rebuild(atom.inner)))
        else:
            node = atom.node
        if out is not None:
            out = Add(out, node) if sign > 0 else Sub(out, node)
        elif sign > 0:
            out = node
        elif isinstance(node, Mul) and isinstance(node.left, Const):
            out = Mul(Const(-node.left.value), node.right)
        else:
            out = Neg(node)
    return out


def with_side(eq: Equation, side: str, atoms: Sequence[SignedAtom]) -> Equation:
    """``eq`` with its ``side`` ("lhs" or "rhs") rebuilt from ``atoms``."""
    if side == "lhs":
        return Equation(rebuild(atoms), eq.rhs)
    return Equation(eq.lhs, rebuild(atoms))


def first(atoms: Sequence[SignedAtom], kind: type) -> tuple[int, int, Any] | None:
    """(index, sign, atom) of the first atom of ``kind``, or None."""
    for i, (s, a) in enumerate(atoms):
        if isinstance(a, kind):
            return i, s, a
    return None


def at_first(
    eq: Equation, kind: type, edit: Callable[[int, Any], list[SignedAtom] | None]
) -> Equation | None:
    """Replace the first ``kind`` atom on the right side by ``edit(sign, atom)``;
    None when there is no such atom or ``edit`` returns None."""
    atoms = view_atoms(eq.rhs)
    found = first(atoms, kind)
    if found is None:
        return None
    i, s, a = found
    new = edit(s, a)
    return None if new is None else with_side(eq, "rhs", atoms[:i] + new + atoms[i + 1 :])


def signed_sum(
    atoms: Sequence[SignedAtom], kind: type[XAtom | CAtom]
) -> tuple[Fraction, int, list[SignedAtom]]:
    """(total, count, rest): the signed total of the ``kind`` atoms (x
    coefficients or constants), how many there are, and the other atoms."""
    total = Fraction(0)
    count = 0
    rest: list[SignedAtom] = []
    for s, a in atoms:
        if isinstance(a, kind):
            total += s * (a.coef if kind is XAtom else a.value)
            count += 1
        else:
            rest.append((s, a))
    return total, count, rest


def _plus_const(rest: list[SignedAtom], total: Fraction) -> list[SignedAtom]:
    """``rest`` followed by the constant ``total``, which is dropped when it is
    zero and other terms remain."""
    return rest if rest and total == 0 else rest + [(1, CAtom(total))]


# ---------------------------------------------------------------------------
# Rule bodies (generic over source shape; each is one algebraic operation)
# ---------------------------------------------------------------------------


def _fold_sum(eq: Equation) -> Equation:
    """Combine all top-level constant terms of the RHS into one."""
    total, count, rest = signed_sum(view_atoms(eq.rhs), CAtom)
    if count < 2:
        raise RuleNotApplicableError(f"no constant sum to fold on: {eq}")
    return with_side(eq, "rhs", _plus_const(rest, total))


def _fold_product(eq: Equation) -> Equation:
    """Fold each explicit constant product on the RHS into a constant."""
    atoms = view_atoms(eq.rhs)
    if first(atoms, ProdAtom) is None:
        raise RuleNotApplicableError(f"no constant product to fold on: {eq}")
    folded = [(s, CAtom(a.product) if isinstance(a, ProdAtom) else a) for s, a in atoms]
    return with_side(eq, "rhs", folded)


def _fold_inner_product(eq: Equation) -> Equation:
    """T8: fold the product inside the parentheses, keeping the multiplier."""

    def fold(s: int, g: GroupAtom) -> list[SignedAtom] | None:
        if len(g.inner) != 1 or not isinstance(g.inner[0][1], ProdAtom):
            return None
        s1, prod = g.inner[0]
        return [(s, ProdAtom((g.multiplier, s1 * prod.product)))]

    new = at_first(eq, GroupAtom, fold)
    if new is None:
        raise RuleNotApplicableError(f"no parenthesized product to fold on: {eq}")
    return new


def _combine_x(eq: Equation) -> Equation:
    """Combine all x-terms on the LHS into a single term."""
    total, count, rest = signed_sum(view_atoms(eq.lhs), XAtom)
    if count < 2:
        raise RuleNotApplicableError(f"no like x-terms to combine on: {eq}")
    return with_side(eq, "lhs", rest + [(1, XAtom(total))])


def _move_const(eq: Equation) -> Equation:
    """Transpose the LHS constant terms onto the RHS constant, folding."""
    moved, count, keep = signed_sum(view_atoms(eq.lhs), CAtom)
    if not count:
        raise RuleNotApplicableError(f"no constant to move on: {eq}")
    const, _, rhs_rest = signed_sum(view_atoms(eq.rhs), CAtom)
    return Equation(rebuild(keep), rebuild(_plus_const(rhs_rest, const - moved)))


def _move_x(eq: Equation) -> Equation:
    """Transpose the RHS x-terms onto the LHS coefficient, folding."""
    moved, count, keep = signed_sum(view_atoms(eq.rhs), XAtom)
    if not count:
        raise RuleNotApplicableError(f"no x-term to move on: {eq}")
    coef, _, lhs_rest = signed_sum(view_atoms(eq.lhs), XAtom)
    new_lhs = [(1, XAtom(coef - moved))] + lhs_rest
    return Equation(rebuild(new_lhs), rebuild(keep or [(1, CAtom(Fraction(0)))]))


def _distribute(eq: Equation) -> Equation:
    """Multiply the first parenthesized group on the RHS through, in place."""

    def spread(s: int, g: GroupAtom) -> list[SignedAtom]:
        m = s * g.multiplier
        out: list[SignedAtom] = []
        for s1, a in g.inner:
            if isinstance(a, XAtom):
                out.append((1, XAtom(m * s1 * a.coef)))
            elif isinstance(a, CAtom):
                out.append((1, CAtom(m * s1 * a.value)))
            else:
                raise RuleNotApplicableError(f"cannot distribute over: {eq}")
        return out

    new = at_first(eq, GroupAtom, spread)
    if new is None:
        raise RuleNotApplicableError(f"nothing to distribute on: {eq}")
    return new


_RULE_BODIES: dict[str, Callable[[Equation], Equation]] = {
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
    return apply_step(eq, t, rule_id)


def apply_step(eq: Equation, t: ProblemType, rule_id: str) -> tuple[Equation, ProblemType]:
    """``reduce_step`` for a walk that has already classified ``eq`` as ``t``.

    The input is trusted, and the result takes the edge's target as its type:
    each body reads the normalized view, and from any ``t`` lands on that type.
    """
    target = _TARGETS.get((t, rule_id))
    if target is None:
        raise RuleNotApplicableError(f"no correct edge '{rule_id}' out of {t}")
    return _RULE_BODIES[rule_id](eq), target


def solve_terminal(eq: Equation) -> Fraction:
    """The divide-through step on a T1 instance: x = B/A."""
    if classify(eq) is not ProblemType.T1:
        raise RuleNotApplicableError(f"solve step requires a T1 instance, got: {eq}")
    return solve_t1(eq)


def solve_t1(eq: Equation) -> Fraction:
    """x = B/A on the T1 instance ``eq``."""
    coef, value = t1_parts(eq)
    if coef == 0:
        raise ZeroCoefficientError(f"zero coefficient on x: {eq}")
    return value / coef


def t1_parts(eq: Equation) -> tuple[Fraction, Fraction]:
    """(A, B) of a T1-shaped equation Ax = B: read directly off ``XTerm =
    Const``, the form ``rebuild`` gives one-term sides, else summed over the
    view.  Both give Fractions, so an equation built from ints solves exactly."""
    if isinstance(eq.lhs, XTerm) and isinstance(eq.rhs, Const):
        return Fraction(eq.lhs.coef), Fraction(eq.rhs.value)
    return signed_sum(view_atoms(eq.lhs), XAtom)[0], signed_sum(view_atoms(eq.rhs), CAtom)[0]


def solved_equation(value: Fraction) -> Equation:
    return Equation(XTerm(Fraction(1)), Const(value))


def reduce(eq: Equation) -> ReductionTrace:
    """Follow default correct edges to T1, then solve.

    This is the misconception-aware walk with an empty misconception set.
    The trace records every intermediate equation; the final step is the
    solved form ``x = value``.
    """
    from .misconceptions import reduce_with_misconceptions

    return reduce_with_misconceptions(eq, ())
