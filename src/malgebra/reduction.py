"""Correct single-step reduction down to T1 plus the terminal solve step.

Each rule performs exactly one algebraic operation and strictly shrinks the
AST, so every correct trace reaches T1 within five rewrites and ends with the
divide-through solve step ``x = B/A``.  Misconception handling lives
elsewhere; everything here is solution-preserving and serves as the oracle
side of the engine.  The step loop itself is the one in
``misconceptions.reduce_with_misconceptions``, run with an empty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal

from .equations import (
    Const,
    Equation,
    Expr,
    Mul,
    Paren,
    XTerm,
    chain,
    signed_const,
    signed_x,
)
from .errors import RuleNotApplicableError, ZeroCoefficientError
from .taxonomy import (
    CAtom,
    DEAD_END,
    GroupAtom,
    ProblemType,
    ProdAtom,
    SOLVED,
    SignedAtom,
    XAtom,
    classify,
    correct_successors,
    view_atoms,
)

TraceLabel = ProblemType | Literal["solved", "dead-end"]


@dataclass(frozen=True)
class EdgeRef:
    """How a trace state was produced: a correct rule, a misconception, or
    the terminal solve."""

    kind: Literal["correct", "misconception", "solve"]
    rule_id: str


@dataclass(frozen=True)
class TraceStep:
    equation: Equation
    label: TraceLabel
    via: EdgeRef | None  # None for the initial state


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[TraceStep, ...]
    answer: Fraction | None
    dead_end: str | None = None

    @property
    def misconceptions_used(self) -> tuple[str, ...]:
        return tuple(
            s.via.rule_id for s in self.steps if s.via and s.via.kind == "misconception"
        )

    def equation_lines(self) -> list[str]:
        return [str(s.equation) for s in self.steps]

    @property
    def reduction_count(self) -> int:
        """Number of non-solve rewrites in the trace."""
        return sum(1 for s in self.steps if s.via is not None and s.label not in (SOLVED, DEAD_END))


# ---------------------------------------------------------------------------
# Rule bodies (generic over source shape; each is one algebraic operation)
# ---------------------------------------------------------------------------


def _atoms_to_parts(atoms: list[SignedAtom]) -> list[tuple[int, Expr]]:
    parts: list[tuple[int, Expr]] = []
    for sign, atom in atoms:
        if isinstance(atom, XAtom):
            s, node = signed_x(sign * atom.coef)
            parts.append((s, node))
        elif isinstance(atom, CAtom):
            s, node = signed_const(sign * atom.value)
            parts.append((s, node))
        elif isinstance(atom, ProdAtom):
            node = Const(atom.factors[0])
            for f in atom.factors[1:]:
                node = Mul(node, Const(f))
            parts.append((sign, node))
        elif isinstance(atom, GroupAtom):
            inner = chain(_atoms_to_parts(list(atom.inner)))
            parts.append((sign, Mul(Const(atom.multiplier), Paren(inner))))
        else:
            parts.append((sign, atom.node))
    return parts


def rebuild(atoms: list[SignedAtom]) -> Expr:
    return chain(_atoms_to_parts(atoms))


def _fold_sum(eq: Equation) -> Equation:
    """Combine all top-level constant terms of the RHS into one."""
    atoms = view_atoms(eq.rhs)
    consts = [s * a.value for s, a in atoms if isinstance(a, CAtom)]
    if len(consts) < 2:
        raise RuleNotApplicableError(f"no constant sum to fold on: {eq}")
    rest = [(s, a) for s, a in atoms if not isinstance(a, CAtom)]
    total = sum(consts, Fraction(0))
    if rest and total == 0:
        return Equation(eq.lhs, rebuild(rest))
    return Equation(eq.lhs, rebuild(rest + [(1, CAtom(total))]))


def _fold_product(eq: Equation) -> Equation:
    """Fold each explicit constant product on the RHS into a constant."""
    atoms = view_atoms(eq.rhs)
    if not any(isinstance(a, ProdAtom) for _, a in atoms):
        raise RuleNotApplicableError(f"no constant product to fold on: {eq}")
    folded = [
        (s, CAtom(a.product) if isinstance(a, ProdAtom) else a) for s, a in atoms
    ]
    return Equation(eq.lhs, rebuild(folded))


def _fold_inner_product(eq: Equation) -> Equation:
    """T8: fold the product inside the parentheses, keeping the multiplier."""
    atoms = view_atoms(eq.rhs)
    out: list[SignedAtom] = []
    hit = False
    for s, a in atoms:
        if isinstance(a, GroupAtom) and not hit:
            inner = list(a.inner)
            if len(inner) == 1 and isinstance(inner[0][1], ProdAtom):
                s1, prod = inner[0]
                out.append((s, ProdAtom((a.multiplier, s1 * prod.product))))
                hit = True
                continue
        out.append((s, a))
    if not hit:
        raise RuleNotApplicableError(f"no parenthesized product to fold on: {eq}")
    return Equation(eq.lhs, rebuild(out))


def _combine_x(eq: Equation) -> Equation:
    """Combine all x-terms on the LHS into a single term."""
    atoms = view_atoms(eq.lhs)
    xs = [s * a.coef for s, a in atoms if isinstance(a, XAtom)]
    if len(xs) < 2:
        raise RuleNotApplicableError(f"no like x-terms to combine on: {eq}")
    rest = [(s, a) for s, a in atoms if not isinstance(a, XAtom)]
    total = sum(xs, Fraction(0))
    new_atoms = rest + [(1, XAtom(total))] if rest else [(1, XAtom(total))]
    return Equation(rebuild(new_atoms), eq.rhs)


def _move_const(eq: Equation) -> Equation:
    """Transpose the LHS constant terms onto the RHS constant, folding."""
    lhs_atoms = view_atoms(eq.lhs)
    moved = [s * a.value for s, a in lhs_atoms if isinstance(a, CAtom)]
    if not moved:
        raise RuleNotApplicableError(f"no constant to move on: {eq}")
    keep = [(s, a) for s, a in lhs_atoms if not isinstance(a, CAtom)]
    rhs_atoms = view_atoms(eq.rhs)
    rhs_const = sum((s * a.value for s, a in rhs_atoms if isinstance(a, CAtom)), Fraction(0))
    rhs_rest = [(s, a) for s, a in rhs_atoms if not isinstance(a, CAtom)]
    new_const = rhs_const - sum(moved, Fraction(0))
    new_rhs = rhs_rest + [(1, CAtom(new_const))] if not (rhs_rest and new_const == 0) else rhs_rest
    return Equation(rebuild(keep), rebuild(new_rhs))


def _move_x(eq: Equation) -> Equation:
    """Transpose the RHS x-terms onto the LHS coefficient, folding."""
    rhs_atoms = view_atoms(eq.rhs)
    moved = [s * a.coef for s, a in rhs_atoms if isinstance(a, XAtom)]
    if not moved:
        raise RuleNotApplicableError(f"no x-term to move on: {eq}")
    keep = [(s, a) for s, a in rhs_atoms if not isinstance(a, XAtom)]
    lhs_atoms = view_atoms(eq.lhs)
    lhs_coef = sum((s * a.coef for s, a in lhs_atoms if isinstance(a, XAtom)), Fraction(0))
    lhs_rest = [(s, a) for s, a in lhs_atoms if not isinstance(a, XAtom)]
    new_coef = lhs_coef - sum(moved, Fraction(0))
    new_lhs = [(1, XAtom(new_coef))] + lhs_rest
    if not keep:
        keep = [(1, CAtom(Fraction(0)))]
    return Equation(rebuild(new_lhs), rebuild(keep))


def _distribute(eq: Equation) -> Equation:
    """Multiply the first parenthesized group on the RHS through, in place."""
    atoms = view_atoms(eq.rhs)
    out: list[SignedAtom] = []
    hit = False
    for s, a in atoms:
        if isinstance(a, GroupAtom) and not hit:
            m = s * a.multiplier
            for s1, inner in a.inner:
                if isinstance(inner, XAtom):
                    out.append((1, XAtom(m * s1 * inner.coef)))
                elif isinstance(inner, CAtom):
                    v = m * s1 * inner.value
                    out.append((1 if v >= 0 else -1, CAtom(abs(v))))
                else:
                    raise RuleNotApplicableError(f"cannot distribute over: {eq}")
            hit = True
        else:
            out.append((s, a))
    if not hit:
        raise RuleNotApplicableError(f"nothing to distribute on: {eq}")
    return Equation(eq.lhs, rebuild(out))


_RULE_BODIES: dict[str, Callable[[Equation], Equation]] = {
    "fold-sum": _fold_sum,
    "fold-product": _fold_product,
    "fold-inner-product": _fold_inner_product,
    "combine-x": _combine_x,
    "move-const": _move_const,
    "move-x": _move_x,
    "distribute": _distribute,
}


# ---------------------------------------------------------------------------
# Engine operations
# ---------------------------------------------------------------------------


def reduce_step(eq: Equation, t: ProblemType, rule_id: str) -> tuple[Equation, ProblemType]:
    """Apply one named correct edge out of ``t`` and classify the result."""
    if classify(eq) is not t:
        raise RuleNotApplicableError(f"{eq} does not classify as {t}")
    return apply_step(eq, t, rule_id)


def apply_step(eq: Equation, t: ProblemType, rule_id: str) -> tuple[Equation, ProblemType]:
    """``reduce_step`` for a walk that has already classified ``eq`` as ``t``.

    The input is trusted; the result is still classified and checked against
    the edge's target.
    """
    edges = correct_successors(t)
    match = [dst for dst, rid in edges if rid == rule_id]
    if not match:
        raise RuleNotApplicableError(f"no correct edge '{rule_id}' out of {t}")
    new_eq = _RULE_BODIES[rule_id](eq)
    new_t = classify(new_eq)
    if new_t is not match[0]:
        raise RuleNotApplicableError(
            f"edge {t}->{match[0]} produced a {new_t} instance: {new_eq}"
        )
    return new_eq, new_t


def solve_terminal(eq: Equation) -> Fraction:
    """The divide-through step on a T1 instance: x = B/A."""
    if classify(eq) is not ProblemType.T1:
        raise RuleNotApplicableError(f"solve step requires a T1 instance, got: {eq}")
    return solve_t1(eq)


def solve_t1(eq: Equation) -> Fraction:
    """``solve_terminal`` for a walk that has already classified ``eq`` as T1."""
    coef, value = t1_parts(eq)
    if coef == 0:
        raise ZeroCoefficientError(f"zero coefficient on x: {eq}")
    return value / coef


def t1_parts(eq: Equation) -> tuple[Fraction, Fraction]:
    """(A, B) of a T1-shaped equation Ax = B."""
    lhs = view_atoms(eq.lhs)
    rhs = view_atoms(eq.rhs)
    coef = sum((s * a.coef for s, a in lhs if isinstance(a, XAtom)), Fraction(0))
    value = sum((s * a.value for s, a in rhs if isinstance(a, CAtom)), Fraction(0))
    return coef, value


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
