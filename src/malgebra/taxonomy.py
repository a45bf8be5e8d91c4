"""Problem-type taxonomy and the correct-reduction graph.

Fifteen concrete equation shapes (T1-T12, T14-T16; there is no T13) form the
nodes of a DAG whose correct edges each perform one algebraic operation and
all converge on the base case T1 (``Ax = B``).

Each type's shape comes from its pattern string alone (``ProblemType.pattern``,
e.g. ``Ax = B(Cx + D)``), parsed once with every coefficient letter standing
as its own whole-number code.  The parse gives the surface atoms that the
generator fills with drawn values, and the per-side signature of term kinds
that the shape table maps to the type.

A walk state's side (``Side``) is its terms: a parsed side's surface atoms,
the atoms a step emitted with their signs folded (``_joined``), or a draw's
filled pattern, folded alike as it is filled (``datasets._fill``), read as an
expression, a view and text by ``rebuild`` and ``rebuilt_*``.

``classify`` reads an equation's sides or the two sides of a walk state in
two passes.  The exact pass looks up the signature of the terms, so a walk
types a rewrite without building an expression.  The fallback pass reads the
normalized views, which splice bare parentheses and fold constant multiples
of a parenthesized monomial, first in written order, then stably reordered
x-first.  A right-side constant chain of any width matches the two-constant
shape, and ``Ax = Bx`` is T7 with a zero constant, so erroneous rewrites land
on the nearest pattern.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .equations import Add, Const, Equation, Expr, Mul, Neg, Paren, Sub, XTerm, parse_equation, render
from .errors import UnclassifiableFormError


class ProblemType(enum.Enum):
    T1 = "Ax = B"
    T2 = "Ax = B + C"
    T3 = "Ax = B * C"
    T4 = "Ax + Bx = C"
    T5 = "Ax + B = C"
    T6 = "A + Bx = C"
    T7 = "Ax = Bx + C"
    T8 = "Ax = B(C*D)"
    T9 = "Ax = B(Cx + D)"
    T10 = "Ax = B + C * D"
    T11 = "A + Bx + Cx = D"
    T12 = "Ax = B + C(Dx + E)"
    T14 = "Ax + B = Cx + D"
    T15 = "Ax + Bx = C + D"
    T16 = "Ax = Bx + C + D"

    @property
    def pattern(self) -> str:
        return self.value

    def __str__(self) -> str:
        return self.name

    # Enum compares members by identity; its own __hash__ runs in Python
    __hash__ = object.__hash__


ORDERED_TYPES: tuple[ProblemType, ...] = tuple(ProblemType)

# Terminal labels used in traces alongside graph nodes.
SOLVED = "solved"
DEAD_END = "dead-end"


# ---------------------------------------------------------------------------
# Term decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XAtom:
    coef: Fraction


@dataclass(frozen=True)
class CAtom:
    value: Fraction


@dataclass(frozen=True)
class ProdAtom:
    """An explicit constant product chain, e.g. ``3 * 4`` or ``3 * 4 * 5``."""

    factors: tuple[Fraction, ...]


@dataclass(frozen=True)
class GroupAtom:
    """A constant multiplier applied to a parenthesized chain, e.g. ``3(4x + 5)``."""

    multiplier: Fraction
    inner: tuple[tuple[int, "Atom"], ...]


@dataclass(frozen=True)
class OpaqueAtom:
    node: Expr


Atom = XAtom | CAtom | ProdAtom | GroupAtom | OpaqueAtom
SignedAtom = tuple[int, Atom]


def split_terms(e: Expr) -> list[tuple[int, Expr]]:
    """Split the left-associated +/- spine into (sign, term-node) pairs."""
    if isinstance(e, Add):
        return split_terms(e.left) + [(1, e.right)]
    if isinstance(e, Sub):
        return split_terms(e.left) + [(-1, e.right)]
    return [(1, e)]


def _flatten_product(e: Expr) -> list[Expr]:
    if isinstance(e, Mul):
        return _flatten_product(e.left) + [e.right]
    return [e]


def _atomize(node: Expr) -> Atom:
    if isinstance(node, Const):
        return CAtom(node.value)
    if isinstance(node, XTerm):
        return XAtom(node.coef)
    if isinstance(node, Mul):
        factors = _flatten_product(node)
        if all(isinstance(f, Const) for f in factors):
            return ProdAtom(tuple(f.value for f in factors))
        if (
            len(factors) == 2
            and isinstance(factors[0], Const)
            and isinstance(factors[1], Paren)
        ):
            inner = surface_atoms(factors[1].inner)
            return GroupAtom(factors[0].value, tuple(inner))
    return OpaqueAtom(node)


def surface_atoms(e: Expr) -> list[SignedAtom]:
    """Atoms exactly as written, one per surface term."""
    return [(sign, _atomize(node)) for sign, node in split_terms(e)]


def group_view(multiplier: Fraction, inner: list[SignedAtom]) -> Atom:
    """The view of the group ``multiplier(...)`` whose interior reads as
    ``inner``: one x or constant term folds into an x-term or a product."""
    if len(inner) == 1:
        s, a = inner[0]
        if isinstance(a, XAtom):
            return XAtom(multiplier * s * a.coef)
        if isinstance(a, CAtom):
            return ProdAtom((multiplier, s * a.value))
    return GroupAtom(multiplier, tuple(inner))


# ---------------------------------------------------------------------------
# One side of a walk state: its terms, read as a view, as text and as a chain
# ---------------------------------------------------------------------------


def _joined(atoms: Sequence[SignedAtom]) -> list[SignedAtom]:
    """Each term of the chain ``atoms`` as (the sign it joins by, the atom it
    prints): the one place that folds the signs of what a step emits.  A
    later x or constant term joins by the sign of its signed value and holds
    its size (never ``a + -b``), the first holds its signed value; a later
    product or group keeps its sign and lead factor (``1 - -3 * 4``); a
    leading minus folds into a group's or a two-factor product's lead factor.
    A group's interior joins as a chain of its own; any other term passes as
    it is, the same tuple."""
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
        elif k is GroupAtom:
            inner = tuple(_joined(a.inner))
            out.append((s, GroupAtom(a.multiplier, inner)) if i or s > 0
                       else (1, GroupAtom(-a.multiplier, inner)))
        elif i or s > 0 or k is OpaqueAtom or len(a.factors) > 2:
            out.append(term)
        else:
            out.append((1, ProdAtom((-a.factors[0], *a.factors[1:]))))
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
    """The normalized view of the side whose terms are ``terms``: an opaque
    ``(...)`` or ``-(...)`` term spliced through the surface atoms of its
    interior, its sign pushed inward; a group read by ``group_view`` once its
    opaque terms are spliced alike, a group directly inside it kept as it is;
    any other term as it is.  Read off ``surface_atoms(e)`` it is how ``e``
    reads, and off ``_joined(atoms)`` how ``rebuild(atoms)`` reads."""
    out: list[SignedAtom] = []
    for term in terms:
        s, a = term
        k = type(a)
        if k is GroupAtom:
            inner: list[SignedAtom] = []
            for t in a.inner:
                inner += rebuilt_view((t,)) if type(t[1]) is OpaqueAtom else (t,)
            out.append((s, group_view(a.multiplier, inner)))
        elif k is OpaqueAtom and type(a.node) in (Paren, Neg):
            s = s if type(a.node) is Paren else -s
            out += [(s * s1, b) for s1, b in rebuilt_view(surface_atoms(a.node.inner))]
        else:
            out.append(term)
    return out


def rebuilt_text(terms: Sequence[SignedAtom]) -> str:
    """The side whose terms are ``terms`` as printed: ``render(e)`` for
    ``surface_atoms(e)``, and ``render(rebuild(atoms))`` for ``_joined(atoms)``."""
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
            out.append(f"{a.multiplier}({rebuilt_text(a.inner)})")
        else:
            out.append(render(a.node))
    return "".join(out)


class Side:
    """One side of a walk state, held as its terms, from which ``view`` (the
    normalized atoms every rule reads), ``text`` (as printed) and ``expr``
    are each made at most once.  A side a step made holds the atoms it
    emitted, joined (``_joined``); a drawn root's side holds its filled
    pattern, folded alike (``datasets._fill``), and its text; a parsed side
    holds its surface atoms and keeps its expression.  A step shares each
    side it leaves alone."""

    __slots__ = ("terms", "_view", "_text", "_expr")

    def __init__(self, terms: list[SignedAtom], text: str | None = None,
                 expr: Expr | None = None) -> None:
        self.terms, self._text, self._expr, self._view = terms, text, expr, None

    @property
    def view(self) -> list[SignedAtom]:
        if self._view is None:
            self._view = rebuilt_view(self.terms)
        return self._view

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = rebuilt_text(self.terms)
        return self._text

    @property
    def expr(self) -> Expr:
        if self._expr is None:
            self._expr = rebuild(self.terms)
        return self._expr


Sides = tuple[Side, Side]


def sides_of(eq: Equation) -> Sides:
    """The two sides of a parsed equation, each its surface atoms."""
    return Side(surface_atoms(eq.lhs), expr=eq.lhs), Side(surface_atoms(eq.rhs), expr=eq.rhs)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


_KINDS = {XAtom: "x", CAtom: "c", ProdAtom: "p", OpaqueAtom: "?"}


def _kind(atom: Atom) -> str:
    if type(atom) is GroupAtom:
        return f"g[{' '.join(_kind(a) for _, a in atom.inner)}]"
    return _KINDS[type(atom)]


def _signature(atoms: list[SignedAtom]) -> tuple[str, ...]:
    return tuple(_kind(a) for _, a in atoms)


def _parse_pattern(pattern: str) -> tuple[list[SignedAtom], list[SignedAtom]]:
    """The surface atoms of each side of a pattern such as ``Ax = B(Cx + D)``,
    every coefficient letter standing as its own whole-number code (A as 1,
    B as 2, ...)."""
    eq = parse_equation(re.sub("[A-Z]", lambda m: str(letter_code(m[0])), pattern))
    return surface_atoms(eq.lhs), surface_atoms(eq.rhs)


def letter_code(letter: str) -> int:
    """The whole number a coefficient letter stands as in ``PATTERN_ATOMS``."""
    return ord(letter) - ord("A") + 1


# each type's pattern, parsed once; the generator fills it with drawn values
PATTERN_ATOMS = {t: _parse_pattern(t.pattern) for t in ORDERED_TYPES}


_SHAPES = {(_signature(lhs), _signature(rhs)): t for t, (lhs, rhs) in PATTERN_ATOMS.items()}
# the one shape a rewrite reaches that no pattern spells: T7 with a zero constant
_SHAPES[tuple(map(_signature, _parse_pattern("Ax = Bx")))] = ProblemType.T7


def _match_patterns(lhs: tuple[str, ...], rhs: tuple[str, ...]) -> ProblemType | None:
    """The type of the shape ``(lhs, rhs)``; a trailing run of constants on
    the right is cut to two first, so a constant chain of any width there
    matches the two-constant shape."""
    while rhs[-3:] == ("c", "c", "c"):
        rhs = rhs[:-1]
    return _SHAPES.get((lhs, rhs))


def classify(state: Equation | Sides) -> ProblemType:
    """Map an equation, or the two ``Side``s of a walk state, onto its
    problem type.

    Raises UnclassifiableFormError when neither the surface structure nor the
    normalized view matches any pattern (e.g. no unknown at all).
    """
    if isinstance(state, Equation):
        state = sides_of(state)
    lhs, rhs = state[0].terms, state[1].terms
    # a minus left on a built side's first term prints as a negation: no pattern's surface
    if lhs[0][0] > 0 and rhs[0][0] > 0:
        if exact := _match_patterns(_signature(lhs), _signature(rhs)):
            return exact
    views = state[0].view, state[1].view
    # as written, then stably x-first: a constant-first shape (T6, T11) matches only as written
    x_first = (sorted(view, key=lambda sa: type(sa[1]) is not XAtom) for view in views)
    loose = _match_patterns(*map(_signature, views)) or _match_patterns(*map(_signature, x_first))
    if loose is None:
        raise UnclassifiableFormError(f"no problem type matches: {state[0].text} = {state[1].text}")
    return loose


# ---------------------------------------------------------------------------
# Correct-edge table and graph queries
# ---------------------------------------------------------------------------

# (source, rule id, target); list order per source is the canonical order and
# the first entry is the default edge taken by plain reduction.
CORRECT_EDGES: tuple[tuple[ProblemType, str, ProblemType], ...] = (
    (ProblemType.T2, "fold-sum", ProblemType.T1),
    (ProblemType.T3, "fold-product", ProblemType.T1),
    (ProblemType.T4, "combine-x", ProblemType.T1),
    (ProblemType.T5, "move-const", ProblemType.T1),
    (ProblemType.T6, "move-const", ProblemType.T1),
    (ProblemType.T7, "move-x", ProblemType.T1),
    (ProblemType.T8, "fold-inner-product", ProblemType.T3),
    (ProblemType.T9, "distribute", ProblemType.T7),
    (ProblemType.T10, "fold-product", ProblemType.T2),
    (ProblemType.T11, "combine-x", ProblemType.T6),
    (ProblemType.T12, "distribute", ProblemType.T16),
    (ProblemType.T14, "move-const", ProblemType.T7),
    (ProblemType.T14, "move-x", ProblemType.T5),
    (ProblemType.T15, "fold-sum", ProblemType.T4),
    (ProblemType.T15, "combine-x", ProblemType.T2),
    (ProblemType.T16, "fold-sum", ProblemType.T7),
    (ProblemType.T16, "move-x", ProblemType.T2),
)


def correct_successors(t: ProblemType) -> list[tuple[ProblemType, str]]:
    """All correct edges out of ``t`` in canonical order; empty only for T1."""
    return [(dst, rule) for src, rule, dst in CORRECT_EDGES if src is t]


def reachable(t: ProblemType) -> set[ProblemType]:
    """Every type reachable from ``t`` along correct edges, ``t`` included."""
    seen = {t}
    frontier = [t]
    while frontier:
        for dst, _ in correct_successors(frontier.pop()):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen
