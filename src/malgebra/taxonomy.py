"""Problem-type taxonomy and the correct-reduction graph.

Fifteen concrete equation shapes (T1-T12, T14-T16; there is no T13) form the
nodes of a DAG whose correct edges each perform one algebraic operation and
all converge on the base case T1 (``Ax = B``).

Each type's shape comes from its pattern string alone (``ProblemType.pattern``,
e.g. ``Ax = B(Cx + D)``), parsed once with every coefficient letter standing
as its own whole-number code.  The parse gives the surface atoms that the
generator fills with drawn values, and the per-side signature of term kinds
that the shape table maps to the type.

Classification is two-pass.  The exact pass looks up the surface signature.
The fallback pass normalizes forms that only arise from rewrites (bare
parentheses spliced away, constant multiples of a parenthesized monomial
folded, terms stably reordered x-first) and looks again.  A right-side
constant chain of any width matches the two-constant shape, and ``Ax = Bx``
is T7 with a zero constant, so erroneous rewrites land on the nearest pattern.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction

from .equations import Add, Const, Equation, Expr, Mul, Neg, Paren, Sub, XTerm, parse_equation
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

    @property
    def product(self) -> Fraction:
        out = Fraction(1)
        for f in self.factors:
            out *= f
        return out


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


def view_atoms(e: Expr) -> list[SignedAtom]:
    """Normalized view: bare parens spliced, signs pushed inward, constant
    multiples of single-term parens folded.  Term order is preserved."""
    out: list[SignedAtom] = []
    for sign, node in split_terms(e):
        out.extend(_view_term(sign, node))
    return out


def _view_term(sign: int, node: Expr) -> list[SignedAtom]:
    if isinstance(node, Paren):
        return [(sign * s, a) for s, a in view_atoms(node.inner)]
    if isinstance(node, Neg):
        return [(-sign * s, a) for s, a in _view_term(1, node.inner)]
    atom = _atomize(node)
    if isinstance(atom, GroupAtom):
        inner = [(s, a) for s, a in atom.inner]
        inner_view: list[SignedAtom] = []
        for s, a in inner:
            if isinstance(a, OpaqueAtom):
                inner_view.extend(_view_term(s, a.node))
            else:
                inner_view.append((s, a))
        if len(inner_view) == 1:
            s, a = inner_view[0]
            if isinstance(a, XAtom):
                return [(sign, XAtom(atom.multiplier * s * a.coef))]
            if isinstance(a, CAtom):
                return [(sign, ProdAtom((atom.multiplier, s * a.value)))]
        return [(sign, GroupAtom(atom.multiplier, tuple(inner_view)))]
    return [(sign, atom)]


def reorder_x_first(atoms: list[SignedAtom]) -> list[SignedAtom]:
    xs = [sa for sa in atoms if isinstance(sa[1], XAtom)]
    rest = [sa for sa in atoms if not isinstance(sa[1], XAtom)]
    return xs + rest


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _kind(atom: Atom) -> str:
    if isinstance(atom, XAtom):
        return "x"
    if isinstance(atom, CAtom):
        return "c"
    if isinstance(atom, ProdAtom):
        return "p"
    if isinstance(atom, GroupAtom):
        inner = " ".join(_kind(a) for _, a in atom.inner)
        return f"g[{inner}]"
    return "?"


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


def classify(eq: Equation) -> ProblemType:
    """Map an equation onto its problem type.

    Raises UnclassifiableFormError when neither the surface structure nor the
    normalized view matches any pattern (e.g. no unknown at all).
    """
    exact = _match_patterns(
        _signature(surface_atoms(eq.lhs)), _signature(surface_atoms(eq.rhs))
    )
    if exact is not None:
        return exact
    lhs = reorder_x_first(view_atoms(eq.lhs))
    rhs = reorder_x_first(view_atoms(eq.rhs))
    loose = _match_patterns(_signature(lhs), _signature(rhs))
    if loose is not None:
        return loose
    raise UnclassifiableFormError(f"no problem type matches: {eq}")


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
