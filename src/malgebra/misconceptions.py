"""The misconception catalog: 19 buggy rewrite rules and the error-aware walk.

Each catalog row is the whole rule: the set of problem types it can fire on
and a rewrite that edits the matched subterm in place, exactly following the
rule's expression.  A misconception step replaces the correct step at its
node; the result is reclassified structurally, so the target of an erroneous
edge is computed, never hardcoded.

Four rules (M19, M20_S20, M21, M22_S1) apply to every type because they fire
at the terminal solve step rather than at a reduction node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Sequence

from .equations import Equation, Paren, degree
from .errors import (
    EngineError,
    MisconceptionNotApplicableError,
    NonterminationError,
    UnclassifiableFormError,
    UnclassifiableResultError,
)
from .reduction import (
    EdgeRef,
    ReductionTrace,
    apply_step,
    at_first,
    rebuild,
    signed_sum,
    solve_t1,
    solved_equation,
    t1_parts,
    with_side,
)
from .taxonomy import (
    CAtom,
    DEAD_END,
    GroupAtom,
    OpaqueAtom,
    ORDERED_TYPES,
    ProblemType,
    ProdAtom,
    SOLVED,
    SignedAtom,
    XAtom,
    classify,
    correct_successors,
    view_atoms,
)

T = ProblemType


@dataclass(frozen=True)
class Misconception:
    """One catalog row: the rule's id, expression, applicable types and
    description, with its body.  A rewrite rule sets ``rewrite``, which edits
    an instance of one of its types or returns None where the instance has
    no site; a solve-step rule sets ``solve``, x's value from the (A, B) of
    ``Ax = B``, or None where the rule does not fire."""

    id: str
    expression: str
    applicable_types: frozenset[ProblemType]
    description: str
    rewrite: Callable[[Equation, ProblemType], Equation | None] | None = field(
        default=None, compare=False, repr=False)
    solve: Callable[[Fraction, Fraction], Fraction | None] | None = field(
        default=None, compare=False, repr=False)

    @property
    def at_solve(self) -> bool:
        """Fires at the terminal solve step rather than at a reduction node."""
        return self.solve is not None

    def __str__(self) -> str:
        return self.id


_ALL_TYPES = frozenset(ORDERED_TYPES)


# ---------------------------------------------------------------------------
# Rewrites.  Each returns the transformed equation, or None when the rule's
# pattern has no site on this instance.  Group and product sites are the
# first such atom on the right side (``at_first``); edits may fold a sign
# into an x or constant value, which ``rebuild`` renders the same way.
# ---------------------------------------------------------------------------


def _xc(atoms: Sequence[SignedAtom]) -> tuple[Fraction, Fraction] | None:
    """Additive (x-coefficient, constant) of a two-term x/constant chain in
    either order: a whole side, or a ``(Bx +/- C)`` interior."""
    if len(atoms) != 2 or {type(a) for _, a in atoms} != {XAtom, CAtom}:
        return None
    return signed_sum(atoms, XAtom)[0], signed_sum(atoms, CAtom)[0]


def _at_group(eq: Equation, edit: Callable[..., list[SignedAtom] | None]) -> Equation | None:
    """Edit the first parenthesized group on the right side whose interior is
    ``Bx +/- C``; ``edit(s, g, x, c)`` gets the interior's additive values."""

    def site(s: int, g: GroupAtom) -> list[SignedAtom] | None:
        xc = _xc(g.inner)
        return None if xc is None else edit(s, g, *xc)

    return at_first(eq, GroupAtom, site)


def _rw_m1(eq: Equation, t: ProblemType) -> Equation | None:
    def split(s: int, a: GroupAtom | ProdAtom) -> list[SignedAtom]:
        if isinstance(a, GroupAtom):
            head, part = a.multiplier, a.inner
        else:
            head, part = a.factors[0], ((1, ProdAtom(a.factors[1:])),)
        return [(s, CAtom(head)), (1, OpaqueAtom(Paren(rebuild(part))))]

    return at_first(eq, GroupAtom, split) or at_first(eq, ProdAtom, split)


def _rw_m2(eq: Equation, t: ProblemType) -> Equation | None:
    return _at_group(eq, lambda s, g, x, c: [(1, XAtom(s * g.multiplier * x)), (1, CAtom(c))])


def _rw_m3(eq: Equation, t: ProblemType) -> Equation | None:
    atoms = view_atoms(eq.rhs)
    for i in range(len(atoms) - 1):
        (s1, a1), (s2, a2) = atoms[i : i + 2]
        if not isinstance(a1, CAtom):
            continue
        if isinstance(a2, GroupAtom):
            merged = GroupAtom(s1 * a1.value + s2 * a2.multiplier, a2.inner)
        elif isinstance(a2, ProdAtom):
            merged = ProdAtom((s1 * a1.value + s2 * a2.factors[0],) + a2.factors[1:])
        else:
            continue
        return with_side(eq, "rhs", atoms[:i] + [(1, merged)] + atoms[i + 2 :])
    return None


def _rw_m4(eq: Equation, t: ProblemType) -> Equation | None:
    def interleave(s: int, g: GroupAtom) -> list[SignedAtom] | None:
        if len(g.inner) != 1 or not isinstance(g.inner[0][1], ProdAtom):
            return None
        s1, prod = g.inner[0]
        head, *rest = prod.factors
        factors = tuple(v for f in (s1 * head, *rest) for v in (g.multiplier, f))
        return [(s, ProdAtom(factors))]

    return at_first(eq, GroupAtom, interleave)


def _rw_m5(eq: Equation, t: ProblemType) -> Equation | None:
    def over(s, g, x, c):
        m = s * g.multiplier
        return [(s, GroupAtom(g.multiplier, ((1, XAtom(m * x)), (1, CAtom(m * c)))))]

    return _at_group(eq, over)


def _rw_m6(eq: Equation, t: ProblemType) -> Equation | None:
    # distributes into the x-term correctly but never flips the second sign;
    # the inner subtraction is the view's sign, not the constant's value
    def no_flip(s, g, x, c):
        m = s * g.multiplier
        if m >= 0 or g.inner[1][0] != -1:
            return None
        return [(1, XAtom(m * x)), (1, CAtom(-m * c))]

    return _at_group(eq, no_flip)


def _rw_m8(eq: Equation, t: ProblemType) -> Equation | None:
    return _at_group(eq, lambda s, g, x, c: [(1, XAtom(s * x)), (1, CAtom(s * g.multiplier * c))])


def _rw_m11(eq: Equation, t: ProblemType) -> Equation | None:
    left = _xc(view_atoms(eq.lhs))
    right = _xc(view_atoms(eq.rhs))
    if left is None or right is None:
        return None
    (a, b), (c, d) = left, right
    return Equation(
        rebuild([(1, XAtom(a)), (1, XAtom(c))]), rebuild([(1, CAtom(b)), (1, CAtom(d))])
    )


def _rw_factor(eq: Equation, t: ProblemType, atom: type[XAtom | CAtom]) -> Equation | None:
    """M12/M13: fold ``Ax +/- B`` into one ``atom`` of value ``A +/- B``: the
    whole side on T5-T7, the parenthesized interior on T9/T12."""
    if t in (T.T5, T.T6, T.T7):
        side = "rhs" if t is T.T7 else "lhs"
        xc = _xc(view_atoms(getattr(eq, side)))
        return None if xc is None else with_side(eq, side, [(1, atom(xc[0] + xc[1]))])
    return _at_group(eq, lambda s, g, x, c: [(s, GroupAtom(g.multiplier, ((1, atom(x + c)),)))])


def _rw_op(
    eq: Equation,
    t: ProblemType,
    want: int,
    edit: Callable[[SignedAtom, SignedAtom], list[SignedAtom]],
) -> Equation | None:
    """M14/M15/M17/M18: ``edit`` the first adjacent pair whose second term has
    sign ``want`` in the additive chain of the combine site: the constant
    sum on T2's right side, the x-term sum on T4's left side."""
    side = "lhs" if t is T.T4 else "rhs"
    atoms = view_atoms(getattr(eq, side))
    for i in range(1, len(atoms)):
        if atoms[i][0] == want:
            new = atoms[: i - 1] + edit(atoms[i - 1], atoms[i]) + atoms[i + 1 :]
            return with_side(eq, side, new)
    return None


def _flip(prev: SignedAtom, cur: SignedAtom) -> list[SignedAtom]:
    return [prev, (-cur[0], cur[1])]


def _swap(prev: SignedAtom, cur: SignedAtom) -> list[SignedAtom]:
    return [(prev[0], cur[1]), (-1, prev[1])]


def _rw_m16(eq: Equation, t: ProblemType) -> Equation | None:
    def spread(s: int, p: ProdAtom) -> list[SignedAtom]:
        return [(s, CAtom(p.factors[0]))] + [(1, CAtom(f)) for f in p.factors[1:]]

    return at_first(eq, ProdAtom, spread)


def _types(*names: str) -> frozenset[ProblemType]:
    return frozenset(ProblemType[n] for n in names)


CATALOG: tuple[Misconception, ...] = (
    Misconception("M1", "A(part) → A + (part)", _types("T8", "T9", "T10", "T12"),
                  "Treating distribution as addition", rewrite=_rw_m1),
    Misconception("M2_S3", "A(Bx ± C) → ABx ± C", _types("T9", "T12"),
                  "Ignoring distribution", rewrite=_rw_m2),
    Misconception("M3", "A ± B(part) → (A ± B)(part)", _types("T10", "T12"),
                  "Misapplying parentheses", rewrite=_rw_m3),
    Misconception("M4", "A(B*C) → A*B*A*C", _types("T8"),
                  "Incorrectly distributing multiplication", rewrite=_rw_m4),
    Misconception("M5", "A(Bx ± C) → A(A*Bx ± A*C)", _types("T9", "T12"),
                  "Over-distribution", rewrite=_rw_m5),
    Misconception("M6", "-A(Bx - C) → -A*Bx - A*C", _types("T9", "T12"),
                  "Incorrect sign distribution", rewrite=_rw_m6),
    Misconception("M8", "A(Bx ± C) → Bx ± A*C", _types("T9", "T12"),
                  "Incorrect distribution on x term", rewrite=_rw_m8),
    Misconception("M11", "Ax ± B = Cx ± D → Ax + Cx = B + D", _types("T14"),
                  "Incorrectly combining terms", rewrite=_rw_m11),
    Misconception("M12_S15", "Ax ± B → (A ± B)x", _types("T5", "T6", "T7", "T9", "T12"),
                  "Incorrectly factoring x", rewrite=partial(_rw_factor, atom=XAtom)),
    Misconception("M13", "Ax ± B → (A ± B)", _types("T5", "T6", "T7", "T9", "T12"),
                  "Incorrectly factoring x", rewrite=partial(_rw_factor, atom=CAtom)),
    Misconception("M14", "part1 + part2 → part1 - part2", _types("T2", "T4"),
                  "Incorrectly swapping addition and subtraction",
                  rewrite=partial(_rw_op, want=1, edit=_flip)),
    Misconception("M15", "part1 - part2 → part1 + part2", _types("T2", "T4"),
                  "Incorrectly swapping addition and subtraction",
                  rewrite=partial(_rw_op, want=-1, edit=_flip)),
    Misconception("M16", "part1 * part2 → part1 + part2", _types("T3", "T10"),
                  "Treating multiplication as addition", rewrite=_rw_m16),
    Misconception("M17", "A + B → B - A", _types("T2", "T4"),
                  "Incorrectly swapping order of addition and subtraction",
                  rewrite=partial(_rw_op, want=1, edit=_swap)),
    Misconception("M18", "A - B → B - A", _types("T2", "T4"),
                  "Incorrectly swapping order of addition and subtraction",
                  rewrite=partial(_rw_op, want=-1, edit=_swap)),
    Misconception("M19", "Ax = B → x = A + B", _ALL_TYPES,
                  "Treat division as addition", solve=lambda a, b: a + b),
    Misconception("M20_S20", "Ax = B → x = B", _ALL_TYPES,
                  "Divide only on one side", solve=lambda a, b: b),
    Misconception("M21", "Ax = B → x = A - B", _ALL_TYPES,
                  "Treat division as subtraction", solve=lambda a, b: a - b),
    # A/B is undefined on Ax = 0, where the rule stands down
    Misconception("M22_S1", "Ax = B → x = A/B", _ALL_TYPES,
                  "Incorrect numerator and denominator", solve=lambda a, b: a / b if b else None),
)

_BY_ID = {m.id: m for m in CATALOG}


def get_misconception(m: "Misconception | str") -> Misconception:
    """The catalog row ``m`` names; a row is its own answer."""
    if isinstance(m, Misconception):
        return m
    try:
        return _BY_ID[m]
    except KeyError:
        raise MisconceptionNotApplicableError(f"unknown misconception id: {m}") from None


def resolve_set(ms: Sequence["Misconception | str"]) -> list[Misconception]:
    """Validate an ordered misconception set: known ids, no duplicates."""
    out = [get_misconception(m) for m in ms]
    ids = [m.id for m in out]
    if len(set(ids)) != len(ids):
        raise MisconceptionNotApplicableError(f"duplicate misconception ids: {ids}")
    return out


def try_apply(
    m: Misconception, eq: Equation, t: ProblemType
) -> tuple[Equation, ProblemType | str] | None:
    """Fire ``m`` on an instance of type ``t`` if it matches; None otherwise.

    Applicability is type-level (the catalog's set) plus instance-level: a
    rule whose pattern needs a particular operator or sign only fires when
    the site is actually present (e.g. M6 needs a negative multiplier over an
    inner subtraction, M22_S1 needs a nonzero right side).
    """
    if t not in m.applicable_types:
        return None
    if m.solve is not None:
        x = m.solve(*t1_parts(eq)) if t is T.T1 else None
        return None if x is None else (solved_equation(x), SOLVED)
    result = m.rewrite(eq, t)
    if result is None:
        return None
    if not (degree(result.lhs) or degree(result.rhs)):
        return result, DEAD_END
    try:
        label = classify(result)
    except UnclassifiableFormError as exc:
        raise UnclassifiableResultError(
            f"{m.id} on {eq} produced an unclassifiable form: {result}"
        ) from exc
    return result, label


def apply_misconception(
    m: "Misconception | str", eq: Equation
) -> tuple[Equation, ProblemType | str]:
    """Apply one misconception to an equation it is applicable to."""
    m = get_misconception(m)
    t = classify(eq)
    if t not in m.applicable_types:
        raise MisconceptionNotApplicableError(f"{m.id} is not applicable to {t}")
    result = try_apply(m, eq, t)
    if result is None:
        raise MisconceptionNotApplicableError(
            f"{m.id} has no matching site on this {t} instance: {eq}"
        )
    return result


_MAX_TRACE_STEPS = 12

# Node expansion, shared by the walk (one edge per node), the tree (every
# edge) and diagnose (many walks from one root).  The correct edges out of a
# node of each type: T1's solve step, else its correct rules in canonical
# order, the default first; and each rule's edge, by id.
CORRECT_OUT = {t: tuple(EdgeRef("correct", rule_id) for _, rule_id in correct_successors(t))
               or (EdgeRef("solve", "solve"),) for t in ProblemType}
RULE_EDGE = {m.id: EdgeRef("misconception", m.id) for m in CATALOG}


class Node:
    """A walk state: its equation, its label and the edge that reached it
    (None at a root).

    ``child`` runs each edge out of a node at most once and keeps what it
    gave, an engine error included, so walks from one root share every
    state and every rule attempt they have in common.  A node keeps no link
    to its parent: with the kept children that would make every walk a
    reference cycle, freed only by the garbage collector.  A node is a step
    of a ``ReductionTrace`` and compares as one: by equation, label and edge.
    """

    __slots__ = ("equation", "label", "via", "_kids", "_line")

    def __init__(self, equation: Equation, label: ProblemType | str,
                 via: EdgeRef | None = None, line: str | None = None) -> None:
        self.equation = equation
        self.label = label
        self.via = via
        self._kids: dict[str, Node | EngineError | None] = {}
        self._line = line  # str(equation), when the caller already has it

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return (self.equation, self.label, self.via) == (other.equation, other.label, other.via)

    def __hash__(self) -> int:
        return hash((self.equation, self.label, self.via))

    def __repr__(self) -> str:
        return f"Node({self.line!r}, {self.label}, via={self.via})"

    @property
    def line(self) -> str:
        """The equation as printed, rendered at most once."""
        if self._line is None:
            self._line = str(self.equation)
        return self._line

    def child(self, edge: EdgeRef) -> "Node | None":
        """The node ``edge`` leads to: a correct or solve edge's target, or a
        misconception's result, None where the rule does not fire.  Solving
        ``0x = B`` raises ``ZeroCoefficientError``; a later call for the same
        edge gives back the same node, or raises the same error."""
        key, kids = edge.rule_id, self._kids
        if key in kids:
            kid = kids[key]
            if isinstance(kid, EngineError):
                raise kid.with_traceback(None)
            return kid
        eq, t = self.equation, self.label
        try:
            if edge.kind == "correct":
                res = apply_step(eq, t, key)
            elif edge.kind == "solve":
                res = solved_equation(solve_t1(eq)), SOLVED
            else:
                res = try_apply(_BY_ID[key], eq, t)
        except EngineError as exc:
            kids[key] = exc
            raise
        kid = kids[key] = None if res is None else Node(res[0], res[1], edge)
        return kid


def outcome(eq: Equation, label: ProblemType | str) -> tuple[Fraction | None, str | None] | None:
    """(answer, dead-end reason) of a terminal state; None at a type."""
    if label == SOLVED:
        return eq.rhs.value, None  # type: ignore[union-attr]
    if label == DEAD_END:
        return None, "variable eliminated"
    return None


def steps(root: Node, mals: Sequence[Misconception]) -> Iterator[Node]:
    """Each state of the walk from ``root`` after the root, in order: at each
    node the first rule of ``mals`` not yet used that fires there, else the
    default correct edge, up to a terminal state.  Raises
    ``NonterminationError`` past the step guard.  A reader that stops early
    expands no node past the last state it read."""
    todo = [RULE_EDGE[m.id] for m in mals]
    node = root
    for _ in range(_MAX_TRACE_STEPS):
        for edge in todo:
            if (kid := node.child(edge)) is not None:
                todo.remove(edge)
                break
        else:
            kid = node.child(CORRECT_OUT[node.label][0])
        node = kid
        yield node
        if node.label in (SOLVED, DEAD_END):  # outcome's terminal labels
            return
    raise NonterminationError(f"trace exceeded {_MAX_TRACE_STEPS} steps: {root.equation}")


def walk(root: Node, mals: Sequence[Misconception]) -> ReductionTrace:
    """The walk from ``root`` (see ``steps``) as a trace."""
    path = (root, *steps(root, mals))
    last = path[-1]
    return ReductionTrace(path, *outcome(last.equation, last.label))


def reduce_with_misconceptions(
    eq: Equation, ms: Sequence["Misconception | str"]
) -> ReductionTrace:
    """Walk the graph firing the first applicable misconception at each node.

    Each misconception fires at most once per trace; otherwise the default
    correct edge is taken.  With an empty set this degenerates to the plain
    correct reduction.
    """
    mals = resolve_set(ms)
    return walk(Node(eq, classify(eq)), mals)
