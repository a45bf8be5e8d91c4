"""The misconception catalog: 19 buggy rewrite rules and the error-aware walk.

Each catalog row is the whole rule: the set of problem types it can fire on
and a rewrite that edits the matched subterm in place, exactly following the
rule's expression.  A misconception step replaces the correct step at its
node; the result is reclassified structurally from the sides it built, so
the target of an erroneous edge is computed, never hardcoded.  A rule at a
correct rule's site is only the edit it hands that site's reader in
``reduction`` (``at_first``, ``at_group``, ``at_product_group``).

Four rules (M19, M20_S20, M21, M22_S1) apply to every type because they fire
at the terminal solve step rather than at a reduction node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Sequence

from .equations import Equation, Paren
from .errors import (
    MisconceptionNotApplicableError,
    NonterminationError,
    UnclassifiableFormError,
    UnclassifiableResultError,
)
from .reduction import (
    EdgeRef,
    Emitted,
    ReductionTrace,
    after,
    apply_step,
    at_first,
    at_group,
    at_product_group,
    solve_t1,
    solved,
    t1_parts,
    xc,
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
    Sides,
    SignedAtom,
    XAtom,
    classify,
    correct_successors,
    rebuild,
    sides_of,
)

T = ProblemType
Views = Sequence[SignedAtom]


@dataclass(frozen=True)
class Misconception:
    """One catalog row: the rule's id, expression, applicable types and
    description, with its body.  A rewrite rule sets ``rewrite``, which maps
    an instance's views to what it emits, or None where it has no site; a
    solve-step rule sets ``solve``, x's value from the (A, B) of ``Ax = B``,
    or None where the rule does not fire."""

    id: str
    expression: str
    applicable_types: frozenset[ProblemType]
    description: str
    rewrite: Callable[[Views, Views, ProblemType], Emitted | None] | None = field(
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
# Rewrites.  Each maps an instance's views to what it emits, or None where the
# pattern has no site; an edit may fold a sign into an x or constant.
# ---------------------------------------------------------------------------


def _rw_m1(lhs: Views, rhs: Views, t: ProblemType) -> Emitted | None:
    def split(s: int, a: GroupAtom | ProdAtom) -> list[SignedAtom]:
        if isinstance(a, GroupAtom):
            head, part = a.multiplier, a.inner
        else:
            head, part = a.factors[0], ((1, ProdAtom(a.factors[1:])),)
        return [(s, CAtom(head)), (1, OpaqueAtom(Paren(rebuild(part))))]

    return at_first(rhs, GroupAtom, split) or at_first(rhs, ProdAtom, split)


def _rw_m2(lhs: Views, rhs: Views, t: ProblemType) -> Emitted | None:
    return at_group(rhs, lambda s, g, x, c: [(1, XAtom(s * g.multiplier * x)), (1, CAtom(c))])


def _rw_m3(lhs: Views, rhs: Views, t: ProblemType) -> Emitted | None:
    for i in range(len(rhs) - 1):
        (s1, a1), (s2, a2) = rhs[i : i + 2]
        if not isinstance(a1, CAtom):
            continue
        if isinstance(a2, GroupAtom):
            merged = GroupAtom(s1 * a1.value + s2 * a2.multiplier, a2.inner)
        elif isinstance(a2, ProdAtom):
            merged = ProdAtom((s1 * a1.value + s2 * a2.factors[0],) + a2.factors[1:])
        else:
            continue
        return None, [*rhs[:i], (1, merged), *rhs[i + 2 :]]
    return None


def _rw_m4(lhs: Views, rhs: Views, t: ProblemType) -> Emitted | None:
    return at_product_group(
        rhs, lambda s, g, f: [(s, ProdAtom(tuple(v for b in f for v in (g.multiplier, b))))])


def _rw_m5(lhs: Views, rhs: Views, t: ProblemType) -> Emitted | None:
    def over(s, g, x, c):
        m = s * g.multiplier
        return [(s, GroupAtom(g.multiplier, ((1, XAtom(m * x)), (1, CAtom(m * c)))))]

    return at_group(rhs, over)


def _rw_m6(lhs: Views, rhs: Views, t: ProblemType) -> Emitted | None:
    # distributes into the x-term correctly but never flips the second sign;
    # the inner subtraction is the view's sign, not the constant's value
    def no_flip(s, g, x, c):
        m = s * g.multiplier
        if m >= 0 or g.inner[1][0] != -1:
            return None
        return [(1, XAtom(m * x)), (1, CAtom(-m * c))]

    return at_group(rhs, no_flip)


def _rw_m8(lhs: Views, rhs: Views, t: ProblemType) -> Emitted | None:
    return at_group(rhs, lambda s, g, x, c: [(1, XAtom(s * x)), (1, CAtom(s * g.multiplier * c))])


def _rw_m11(lhs: Views, rhs: Views, t: ProblemType) -> Emitted | None:
    left, right = xc(lhs), xc(rhs)
    if left is None or right is None:
        return None
    (a, b), (c, d) = left, right
    return [(1, XAtom(a)), (1, XAtom(c))], [(1, CAtom(b)), (1, CAtom(d))]


def _rw_factor(lhs: Views, rhs: Views, t: ProblemType,
               atom: type[XAtom | CAtom]) -> Emitted | None:
    """M12/M13: fold ``Ax +/- B`` into one ``atom`` of value ``A +/- B``: the
    whole side on T5-T7, the parenthesized interior on T9/T12."""
    if t in (T.T5, T.T6, T.T7):
        parts = xc(rhs if t is T.T7 else lhs)
        new = None if parts is None else [(1, atom(parts[0] + parts[1]))]
        return None if new is None else (None, new) if t is T.T7 else (new, None)
    return at_group(rhs, lambda s, g, x, c: [(s, GroupAtom(g.multiplier, ((1, atom(x + c)),)))])


def _rw_op(lhs: Views, rhs: Views, t: ProblemType, want: int,
           edit: Callable[[SignedAtom, SignedAtom], list[SignedAtom]]) -> Emitted | None:
    """M14/M15/M17/M18: ``edit`` the first adjacent pair whose second term has
    sign ``want`` in the additive chain of the combine site: the constant
    sum on T2's right side, the x-term sum on T4's left side."""
    atoms = lhs if t is T.T4 else rhs
    for i in range(1, len(atoms)):
        if atoms[i][0] == want:
            new = [*atoms[: i - 1], *edit(atoms[i - 1], atoms[i]), *atoms[i + 1 :]]
            return (new, None) if t is T.T4 else (None, new)
    return None


def _flip(prev: SignedAtom, cur: SignedAtom) -> list[SignedAtom]:
    return [prev, (-cur[0], cur[1])]


def _swap(prev: SignedAtom, cur: SignedAtom) -> list[SignedAtom]:
    return [(prev[0], cur[1]), (-1, prev[1])]


def _rw_m16(lhs: Views, rhs: Views, t: ProblemType) -> Emitted | None:
    def spread(s: int, p: ProdAtom) -> list[SignedAtom]:
        return [(s, CAtom(p.factors[0]))] + [(1, CAtom(f)) for f in p.factors[1:]]

    return at_first(rhs, ProdAtom, spread)


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


def try_apply(m: Misconception, node: "Node") -> "Node | None":
    """The state ``m`` leads to from ``node``, or None where it does not fire.

    Applicability is type-level (the catalog's set) plus instance-level: a
    rule whose pattern needs a particular operator or sign only fires when
    the site is actually present (e.g. M6 needs a negative multiplier over an
    inner subtraction, M22_S1 needs a nonzero right side).  ``classify``
    types a rewrite's result from the two sides it built; a result with no x
    term on either side is a dead end."""
    t = node.label
    if t not in m.applicable_types:
        return None
    via = RULE_EDGE[m.id]
    lhs, rhs = node.sides
    if m.solve is not None:
        x = m.solve(*t1_parts(lhs.view, rhs.view)) if t is T.T1 else None
        return None if x is None else Node(solved(x), SOLVED, via)
    if (new := m.rewrite(lhs.view, rhs.view, t)) is None:
        return None
    kid = Node(after(node.sides, new), DEAD_END, via)
    if any(_has_x(side.view) for side in kid.sides):
        try:
            kid.label = classify(kid.sides)
        except UnclassifiableFormError as exc:
            raise UnclassifiableResultError(f"{m.id} on {node.line} produced an "
                                            f"unclassifiable form: {kid.line}") from exc
    return kid


def _has_x(view: Views) -> bool:
    """Whether a view holds an x term, at the top level or in a group."""
    return any(type(a) is XAtom or type(a) is GroupAtom and _has_x(a.inner) for _, a in view)


def apply_misconception(
    m: "Misconception | str", eq: Equation
) -> tuple[Equation, ProblemType | str]:
    """Apply one misconception to an equation it is applicable to."""
    m, root = get_misconception(m), Node(eq)
    t = root.label
    if t not in m.applicable_types:
        raise MisconceptionNotApplicableError(f"{m.id} is not applicable to {t}")
    if (kid := try_apply(m, root)) is None:
        raise MisconceptionNotApplicableError(f"{m.id} has no matching site on this {t} "
                                              f"instance: {eq}")
    return kid.equation, kid.label


_MAX_TRACE_STEPS = 12

# Node expansion, shared by the walk (one edge per node), the tree (every
# edge) and diagnose (many walks from one root).  The correct edges out of a
# node of each type: T1's solve step, else its correct rules in canonical
# order, the default first; and each rule's edge, by id.
CORRECT_OUT = {t: tuple(EdgeRef("correct", rule_id) for _, rule_id in correct_successors(t))
               or (EdgeRef("solve", "solve"),) for t in ProblemType}
RULE_EDGE = {m.id: EdgeRef("misconception", m.id) for m in CATALOG}


class Node:
    """A walk state: its two sides (``taxonomy.Side``), its label and the
    edge that reached it (None at a root).  A root is made from an equation,
    which it keeps, and with no label given is typed by ``classify``; a step
    makes a state from its two sides, and that state builds its ``equation``
    only when asked.  ``line`` joins the two texts.

    ``child`` keeps each child it built, or None where a rule did not fire,
    so walks from one root share every state and every rule attempt they
    have in common; an edge that raised keeps nothing and runs again on the
    next walk through the node.  A node keeps no link to its parent: with
    the kept children that would make every walk a reference cycle.  A node
    is a step of a ``ReductionTrace`` and compares as one: as printed, by
    line, label and edge, so two states that print alike compare equal
    whatever expression trees they would build."""

    __slots__ = ("sides", "label", "via", "_kids", "_equation", "_line")

    def __init__(self, state: Equation | Sides, label: ProblemType | str | None = None,
                 via: EdgeRef | None = None) -> None:
        if type(state) is tuple:
            self.sides, self._equation = state, None
        else:
            self.sides, self._equation = sides_of(state), state
        self.label, self.via, self._line = label or classify(self.sides), via, None
        self._kids: dict[str, Node | None] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return (self.line, self.label, self.via) == (other.line, other.label, other.via)

    def __hash__(self) -> int:
        return hash((self.line, self.label, self.via))

    def __repr__(self) -> str:
        return f"Node({self.line!r}, {self.label}, via={self.via})"

    @property
    def equation(self) -> Equation:
        """The state as an equation, built at most once."""
        if self._equation is None:
            lhs, rhs = self.sides
            self._equation = Equation(lhs.expr, rhs.expr)
        return self._equation

    @property
    def line(self) -> str:
        """The equation as printed, joined at most once."""
        if self._line is None:
            lhs, rhs = self.sides
            self._line = f"{lhs.text} = {rhs.text}"
        return self._line

    def child(self, edge: EdgeRef) -> "Node | None":
        """The node ``edge`` leads to: a correct or solve edge's target, or a
        misconception's result, None where the rule does not fire.  Solving
        ``0x = B`` raises ``ZeroCoefficientError``; a later call for the same
        edge gives back the same node, or, where the edge raised, runs it
        again."""
        key, kids = edge.rule_id, self._kids
        if key not in kids:
            if edge.kind == "correct":
                kids[key] = Node(*apply_step(self.sides, self.label, key), edge)
            elif edge.kind == "solve":
                kids[key] = Node(solved(solve_t1(self.sides)), SOLVED, edge)
            else:
                kids[key] = try_apply(_BY_ID[key], self)
        return kids[key]


def outcome(node: Node) -> tuple[Fraction | None, str | None] | None:
    """(answer, dead-end reason) of a terminal state; None at a type."""
    if node.label == SOLVED:
        return node.sides[1].terms[0][1].value, None  # the c of x = c
    if node.label == DEAD_END:
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
    raise NonterminationError(f"trace exceeded {_MAX_TRACE_STEPS} steps: {root.line}")


def walk(root: Node, mals: Sequence[Misconception]) -> ReductionTrace:
    """The walk from ``root`` (see ``steps``) as a trace."""
    path = (root, *steps(root, mals))
    return ReductionTrace(path, *outcome(path[-1]))


def reduce_with_misconceptions(
    eq: Equation, ms: Sequence["Misconception | str"]
) -> ReductionTrace:
    """Walk the graph firing the first applicable misconception at each node.

    Each misconception fires at most once per trace; otherwise the default
    correct edge is taken.  With an empty set this degenerates to the plain
    correct reduction.
    """
    mals = resolve_set(ms)
    return walk(Node(eq), mals)
