"""Exhaustive enumeration of an instance's solution tree.

One depth-first search (``leaf_paths``) branches on all correct successor
edges and on every not-yet-used misconception from the requested set, subject
to a per-path cap: the complete space of correct paths and malgorithms.
States reached along different histories are kept distinct: paths, not
states, carry the meaning.  Its one policy, whether a path that has fired no
rule may solve, is yes for the tree and no for grading (``evaluation.grade``).
Given printed steps, it yields only the paths they write: the one place
where written steps are read against whole paths, for ``grade`` and
``diagnose`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .equations import Equation
from .errors import BudgetExceededError, ZeroCoefficientError
from .misconceptions import CORRECT_OUT, RULE_EDGE, Misconception, Node, outcome, resolve_set
from .reduction import EdgeRef

NODE_BUDGET = 100_000


@dataclass(frozen=True)
class Leaf:
    node_id: int
    answer: Fraction | None
    dead_end: str | None
    misconceptions: tuple[str, ...]
    path: tuple[Node, ...]  # the states from the root to this leaf

    @property
    def equations(self) -> tuple[str, ...]:
        """The path's states as printed, each rendered when first asked for."""
        return tuple(node.line for node in self.path)


@dataclass(frozen=True)
class SolutionTree:
    """The tree's walk states in depth-first order, a node's id being its
    index, and each node's parent index (-1 at the root).  Every node but
    the root is reached from its parent by its ``via`` edge."""

    nodes: tuple[Node, ...]
    parents: tuple[int, ...]
    leaves: tuple[Leaf, ...]


def leaf_paths(root: Node, rules: Sequence[Misconception], cap: int, fired_to_solve: bool,
               written: Sequence[str] | None) -> Iterator[tuple]:
    """Each path from ``root`` to a terminal or a zero x coefficient, depth
    first, as (answer, dead-end reason, rule ids used, states).  At a node:
    its correct edges, then each unused rule of ``rules`` that applies to its
    type while fewer than ``cap`` are used; with ``fired_to_solve``, a path
    using none takes no solve edge.  Printed steps, ``written``, keep only
    the paths they write: a node grows where its line is the step at its
    depth or, one past the last step, repeats it (a state printed ``x = c``
    is solved to that same line); no shorter path and no zero coefficient."""
    guide = None if written is None else (*written, *written[-1:])

    def grow(node: Node, used: tuple[str, ...], path: tuple[Node, ...], left: int) -> Iterator:
        if guide is not None and (len(path) == len(guide) or node.line != guide[len(path)]):
            return
        path += (node,)
        if (end := outcome(node)) is not None:
            if guide is None or len(path) >= len(written):
                yield *end, used, path
            return
        for edge in CORRECT_OUT[node.label]:
            if used or not fired_to_solve or edge.kind != "solve":
                try:
                    kid = node.child(edge)
                except ZeroCoefficientError:
                    if guide is None:
                        yield None, "zero x coefficient", used, path
                    continue
                yield from grow(kid, used, path, left)
        for m in rules if left > 0 else ():
            if m.id not in used and node.label in m.applicable_types \
                    and (kid := node.child(RULE_EDGE[m.id])) is not None:
                yield from grow(kid, used + (m.id,), path, left - 1)

    return grow(root, (), (), cap)


def enumerate_tree(
    eq: Equation | Node,
    ms: list[Misconception | str],
    max_misconceptions_per_path: int = 1,
) -> SolutionTree:
    """Build the full solution tree with at most the given number of
    misconception steps per path, from an equation or from a walk state,
    grown as it is: every path of ``leaf_paths``, each state numbered where a
    path first reaches it (correct edges first, then ``ms`` in order).  Unlike
    the walk, a zero x coefficient on T1 is a leaf, and the rules are still tried there."""
    index: dict[int, int] = {}  # id(state) -> node id; ``nodes`` keeps each state alive
    nodes: list[Node] = []
    parents: list[int] = []
    leaves: list[Leaf] = []
    root = eq if isinstance(eq, Node) else Node(eq)
    for *end, used, path in leaf_paths(root, resolve_set(ms), max_misconceptions_per_path,
                                       False, None):
        nid = -1
        for node in path:  # a typed state has a correct edge, so it lies on some path
            parent, nid = nid, index.setdefault(id(node), len(nodes))
            if nid == len(nodes):
                nodes.append(node)
                parents.append(parent)
        if len(nodes) > NODE_BUDGET:
            raise BudgetExceededError(f"solution tree exceeded the {NODE_BUDGET}-node budget")
        leaves.append(Leaf(nid, *end, used, path))
    return SolutionTree(tuple(nodes), tuple(parents), tuple(leaves))


def leaf_answers(tree: SolutionTree) -> list[tuple[Fraction | None, tuple[str, ...]]]:
    """(answer, misconception ids) per leaf in deterministic tree order.
    Dead-end leaves report answer None."""
    return [(leaf.answer, leaf.misconceptions) for leaf in tree.leaves]


def _edges(tree: SolutionTree) -> list[tuple[int, int, EdgeRef]]:
    """(parent, child, edge) for every node but the root, in node order."""
    return [(tree.parents[i], i, tree.nodes[i].via) for i in range(1, len(tree.nodes))]


def to_json_dict(tree: SolutionTree) -> dict:
    return {
        "root": 0,
        "nodes": [
            {"id": i, "equation": n.line, "label": str(n.label)}
            for i, n in enumerate(tree.nodes)
        ],
        "edges": [
            {"parent": p, "child": c, "kind": e.kind, "id": e.rule_id}
            for p, c, e in _edges(tree)
        ],
        "leaves": [
            {
                "node": leaf.node_id,
                "answer": str(leaf.answer) if leaf.answer is not None else None,
                "dead_end": leaf.dead_end,
                "misconceptions": list(leaf.misconceptions),
            }
            for leaf in tree.leaves
        ],
    }


def to_dot(tree: SolutionTree) -> str:
    """Graphviz rendering: correct edges solid, misconception edges dashed
    and labeled with the rule id."""
    out = ["digraph solution_space {"]
    out.append('  node [shape=box, fontname="monospace"];')
    for i, n in enumerate(tree.nodes):
        text = n.line.replace('"', '\\"')
        out.append(f'  n{i} [label="{n.label}: {text}"];')
    for p, c, e in _edges(tree):
        style = "style=dashed, color=red, " if e.kind == "misconception" else ""
        out.append(f'  n{p} -> n{c} [{style}label="{e.rule_id}"];')
    out.append("}")
    return "\n".join(out)
