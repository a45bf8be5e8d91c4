"""Exhaustive enumeration of an instance's solution tree.

Every node branches on all correct successor edges and on every not-yet-used
misconception from the requested set, subject to a per-path cap, producing
the complete space of correct paths and malgorithms.  States reached along
different histories are kept distinct: paths, not states, carry the meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def enumerate_tree(
    eq: Equation | Node,
    ms: list[Misconception | str],
    max_misconceptions_per_path: int = 1,
) -> SolutionTree:
    """Build the full solution tree with at most the given number of
    misconception steps per path, from an equation or from a walk state,
    grown as it is.  Children are ordered correct-edges-first, then by
    position in ``ms``.  Unlike the walk, a T1 node with a zero x
    coefficient becomes a leaf, and the rules are still tried there."""
    rules = [RULE_EDGE[m.id] for m in resolve_set(ms)]
    cap = max_misconceptions_per_path
    nodes: list[Node] = []
    parents: list[int] = []
    leaves: list[Leaf] = []

    def grow(parent: int, node: Node, used: tuple[str, ...], path: tuple[Node, ...]) -> None:
        if len(nodes) >= NODE_BUDGET:
            raise BudgetExceededError(f"solution tree exceeded the {NODE_BUDGET}-node budget")
        nid = len(nodes)
        nodes.append(node)
        parents.append(parent)
        path += (node,)
        end = outcome(node)
        if end is not None:
            leaves.append(Leaf(nid, *end, used, path))
            return
        for edge in CORRECT_OUT[node.label]:
            try:
                kid = node.child(edge)
            except ZeroCoefficientError:
                leaves.append(Leaf(nid, None, "zero x coefficient", used, path))
                continue
            grow(nid, kid, used, path)
        if len(used) < cap:
            for edge in rules:
                if edge.rule_id not in used and (kid := node.child(edge)) is not None:
                    grow(nid, kid, used + (edge.rule_id,), path)

    grow(-1, eq if isinstance(eq, Node) else Node(eq), (), ())
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
