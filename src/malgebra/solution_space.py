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
from .misconceptions import Misconception, resolve_set, try_apply
from .reduction import apply_step, solve_t1, solved_equation
from .taxonomy import DEAD_END, ProblemType, SOLVED, classify, correct_successors

NODE_BUDGET = 100_000


@dataclass(frozen=True)
class TreeNode:
    id: int
    equation: Equation
    label: ProblemType | str


@dataclass(frozen=True)
class TreeEdge:
    parent: int
    child: int
    kind: str  # "correct" | "misconception" | "solve"
    edge_id: str


@dataclass(frozen=True)
class Leaf:
    node_id: int
    answer: Fraction | None
    dead_end: str | None
    misconceptions: tuple[str, ...]
    equations: tuple[str, ...]  # printed states from the root to this leaf


@dataclass(frozen=True)
class SolutionTree:
    root: int
    nodes: tuple[TreeNode, ...]
    edges: tuple[TreeEdge, ...]
    leaves: tuple[Leaf, ...]


class _Builder:
    def __init__(self, budget: int):
        self.budget = budget
        self.nodes: list[TreeNode] = []
        self.edges: list[TreeEdge] = []
        self.leaves: list[Leaf] = []

    def add_node(self, equation: Equation, label: ProblemType | str) -> int:
        if len(self.nodes) >= self.budget:
            raise BudgetExceededError(
                f"solution tree exceeded the {self.budget}-node budget"
            )
        nid = len(self.nodes)
        self.nodes.append(TreeNode(nid, equation, label))
        return nid


def enumerate_tree(
    eq: Equation,
    ms: list[Misconception | str],
    max_misconceptions_per_path: int = 1,
    node_budget: int = NODE_BUDGET,
) -> SolutionTree:
    """Build the full solution tree with at most the given number of
    misconception steps per path.  Children are ordered correct-edges-first,
    then by position in ``ms``."""
    mals = resolve_set(ms)
    cap = max_misconceptions_per_path
    b = _Builder(node_budget)

    def walk(node_id: int, state: Equation, label: ProblemType | str,
             used: tuple[str, ...], lines: tuple[str, ...]) -> None:
        if label == SOLVED:
            value = state.rhs.value  # type: ignore[union-attr]
            b.leaves.append(Leaf(node_id, value, None, used, lines))
            return
        if label == DEAD_END:
            b.leaves.append(Leaf(node_id, None, "variable eliminated", used, lines))
            return
        assert isinstance(label, ProblemType)
        if label is ProblemType.T1:
            try:
                value = solve_t1(state)
            except ZeroCoefficientError:
                b.leaves.append(Leaf(node_id, None, "zero x coefficient", used, lines))
            else:
                solved = solved_equation(value)
                child = b.add_node(solved, SOLVED)
                b.edges.append(TreeEdge(node_id, child, "solve", "solve"))
                walk(child, solved, SOLVED, used, lines + (str(solved),))
        else:
            for target, rule_id in correct_successors(label):
                new_eq, new_t = apply_step(state, label, rule_id)
                child = b.add_node(new_eq, new_t)
                b.edges.append(TreeEdge(node_id, child, "correct", rule_id))
                walk(child, new_eq, new_t, used, lines + (str(new_eq),))
        if len(used) >= cap:
            return
        for m in mals:
            if m.id in used:
                continue
            res = try_apply(m, state, label) if isinstance(label, ProblemType) else None
            if res is None:
                continue
            new_eq, new_label = res
            child = b.add_node(new_eq, new_label)
            b.edges.append(TreeEdge(node_id, child, "misconception", m.id))
            walk(child, new_eq, new_label, used + (m.id,), lines + (str(new_eq),))

    t0 = classify(eq)
    root = b.add_node(eq, t0)
    walk(root, eq, t0, (), (str(eq),))
    return SolutionTree(root, tuple(b.nodes), tuple(b.edges), tuple(b.leaves))


def leaf_answers(tree: SolutionTree) -> list[tuple[Fraction | None, tuple[str, ...]]]:
    """(answer, misconception ids) per leaf in deterministic tree order.
    Dead-end leaves report answer None."""
    return [(leaf.answer, leaf.misconceptions) for leaf in tree.leaves]


def to_json_dict(tree: SolutionTree) -> dict:
    return {
        "root": tree.root,
        "nodes": [
            {
                "id": n.id,
                "equation": str(n.equation),
                "label": n.label.name if isinstance(n.label, ProblemType) else n.label,
            }
            for n in tree.nodes
        ],
        "edges": [
            {"parent": e.parent, "child": e.child, "kind": e.kind, "id": e.edge_id}
            for e in tree.edges
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
    for n in tree.nodes:
        label = n.label.name if isinstance(n.label, ProblemType) else n.label
        text = str(n.equation).replace('"', '\\"')
        out.append(f'  n{n.id} [label="{label}: {text}"];')
    for e in tree.edges:
        if e.kind == "misconception":
            out.append(f'  n{e.parent} -> n{e.child} [style=dashed, color=red, label="{e.edge_id}"];')
        elif e.kind == "solve":
            out.append(f'  n{e.parent} -> n{e.child} [label="solve"];')
        else:
            out.append(f'  n{e.parent} -> n{e.child} [label="{e.edge_id}"];')
    out.append("}")
    return "\n".join(out)
