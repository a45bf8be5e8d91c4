"""Misconception-aware algebra engine for one-variable linear equations.

The package models equation solving as traversal of a typed graph whose
nodes are structural problem types and whose edges are either correct
single-step reductions or cataloged misconception rewrites.  On top of the
engine sit a solution-space enumerator, a seeded dataset generator, and a
transcript scorer/diagnoser.
"""

__version__ = "0.1.0"

from .equations import (
    Equation,
    closed_form_solution,
    evaluate_sides,
    parse_equation,
    render,
)
from .taxonomy import (
    ProblemType,
    classify,
    correct_successors,
)
from .reduction import ReductionTrace, reduce, reduce_step, solve_terminal
from .misconceptions import (
    CATALOG,
    Misconception,
    apply_misconception,
    get_misconception,
    reduce_with_misconceptions,
)
from .solution_space import SolutionTree, enumerate_tree, leaf_answers
from .datasets import (
    DatasetConfig,
    InstanceSampler,
    generate,
    sample_for_misconception,
    sample_instance,
    verify_dataset,
)
from .evaluation import MetricsReport, Transcript, diagnose, grade, score

__all__ = [
    "CATALOG",
    "DatasetConfig",
    "Equation",
    "InstanceSampler",
    "MetricsReport",
    "Misconception",
    "ProblemType",
    "ReductionTrace",
    "SolutionTree",
    "Transcript",
    "apply_misconception",
    "classify",
    "closed_form_solution",
    "correct_successors",
    "diagnose",
    "enumerate_tree",
    "evaluate_sides",
    "generate",
    "get_misconception",
    "grade",
    "leaf_answers",
    "parse_equation",
    "reduce",
    "reduce_step",
    "reduce_with_misconceptions",
    "render",
    "sample_for_misconception",
    "sample_instance",
    "score",
    "solve_terminal",
    "verify_dataset",
]
