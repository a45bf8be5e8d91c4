"""Exception hierarchy shared across the engine.

``EngineError`` covers domain failures (degenerate equations, rules that do
not apply, sampling dead ends).  Input-format problems raise ``SchemaError``
subclasses instead so callers can map them to a different exit code;
``read_input`` is the one reader of input files and ``decode_json_object``
the one decoder of external JSON, and both raise it.
"""

from __future__ import annotations

import json
from pathlib import Path


class EngineError(Exception):
    """Base class for domain-level failures."""


class ParseError(EngineError):
    """Input text does not conform to the equation grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MultipleVariableError(ParseError):
    """A letter other than the single supported unknown appeared."""


class NonlinearEquationError(EngineError):
    """The parsed equation has degree greater than one in the unknown."""


class NoUniqueSolutionError(EngineError):
    """The equation has zero slope in the unknown: no unique root exists."""


class UnclassifiableFormError(EngineError):
    """No problem-type pattern matches the equation's structure."""


class RuleNotApplicableError(EngineError):
    """A reduction rule was requested on a type it has no edge for."""


class ZeroCoefficientError(EngineError):
    """The solve step was reached with a zero coefficient on the unknown."""


class NonterminationError(EngineError):
    """A reduction walk exceeded its step guard."""


class MisconceptionNotApplicableError(EngineError):
    """A misconception was applied to a type or instance it cannot match."""


class UnclassifiableResultError(EngineError):
    """A rewrite produced a form outside the taxonomy that could not be
    normalized back into it."""


class BudgetExceededError(EngineError):
    """Solution-space enumeration exceeded its node budget."""


class SamplingExhaustedError(EngineError):
    """Instance sampling failed to find an acceptable draw within its
    attempt budget."""


class SchemaError(Exception):
    """Malformed external input (config files, dataset lines, transcripts)."""


class EmptyBatchError(Exception):
    """An operation that needs at least one input record received none."""


def decode_json_object(text: str) -> dict:
    """The JSON object in ``text`` (a dataset or transcript line, a config
    file).  Any failure raises ``SchemaError``, including nesting past the
    recursion limit and integers past the int digit limit."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError("not a JSON object")
    return data


def read_input(path: str | Path, what: str) -> str:
    """The UTF-8 text of the input file ``path``, a ``what`` such as "dataset",
    with its line ends as written (a lone carriage return may be JSON
    whitespace); any failure to read it raises ``SchemaError`` naming the path."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise SchemaError(f"cannot read {what} {path}: {exc}") from None
