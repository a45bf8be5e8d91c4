"""Exception hierarchy shared across the engine.

``EngineError`` covers domain failures (degenerate equations, rules that do
not apply, sampling dead ends).  Input-format problems raise ``SchemaError``
subclasses instead so callers can map them to a different exit code;
``read_input`` is the one reader of input files, ``read_lines`` the one
splitter of a JSON-lines file, and ``decode_json_object`` the one decoder of
external JSON; each raises it.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate
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


# explicit bounds on external JSON, checked before the decoder recurses or
# converts: a dataset or transcript line nests two deep and a config one, and
# 100 characters hold a 256-bit seed (78 digits) and any numeric answer the
# answer grammar reads (two 20-digit runs and a sign)
MAX_JSON_DEPTH = 16
MAX_JSON_NUMERAL = 100  # characters, sign, point and exponent included


def _bounded(numeral: str) -> str:
    if len(numeral) > MAX_JSON_NUMERAL:
        raise SchemaError(f"JSON numeral longer than {MAX_JSON_NUMERAL} characters")
    return numeral


_DECODER = json.JSONDecoder(parse_int=lambda s: int(_bounded(s)),
                            parse_float=lambda s: float(_bounded(s)))
_JSON_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[][{}]', re.DOTALL)  # a string or a bracket
_NESTING = {"[": 1, "{": 1, "]": -1, "}": -1}


def _depth(text: str) -> int:
    """How deep ``text`` nests arrays and objects outside its strings: on any
    prefix that the decoder reads as JSON, the depth it recurses to."""
    tokens = _JSON_TOKEN.finditer(text)
    return max(accumulate((_NESTING.get(t.group(), 0) for t in tokens), initial=0))


def decode_json_object(text: str) -> dict:
    """The JSON object in ``text`` (a dataset or transcript line, a config
    file).  Any failure raises ``SchemaError``, including nesting deeper than
    ``MAX_JSON_DEPTH`` and a numeral longer than ``MAX_JSON_NUMERAL``."""
    if text.count("[") + text.count("{") > MAX_JSON_DEPTH and _depth(text) > MAX_JSON_DEPTH:
        raise SchemaError(f"JSON nested deeper than {MAX_JSON_DEPTH}")
    try:
        if text.startswith("\ufeff"):  # the error json.loads raises
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _DECODER.decode(text)
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise SchemaError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError("not a JSON object")
    return data


# the largest input file read, in bytes: 200,000 lines (``MAX_RECORDS``, the
# most records one gen config writes) of 8 KiB each, so every file gen writes
# passes.  The longest line measured is 5,578 bytes with its newline: every
# rule at coefficients of up to +/-(10**20 - 1), under the longest seed that
# ``--seed`` takes (a sign and 4,300 digits, the interpreter's default limit),
# which alone is 4,301 of those bytes
MAX_INPUT_BYTES = 200_000 * 8192
_CHUNK = 1 << 20


def read_input(path: str | Path, what: str) -> str:
    """The UTF-8 text of the input file ``path``, a ``what`` such as "dataset",
    with its line ends as written (a lone carriage return may be JSON
    whitespace); any failure to read it raises ``SchemaError`` naming the path,
    as does a file longer than ``MAX_INPUT_BYTES``.  It reads in chunks up to
    one byte past the bound, so a pipe is bounded too and no buffer of the
    bound's size is made up front."""
    try:
        with Path(path).open("rb") as f:
            data = bytearray()
            while chunk := f.read(min(_CHUNK, MAX_INPUT_BYTES + 1 - len(data))):
                data += chunk
        if len(data) > MAX_INPUT_BYTES:
            raise SchemaError(f"{what} {path} is longer than {MAX_INPUT_BYTES} bytes")
        return data.decode("utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise SchemaError(f"cannot read {what} {path}: {exc}") from None


def read_lines(path: str | Path, what: str) -> list[str]:
    """The lines of the JSON-lines file ``path`` (``read_input``): they end at
    a line feed only, because JSON allows U+2028 and the like raw in a string."""
    return read_input(path, what).split("\n")
