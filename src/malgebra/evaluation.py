"""Scoring of externally produced transcripts against the engine oracles.

Accuracies are kept as exact fractions on a 0-100 scale.  The four
aggregates (MA, CA_A, CA_NA, OCA) are means of per-type accuracies over the
misconception's applicable set, its complement, and the full taxonomy; a
batch that misses a type renders every aggregate over that type undefined
rather than silently skewed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path

from .equations import Const, XTerm, closed_form_solution, parse_equation, parse_number
from .errors import EmptyBatchError, EngineError, SchemaError, decode_json_object, read_input
from .misconceptions import CATALOG, RULE_EDGE, Misconception, Node, get_misconception, steps, walk
from .reduction import fired
from .solution_space import leaf_paths
from .taxonomy import ORDERED_TYPES, reachable

GRADE_CORRECT = "correct"
GRADE_MATCH = "misconception-match"
GRADE_OTHER = "other"

DEFAULT_THETA = Fraction(90)

# how many partial explanations ``diagnose`` lists when none is full
MAX_CANDIDATES = 5


@dataclass(frozen=True)
class Transcript:
    problem_type: str
    equation: str
    model_answer: str
    model_steps: tuple[str, ...] | None = None


class TranscriptError(SchemaError):
    """Transcript cannot be interpreted; counts as 'other' in batch mode."""


def transcript_from_dict(data: dict) -> Transcript:
    try:
        problem_type, equation = data["problem_type"], data["equation"]
        model_answer = str(data["model_answer"])
    except KeyError as exc:
        raise SchemaError(f"transcript missing field {exc}") from None
    steps = data.get("model_steps")
    for name, value in (("problem_type", problem_type), ("equation", equation)):
        if not isinstance(value, str):
            raise SchemaError(f"transcript field '{name}' must be a string")
    if steps is not None and not (
        isinstance(steps, list) and all(isinstance(x, str) for x in steps)
    ):
        raise SchemaError("transcript field 'model_steps' must be null or a list of strings")
    steps = None if steps is None else tuple(steps)
    return Transcript(problem_type, equation, model_answer, steps)


def load_transcripts(path: str | Path) -> list[Transcript]:
    out = []
    # lines end at "\n" only: JSON allows U+2028 and the like raw in a string
    for lineno, line in enumerate(read_input(path, "transcripts").split("\n"), 1):
        if not line.strip():
            continue
        try:
            out.append(transcript_from_dict(decode_json_object(line)))
        except SchemaError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
    return out


def parse_answer(text: str) -> Fraction | str:
    """An answer is a rational, an ``x = value`` form, or (for dead-end
    transcripts) a full equation, returned as the engine prints it;
    formatting never affects comparison."""
    if "=" in text:
        try:
            eq = parse_equation(text)
        except EngineError as exc:
            raise TranscriptError(f"unparsable answer {text!r}") from exc
        if eq.lhs == XTerm(Fraction(1)) and isinstance(eq.rhs, Const):
            return eq.rhs.value
        return str(eq)
    try:
        return parse_number(text)
    except ValueError as exc:
        raise TranscriptError(f"unparsable answer {text!r}") from exc


def _typed_root(problem_type: str, equation: str) -> Node:
    """The equation text of a transcript or a dataset record, parsed and
    typed, as a walk state.  Raises ``SchemaError`` when the item claims
    another ``problem_type``; its caller names the item."""
    root = Node(parse_equation(equation))
    if root.label.name != problem_type:
        raise SchemaError(f"claims {problem_type} for a {root.label.name} equation: {equation}")
    return root


def _printed_steps(transcript: Transcript) -> list[str]:
    """The model's steps, each parsed and printed as the engine prints its
    lines, so that a step matches an engine line exactly when it equals it."""
    return [str(parse_equation(s)) for s in transcript.model_steps]


def _replays_correct(model: list[str] | None, root: Node) -> bool:
    """Whether the printed steps replay the correct walk from ``root``: they
    equal its lines, or its lines less a last line that repeats the line
    before it (a state printed ``x = c`` is solved to that same line).  Only
    ``grade``'s correct branch and ``diagnose``'s early ``[]`` read the steps
    so; a misconception path, ``_read`` and ``verify`` compare every line."""
    lines = walk(root, ()).equation_lines()
    return model == lines or lines[-1] == lines[-2] and model == lines[:-1]


def _mal_outcomes(
    root: Node, m: Misconception, correct: Fraction
) -> list[tuple[Fraction | str, tuple[Node, ...]]]:
    """Each terminal that a path of correct steps and one firing of ``m``
    reaches from ``root``, depth first, with its outcome (a dead end's line,
    or an answer other than ``correct``) and its states: ``leaf_paths`` solving
    only after ``m`` fired (only a solve or ``m`` ends a path), less a zero coefficient."""
    return [(path[-1].line if dead_end else answer, path)
            for answer, dead_end, _, path in leaf_paths(root, (RULE_EDGE[m.id],), 1, True)
            if dead_end != "zero x coefficient" and answer != correct]


def grade(
    transcript: Transcript,
    m: Misconception | str | None = None,
    mode: str = "answer",
) -> str:
    """Classify one transcript as correct, misconception-match, or other.

    ``answer`` mode compares final answers as exact rationals;
    ``steps`` mode additionally requires the step sequence to replay the
    corresponding engine trace line for line (``_replays_correct`` for a
    right answer).  A wrong answer matches ``m`` when some path of correct
    steps and one firing of ``m`` ends at a terminal whose outcome is the
    answer and, in ``steps`` mode, whose lines are the steps; only such
    paths are searched (``_mal_outcomes``).  A transcript whose equation is
    of another type than it claims raises ``SchemaError``.
    """
    if mode not in ("answer", "steps"):
        raise SchemaError(f"unknown grading mode {mode!r}")
    m = None if m is None else get_misconception(m)
    try:
        # _typed_root's SchemaError passes the except below
        root = _typed_root(transcript.problem_type, transcript.equation)
        answer = parse_answer(transcript.model_answer)
        correct = closed_form_solution(root.equation)
    except (EngineError, TranscriptError) as exc:
        raise TranscriptError(str(exc)) from None

    model = None
    if mode == "steps" and transcript.model_steps is not None:
        try:
            model = _printed_steps(transcript)
        except EngineError:
            pass  # an unparsable step replays no trace

    if answer == correct:
        if mode == "answer" or _replays_correct(model, root):
            return GRADE_CORRECT
        return GRADE_OTHER
    if m is not None:
        for end, path in _mal_outcomes(root, m, correct):
            if answer == end and (mode == "answer" or model == [node.line for node in path]):
                return GRADE_MATCH
    return GRADE_OTHER


# ---------------------------------------------------------------------------
# Batch scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    misconception_id: str
    per_type_correct: dict[str, Fraction | None]
    per_type_misconception: dict[str, Fraction | None]
    ma: Fraction | None
    ca_a: Fraction | None
    ca_na: Fraction | None
    oca: Fraction | None
    theta_m: Fraction
    theta_c: Fraction
    absent_types: tuple[str, ...]
    counts: dict[str, dict[str, int]]

    @property
    def property_1(self) -> bool | None:
        """Replicates the misconception where it applies: MA >= theta_m."""
        if self.ma is None:
            return None
        return self.ma >= self.theta_m

    @property
    def property_2(self) -> bool | None:
        """Solves correctly where it does not apply: CA_NA >= theta_c."""
        if self.ca_na is None:
            return None
        return self.ca_na >= self.theta_c

    @property
    def is_csm(self) -> bool | None:
        if self.property_1 is None or self.property_2 is None:
            return None
        return self.property_1 and self.property_2

    def to_dict(self) -> dict:
        pct = lambda v: None if v is None else float(v)
        return {
            "misconception": self.misconception_id,
            "MA": pct(self.ma),
            "CA_A": pct(self.ca_a),
            "CA_NA": pct(self.ca_na),
            "OCA": pct(self.oca),
            "theta_m": float(self.theta_m),
            "theta_c": float(self.theta_c),
            "property_1": self.property_1,
            "property_2": self.property_2,
            "is_csm": self.is_csm,
            "absent_types": list(self.absent_types),
            "per_type": {
                t: {
                    "CA": pct(self.per_type_correct[t]),
                    "MA": pct(self.per_type_misconception[t]),
                    "n": self.counts[t]["n"],
                }
                for t in sorted(self.counts)
            },
        }

    def render_text(self) -> str:
        fmt = lambda v: "undefined" if v is None else f"{float(v):.2f}"
        mark = lambda v: "?" if v is None else ("yes" if v else "no")
        lines = [
            f"misconception: {self.misconception_id}",
            f"MA    = {fmt(self.ma)}",
            f"CA_A  = {fmt(self.ca_a)}",
            f"CA_NA = {fmt(self.ca_na)}",
            f"OCA   = {fmt(self.oca)}",
            f"property 1 (MA >= {float(self.theta_m):g}): {mark(self.property_1)}",
            f"property 2 (CA_NA >= {float(self.theta_c):g}): {mark(self.property_2)}",
            f"cognitive student model: {mark(self.is_csm)}",
        ]
        if self.absent_types:
            lines.append(f"absent types: {', '.join(self.absent_types)}")
        return "\n".join(lines)


def _mean(values: list[Fraction | None]) -> Fraction | None:
    if not values or any(v is None for v in values):
        return None
    return sum(values, Fraction(0)) / len(values)


def score(
    transcripts: list[Transcript],
    m: Misconception | str,
    mode: str = "answer",
    theta_m: Fraction = DEFAULT_THETA,
    theta_c: Fraction = DEFAULT_THETA,
) -> MetricsReport:
    """Aggregate per-type accuracies into MA, CA_A, CA_NA, OCA and the
    two-property verdict at the given thresholds.  A transcript of an unknown
    type, or one whose ``grade`` raises other than ``TranscriptError``, stops
    the batch with an error naming its index in ``transcripts``."""
    if not transcripts:
        raise EmptyBatchError("no transcripts to score")
    m = get_misconception(m)
    counts: dict[str, dict[str, int]] = {
        t.name: {"n": 0, "correct": 0, "match": 0, "other": 0} for t in ORDERED_TYPES
    }
    for i, tr in enumerate(transcripts):
        try:
            if tr.problem_type not in counts:
                raise SchemaError(f"unknown problem type {tr.problem_type!r}")
            g = grade(tr, m, mode)
        except TranscriptError:
            g = GRADE_OTHER
        except SchemaError as exc:
            raise SchemaError(f"transcript {i}: {exc}") from None
        except EngineError as exc:
            raise EngineError(f"transcript {i}: {exc}") from None
        slot = counts[tr.problem_type]
        slot["n"] += 1
        slot["correct" if g == GRADE_CORRECT else "match" if g == GRADE_MATCH else "other"] += 1

    ca: dict[str, Fraction | None] = {}
    ma: dict[str, Fraction | None] = {}
    for t in ORDERED_TYPES:
        slot = counts[t.name]
        if slot["n"] == 0:
            ca[t.name] = None
            ma[t.name] = None
        else:
            ca[t.name] = Fraction(100) * Fraction(slot["correct"], slot["n"])
            ma[t.name] = Fraction(100) * Fraction(slot["match"], slot["n"])

    alpha = [t for t in ORDERED_TYPES if t in m.applicable_types]
    non_alpha = [t for t in ORDERED_TYPES if t not in m.applicable_types]
    report = MetricsReport(
        misconception_id=m.id,
        per_type_correct=ca,
        per_type_misconception=ma,
        ma=_mean([ma[t.name] for t in alpha]),
        ca_a=_mean([ca[t.name] for t in alpha]),
        ca_na=_mean([ca[t.name] for t in non_alpha]) if non_alpha else None,
        oca=_mean([ca[t.name] for t in ORDERED_TYPES]),
        theta_m=Fraction(theta_m),
        theta_c=Fraction(theta_c),
        absent_types=tuple(t.name for t in ORDERED_TYPES if counts[t.name]["n"] == 0),
        counts=counts,
    )
    return report


# ---------------------------------------------------------------------------
# Diagnosis: which misconception explains a transcript?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnosis:
    misconceptions: tuple[str, ...]
    quality: str  # "full" or "prefix <k>/<n>"
    matched: int
    trace_length: int


def _read(
    root: Node, ms: tuple[Misconception, ...], model: list[str], need: int
) -> tuple[Diagnosis | None, Node | None]:
    """Read the walk of ``ms`` from ``root`` once, counting its leading lines
    that equal the model's steps.  Gives ``(None, None)`` at an engine error,
    or where fewer than ``need`` lines agree and the model has steps left:
    at the first line that differs, or at the walk's end.  Otherwise gives
    the set's diagnosis, None when the walk did not use exactly ``ms`` in
    order, and the walk's last state."""
    path, k = [], 0
    try:
        for node in chain((root,), steps(root, ms)):
            if k == len(path) < len(model):
                if node.line == model[k]:
                    k += 1
                elif k < need:
                    return None, None
            path.append(node)
    except EngineError:
        return None, None
    if k < min(need, len(model)):
        return None, None
    ids, n = tuple(m.id for m in ms), len(path)
    if fired(path) != ids:
        return None, path[-1]
    return Diagnosis(ids, "full" if k == len(model) == n else f"prefix {k}/{n}", k, n), path[-1]


def diagnose(transcript: Transcript) -> list[Diagnosis]:
    """Rank misconception sets (size <= 2) by how well their traces replay
    the transcript's steps: longest exact prefix first, then fewest
    misconceptions.  Empty when the steps replay the correct walk
    (``_replays_correct``).  A transcript whose equation is of another type
    than it claims raises ``SchemaError``.

    A set's trace is its walk, the one ``reduce_with_misconceptions(eq, ms)``
    takes; a set whose walk raises, or does not use exactly its rules in
    order, has no trace.  All walks start from one root, so a state or a
    rule attempt shared by several sets is computed once.

    One reader, ``_read``, takes a candidate's walk in one pass: to its end
    only where the end can change the result, elsewhere only as far as the
    steps agree with it.  Only a single that agrees on every step can be
    full, so the singles are read that far first, and a full one ends the
    search.  Otherwise every single is read to its end, and a pair only
    when it agrees on every step or on more than ``floor`` lines: the
    ``MAX_CANDIDATES``-th largest ``matched`` among the singles with
    ``matched > 0``, or 0 when there are fewer.  This is exact.  Ranking
    sorts by ``(-matched, len)`` and the sort is stable, so a pair that is
    not full and matches ``k <= floor`` lines comes after at least
    ``MAX_CANDIDATES`` singles and can appear in no output; a pair without a
    trace is no candidate either way.
    """
    if not transcript.model_steps:  # an empty list of steps agrees with every walk
        raise SchemaError("diagnosis needs model_steps")
    root = _typed_root(transcript.problem_type, transcript.equation)
    model = _printed_steps(transcript)
    if _replays_correct(model, root):
        return []

    reach = reachable(root.label)
    relevant = [m for m in CATALOG if m.applicable_types & reach]
    full_singles = [
        d for m in relevant
        if (d := _read(root, (m,), model, len(model))[0]) is not None and d.quality == "full"
    ]
    if full_singles:
        return full_singles

    singles, leaders = [], []
    for m in relevant:
        d, last = _read(root, (m,), model, 0)
        if d is not None:
            singles.append(d)
        # a pair's walk follows m's single walk until m fires (m2 firing
        # first breaks the order), so a walk that ends without m, or with
        # m's own step, leaves m no pair
        if last is None or d is not None and last.via.rule_id != m.id:
            leaders.append(m)
    cap = MAX_CANDIDATES
    tops = sorted((d.matched for d in singles if d.matched > 0), reverse=True)
    floor = tops[cap - 1] if 0 < cap <= len(tops) else 0
    pairs = [
        d
        for m1 in leaders
        for m2 in relevant if m2 is not m1
        if (d := _read(root, (m1, m2), model, floor + 1)[0]) is not None
    ]
    ranked = sorted(
        singles + pairs,
        key=lambda d: (-d.matched, len(d.misconceptions)),
    )
    full = [d for d in ranked if d.quality == "full"]
    if full:
        return full
    return [d for d in ranked if d.matched > 0][:cap]
