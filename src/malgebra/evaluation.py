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
from pathlib import Path

from .equations import Const, Equation, XTerm, closed_form_solution, parse_equation, parse_number
from .errors import EmptyBatchError, EngineError, SchemaError, decode_json_object, read_input
from .misconceptions import CATALOG, Misconception, Node, get_misconception, walk
from .reduction import ReductionTrace, reduce
from .solution_space import enumerate_tree
from .taxonomy import ORDERED_TYPES, ProblemType, classify, reachable

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
    for lineno, line in enumerate(read_input(path, "transcripts").splitlines(), 1):
        if not line.strip():
            continue
        try:
            out.append(transcript_from_dict(decode_json_object(line)))
        except SchemaError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
    return out


def parse_answer(text: str) -> Fraction | Equation:
    """An answer is a rational, an ``x = value`` form, or (for dead-end
    transcripts) a full equation; formatting never affects comparison."""
    if "=" in text:
        try:
            eq = parse_equation(text)
        except EngineError as exc:
            raise TranscriptError(f"unparsable answer {text!r}") from exc
        if eq.lhs == XTerm(Fraction(1)) and isinstance(eq.rhs, Const):
            return eq.rhs.value
        return eq
    try:
        return parse_number(text)
    except ValueError as exc:
        raise TranscriptError(f"unparsable answer {text!r}") from exc


def _typed_equation(transcript: Transcript) -> tuple[Equation, ProblemType]:
    """The transcript's equation, parsed, and its type.  Raises
    ``SchemaError`` when the transcript claims another type."""
    eq = parse_equation(transcript.equation)
    t = classify(eq)
    if t.name != transcript.problem_type:
        raise SchemaError(f"transcript claims {transcript.problem_type} for a {t.name} "
                          f"equation: {transcript.equation}")
    return eq, t


def _mal_outcomes(
    eq: Equation, m: Misconception, correct: Fraction
) -> list[tuple[Fraction | Equation, tuple[str, ...]]]:
    """Every terminal reachable with exactly one firing of ``m``, paired with
    its step lines; outcomes equal to ``correct``, the answer, are excluded."""
    tree = enumerate_tree(eq, [m], max_misconceptions_per_path=1)
    out = []
    for leaf in tree.leaves:
        if leaf.misconceptions != (m.id,):
            continue
        if leaf.dead_end == "variable eliminated":
            out.append((parse_equation(leaf.equations[-1]), leaf.equations))
        elif leaf.answer is not None and leaf.answer != correct:
            out.append((leaf.answer, leaf.equations))
    return out


def grade(
    transcript: Transcript,
    m: Misconception | str | None = None,
    mode: str = "answer",
) -> str:
    """Classify one transcript as correct, misconception-match, or other.

    ``answer`` mode compares final answers as exact rationals;
    ``steps`` mode additionally requires the step sequence to replay the
    corresponding engine trace line for line.  A transcript whose equation
    is of another type than it claims raises ``SchemaError``.
    """
    if mode not in ("answer", "steps"):
        raise SchemaError(f"unknown grading mode {mode!r}")
    m = None if m is None else get_misconception(m)
    try:
        eq, _ = _typed_equation(transcript)  # its SchemaError passes the except below
        answer = parse_answer(transcript.model_answer)
        correct = closed_form_solution(eq)
    except (EngineError, TranscriptError) as exc:
        raise TranscriptError(str(exc)) from None

    model = None
    if mode == "steps" and transcript.model_steps is not None:
        try:
            model = [parse_equation(s) for s in transcript.model_steps]
        except EngineError:
            pass  # an unparsable step replays no trace
    parsed = {} if model is None else dict(zip(transcript.model_steps, model))

    def replays(lines: list[str]) -> bool:
        return model is not None and len(model) == len(lines) == _prefix_len(model, lines, parsed)

    if answer == correct:
        if mode == "answer" or replays(reduce(eq).equation_lines()):
            return GRADE_CORRECT
        return GRADE_OTHER
    if m is not None:
        for outcome, lines in _mal_outcomes(eq, m, correct):
            if answer == outcome and (mode == "answer" or replays(list(lines))):
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
    two-property verdict at the given thresholds."""
    if not transcripts:
        raise EmptyBatchError("no transcripts to score")
    m = get_misconception(m)
    counts: dict[str, dict[str, int]] = {
        t.name: {"n": 0, "correct": 0, "match": 0, "other": 0} for t in ORDERED_TYPES
    }
    for tr in transcripts:
        if tr.problem_type not in counts:
            raise SchemaError(f"unknown problem type {tr.problem_type!r}")
        try:
            g = grade(tr, m, mode)
        except TranscriptError:
            g = GRADE_OTHER
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


def _prefix_len(
    model: list[Equation], lines: list[str], parsed: dict[str, Equation | None]
) -> int:
    """How many leading ``lines`` parse to the model's steps.  ``parsed``
    holds each line's parse by its text, None where parsing failed; a line
    is compared as parsed, never as the state it was rendered from."""
    n = 0
    for got, want in zip(model, lines):
        if want not in parsed:
            try:
                parsed[want] = parse_equation(want)
            except EngineError:
                parsed[want] = None
        if got != parsed[want]:
            break
        n += 1
    return n


def diagnose(transcript: Transcript) -> list[Diagnosis]:
    """Rank misconception sets (size <= 2) by how well their traces replay
    the transcript's steps: longest exact prefix first, then fewest
    misconceptions.  Empty when the all-correct trace matches fully.  A
    transcript whose equation is of another type than it claims raises
    ``SchemaError``.

    A set's trace is its walk, the one ``reduce_with_misconceptions(eq, ms)``
    takes; a set whose walk raises, or does not use exactly its rules in
    order, has no trace.  All walks start from one root, so a state or a
    rule attempt shared by several sets is computed once.
    """
    if transcript.model_steps is None:
        raise SchemaError("diagnosis needs model_steps")
    root = Node(*_typed_equation(transcript))
    model = [parse_equation(s) for s in transcript.model_steps]
    parsed: dict[str, Equation | None] = dict(zip(transcript.model_steps, model))

    correct_lines = walk(root, ()).equation_lines()
    if _prefix_len(model, correct_lines, parsed) == len(model) == len(correct_lines):
        return []

    def run(ms: tuple[Misconception, ...]) -> tuple[ReductionTrace | None, Diagnosis | None]:
        try:
            trace = walk(root, ms)
        except EngineError:
            return None, None
        ids = tuple(m.id for m in ms)
        if trace.misconceptions_used != ids:
            return trace, None
        lines = trace.equation_lines()
        k = _prefix_len(model, lines, parsed)
        quality = "full" if k == len(model) == len(lines) else f"prefix {k}/{len(lines)}"
        return trace, Diagnosis(ids, quality, k, len(lines))

    reach = reachable(root.label)
    relevant = [m for m in CATALOG if m.applicable_types & reach]
    singles, leaders = [], []
    for m in relevant:
        trace, d = run((m,))
        if d is not None:
            singles.append(d)
        # a pair's walk follows m's single walk until m fires (m2 firing
        # first breaks the order), so a walk that ends without m, or with
        # m's own step, leaves m no pair
        if trace is None or d is not None and trace.steps[-1].via.rule_id != m.id:
            leaders.append(m)
    full_singles = [d for d in singles if d.quality == "full"]
    if full_singles:
        return full_singles

    pairs = [
        d
        for m1 in leaders
        for m2 in relevant if m2 is not m1
        if (d := run((m1, m2))[1]) is not None
    ]
    ranked = sorted(
        singles + pairs,
        key=lambda d: (-d.matched, len(d.misconceptions)),
    )
    full = [d for d in ranked if d.quality == "full"]
    if full:
        return full
    return [d for d in ranked if d.matched > 0][:MAX_CANDIDATES]
