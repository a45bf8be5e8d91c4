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
from typing import Sequence

from .equations import Const, XTerm, closed_form_solution, parse_equation, parse_number
from .errors import EmptyBatchError, EngineError, SchemaError, decode_json_object, read_lines
from . import misconceptions
from .misconceptions import CATALOG, Misconception, Node, get_misconception, steps, walk
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
    for lineno, line in enumerate(read_lines(path, "transcripts"), 1):
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


def _printed_steps(transcript: Transcript, printed: dict[str, str] | None = None) -> list[str]:
    """The model's steps, each parsed and printed as the engine prints its
    lines, so that a step matches an engine line exactly when it equals it.
    ``printed`` keeps each step text's printed form, across a batch when the
    batch passes one; a step that fails to parse is not kept, and raises
    again wherever it is written."""
    printed = {} if printed is None else printed
    for s in transcript.model_steps:
        if s not in printed:
            printed[s] = str(parse_equation(s))
    return [printed[s] for s in transcript.model_steps]


def _writes_correct(root: Node, model: list[str] | None) -> bool:
    """Whether the printed steps write some correct path from ``root``: the
    path search guided by them finds one.  The walk runs first and raises
    where ``root`` does not solve; every correct path ends on its solved
    line, so only steps that end there are searched."""
    solved = walk(root, ()).steps[-1].line
    return bool(model) and model[-1] == solved and any(leaf_paths(root, (), 0, False, model))


def _mal_outcomes(root: Node, m: Misconception, correct: Fraction,
                  model: list[str] | None) -> list[tuple[Fraction | str, tuple[Node, ...]]]:
    """Each terminal that a path of correct steps and one firing of ``m``
    reaches from ``root``, depth first, with its outcome (a dead end's line,
    or an answer other than ``correct``) and its states: ``leaf_paths``
    solving only after ``m`` fired, guided by ``model`` when given."""
    return [(path[-1].line if dead_end else answer, path)
            for answer, dead_end, _, path in leaf_paths(root, (m,), 1, True, model)
            if dead_end != "zero x coefficient" and answer != correct]


def grade(
    transcript: Transcript,
    m: Misconception | str | None = None,
    mode: str = "answer",
) -> str:
    """Classify one transcript as correct, misconception-match, or other.

    ``answer`` mode compares final answers as exact rationals; ``steps``
    mode also requires the steps to write an engine path, the one rule of
    ``leaf_paths``' guided search: some correct path for a right answer
    (``_writes_correct``).  A wrong answer matches ``m`` when some path of
    correct steps and one firing of ``m`` ends at a terminal whose outcome
    is the answer and, in ``steps`` mode, which the steps write; only such
    paths are searched (``_mal_outcomes``).  No steps, or a step that does
    not parse, grades ``other`` in ``steps`` mode.  A transcript whose
    equation is of another type than it claims raises ``SchemaError``.
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
        if mode == "answer" or _writes_correct(root, model):
            return GRADE_CORRECT
        return GRADE_OTHER
    if m is not None and (mode == "answer" or model):
        for end, _ in _mal_outcomes(root, m, correct, model):
            if answer == end:
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

    # per type, the percentage graded by one key; undefined for an absent type
    share = lambda key: {t: Fraction(100 * slot[key], slot["n"]) if slot["n"] else None
                         for t, slot in counts.items()}
    ca, ma = share("correct"), share("match")

    alpha = [t for t in ORDERED_TYPES if t in m.applicable_types]
    non_alpha = [t for t in ORDERED_TYPES if t not in m.applicable_types]
    return MetricsReport(
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
    or where fewer than ``need`` lines agree: at the first line that
    differs, or at the walk's end.  Otherwise gives the set's prefix
    diagnosis, None when the walk did not use exactly ``ms`` in order, and
    its last state."""
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
    if k < need:
        return None, None
    ids, n = tuple(m.id for m in ms), len(path)
    if fired(path) != ids:
        return None, path[-1]
    return Diagnosis(ids, f"prefix {k}/{n}", k, n), path[-1]


def diagnose(transcript: Transcript) -> list[Diagnosis]:
    """The misconception sets (size <= 2) that explain the transcript's
    steps; empty when they write some correct path (``_writes_correct``,
    whose walk raises where the root does not solve).  An equation of
    another type than claimed raises ``SchemaError``.

    A set is ``full`` when the steps write a path of correct steps that fires
    exactly its rules in order, by the rule ``grade --mode steps`` matches
    by: the search of ``leaf_paths`` guided by the steps, for one rule, then
    for two if none is full, a path longer than the walk's step guard left
    out.  Full sets come in catalog order (a pair by its first rule).

    Otherwise sets are ranked by how far their walks (the one
    ``reduce_with_misconceptions(eq, ms)`` takes) replay the steps: longest
    exact prefix first, then fewest misconceptions, at most
    ``MAX_CANDIDATES``.  A walk that raises, or does not use exactly its
    rules in order, is no candidate.  One reader, ``_read``, takes each walk
    in one pass, only as far as can change the result: every single to its
    end, and a pair only while it can agree on more than ``floor`` lines,
    the ``MAX_CANDIDATES``-th largest ``matched`` among the singles with
    ``matched > 0`` (0 when there are fewer).  This is exact: the ranking's
    sort is stable, so a pair matching ``k <= floor`` lines comes after
    ``MAX_CANDIDATES`` singles.  All walks and searches grow one root,
    sharing every state and rule attempt; ``diagnose_all`` shares it across
    a batch's transcripts on one equation.
    """
    return _diagnosis(transcript, {}, {})


def diagnose_all(transcripts: Sequence[Transcript]) -> list[list[Diagnosis]]:
    """``diagnose`` of each transcript of a batch, in order.  Transcripts on
    one ``(problem_type, equation)`` share one typed root, and so every walk
    state and rule attempt their searches have in common, and each step text
    is parsed and printed once.  Both live only inside this call, and a root
    is dropped after its equation's last transcript, so a batch of distinct
    equations holds one root at a time.  A root or a step that raises is
    not kept, and raises again at each transcript that has it.

    The first transcript that raises stops the batch with an error naming
    its index in ``transcripts``, the index its output would carry; an empty
    batch raises ``EmptyBatchError``."""
    if not transcripts:
        raise EmptyBatchError("no transcripts to diagnose")
    keys = [(t.problem_type, t.equation) for t in transcripts]
    last = {key: i for i, key in enumerate(keys)}
    roots: dict[tuple[str, str], Node] = {}
    printed: dict[str, str] = {}
    out = []
    for i, (tr, key) in enumerate(zip(transcripts, keys)):
        try:
            out.append(_diagnosis(tr, roots, printed))
        except SchemaError as exc:
            raise SchemaError(f"transcript {i}: {exc}") from None
        except EngineError as exc:
            raise EngineError(f"transcript {i}: {exc}") from None
        if last[key] == i:
            del roots[key]
    return out


def _diagnosis(
    transcript: Transcript, roots: dict[tuple[str, str], Node], printed: dict[str, str]
) -> list[Diagnosis]:
    """``diagnose``, its typed root taken from ``roots`` by the transcript's
    ``(problem_type, equation)`` or built there by ``_typed_root``, and its
    steps printed through ``printed`` (see ``_printed_steps``)."""
    if not transcript.model_steps:  # an empty list of steps agrees with every walk
        raise SchemaError("diagnosis needs model_steps")
    key = (transcript.problem_type, transcript.equation)
    if key not in roots:
        roots[key] = _typed_root(*key)
    root = roots[key]
    model = _printed_steps(transcript, printed)
    if _writes_correct(root, model):
        return []

    reach = reachable(root.label)
    relevant = [m for m in CATALOG if m.applicable_types & reach]
    rank = {m.id: i for i, m in enumerate(relevant)}
    longest = misconceptions._MAX_TRACE_STEPS + 1  # states in the longest walk
    for size in (1, 2):
        full: dict[tuple[str, ...], Diagnosis] = {}
        for *_, used, path in leaf_paths(root, relevant, size, True, model):
            if len(used) == size and len(path) <= longest:
                full.setdefault(used, Diagnosis(used, "full", len(model), len(path)))
        if full:
            return [full[ids] for ids in sorted(full, key=lambda ids: [rank[i] for i in ids])]

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
    ranked = sorted(singles + pairs, key=lambda d: (-d.matched, len(d.misconceptions)))
    return [d for d in ranked if d.matched > 0][:cap]
