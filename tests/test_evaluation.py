from __future__ import annotations

import collections
import functools
import json
import random
from fractions import Fraction

import pytest

from test_fuzz import _mutate, _seeds

from conftest import Corpus

from malgebra import evaluation, misconceptions
from malgebra.datasets import sample_for_misconception
from malgebra.equations import closed_form_solution, parse_equation
from malgebra.errors import (
    EmptyBatchError,
    EngineError,
    NonterminationError,
    RuleNotApplicableError,
    SchemaError,
)
from malgebra.evaluation import (
    GRADE_CORRECT,
    GRADE_MATCH,
    GRADE_OTHER,
    Diagnosis,
    Transcript,
    TranscriptError,
    _mal_outcomes,
    _printed_steps,
    _read,
    _typed_root,
    diagnose,
    diagnose_all,
    grade,
    load_transcripts,
    parse_answer,
    score,
)
from malgebra.misconceptions import CATALOG, Node, reduce_with_misconceptions, steps, walk
from malgebra.reduction import reduce, reduce_step
from malgebra.solution_space import enumerate_tree
from malgebra.taxonomy import ORDERED_TYPES, ProblemType, classify, correct_successors, reachable

T = ProblemType


def _tr(ptype, equation, answer, steps=None):
    return Transcript(ptype, equation, answer, tuple(steps) if steps else None)


def test_load_transcripts_splits_lines_on_newlines_only(tmp_path):
    # JSON allows U+2028, U+2029 and U+0085 raw inside a string and a lone
    # "\r" between tokens; a line may end in "\r\n", and blank lines, a
    # trailing one included, are skipped
    answer = "3\u2028\u2029\x85"
    row = {"problem_type": "T1", "equation": "4x = 12", "model_answer": answer}
    raw, escaped = json.dumps(row, ensure_ascii=False), json.dumps(row).replace(", ", ",\r")
    path = tmp_path / "tr.jsonl"
    path.write_bytes(f"{raw}\r\n\n{escaped}\n\n".encode())
    assert load_transcripts(path) == [_tr("T1", "4x = 12", answer)] * 2


def test_parse_answer_formats():
    assert parse_answer("16") == 16
    assert parse_answer("-3/2") == Fraction(-3, 2)
    assert parse_answer(" x = -3/2 ") == Fraction(-3, 2)
    assert parse_answer("1.5") == Fraction(3, 2)
    assert parse_answer("87.5") == Fraction(175, 2)
    assert parse_answer("3=5 ") == "3 = 5"  # a dead end, as the engine prints it
    # no exponent, separator or other script's digits, no numeral past 20 digits
    for text in ("1e3", "٣", "1_000", "1" * 21):
        with pytest.raises(TranscriptError):
            parse_answer(text)


def test_grade_answer_only_m19():
    assert grade(_tr("T1", "4x = 12", "16"), "M19") == GRADE_MATCH
    assert grade(_tr("T1", "4x = 12", "3"), "M19") == GRADE_CORRECT
    assert grade(_tr("T1", "4x = 12", "7"), "M19") == GRADE_OTHER


def test_grade_formatting_never_matters():
    assert grade(_tr("T1", "4x = 12", "x = 3"), "M19") == GRADE_CORRECT
    assert grade(_tr("T9", "2x = 3(4x + 5)", "-15/10")) == GRADE_CORRECT


def test_grade_types_a_wrong_answers_root_once(monkeypatch):
    # grade's walk and its firing search grow from the root it typed, so the
    # root is classified once; wrap every module's binding of classify
    import sys

    from malgebra import taxonomy

    eq = parse_equation("2x = 3(4x + 5)")
    calls, original = [], taxonomy.classify

    def counting(e):
        calls.append(e)
        return original(e)

    for name, module in list(sys.modules.items()):
        if name.startswith("malgebra") and getattr(module, "classify", None) is original:
            monkeypatch.setattr(module, "classify", counting)
    for answer, want in (("-1/2", GRADE_MATCH), ("7", GRADE_OTHER)):
        calls.clear()
        assert grade(_tr("T9", str(eq), answer), "M2_S3") == want
        lines = [f"{lhs.text} = {rhs.text}" for lhs, rhs in calls]  # a root is typed from its sides
        assert lines.count(str(eq)) == 1 and len(calls) > 1


def test_answer_mode_grade_prints_no_line_it_does_not_compare(monkeypatch):
    # a wrong numeric answer is compared with each leaf's answer, and no
    # leaf of M2_S3's tree here is a dead end, so no state is printed
    from malgebra.equations import Equation

    printed, original = [], Equation.__str__

    def counting(eq):
        printed.append(eq)
        return original(eq)

    monkeypatch.setattr(Equation, "__str__", counting)
    assert grade(_tr("T9", "2x = 3(4x + 5)", "7"), "M2_S3") == GRADE_OTHER
    assert printed == []


def test_grade_without_misconception():
    assert grade(_tr("T1", "4x = 12", "16")) == GRADE_OTHER
    assert grade(_tr("T1", "4x = 12", "3")) == GRADE_CORRECT


def test_grade_strict_steps():
    lines = reduce(parse_equation("2x = 3(4x + 5)")).equation_lines()
    good = _tr("T9", "2x = 3(4x + 5)", "-3/2", lines)
    assert grade(good, "M2_S3", mode="steps") == GRADE_CORRECT
    # right answer, wrong route
    bad = _tr("T9", "2x = 3(4x + 5)", "-3/2", ["2x = 3(4x + 5)", "x = -3/2"])
    assert grade(bad, "M2_S3", mode="steps") == GRADE_OTHER
    mal_lines = reduce_with_misconceptions(
        parse_equation("2x = 3(4x + 5)"), ["M2_S3"]
    ).equation_lines()
    assert grade(_tr("T9", "2x = 3(4x + 5)", "-1/2", mal_lines), "M2_S3", mode="steps") == GRADE_MATCH


def test_correct_steps_may_write_a_solved_line_once():
    # a walk that reaches a state printed x = c solves it to that same line;
    # correct steps replay it with the repeat or without it, in grade and in
    # diagnose.  Only a last line that repeats may be left out.
    for eq, lines in (("x = 4", ["x = 4"]), ("2x = x + 4", ["2x = x + 4", "x = 4"]),
                      ("x - 5 = 8", ["x - 5 = 8", "x = 13"])):
        walked = reduce(parse_equation(eq)).equation_lines()
        assert walked == lines + lines[-1:]
        t = classify(parse_equation(eq)).name
        for written in (lines, walked):
            transcript = _tr(t, eq, lines[-1], written)
            assert grade(transcript, "M19", mode="steps") == GRADE_CORRECT
            assert diagnose(transcript) == []
        assert grade(_tr(t, eq, lines[-1], lines[1:]), mode="steps") == GRADE_OTHER
    assert grade(_tr("T1", "4x = 12", "3", ["4x = 12"]), mode="steps") == GRADE_OTHER
    assert diagnose(_tr("T1", "4x = 12", "3", ["4x = 12"])) != []


def test_misconception_steps_may_write_a_solved_line_once():
    # a misconception walk that reaches a state printed x = c solves it to
    # that same line, as the correct walk does; steps that leave that line
    # out still write the walk, in grade and in diagnose.  Only a last line
    # that repeats may be left out.
    m1 = CATALOG[0]
    walks = [(m1, "T10", walk(_typed_root("T10", "x = 7 - 8 * 8"), (m1,)))]
    assert walks[0][2].equation_lines() == ["x = 7 - 8 * 8", "x = 7 - 8 + (8)", "x = 7", "x = 7"]
    rng = random.Random("repeat-sweep")
    for m in CATALOG:
        for t in sorted(m.applicable_types, key=ORDERED_TYPES.index):
            walks += [(m, t.name, sample_for_misconception(m, t, rng)[1]) for _ in range(25)]
    repeated, plain = collections.Counter(), set()
    for m, t, trace in walks:
        lines, end = trace.equation_lines(), trace.steps[-1].line
        written = lambda model_steps: _tr(t, lines[0], end, model_steps)
        if lines[-1] == lines[-2]:
            repeated[m.id] += 1
            for model_steps in (lines, lines[:-1]):
                got = grade(written(model_steps), m, mode="steps")
                assert got == GRADE_MATCH, (m.id, model_steps)
            want = Diagnosis((m.id,), "full", len(lines) - 1, len(lines))
            assert want in diagnose(written(lines[:-1])), (m.id, lines)
        elif (m.id, t) not in plain:  # one walk per rule and type
            plain.add((m.id, t))
            assert grade(written(lines[:-1]), m, mode="steps") == GRADE_OTHER, (m.id, lines)
    assert repeated["M1"] > 1 and len(repeated) >= 10, repeated
    assert len(plain) > 90


def _correct_paths(eq):
    """Every correct path from ``eq`` as its printed lines: an independent
    oracle that enumerates edge choices, replaying each through the public
    single step (``reduce_step``) and solving T1 by the closed form."""
    paths, stack = [], [(eq, classify(eq), [str(eq)])]
    while stack:
        state, label, lines = stack.pop()
        if label is T.T1:
            paths.append(lines + [str(parse_equation(f"x = {closed_form_solution(state)}"))])
            continue
        for _, rule_id in correct_successors(label):
            state2, label2 = reduce_step(state, label, rule_id)
            stack.append((state2, label2, lines + [str(state2)]))
    return paths


_TWO_PATH_TYPES = (T.T12, T.T14, T.T15, T.T16)


def test_steps_along_every_correct_path_grade_correct():
    # T12, T14, T15 and T16 have two correct paths on every draw; steps
    # written along either, with or without a repeated solved line, are
    # correct in steps mode and diagnose as no misconception
    fixture = ["3x + 4 = 5x + 6", "-2x + 4 = 6", "-2x = 2", "x = -1"]
    assert fixture in _correct_paths(parse_equation(fixture[0]))
    assert fixture != reduce(parse_equation(fixture[0])).equation_lines()
    roots = [("T14", fixture[0])] + [(t.name, str(Corpus(seed).sample(t, "two-paths")))
                                     for seed in range(12) for t in _TWO_PATH_TYPES]
    written, repeated = 0, 0
    for t, eq in roots:
        paths = _correct_paths(parse_equation(eq))
        assert len(paths) == 2, (eq, paths)
        for lines in paths:
            variants = [lines]
            if lines[-1] == lines[-2]:
                variants.append(lines[:-1])
                repeated += 1
            for model_steps in variants:
                transcript = _tr(t, eq, lines[-1], model_steps)
                assert grade(transcript, "M19", mode="steps") == GRADE_CORRECT, model_steps
                assert diagnose(transcript) == [], model_steps
                written += 1
    assert written > 2 * len(roots) and repeated > 0
    # a wrong route to the right answer, and no steps at all (``model_steps:
    # []``), are not correct
    route = _tr("T14", fixture[0], "-1", [fixture[0], fixture[2], fixture[3]])
    assert grade(route, "M19", mode="steps") == GRADE_OTHER
    none = Transcript("T14", fixture[0], "-1", ())
    assert grade(none, "M19", mode="steps") == GRADE_OTHER


def test_grade_dead_end_transcript():
    trace = reduce_with_misconceptions(parse_equation("4x + 5 = 9"), ["M13"])
    t = _tr("T5", "4x + 5 = 9", trace.equation_lines()[-1])
    assert grade(t, "M13") == GRADE_MATCH


def _writes(model, lines):
    """Whether printed steps write an engine path of these lines: all of
    them, or all but a last line that repeats the line before it."""
    return model == lines or len(lines) > 1 and lines[-1] == lines[-2] and model == lines[:-1]


def _tree_mal_outcomes(root, m, correct, model):
    """``_mal_outcomes`` read off the full solution tree of ``m`` with at
    most one firing per path, leaf by leaf, keeping only the paths that
    ``model`` writes when it is given: the reference the firing search
    replaced."""
    tree = enumerate_tree(root, [m], max_misconceptions_per_path=1)
    out = []
    for leaf in tree.leaves:
        if leaf.misconceptions != (m.id,) or model is not None and not _writes(
                model, list(leaf.equations)):
            continue
        if leaf.dead_end == "variable eliminated":
            out.append((leaf.path[-1].line, leaf.path))
        elif leaf.answer is not None and leaf.answer != correct:
            out.append((leaf.answer, leaf.path))
    return out


def _firing_roots():
    """Drawn roots of every type at coefficients within 2, 9 and 10**19, and
    fuzzed parsed roots, each one that types and has a closed form."""
    eqs = [Corpus(seed, -bound, bound).sample(t, "firings")
           for seed in range(3) for bound in (2, 9, 10**19) for t in ORDERED_TYPES]
    rng, seeds = random.Random(24), _seeds()
    while len(eqs) < 360:
        try:
            eq = parse_equation(_mutate(rng, rng.choice(seeds)))
            Node(eq), closed_form_solution(eq)
        except EngineError:
            continue
        eqs.append(eq)
    return eqs


def _sorted_outcomes(fn, eq, m, correct):
    """The outcomes and path lines ``fn`` finds from a fresh root, sorted, or
    the type and message of the error it raises."""
    try:
        found = fn(Node(eq), m, correct, None)
    except EngineError as exc:
        return type(exc), str(exc)
    return sorted((str(end), [node.line for node in path]) for end, path in found)


def test_firing_search_matches_the_solution_tree(monkeypatch):
    # every rule on every root: the same outcomes and paths, or the same
    # error; then a transcript of each leaf of the reference tree where the
    # rule fired (a match, a dead end or a zero coefficient), and one
    # answering the correct answer plus one, graded in both modes as the
    # reference grades them
    transcripts, pairs, kinds = [], 0, collections.Counter()
    for eq in _firing_roots():
        correct, t = closed_form_solution(eq), Node(eq).label.name
        for m in CATALOG:
            want = _sorted_outcomes(_tree_mal_outcomes, eq, m, correct)
            assert _sorted_outcomes(_mal_outcomes, eq, m, correct) == want, (str(eq), m.id)
            pairs += 1
            transcripts.append((_tr(t, str(eq), str(correct + 1)), m))
            if type(want) is tuple:
                kinds["raised"] += 1
                continue
            for leaf in enumerate_tree(eq, [m], 1).leaves:
                if leaf.misconceptions == (m.id,):
                    lines = list(leaf.equations)
                    answer = lines[-1] if leaf.answer is None else str(leaf.answer)
                    transcripts.append((_tr(t, str(eq), answer, lines), m))
                    kinds[leaf.dead_end] += 1
    assert pairs == 360 * len(CATALOG)
    assert min(kinds[k] for k in (None, "variable eliminated", "zero x coefficient")) > 0, kinds

    def grades():
        return [_outcome(grade, tr, m, mode) for tr, m in dict.fromkeys(transcripts)
                for mode in ("answer", "steps")]

    got = grades()
    monkeypatch.setattr(evaluation, "_mal_outcomes", _tree_mal_outcomes)
    want = grades()
    assert got == want
    assert want.count(GRADE_MATCH) > 1000


def test_scoring_solves_only_paths_that_fire_the_rule(monkeypatch):
    # an upper bound on the solve steps and walk states one score of a small
    # fixed batch makes: per type, a correct answer, the rule's answer and
    # another rule's; grading never builds a solution tree
    from malgebra import solution_space

    sampler = Corpus(seed=24)
    batches = {m: [] for m in ("M2_S3", "M8", "M13", "M19")}
    for mid, rows in batches.items():
        for k, t in enumerate(ORDERED_TYPES):
            eq = sampler.sample(t, f"count:{t.name}")
            rows.append(_tr(t.name, str(eq), str(closed_form_solution(eq))))
            for rule in [mid] + [r.id for r in CATALOG[k:] + CATALOG[:k] if r.id != mid]:
                try:
                    trace = reduce_with_misconceptions(eq, [rule])
                except EngineError:
                    continue
                if trace.misconceptions_used == (rule,):
                    answer = trace.equation_lines()[-1] if trace.answer is None else trace.answer
                    rows.append(_tr(t.name, str(eq), str(answer)))
                    if rule != mid:
                        break

    def boom(*args, **kwargs):
        raise AssertionError("grading built a solution tree")

    monkeypatch.setattr(solution_space, "enumerate_tree", boom)
    monkeypatch.setattr(evaluation, "enumerate_tree", boom, raising=False)  # an imported binding
    solves, nodes = [], []
    solve_t1, init = misconceptions.solve_t1, Node.__init__
    monkeypatch.setattr(misconceptions, "solve_t1", lambda sides: solves.append(1) or solve_t1(sides))
    monkeypatch.setattr(Node, "__init__", lambda self, *a: nodes.append(1) or init(self, *a))
    reports = [score(rows, mid) for mid, rows in batches.items()]
    # each applicable type holds one match in three answers
    assert [len(rows) for rows in batches.values()] == [32, 32, 38, 45]
    assert [r.ma for r in reports] == [Fraction(100, 3)] * 4
    assert len(solves) <= 26 and len(nodes) <= 456  # 138 and 568 from the full trees


def test_unparsable_counts_as_other_in_batches():
    batch = [
        _tr(t.name, "4x = 12" if t is T.T1 else None, "3") for t in [T.T1]
    ]
    # direct grade raises, batch mode folds it into "other"
    weird = _tr("T1", "4x = 12", "three")
    no_type = _tr("T1", "2(x + 1) = 4", "1")  # parses, but matches no type
    report = score([weird, no_type], "M19")
    assert report.per_type_correct["T1"] == 0


def test_score_ma_fixture_exact():
    # M8 matched on 4/5 T9 items and 5/5 T12 items: MA = (80 + 100) / 2
    t9 = "2x = 3(4x + 5)"
    t12 = "2x = 3 + 4(5x + 6)"
    m8_t9 = str(reduce_with_misconceptions(parse_equation(t9), ["M8"]).answer)
    m8_t12 = str(reduce_with_misconceptions(parse_equation(t12), ["M8"]).answer)
    batch = [_tr("T9", t9, m8_t9)] * 4 + [_tr("T9", t9, "1000")] \
        + [_tr("T12", t12, m8_t12)] * 5
    report = score(batch, "M8")
    assert report.ma == Fraction(90)
    assert report.per_type_misconception["T9"] == Fraction(80)
    assert report.per_type_misconception["T12"] == Fraction(100)
    # absent types leave the complement aggregates undefined
    assert report.ca_na is None
    assert report.property_2 is None
    assert "T1" in report.absent_types


def test_score_all_correct_batch(sampler):
    batch = []
    for t in ORDERED_TYPES:
        eq = sampler.sample(t, f"score:{t.name}")
        batch.append(_tr(t.name, str(eq), str(closed_form_solution(eq))))
    report = score(batch, "M8")
    assert report.oca == Fraction(100)
    assert report.property_2 is True
    assert report.ma == Fraction(0)
    assert report.absent_types == ()


def test_csm_verdict_combinations(sampler):
    # build full batches hitting each (property 1, property 2) corner
    def batch(ma_hit: bool, na_hit: bool):
        out = []
        for t in ORDERED_TYPES:
            eq = sampler.sample(t, f"verdict:{t.name}")
            applicable = t in (T.T9, T.T12)
            if applicable:
                if ma_hit:
                    ans = str(reduce_with_misconceptions(eq, ["M8"]).answer)
                else:
                    ans = str(closed_form_solution(eq))
            else:
                ans = str(closed_form_solution(eq)) if na_hit else "123456789"
            out.append(_tr(t.name, str(eq), ans))
        return out

    for ma_hit in (True, False):
        for na_hit in (True, False):
            report = score(batch(ma_hit, na_hit), "M8")
            assert report.property_1 is ma_hit
            assert report.property_2 is na_hit
            assert report.is_csm is (ma_hit and na_hit)


def test_exact_fraction_aggregation(sampler):
    # 10 of 15 types correct: OCA = 1000/15 = 200/3, not a float artifact
    batch = []
    for i, t in enumerate(ORDERED_TYPES):
        eq = sampler.sample(t, f"frac:{t.name}")
        ans = str(closed_form_solution(eq)) if i < 10 else "987654321"
        batch.append(_tr(t.name, str(eq), ans))
    report = score(batch, "M8")
    assert report.oca == Fraction(200, 3)


def test_score_empty_batch():
    with pytest.raises(EmptyBatchError):
        score([], "M8")


def test_score_unknown_type_rejected():
    with pytest.raises(SchemaError):
        score([_tr("T13", "3x = 12", "4")], "M8")


def test_score_names_the_transcript_that_stopped_it(monkeypatch):
    # by its index in the batch, for a claimed type the batch has no slot
    # for, a claimed type its equation does not have, and an engine error
    good = _tr("T1", "4x = 12", "16")
    with pytest.raises(SchemaError, match=r"^transcript 1: unknown problem type 'T13'$"):
        score([good, _tr("T13", "4x = 12", "3")], "M19")
    with pytest.raises(SchemaError, match=r"^transcript 2: claims T3 for a T5 "):
        score([good, good, _tr("T3", "3x + 4 = 7", "1")], "M19")

    def raising(root, m, correct, model):
        raise RuleNotApplicableError(f"no edge out of {root.line}")

    monkeypatch.setattr(evaluation, "_mal_outcomes", raising)
    with pytest.raises(EngineError, match=r"^transcript 0: no edge out of 4x = 12$"):
        score([good], "M19")


def test_diagnose_spot_fixtures():
    full = diagnose(
        _tr("T9", "2x = 3(4x + 5)", "-1/2",
            ["2x = 3(4x + 5)", "2x = 12x + 5", "-10x = 5", "x = -1/2"])
    )
    assert full and full[0].misconceptions == ("M2_S3",)
    assert full[0].quality == "full"

    correct = diagnose(
        _tr("T9", "2x = 3(4x + 5)", "-3/2",
            ["2x = 3(4x + 5)", "2x = 12x + 15", "-10x = 15", "x = -3/2"])
    )
    assert correct == []

    one_step = diagnose(_tr("T1", "4x = 12", "12", ["4x = 12", "x = 12"]))
    assert one_step and one_step[0].misconceptions == ("M20_S20",)

    # M19 on T14's second correct path, which no walk takes
    lines = ["3x + 4 = 5x + 6", "-2x + 4 = 6", "-2x = 2", "x = 0"]
    assert diagnose(_tr("T14", lines[0], "0", lines)) == [Diagnosis(("M19",), "full", 4, 4)]


def test_grade_and_diagnose_agree_on_every_firing_path():
    # every rule's paths that fire it and end off the correct answer, written
    # out, on draws of every type: grade matches the rule in steps mode, and
    # diagnose calls it full, whether or not its walk takes the path
    sampler, checked, off_walk = Corpus(seed=77), 0, collections.Counter()
    for t in ORDERED_TYPES:
        for i in range(3):
            eq = sampler.sample(t, f"agree:{t.name}:{i}")
            correct = closed_form_solution(eq)
            for m in CATALOG:
                for leaf in enumerate_tree(eq, [m], 1).leaves:
                    if leaf.misconceptions != (m.id,) or leaf.answer == correct \
                            or leaf.dead_end == "zero x coefficient":
                        continue
                    lines = list(leaf.equations)
                    answer = lines[-1] if leaf.answer is None else str(leaf.answer)
                    transcript = _tr(t.name, str(eq), answer, lines)
                    assert grade(transcript, m, mode="steps") == GRADE_MATCH, (m.id, lines)
                    full = [d.misconceptions for d in diagnose(transcript) if d.quality == "full"]
                    assert (m.id,) in full, (m.id, lines)
                    checked += 1
                    if _outcome(lambda: walk(Node(eq), (m,)).equation_lines()) != lines:
                        off_walk[t.name] += 1
    assert checked > 300 and set(off_walk) == {"T9", "T12", "T14", "T15", "T16"}, off_walk
    assert sum(off_walk.values()) > 50, off_walk


def test_diagnose_requires_steps():
    with pytest.raises(SchemaError):
        diagnose(_tr("T1", "4x = 12", "3"))


def test_diagnose_pairs(rng):
    eq = parse_equation("2x = 3(4x + 5)")
    trace = reduce_with_misconceptions(eq, ["M2_S3", "M19"])
    result = diagnose(_tr("T9", str(eq), str(trace.answer), trace.equation_lines()))
    assert result[0].misconceptions == ("M2_S3", "M19")
    assert result[0].quality == "full"


def test_diagnose_recovers_sampled_malgorithms(rng):
    for m in CATALOG[:6]:
        t = sorted(m.applicable_types, key=lambda t: t.name)[0]
        eq, trace = sample_for_misconception(m, t, rng)
        transcript = _tr(
            t.name, str(eq),
            str(trace.answer) if trace.answer is not None else trace.equation_lines()[-1],
            trace.equation_lines(),
        )
        result = diagnose(transcript)
        assert result, (m.id, t.name)
        assert m.id in result[0].misconceptions


def _wrong_batch():
    """A small fixed diagnose batch of wrong transcripts with steps: one per
    rule on its first type, explained by that rule, and one per type whose
    correct steps end in an answer no rule gives."""
    sampler = Corpus(seed=4365)
    rng = sampler.rng_for("wrong-batch")
    rows = []
    for m in CATALOG:
        t = min(m.applicable_types, key=ORDERED_TYPES.index)
        eq, trace = sample_for_misconception(m, t, rng)
        lines = trace.equation_lines()
        rows.append(_tr(t.name, str(eq), lines[-1], lines))
    for t in ORDERED_TYPES:
        eq = sampler.sample(t, f"wrong-batch:{t.name}")
        lines = reduce(eq).equation_lines()
        lines[-1] = f"x = {closed_form_solution(eq) + Fraction(1, 997)}"
        rows.append(_tr(t.name, str(eq), lines[-1], lines))
    return rows


def test_rule_attempts_per_diagnosed_transcript(monkeypatch):
    # walks from one root share every rule attempt they have in common and
    # pruning skips candidates that cannot match: an upper bound on the
    # try_apply calls diagnose makes over a small fixed batch
    calls, original = [], misconceptions.try_apply
    monkeypatch.setattr(misconceptions, "try_apply",
                        lambda m, node: calls.append(m) or original(m, node))
    batch = _wrong_batch()
    for transcript in batch:
        diagnose(transcript)
    assert len(batch) == 34 and len(calls) <= 447  # 13.1 per transcript


def test_node_expansions_per_diagnosed_transcript(monkeypatch):
    # the walks and the steps-guided path searches over the same batch ask
    # their nodes for at most this many children, a kept child included
    calls, original = [], Node.child
    batch = _wrong_batch()
    monkeypatch.setattr(Node, "child", lambda node, edge: calls.append(edge) or original(node, edge))
    for transcript in batch:
        diagnose(transcript)
    assert len(batch) == 34 and len(calls) <= 1773  # 52.1 per transcript


def test_diagnose_searches_correct_paths_only_for_steps_on_the_solved_line(monkeypatch):
    # steps that do not end on the solved line write no correct path, so
    # diagnose searches none: no transcript of the wrong batch enters the
    # path search with no rules, and the one on T14's second path enters it once
    searched, original = [], evaluation.leaf_paths
    monkeypatch.setattr(evaluation, "leaf_paths",
                        lambda root, rules, *a: searched.append(rules) or original(root, rules, *a))
    batch = _wrong_batch()
    for transcript in batch:
        diagnose(transcript)
    assert len(batch) == 34 and () not in searched
    lines = ["3x + 4 = 5x + 6", "-2x + 4 = 6", "-2x = 2", "x = -1"]
    assert diagnose(_tr("T14", lines[0], lines[-1], lines)) == []
    assert searched.count(()) == 1


def test_states_read_per_diagnosed_transcript(monkeypatch):
    # each candidate's walk is read in one pass, never walked again for its
    # trace: an upper bound on the states diagnose reads over the same batch,
    # by its reader and by ``walk``
    read, original = [], misconceptions.steps
    counted = lambda root, ms: (read.append(node) or node for node in original(root, ms))
    batch = _wrong_batch()
    monkeypatch.setattr(misconceptions, "steps", counted)
    monkeypatch.setattr(evaluation, "steps", counted)
    for transcript in batch:
        diagnose(transcript)
    assert len(batch) == 34 and len(read) <= 1257  # 37.0 per transcript


def test_a_batch_expands_a_repeated_equation_once(monkeypatch):
    # transcripts on one equation share its root and each step text's parse,
    # so a batch given twice over makes no rule attempt and no parse more
    # than the batch once, and fewer than one diagnose call per transcript
    attempts, parses = [], []
    try_apply, parse = misconceptions.try_apply, evaluation.parse_equation
    monkeypatch.setattr(misconceptions, "try_apply",
                        lambda m, node: attempts.append(m) or try_apply(m, node))
    monkeypatch.setattr(evaluation, "parse_equation", lambda s: parses.append(s) or parse(s))
    batch = _wrong_batch()
    counts = []
    for run in (lambda: [diagnose(t) for t in batch],
                lambda: diagnose_all(batch), lambda: diagnose_all(batch + batch)):
        attempts.clear(), parses.clear()
        run()
        counts.append((len(attempts), len(parses)))
    alone, once, twice = counts
    assert twice == once and once[0] < alone[0] and once[1] < alone[1], counts


def test_a_batch_drops_each_root_after_its_last_transcript(monkeypatch):
    held, original = [], evaluation._diagnosis

    def counted(transcript, roots, printed):
        held.append(len(roots))
        return original(transcript, roots, printed)

    monkeypatch.setattr(evaluation, "_diagnosis", counted)
    batch = _wrong_batch()
    distinct = list({(t.problem_type, t.equation): t for t in batch}.values())
    diagnose_all(distinct)
    assert len(held) == len(distinct) > 30 and set(held) == {0}
    # the same batch given twice holds every root until its second transcript
    held.clear()
    diagnose_all(distinct + distinct)
    n = len(distinct)
    assert held == list(range(n)) + list(range(n, 0, -1))


_parse = functools.lru_cache(maxsize=None)(parse_equation)


def _exhaustive_diagnose(transcript, walks, max_candidates=5):
    """``diagnose`` from whole trees and whole walks.  The full sets are
    read off every leaf of the unguided solution tree of the relevant rules,
    at most one per path and then at most two; the ranking takes one full
    ``reduce_with_misconceptions`` walk per candidate set: every relevant
    single, then every ordered pair.  ``walks`` keeps each walk's lines and
    each tree's leaves by equation across calls, and each parse is kept by
    its text."""
    if not transcript.model_steps:
        raise SchemaError("diagnosis needs model_steps")
    eq = parse_equation(transcript.equation)
    model = [parse_equation(s) for s in transcript.model_steps]

    def prefix_len(lines):
        n = 0
        for got, want in zip(model, lines):
            try:
                if got != _parse(want):
                    break
            except EngineError:
                break
            n += 1
        return n

    def writes(lines):
        # steps write a path, correct or not, as its lines or as those less a
        # last line that repeats the line before it
        replays = [lines]
        if len(lines) > 1 and lines[-1] == lines[-2]:
            replays.append(lines[:-1])
        return any(prefix_len(r) == len(model) == len(r) for r in replays)

    reduce(eq)  # raises where the walk does: no unique solution, or past the step guard
    if any(writes(lines) for lines in _correct_paths(eq)):
        return []
    relevant = [
        m for m in CATALOG
        if m.at_solve or (m.applicable_types & reachable(classify(eq)))
    ]

    def leaves(cap):
        key = (transcript.equation, "tree", cap)
        if key not in walks:
            walks[key] = [(leaf.misconceptions, list(leaf.equations))
                          for leaf in enumerate_tree(eq, relevant, cap).leaves
                          if leaf.dead_end != "zero x coefficient"]
        return walks[key]

    # a path of more states than the longest walk explains nothing
    longest = misconceptions._MAX_TRACE_STEPS + 1
    for cap in (1, 2):
        full = {}
        for ids, lines in leaves(cap):
            if len(ids) == cap and len(lines) <= longest and writes(lines):
                full.setdefault(ids, Diagnosis(ids, "full", len(model), len(lines)))
        if full:
            order = [m.id for m in CATALOG]
            return [full[ids] for ids in sorted(full, key=lambda ids: [order.index(i) for i in ids])]

    def trace_for(ms):
        key = (transcript.equation, tuple(m.id for m in ms))
        if key not in walks:
            try:
                tr = reduce_with_misconceptions(eq, list(ms))
            except EngineError:
                walks[key] = None
            else:
                walks[key] = tr.equation_lines() if tr.misconceptions_used == key[1] else None
        return walks[key]

    def evaluate(ms):
        lines = trace_for(ms)
        if lines is None:
            return None
        k = prefix_len(lines)
        return Diagnosis(tuple(m.id for m in ms), f"prefix {k}/{len(lines)}", k, len(lines))

    singles = [d for m in relevant if (d := evaluate((m,))) is not None]
    pairs = [
        d for m1 in relevant for m2 in relevant
        if m1.id != m2.id and (d := evaluate((m1, m2))) is not None
    ]
    ranked = sorted(singles + pairs, key=lambda d: (-d.matched, len(d.misconceptions)))
    return [d for d in ranked if d.matched > 0][:max_candidates]


def _diagnose_corpus():
    """Transcripts over about 170 equations, each equation written several
    ways (so the reference's walks are shared between them), and last each
    root of a type with two correct paths written along the one its walk
    does not take, as it is and with a wrong last line, and each root
    written along firing paths that no walk takes."""
    sampler = Corpus(seed=4365)
    rng = sampler.rng_for("diagnose-corpus")
    rows = []

    def add(t, eq, lines):
        rows.append(_tr(t.name, str(eq), lines[-1], lines))

    def add_variants(t, eq, lines):
        add(t, eq, lines)
        add(t, eq, lines[:-1])  # truncated
        add(t, eq, lines + [lines[-1]])  # extended
        for k in (2, 3):  # random multi-rule traces
            try:
                add(t, eq, reduce_with_misconceptions(eq, rng.sample(CATALOG, k)).equation_lines())
            except EngineError:
                pass

    for m in CATALOG:
        for t in sorted(m.applicable_types, key=ORDERED_TYPES.index):
            eq, trace = sample_for_misconception(m, t, rng)
            add_variants(t, eq, trace.equation_lines())
    for t in ORDERED_TYPES:
        for i in range(5):
            eq = sampler.sample(t, f"diagnose:{t.name}:{i}")
            lines = reduce(eq).equation_lines()
            add_variants(t, eq, lines)
            add(t, eq, lines[:-1] + [f"x = {closed_form_solution(eq) + Fraction(1, 997)}"])
            add(t, eq, [lines[0], "x = = 1"] + lines[1:])  # a garbage step
    for t, eq in dict.fromkeys((T[row.problem_type], row.equation) for row in rows):
        eq = parse_equation(eq)
        if t in _TWO_PATH_TYPES:
            walked = reduce(eq).equation_lines()
            for lines in _correct_paths(eq):
                if lines != walked:
                    add(t, eq, lines)
                    add(t, eq, lines[:-1] + [f"x = {closed_form_solution(eq) + Fraction(1, 997)}"])
        # each path that fires one rule, and every fourth that fires two, but
        # that the walk of its rules does not take, written out
        relevant = [m for m in CATALOG if m.applicable_types & reachable(t)]
        pairs = 0
        for leaf in enumerate_tree(eq, relevant, 2).leaves:
            lines, ids = list(leaf.equations), leaf.misconceptions
            if not ids or leaf.dead_end == "zero x coefficient" \
                    or _outcome(lambda: reduce_with_misconceptions(eq, ids).equation_lines()) == lines:
                continue
            pairs += len(ids) - 1
            if len(ids) == 1 or pairs % 4 == 0:
                add(t, eq, lines)
    return rows


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def test_diagnose_matches_exhaustive_search(monkeypatch):
    # M8 leaves 0x = 15, so M8's correct tail raises at the solve step, where
    # M19 still fires: the pair is a candidate although M8's single is not
    eq = parse_equation("4x = 3(4x + 5)")
    with pytest.raises(EngineError):
        reduce_with_misconceptions(eq, ["M8"])
    lines = reduce_with_misconceptions(eq, ["M8", "M19"]).equation_lines()
    raising_tail = _tr("T9", str(eq), lines[-1], lines)
    assert ("M8", "M19") in [d.misconceptions for d in diagnose(raising_tail)]

    corpus = _diagnose_corpus() + [raising_tail]
    assert len(corpus) > 900
    walks = {}
    for transcript in corpus:
        # diagnose prunes pairs hardest at cap 1; a Diagnosis compares whole,
        # matched and trace_length included
        for cap in (1, 2, 5, 1000):
            monkeypatch.setattr("malgebra.evaluation.MAX_CANDIDATES", cap)
            want = _outcome(_exhaustive_diagnose, transcript, walks, cap)
            assert _outcome(diagnose, transcript) == want, (transcript, cap)


def test_a_batch_diagnoses_as_each_transcript_alone(monkeypatch):
    # every equation of the corpus comes back half the batch later, so each
    # transcript is diagnosed from a root earlier transcripts have grown;
    # the batch must raise nowhere, so the transcripts that raise are left out
    corpus = [t for t in _diagnose_corpus() if not isinstance(_outcome(diagnose, t), type)]
    half = len(corpus) // 2
    batch = [t for pair in zip(corpus, corpus[half:] + corpus[:half]) for t in pair]
    assert len(corpus) > 800
    for cap in (1, 5):
        monkeypatch.setattr("malgebra.evaluation.MAX_CANDIDATES", cap)
        assert diagnose_all(batch) == [diagnose(t) for t in batch], cap


def test_read_gives_the_diagnosis_of_the_walk():
    # on every single and pair with a trace, one read of the walk gives the
    # prefix diagnosis built from the whole trace (never full: the path
    # search decides that) and its last state; asked for
    # more agreeing lines than there are, it stops and gives neither
    checked = 0
    for transcript in _diagnose_corpus():
        try:
            root = _typed_root(transcript.problem_type, transcript.equation)
            model = _printed_steps(transcript)
        except EngineError:
            continue
        relevant = [m for m in CATALOG if m.applicable_types & reachable(root.label)]
        for ms in [(m,) for m in relevant] + [(a, b) for a in relevant for b in relevant if a is not b]:
            try:
                trace = walk(root, ms)
            except EngineError:
                continue
            ids = tuple(m.id for m in ms)
            if trace.misconceptions_used != ids:
                continue
            lines = trace.equation_lines()
            k = 0
            while k < min(len(model), len(lines)) and model[k] == lines[k]:
                k += 1
            want = Diagnosis(ids, f"prefix {k}/{len(lines)}", k, len(lines))
            assert _read(root, ms, model, 0) == (want, trace.steps[-1])
            assert _read(root, ms, model, k + 1) == (None, None)
            assert tuple(steps(root, ms)) == trace.steps[1:]
            checked += 1
    assert checked > 10000, checked


def test_diagnose_step_guard_matches_exhaustive_search(monkeypatch):
    # no catalog walk comes near 12 steps, so lower the guard until it cuts
    corpus = _diagnose_corpus()[::8]
    monkeypatch.setattr("malgebra.evaluation.MAX_CANDIDATES", 1000)
    unguarded = [_outcome(diagnose, t) for t in corpus]
    monkeypatch.setattr("malgebra.misconceptions._MAX_TRACE_STEPS", 3)
    walks = {}
    results = []
    for transcript in corpus:
        for cap in (5, 1000):
            monkeypatch.setattr("malgebra.evaluation.MAX_CANDIDATES", cap)
            want = _outcome(_exhaustive_diagnose, transcript, walks, cap)
            assert _outcome(diagnose, transcript) == want, (transcript, cap)
        results.append(want)
    cut = [a != b and b is not NonterminationError for a, b in zip(unguarded, results)]
    assert sum(cut) > 10
