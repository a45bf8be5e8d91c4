from __future__ import annotations

import functools
from fractions import Fraction

import pytest

from malgebra.datasets import InstanceSampler, sample_for_misconception
from malgebra.equations import closed_form_solution, parse_equation
from malgebra.errors import EmptyBatchError, EngineError, NonterminationError, SchemaError
from malgebra.evaluation import (
    GRADE_CORRECT,
    GRADE_MATCH,
    GRADE_OTHER,
    Diagnosis,
    Transcript,
    TranscriptError,
    diagnose,
    grade,
    parse_answer,
    score,
)
from malgebra.misconceptions import CATALOG, reduce_with_misconceptions
from malgebra.reduction import reduce
from malgebra.taxonomy import ORDERED_TYPES, ProblemType, classify, reachable

T = ProblemType


def _tr(ptype, equation, answer, steps=None):
    return Transcript(ptype, equation, answer, tuple(steps) if steps else None)


def test_parse_answer_formats():
    assert parse_answer("16") == 16
    assert parse_answer("-3/2") == Fraction(-3, 2)
    assert parse_answer(" x = -3/2 ") == Fraction(-3, 2)
    assert parse_answer("1.5") == Fraction(3, 2)
    assert parse_answer("87.5") == Fraction(175, 2)
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


def test_grade_dead_end_transcript():
    trace = reduce_with_misconceptions(parse_equation("4x + 5 = 9"), ["M13"])
    t = _tr("T5", "4x + 5 = 9", trace.equation_lines()[-1])
    assert grade(t, "M13") == GRADE_MATCH


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


_parse = functools.lru_cache(maxsize=None)(parse_equation)


def _exhaustive_diagnose(transcript, walks, max_candidates=5):
    """``diagnose`` as one full ``reduce_with_misconceptions`` walk per
    candidate set: every relevant single, then every ordered pair.  ``walks``
    keeps each walk's lines by (equation, rule ids) across calls, and each
    parse is kept by its text."""
    if transcript.model_steps is None:
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

    correct_lines = reduce(eq).equation_lines()
    if prefix_len(correct_lines) == len(model) == len(correct_lines):
        return []
    relevant = [
        m for m in CATALOG
        if m.at_solve or (m.applicable_types & reachable(classify(eq)))
    ]

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
        quality = "full" if k == len(model) == len(lines) else f"prefix {k}/{len(lines)}"
        return Diagnosis(tuple(m.id for m in ms), quality, k, len(lines))

    singles = [d for m in relevant if (d := evaluate((m,))) is not None]
    full_singles = [d for d in singles if d.quality == "full"]
    if full_singles:
        return full_singles
    pairs = [
        d for m1 in relevant for m2 in relevant
        if m1.id != m2.id and (d := evaluate((m1, m2))) is not None
    ]
    ranked = sorted(singles + pairs, key=lambda d: (-d.matched, len(d.misconceptions)))
    full = [d for d in ranked if d.quality == "full"]
    if full:
        return full
    return [d for d in ranked if d.matched > 0][:max_candidates]


def _diagnose_corpus():
    """Transcripts over about 170 equations, each equation written several
    ways (so the reference's walks are shared between them)."""
    sampler = InstanceSampler(seed=4365)
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
        for cap in (5, 1000):
            monkeypatch.setattr("malgebra.evaluation.MAX_CANDIDATES", cap)
            want = _outcome(_exhaustive_diagnose, transcript, walks, cap)
            assert _outcome(diagnose, transcript) == want, (transcript, cap)


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
