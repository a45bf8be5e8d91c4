"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Volumes and wall-clock bounds are pinned here, not configurable.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import Corpus
from fidelity import _CASES, _SOLVE_FORMULAS, fidelity_cases

from malgebra.datasets import (
    MAX_TRIES,
    DatasetConfig,
    generate,
    sample_for_misconception,
)
from malgebra.equations import closed_form_solution, parse_equation
from malgebra.errors import EngineError
from malgebra.evaluation import Transcript, diagnose, score
from malgebra.misconceptions import (
    CATALOG,
    apply_misconception,
    get_misconception,
    reduce_with_misconceptions,
)
from malgebra.reduction import reduce, t1_parts
from malgebra.solution_space import enumerate_tree
from malgebra.taxonomy import ORDERED_TYPES, ProblemType, SOLVED, classify

from test_solution_space import brute_force_leaves

T = ProblemType
PER_TYPE = 1000  # instances per problem type for the engine sweeps


@pytest.fixture(scope="module")
def instances():
    sampler = Corpus(seed=20240901)
    return {
        t: [sampler.sample(t, f"acc:{t.name}:{i}") for i in range(PER_TYPE)]
        for t in ORDERED_TYPES
    }


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_parser_round_trip(instances):
    per_type = 667  # 15 * 667 = 10,005 equations
    start = time.perf_counter()
    checked = 0
    for t in ORDERED_TYPES:
        for eq in instances[t][:per_type]:
            assert parse_equation(str(eq)) == eq
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 10_000
    assert elapsed < 5.0
    _ok(1, f"parse/print round trip on {checked} equations in {elapsed:.2f}s (< 5s)")


def test_criterion_2_classifier_exactness(instances):
    start = time.perf_counter()
    for t in ORDERED_TYPES:
        for eq in instances[t]:
            assert classify(eq) is t
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(2, f"15 x {PER_TYPE} instances classify to their generating type "
           f"in {elapsed:.2f}s (< 10s)")


def test_criterion_3_solver_oracle_equivalence(instances):
    start = time.perf_counter()
    for t in ORDERED_TYPES:
        for eq in instances[t]:
            assert reduce(eq).answer == closed_form_solution(eq)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(3, f"reduce equals the closed-form oracle on 15000 instances "
           f"in {elapsed:.2f}s (< 30s)")


def test_criterion_4_termination_bounds(instances):
    for t in ORDERED_TYPES:
        for eq in instances[t][:200]:
            trace = reduce(eq)
            assert len(trace.steps) <= 7  # the root, at most five rewrites, the solve
            assert trace.steps[-1].label is SOLVED
    checked = 0
    for m in CATALOG:
        for t in ORDERED_TYPES:
            if t not in m.applicable_types:
                continue
            rng = random.Random(f"acc4:{m.id}:{t.name}")
            for i in range(20):
                _, trace = sample_for_misconception(m, t, rng)
                assert len(trace.steps) - 1 <= 12
                checked += 1
    # stacked sets exercise multi-misconception paths
    sampler = Corpus(seed=4)
    everything = [m.id for m in CATALOG]
    for t in ORDERED_TYPES:
        for i in range(20):
            eq = sampler.sample(t, f"acc4all:{t.name}:{i}")
            try:
                trace = reduce_with_misconceptions(eq, everything)
            except EngineError:
                continue
            assert len(trace.steps) - 1 <= 12
    _ok(4, f"correct traces take <= 5 reductions + solve; {checked} single- and "
           f"300 full-set misconception traces stay within 12 steps")


def test_criterion_5_rule_fidelity():
    total = 0
    for mid in sorted(_CASES):
        per_type = Counter()
        for t, text, expected in fidelity_cases(mid, 120, seed=5):
            if per_type[t] >= 100:
                continue
            per_type[t] += 1
            result, _ = apply_misconception(mid, parse_equation(text))
            assert result == parse_equation(expected), (mid, t.name, text, expected)
            total += 1
        assert set(per_type) == set(get_misconception(mid).applicable_types)
        assert all(v == 100 for v in per_type.values())
    # the four solve-step rules, on every type, checked on the trace itself
    sampler = Corpus(seed=55)
    for mid, formula in _SOLVE_FORMULAS.items():
        for t in ORDERED_TYPES:
            done = 0
            i = 0
            while done < 100:
                eq = sampler.sample(t, f"acc5:{mid}:{t.name}:{i}")
                i += 1
                trace = reduce_with_misconceptions(eq, [mid])
                if trace.misconceptions_used != (mid,):
                    continue  # blocked bad division on Ax = 0
                prev = trace.steps[-2]
                assert prev.label is T.T1
                a, b = t1_parts(*(side.view for side in prev.sides))
                assert trace.answer == formula(a, b)
                done += 1
                total += 1
    # spot anchors
    eq = parse_equation("2x = 3(4x + 5)")
    assert str(apply_misconception("M2_S3", eq)[0]) == "2x = 12x + 5"
    assert str(apply_misconception("M8", eq)[0]) == "2x = 4x + 15"
    assert str(apply_misconception("M20_S20", parse_equation("4x = 12"))[0]) == "x = 12"
    _ok(5, f"all 19 rules transform per their expressions on {total} "
           f"structural checks (100 per rule-type pair)")


def test_criterion_6_algorithm_degeneration(instances):
    checked = 0
    for t in ORDERED_TYPES:
        for eq in instances[t][:67]:
            assert reduce_with_misconceptions(eq, []) == reduce(eq)
            checked += 1
    assert checked >= 1000
    _ok(6, f"empty-set reduction equals plain reduction trace-for-trace on "
           f"{checked} instances")


def test_criterion_7_solution_space_brute_force():
    pairs = [
        (m, t)
        for m in CATALOG
        for t in ORDERED_TYPES
        if t in m.applicable_types and not (m.at_solve and t is not T.T1)
    ]
    sampler = Corpus(seed=77)
    checked = 0
    i = 0
    while checked < 200:
        m, t = pairs[i % len(pairs)]
        eq = sampler.sample(t, f"acc7:{m.id}:{t.name}:{i}")
        i += 1
        tree = enumerate_tree(eq, [m.id], 1)
        got = Counter((l.answer, l.misconceptions) for l in tree.leaves)
        assert got == brute_force_leaves(eq, m.id, 1), (m.id, str(eq))
        checked += 1
    _ok(7, f"enumerate matches independent edge-choice brute force on {checked} "
           f"instances (exact multiset equality)")


def test_criterion_8_dataset_regimes(tmp_path_factory):
    base = tmp_path_factory.mktemp("acc8")

    # paper-scale correct regime: 2000 per type and a 500-per-type test split
    flagship = DatasetConfig(seed=31, n_correct_per_type=2000, test_per_type=500,
                             out_dir=str(base / "flagship"))
    manifest = generate(flagship)
    assert manifest["counts"]["train"]["correct"] == 30_000
    assert manifest["counts"]["train"]["total"] == 30_000
    for t in ORDERED_TYPES:
        assert manifest["counts"]["train"]["by_type"][t.name]["correct"] == 2000
        assert manifest["counts"]["test"]["by_type"][t.name]["correct"] == 500
    train_lines = (base / "flagship" / "train.jsonl").read_text().splitlines()
    assert len(train_lines) == 30_000

    # full n_m x ratio grid
    for n_m in (100, 200, 400, 800, 1600, 3200):
        for ratio in (0.25, 0.5, 1.0):
            out = base / f"grid-{n_m}-{ratio}"
            cfg = DatasetConfig(seed=31, misconception="M1", n_m=n_m, ratio=ratio,
                                out_dir=str(out))
            man = generate(cfg)
            assert man["counts"]["train"]["misconception"] == n_m
            assert man["counts"]["train"]["correct"] == int(ratio * n_m)
            for t in ORDERED_TYPES:
                assert man["counts"]["test"]["by_type"][t.name]["correct"] == 500

    # byte-identical re-run of the largest grid config, timed
    big = DatasetConfig(seed=31, misconception="M1", n_m=3200, ratio=1.0,
                        out_dir=str(base / "big-1"))
    start = time.perf_counter()
    generate(big)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    generate(DatasetConfig(seed=31, misconception="M1", n_m=3200, ratio=1.0,
                           out_dir=str(base / "big-2")))
    for name in ("train.jsonl", "test.jsonl", "manifest.json"):
        assert (base / "big-1" / name).read_bytes() == (base / "big-2" / name).read_bytes()
    _ok(8, f"30000 correct records, full n_m x ratio grid with 500-per-type "
           f"test files, byte-identical re-runs; largest config in "
           f"{elapsed:.1f}s (< 120s)")


def test_criterion_9_metric_fixtures():
    t9, t12 = "2x = 3(4x + 5)", "2x = 3 + 4(5x + 6)"
    m8_t9 = str(reduce_with_misconceptions(parse_equation(t9), ["M8"]).answer)
    m8_t12 = str(reduce_with_misconceptions(parse_equation(t12), ["M8"]).answer)
    batch = (
        [Transcript("T9", t9, m8_t9)] * 4
        + [Transcript("T9", t9, "99999")]
        + [Transcript("T12", t12, m8_t12)] * 5
    )
    report = score(batch, "M8")
    assert report.ma == Fraction(90)

    sampler = Corpus(seed=9)
    oracle = {
        t: (str(sampler.sample(t, f"acc9:{t.name}")),) for t in ORDERED_TYPES
    }
    all_correct = [
        Transcript(t.name, eq, str(closed_form_solution(parse_equation(eq))))
        for t, (eq,) in oracle.items()
    ]
    full = score(all_correct, "M8")
    assert full.oca == Fraction(100)
    assert full.property_2 is True

    # verdict table at theta_m = theta_c = 90
    def build(ma_hit, na_hit):
        out = []
        for t, (eq,) in oracle.items():
            if t in (T.T9, T.T12):
                ans = (str(reduce_with_misconceptions(parse_equation(eq), ["M8"]).answer)
                       if ma_hit else str(closed_form_solution(parse_equation(eq))))
            else:
                ans = str(closed_form_solution(parse_equation(eq))) if na_hit else "424242"
            out.append(Transcript(t.name, eq, ans))
        return out

    combos = []
    for ma_hit in (True, False):
        for na_hit in (True, False):
            r = score(build(ma_hit, na_hit), "M8",
                      theta_m=Fraction(90), theta_c=Fraction(90))
            combos.append((r.property_1, r.property_2))
    assert combos == [(True, True), (True, False), (False, True), (False, False)]
    _ok(9, "MA = (80+100)/2 = 90.0 fixture, OCA = 100.0 batch, and all four "
           "verdict combinations at theta = 90.0")


def _unambiguous(eq, trace, m) -> bool:
    """Reject instances whose trace is identical under a different rule
    (e.g. swap errors on A + A); no diagnoser could separate those."""
    lines = trace.equation_lines()
    for other in CATALOG:
        if other.id == m.id:
            continue
        try:
            tr2 = reduce_with_misconceptions(eq, [other])
        except EngineError:
            continue
        if tr2.misconceptions_used == (other.id,) and tr2.equation_lines() == lines:
            return False
    return True


def test_criterion_10_end_to_end_self_consistency():
    # engine-generated malgorithm transcripts score MA = 100 for every rule
    sampler = Corpus(seed=1010)
    for m in CATALOG:
        batch = []
        for t in ORDERED_TYPES:
            if t not in m.applicable_types:
                continue
            rng = sampler.rng_for(f"ma:{m.id}:{t.name}")
            for _ in range(3):
                eq, trace = sample_for_misconception(m, t, rng)
                answer = (str(trace.answer) if trace.answer is not None
                          else trace.equation_lines()[-1])
                batch.append(Transcript(t.name, str(eq), answer))
        report = score(batch, m.id)
        assert report.ma == Fraction(100), (m.id, report.to_dict())

    # engine-generated correct transcripts score OCA = 100
    correct_batch = []
    for t in ORDERED_TYPES:
        for i in range(3):
            eq = sampler.sample(t, f"oca:{t.name}:{i}")
            correct_batch.append(Transcript(t.name, str(eq), str(reduce(eq).answer)))
    assert score(correct_batch, "M8").oca == Fraction(100)

    # diagnosis recovers the generating rule rank-1 on >= 98% of 50
    # transcripts per (rule, type) pair
    worst = (1.0, "")
    for m in CATALOG:
        for t in ORDERED_TYPES:
            if t not in m.applicable_types:
                continue
            rng = sampler.rng_for(f"diag:{m.id}:{t.name}")
            hits = 0
            for _ in range(50):
                for _ in range(MAX_TRIES):  # draw again until the walk is unambiguous
                    eq, trace = sample_for_misconception(m, t, rng)
                    if _unambiguous(eq, trace, m):
                        break
                else:
                    pytest.fail(f"no unambiguous ({m.id}, {t.name}) draw in {MAX_TRIES} tries")
                lines = trace.equation_lines()
                result = diagnose(Transcript(t.name, str(eq), lines[-1], tuple(lines)))
                if result and result[0].misconceptions == (m.id,):
                    hits += 1
            rate = hits / 50
            if rate < worst[0]:
                worst = (rate, f"{m.id} on {t.name}")
            assert hits >= 49, (m.id, t.name, hits)
    detail = f"worst {worst[0]:.0%} ({worst[1]})" if worst[1] else "100% on every pair"
    _ok(10, f"MA = 100.0 and OCA = 100.0 on engine transcripts for all 19 rules; "
            f"diagnose rank-1 >= 98% per pair: {detail}")
