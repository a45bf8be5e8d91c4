from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import get_args

import pytest

import malgebra.datasets as datasets
from malgebra.datasets import (
    MAX_TRIES,
    DatasetConfig,
    config_from_dict,
    generate,
    sample_for_misconception,
    sample_instance,
    verify_dataset,
)
from malgebra.equations import MAX_NUMERAL_DIGITS, closed_form_solution, parse_equation
from malgebra.errors import (
    NoUniqueSolutionError, SamplingExhaustedError, SchemaError, ZeroCoefficientError,
)
from malgebra.misconceptions import CATALOG, Node, reduce_with_misconceptions, walk
from malgebra.taxonomy import ORDERED_TYPES, ProblemType, classify

T = ProblemType


def _build(t: ProblemType, rng: random.Random, lo: int, hi: int):
    """One draw of type ``t`` as the equation of the root ``sample_instance``
    builds once the pool accepts the draw."""
    values = datasets._draw(t, rng, lo, hi)
    return datasets._root(t, values, datasets._line(t, values)).equation


def test_sampled_instances_are_wellformed(sampler):
    for t in ORDERED_TYPES:
        for i in range(30):
            eq = sampler.sample(t, f"wf:{t.name}:{i}")
            assert classify(eq) is t
            closed_form_solution(eq)  # must not raise


def test_t7_avoids_zero_slope(sampler):
    for i in range(100):
        eq = sampler.sample(T.T7, f"slope:{i}")
        left, right = eq.lhs.coef, eq.rhs
        closed_form_solution(eq)


def test_exhaustion_on_impossible_range():
    # the only T9 instance with every slot 1 has zero slope: 1 - 1*1 = 0
    rng = random.Random(0)
    with pytest.raises(SamplingExhaustedError):
        sample_instance(T.T9, rng, coeff_min=1, coeff_max=1)


@pytest.mark.parametrize("lo, hi", [(5, 1), (0, 0)])
def test_empty_coefficient_range_rejected(lo, hi):
    # validate refuses a range with no nonzero integer whatever the record
    # counts, and sample_instance, a public entry point, refuses it itself
    message = rf"coefficient range \[{lo}, {hi}\] has no nonzero integer"
    with pytest.raises(SchemaError, match=message):
        DatasetConfig(coeff_min=lo, coeff_max=hi, n_correct_per_type=0, test_per_type=0).validate()
    with pytest.raises(SchemaError, match=message):
        sample_instance(T.T1, random.Random(0), lo, hi)


def test_conforming_misconception_sampling(rng):
    for mid, t in (("M6", T.T9), ("M14", T.T2), ("M15", T.T4), ("M18", T.T2)):
        eq, trace = sample_for_misconception(mid, t, rng)
        assert classify(eq) is t
        assert trace.misconceptions_used == (mid,)
        if trace.dead_end is None:
            assert trace.answer != closed_form_solution(eq)


def test_misconception_exhaustion_is_bounded(monkeypatch):
    # M6 never fires on a positive multiplier, so no draw at [1, 9] conforms;
    # the sampler gives up after exactly MAX_TRIES draws in all
    calls = []
    draw = datasets._draw

    def counting_draw(*args):
        calls.append(None)
        return draw(*args)

    monkeypatch.setattr(datasets, "_draw", counting_draw)
    with pytest.raises(SamplingExhaustedError):
        sample_for_misconception("M6", T.T9, random.Random(0), 1, 9)
    assert len(calls) == MAX_TRIES


def test_dead_end_misconception_records_sample(rng):
    eq, trace = sample_for_misconception("M13", T.T5, rng)
    assert trace.dead_end == "variable eliminated"
    assert trace.answer is None


@pytest.mark.parametrize("cell", [
    dict(n_correct_per_type=2),
    dict(misconception="M6", n_m=30, ratio=0.0, coeff_min=-12, coeff_max=5),
])
def test_record_seed_redraws_it(tmp_path, cell):
    """A record's ``seed`` is the string its draw was seeded with: drawing
    again from it, with the cell's range, the split's pool test and the
    record's rule, gives back the record's steps."""
    config = DatasetConfig(seed=3, test_per_type=1, out_dir=str(tmp_path), **cell)
    generate(config)
    redrawn = 0
    for pool in ("train", "test"):
        in_pool = lambda line: datasets._pool(config.seed, line) == pool
        for line in (tmp_path / f"{pool}.jsonl").read_text().splitlines():
            rec = json.loads(line)
            _, trace = sample_instance(T[rec["problem_type"]], random.Random(rec["seed"]),
                                       config.coeff_min, config.coeff_max, in_pool,
                                       rec.get("misconception_id"))
            assert trace.equation_lines() == rec["steps"], rec["id"]
            redrawn += 1
    assert redrawn == 45


def test_generate_counts_and_ratio(tmp_path):
    config = DatasetConfig(
        seed=5, misconception="M8", n_m=40, ratio=0.25, test_per_type=2,
        out_dir=str(tmp_path / "d1"),
    )
    manifest = generate(config)
    assert manifest["counts"]["train"]["misconception"] == 40
    assert manifest["counts"]["train"]["correct"] == 10
    assert manifest["counts"]["test"]["total"] == 30
    by_type = manifest["counts"]["train"]["by_type"]
    assert set(by_type) <= {"T9", "T12"} | {t.name for t in ORDERED_TYPES}
    mal_types = {k for k, v in by_type.items() if v["misconception"]}
    assert mal_types <= {"T9", "T12"}
    lines = (tmp_path / "d1" / "train.jsonl").read_text().splitlines()
    assert len(lines) == 50
    assert manifest["counts"]["test"]["by_type"]["T1"]["correct"] == 2


def test_generate_ratio_zero(tmp_path):
    config = DatasetConfig(
        seed=5, misconception="M8", n_m=10, ratio=0.0, test_per_type=0,
        out_dir=str(tmp_path / "d2"),
    )
    manifest = generate(config)
    assert manifest["counts"]["train"]["total"] == 10
    assert manifest["counts"]["train"]["correct"] == 0
    assert manifest["counts"]["test"]["total"] == 0


def test_generate_correct_regime(tmp_path):
    config = DatasetConfig(
        seed=5, n_correct_per_type=4, test_per_type=1, out_dir=str(tmp_path / "d3"),
    )
    manifest = generate(config)
    assert manifest["counts"]["train"]["total"] == 4 * 15
    assert manifest["counts"]["train"]["misconception"] == 0
    for t in ORDERED_TYPES:
        assert manifest["counts"]["train"]["by_type"][t.name]["correct"] == 4


def test_generate_is_byte_identical(tmp_path):
    cfg = dict(seed=11, misconception="M12_S15", n_m=20, ratio=0.5, test_per_type=1)
    m1 = generate(DatasetConfig(**cfg, out_dir=str(tmp_path / "a")))
    m2 = generate(DatasetConfig(**cfg, out_dir=str(tmp_path / "b")))
    for name in ("train.jsonl", "test.jsonl", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert m1["digests"] == m2["digests"]


def test_generate_cells_are_prefixes_of_the_largest(tmp_path):
    # no stream key depends on n_m or the ratio: ids aside, a cell's
    # misconception and correct records lead the largest cell's, and every
    # cell writes the same test split
    def cell(rule, n_m, ratio):
        out = tmp_path / f"{rule}_{n_m}_{ratio}"
        generate(DatasetConfig(seed=5, misconception=rule, n_m=n_m, ratio=ratio,
                               test_per_type=3, out_dir=str(out)))
        by_label = {"misconception": [], "correct": []}
        for line in (out / "train.jsonl").read_text().splitlines():
            rec = json.loads(line)
            del rec["id"]
            by_label[rec["label"]].append(rec)
        return by_label, (out / "test.jsonl").read_bytes()

    for rule in ("M1", "M6", "M19"):
        big, big_test = cell(rule, 40, 1.0)
        for n_m in (10, 25, 40):
            for ratio in (0.25, 0.5, 1.0):
                small, test = cell(rule, n_m, ratio)
                assert test == big_test
                assert small["misconception"] == big["misconception"][:n_m]
                assert small["correct"] == big["correct"][:int(ratio * n_m)]


# sha256 of the files two small configs write.  Unlike the re-run check above
# these hold across versions of the code: a change to which draw the sampler
# accepts changes them.
_PINNED_DIGESTS = {
    "correct": (
        dict(seed=0, n_correct_per_type=3, test_per_type=2),
        {
            "train.jsonl": "5788336cd9161d8cc194aac26779726eade8bad079fbfe8b00853c28378a8db8",
            "test.jsonl": "03f8e614379429f4e7a91a12177db55f096e3b9c05ccc35e0b28b22c9d45217c",
            "manifest.json": "1506fd7ac67cb5dbbd9a57ebc482702c1074e3af0e7a9507083e3edea6581fd1",
        },
    ),
    "misconception": (
        dict(seed=0, misconception="M6", n_m=20, ratio=0.5, test_per_type=2),
        {
            "train.jsonl": "2e597e56e9cbe0f32fd68e5e3f6190a59432115f7b602aed035c82ce03dbbbab",
            "test.jsonl": "03f8e614379429f4e7a91a12177db55f096e3b9c05ccc35e0b28b22c9d45217c",
            "manifest.json": "3ebd42dfaf6cb4f603f61157917be6a44c3def6339920a351f04d1e089f9a0a6",
        },
    ),
}


@pytest.mark.parametrize("regime", sorted(_PINNED_DIGESTS))
def test_generate_matches_pinned_digests(tmp_path, regime):
    cfg, expected = _PINNED_DIGESTS[regime]
    generate(DatasetConfig(**cfg, out_dir=str(tmp_path)))
    actual = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected
    }
    assert actual == expected


def test_every_rule_matches_pinned_digest(tmp_path):
    """sha256 over the train.jsonl bytes of a small cell per catalog row, at
    coefficients +-9 and [-2, 1], in that order: it pins which draw the
    sampler accepts for every rule, not just M6."""
    h = hashlib.sha256()
    for m in CATALOG:
        for lo, hi in ((-9, 9), (-2, 1)):
            out = tmp_path / f"{m.id}_{lo}_{hi}"
            generate(DatasetConfig(seed=11, misconception=m.id, n_m=12, ratio=0.25,
                                   test_per_type=0, coeff_min=lo, coeff_max=hi,
                                   out_dir=str(out)))
            h.update((out / "train.jsonl").read_bytes())
    assert h.hexdigest() == "62931eb1beb34bebf447be9851ebb4e32cfd2aa35f5a55e11c9ef9f192ded253"


@pytest.mark.parametrize("cell, most", [
    ({"n_correct_per_type": 20}, 2932),  # 360 records
    ({"misconception": "M6", "n_m": 60, "ratio": 0.5}, 5006),  # 150 records
    ({"misconception": "M4", "n_m": 60, "ratio": 0.5}, 1681),  # 150 records
])
def test_fraction_constructions_per_gen_record(tmp_path, cell, most):
    # a record's values become Fractions once, and a walk step makes only
    # the Fractions its arithmetic needs: an upper bound on the Fractions
    # generate makes for small cells at seed 0 (CPython 3.11; a later
    # CPython makes arithmetic results without calling Fraction.__new__)
    config = DatasetConfig(seed=0, test_per_type=4, out_dir=str(tmp_path), **cell)
    made, new = 0, Fraction.__new__.__code__

    def count(frame, event, arg):
        nonlocal made
        made += event == "call" and frame.f_code is new

    sys.setprofile(count)
    try:
        generate(config)
    finally:
        sys.setprofile(None)
    assert 0 < made <= most, made


def _expr_builds(config: DatasetConfig) -> tuple[int, int]:
    """``(Expr nodes constructed, rebuild calls)`` while ``generate(config)``
    runs; a code object compares by value, so each is matched by identity."""
    from malgebra import equations, taxonomy

    nodes = {id(c.__init__.__code__) for c in get_args(equations.Expr)}
    chain = id(taxonomy.rebuild.__code__)
    built = rebuilt = 0

    def count(frame, event, arg):
        nonlocal built, rebuilt
        if event == "call":
            built += id(frame.f_code) in nodes
            rebuilt += id(frame.f_code) == chain

    sys.setprofile(count)
    try:
        generate(config)
    finally:
        sys.setprofile(None)
    return built, rebuilt


def test_correct_gen_builds_no_expression(tmp_path):
    # a draw is its atoms and a correct walk's states print from their sides
    assert _expr_builds(DatasetConfig(seed=0, n_correct_per_type=4, test_per_type=4,
                                      out_dir=str(tmp_path))) == (0, 0)


def test_m1_gen_builds_one_chain_per_firing(tmp_path):
    # the one rule that builds an Expr: M1's A + (part) rewrite rebuilds
    # (part) as a chain each time it fires: 21 calls for these 20 records
    built, rebuilt = _expr_builds(DatasetConfig(
        seed=0, misconception="M1", n_m=20, ratio=0.0, test_per_type=0, out_dir=str(tmp_path)))
    assert 0 < rebuilt <= 21 and built > 0, (built, rebuilt)


def test_train_and_test_are_disjoint(tmp_path):
    config = DatasetConfig(
        seed=3, n_correct_per_type=60, test_per_type=40, out_dir=str(tmp_path / "d4"),
    )
    generate(config)
    train_eqs = {
        json.loads(l)["equation"]
        for l in (tmp_path / "d4" / "train.jsonl").read_text().splitlines()
    }
    test_eqs = {
        json.loads(l)["equation"]
        for l in (tmp_path / "d4" / "test.jsonl").read_text().splitlines()
    }
    assert not (train_eqs & test_eqs)


def test_record_shape_and_replay(tmp_path):
    config = DatasetConfig(
        seed=9, misconception="M13", n_m=15, ratio=1.0, test_per_type=1,
        out_dir=str(tmp_path / "d5"),
    )
    generate(config)
    path = tmp_path / "d5" / "train.jsonl"
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        base = ["id", "problem_type", "equation", "steps", "final_answer", "label"]
        expected = base + (["misconception_id"] if rec["label"] == "misconception" else []) + ["seed"]
        assert list(rec) == expected
        assert rec["steps"][0] == rec["equation"]
        assert rec["final_answer"] == rec["steps"][-1]
        if rec["label"] == "misconception":
            trace = reduce_with_misconceptions(parse_equation(rec["equation"]), ["M13"])
            assert trace.equation_lines() == rec["steps"]
    report = verify_dataset(path)
    assert report.ok, report.failures
    assert verify_dataset(tmp_path / "d5" / "test.jsonl").ok


def test_verify_flags_corruption(tmp_path):
    config = DatasetConfig(seed=2, n_correct_per_type=1, test_per_type=0,
                           out_dir=str(tmp_path / "d6"))
    generate(config)
    path = tmp_path / "d6" / "train.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["steps"][-1] = "x = 999999"
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    report = verify_dataset(path)
    assert not report.ok
    assert [ln for ln, _ in report.failures] == [4]


def test_verify_splits_records_on_newlines_only(tmp_path):
    # JSON allows U+2028, U+2029 and U+0085 raw inside a string and a lone
    # "\r" between tokens; a record may end in "\r\n", and blank lines, a
    # trailing one included, are skipped
    generate(DatasetConfig(seed=2, n_correct_per_type=0, test_per_type=1, out_dir=str(tmp_path)))
    path = tmp_path / "test.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[3]["id"] += "\u2028\u2029\x85"
    lines = [json.dumps(rec, ensure_ascii=False) for rec in records]
    lines[5] = lines[5].replace(', "label"', ',\r"label"')
    path.write_bytes(("\r\n".join(lines) + "\n\n").encode())
    report = verify_dataset(path)
    assert (report.total, report.passed) == (15, 15), report.failures


def test_widest_coefficients_generate_and_replay(tmp_path):
    # the widest bounds the config accepts: coefficients of up to 20 digits
    top = 10**MAX_NUMERAL_DIGITS - 1
    for name, config, sizes in (
        ("cor", DatasetConfig(seed=5, n_correct_per_type=3, test_per_type=2), (45, 30)),
        ("mal", DatasetConfig(seed=5, misconception="M12_S15", n_m=20, ratio=1.0,
                              test_per_type=0), (40, 0)),
    ):
        out = tmp_path / name
        generate(replace(config, coeff_min=-top, coeff_max=top, out_dir=str(out)))
        for split, n in zip(("train", "test"), sizes):
            lines = (out / f"{split}.jsonl").read_text().splitlines()
            report = datasets.verify_records(lines)
            assert (report.total, report.passed) == (n, n), report.failures


def test_invalid_ratio_rejected():
    with pytest.raises(SchemaError):
        DatasetConfig(ratio=0.3).validate()
    with pytest.raises(SchemaError):
        config_from_dict({"ratio": 0.25, "bogus": 1})


def test_manifest_counts_match_files(tmp_path):
    config = DatasetConfig(
        seed=13, misconception="M19", n_m=12, ratio=0.5, test_per_type=2,
        out_dir=str(tmp_path / "d7"),
    )
    manifest = generate(config)
    train_lines = (tmp_path / "d7" / "train.jsonl").read_text().splitlines()
    test_lines = (tmp_path / "d7" / "test.jsonl").read_text().splitlines()
    assert manifest["counts"]["train"]["total"] == len(train_lines)
    assert manifest["counts"]["test"]["total"] == len(test_lines)
    n_mal = sum(1 for l in train_lines if json.loads(l)["label"] == "misconception")
    assert manifest["counts"]["train"]["misconception"] == n_mal == 12


def test_build_matches_pinned_digest():
    """200 draws per type from ``_build``: the digest pins each type's draw
    order and every node of the chains ``rebuild`` makes from the drawn atoms.
    Coefficients in [-2, 1] make x, -x and the minus link of a later product
    or group common."""
    for lo, hi, digest in (
        (-9, 9, "98ce689a84160dbca5ac5df08280862e97d8a9ad9cf26fc53bf8f664b1dd90aa"),
        (-2, 1, "5cb82af3df62568c12341a7c2af5e239be6107f35c42287c48a1e82ed2da0615"),
    ):
        h = hashlib.sha256()
        for t in ORDERED_TYPES:
            rng = random.Random(f"build:{t.name}")
            for _ in range(200):
                h.update(repr(_build(t, rng, lo, hi)).encode() + b"\n")
        assert h.hexdigest() == digest, (lo, hi)


@pytest.mark.parametrize("lo, hi", [(-9, 9), (-2, 1), (1, 9), (-9, -1),
                                    (-(10**MAX_NUMERAL_DIGITS - 1), 10**MAX_NUMERAL_DIGITS - 1)])
def test_draw_line_is_the_built_equation_printed(lo, hi):
    # the pool test reads a draw's line before any equation is built: from the
    # same stream, the line must be what _build's equation prints.  [-2, 1]
    # makes x, -x and the minus link of a later product or group common.
    for t in ORDERED_TYPES:
        drawn, built = random.Random(f"line:{t.name}"), random.Random(f"line:{t.name}")
        for _ in range(1500):
            assert datasets._line(t, datasets._draw(t, drawn, lo, hi)) == str(_build(t, built, lo, hi))


@pytest.mark.parametrize("lo, hi", [(-9, 9), (-2, 1), (1, 9), (-9, -1)])
def test_every_build_draw_classifies_as_its_type(lo, hi):
    # sample_instance labels a draw's root with its type without classifying it
    for t in ORDERED_TYPES:
        rng = random.Random(f"build-class:{t.name}")
        for _ in range(500):
            eq = _build(t, rng, lo, hi)
            assert classify(eq) is t, eq


@pytest.mark.parametrize("lo, hi", [(-9, 9), (-2, 1)])
def test_correct_walk_rejects_exactly_the_zero_slope_draws(lo, hi):
    # sample_instance's only per-draw test is the correct walk: it must fail
    # exactly where the closed form finds no unique solution, and agree elsewhere
    degenerate = 0
    for t in ORDERED_TYPES:
        rng = random.Random(f"build-walk:{t.name}")
        for _ in range(300):
            eq = _build(t, rng, lo, hi)
            try:
                answer = closed_form_solution(eq)
            except NoUniqueSolutionError:
                degenerate += 1
                with pytest.raises(ZeroCoefficientError):
                    walk(Node(eq, t), ())
            else:
                assert walk(Node(eq, t), ()).answer == answer, eq
    assert degenerate
