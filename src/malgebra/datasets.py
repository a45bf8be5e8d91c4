"""Seeded, reproducible instance sampling and dataset generation.

Every record's randomness derives from ``(seed, stream, index)``, so output
is byte-identical across re-runs and independent of sharding.  Train/test
leakage is prevented structurally: each equation string hashes into either
the train pool or the test pool (about one quarter), and records are
resampled until they land in the right pool.  Small instance spaces (T1 has
only 324 equations at the default coefficient range) therefore stay disjoint
across the split even when records repeat within a file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from os import PathLike
from pathlib import Path

from .equations import Equation, closed_form_solution, parse_equation
from .errors import EngineError, SamplingExhaustedError, SchemaError, decode_json_object, read_input
from .misconceptions import (
    CATALOG,
    Misconception,
    get_misconception,
    reduce_with_misconceptions,
    try_apply,
)
from .reduction import ReductionTrace, rebuild, reduce
from .taxonomy import (
    CAtom,
    GroupAtom,
    ORDERED_TYPES,
    ProblemType,
    ProdAtom,
    SignedAtom,
    XAtom,
    classify,
)

MAX_TRIES = 1000


def _nz(rng: random.Random, lo: int, hi: int) -> Fraction:
    if lo > hi or (lo == 0 and hi == 0):
        raise SchemaError(f"coefficient range [{lo}, {hi}] has no nonzero integer")
    while True:
        v = rng.randint(lo, hi)
        if v != 0:
            return Fraction(v)


def _build(t: ProblemType, rng: random.Random, lo: int, hi: int) -> Equation:
    """One draw of type ``t``: its slots filled left to right, except that T9,
    T10, T12 and T16 draw some right-side values before the left side."""

    def n() -> Fraction:
        return _nz(rng, lo, hi)

    def x() -> SignedAtom:
        return 1, XAtom(n())

    def c() -> SignedAtom:
        return 1, CAtom(n())

    def signed_lead(make) -> SignedAtom:
        # a later product or group term: its drawn leading factor's sign is the link
        v = n()
        return (-1 if v < 0 else 1), make(abs(v))

    T = ProblemType
    if t is T.T1:
        lhs, rhs = [x()], [c()]
    elif t is T.T2:
        lhs, rhs = [x()], [c(), c()]
    elif t is T.T3:
        lhs, rhs = [x()], [(1, ProdAtom((n(), n())))]
    elif t is T.T4:
        lhs, rhs = [x(), x()], [c()]
    elif t is T.T5:
        lhs, rhs = [x(), c()], [c()]
    elif t is T.T6:
        lhs, rhs = [c(), x()], [c()]
    elif t is T.T7:
        lhs, rhs = [x()], [x(), c()]
    elif t is T.T8:
        lhs, rhs = [x()], [(1, GroupAtom(n(), ((1, ProdAtom((n(), n()))),)))]
    elif t is T.T9:
        inner = (x(), c())
        lhs, rhs = [x()], [(1, GroupAtom(n(), inner))]
    elif t is T.T10:
        lead = c()
        lhs, rhs = [x()], [lead, signed_lead(lambda v: ProdAtom((v, n())))]
    elif t is T.T11:
        lhs, rhs = [c(), x(), x()], [c()]
    elif t is T.T12:
        inner = (x(), c())
        lhs, rhs = [x()], [c(), signed_lead(lambda v: GroupAtom(v, inner))]
    elif t is T.T14:
        lhs, rhs = [x(), c()], [x(), c()]
    elif t is T.T15:
        lhs, rhs = [x(), x()], [c(), c()]
    elif t is T.T16:
        rhs, lhs = [x(), c(), c()], [x()]
    else:
        raise ValueError(f"no builder for {t}")
    return Equation(rebuild(lhs), rebuild(rhs))


def sample_instance(
    t: ProblemType,
    rng: random.Random,
    coeff_min: int = -9,
    coeff_max: int = 9,
    accept=None,
) -> tuple[Equation, ReductionTrace]:
    """Draw a non-degenerate instance of exactly type ``t``, with its correct
    reduction trace.

    Each draw is checked cheapest first: ``classify`` must give ``t``, the
    optional ``accept`` hook must take it, and the closed form and the full
    reduction must both succeed.  No check draws randomness and every check
    must pass, so the order only decides how much work a rejected draw costs:
    the accepted draw, and so the generated bytes, stay the same.
    """
    for _ in range(MAX_TRIES):
        eq = _build(t, rng, coeff_min, coeff_max)
        try:
            if classify(eq) is not t or (accept is not None and not accept(eq)):
                continue
            closed_form_solution(eq)
            return eq, reduce(eq)
        except EngineError:
            continue
    raise SamplingExhaustedError(
        f"no acceptable {t} instance in [{coeff_min}, {coeff_max}] after {MAX_TRIES} draws"
    )


@dataclass(frozen=True)
class InstanceSampler:
    """Deterministic instance source: same seed and config, same sequence."""

    seed: int
    coeff_min: int = -9
    coeff_max: int = 9

    def rng_for(self, key: str) -> random.Random:
        return random.Random(f"{self.seed}:{key}")

    def sample(self, t: ProblemType, key: str, accept=None) -> Equation:
        eq, _ = sample_instance(t, self.rng_for(key), self.coeff_min, self.coeff_max, accept)
        return eq


def sample_for_misconception(
    m: Misconception | str,
    t: ProblemType,
    rng: random.Random,
    coeff_min: int = -9,
    coeff_max: int = 9,
    accept=None,
) -> tuple[Equation, ReductionTrace]:
    """An instance of ``t`` whose single-misconception trace actually uses
    ``m`` and ends somewhere distinguishable from the correct answer."""
    m = m if isinstance(m, Misconception) else get_misconception(m)
    for _ in range(MAX_TRIES):
        eq, correct = sample_instance(t, rng, coeff_min, coeff_max)
        try:
            trace = reduce_with_misconceptions(eq, [m])
        except EngineError:
            continue
        if trace.misconceptions_used != (m.id,):
            continue
        if trace.dead_end is None and trace.answer == correct.answer:
            continue
        if accept is not None and not accept(eq, trace):
            continue
        return eq, trace
    raise SamplingExhaustedError(
        f"no conforming ({m.id}, {t}) instance after {MAX_TRIES} attempts"
    )


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

_VALID_RATIOS = (0.0, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class DatasetConfig:
    seed: int = 0
    misconception: str | None = None
    n_m: int = 0
    ratio: float = 0.0  # n_c / n_m
    n_correct_per_type: int = 2000
    test_per_type: int = 500
    coeff_min: int = -9
    coeff_max: int = 9
    out_dir: str = "dataset"

    def validate(self) -> None:
        if isinstance(self.ratio, bool) or self.ratio not in _VALID_RATIOS:
            raise SchemaError(
                f"ratio must be one of {_VALID_RATIOS}, got {self.ratio}"
            )
        for name in ("seed", "n_m", "n_correct_per_type", "test_per_type",
                     "coeff_min", "coeff_max"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.misconception, (str, type(None))):
            raise SchemaError(f"misconception must be an id string, got {self.misconception!r}")
        if not isinstance(self.out_dir, (str, PathLike)):
            raise SchemaError(f"out_dir must be a path string, got {self.out_dir!r}")
        for name in ("n_m", "n_correct_per_type", "test_per_type"):
            if getattr(self, name) < 0:
                raise SchemaError(f"{name} must be >= 0")
        if self.misconception is not None:
            get_misconception(self.misconception)


def config_from_dict(data: dict) -> DatasetConfig:
    allowed = set(DatasetConfig.__dataclass_fields__)
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"unknown config fields: {sorted(unknown)}")
    return DatasetConfig(**data)


def _pool(seed: int, equation_text: str) -> str:
    digest = hashlib.sha256(f"{seed}:{equation_text}".encode()).digest()
    return "test" if digest[0] < 64 else "train"


def generate(config: DatasetConfig) -> dict:
    """Emit train.jsonl, test.jsonl and manifest.json under ``out_dir``.

    With a misconception: n_m erroneous records over its applicable types
    plus floor(ratio * n_m) correct records over all types.  Without one:
    n_correct_per_type correct records per type.  The test file always holds
    test_per_type correct records per type, disjoint from train.

    Each record draws from its own stream key (``train:mal:{i}``,
    ``train:cor:{i}``, ``train:cor:{type}:{i}``, ``test:{type}:{i}``).  No
    stream key depends on n_m or the ratio, so a smaller cell's misconception
    and correct records are the first ones of a larger cell's, ids aside, and
    test.jsonl is the same for every cell.
    """
    config.validate()
    m = get_misconception(config.misconception) if config.misconception else None
    sampler = InstanceSampler(config.seed, config.coeff_min, config.coeff_max)

    # (stream key, type, rule) per record; rule None draws a correct record
    if m is None:
        train = [(f"train:cor:{t.name}:{i}", t, None)
                 for t in ORDERED_TYPES for i in range(config.n_correct_per_type)]
    else:
        alpha = [t for t in ORDERED_TYPES if t in m.applicable_types]
        mal = [f"train:mal:{i}" for i in range(config.n_m)]
        cor = [f"train:cor:{i}" for i in range(int(config.ratio * config.n_m))]
        train = [(k, sampler.rng_for(f"{k}:type").choice(alpha), m) for k in mal]
        train += [(k, sampler.rng_for(f"{k}:type").choice(ORDERED_TYPES), None) for k in cor]
    test = [(f"test:{t.name}:{i}", t, None)
            for t in ORDERED_TYPES for i in range(config.test_per_type)]

    splits: dict[str, list[dict]] = {}
    for pool, draws in (("train", train), ("test", test)):
        records = splits[pool] = []
        # sample_for_misconception's accept hook also gets the trace
        in_pool = lambda e, *_: _pool(config.seed, str(e)) == pool
        for key, t, rule in draws:
            rng = sampler.rng_for(key)
            if rule is None:
                _, trace = sample_instance(t, rng, config.coeff_min, config.coeff_max, in_pool)
            else:
                _, trace = sample_for_misconception(
                    rule, t, rng, config.coeff_min, config.coeff_max, in_pool
                )
            lines = trace.equation_lines()
            rec = {
                "id": f"{pool}-{len(records):06d}",
                "problem_type": t.name,
                "equation": lines[0],
                "steps": lines,
                "final_answer": lines[-1],
                "label": "correct" if rule is None else "misconception",
            }
            if rule is not None:
                rec["misconception_id"] = rule.id
            rec["seed"] = f"{config.seed}:{key}"
            records.append(rec)

    files = {
        f"{pool}.jsonl": "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        for pool, records in splits.items()
    }
    digests = {name: hashlib.sha256(t.encode("utf-8")).hexdigest() for name, t in files.items()}

    # the manifest identifies the content, not its location
    echoed = {k: v for k, v in asdict(config).items() if k != "out_dir"}
    echoed["ratio"] = float(config.ratio)  # 1 and 1.0 name one config
    manifest = {
        "config": echoed,
        "config_hash": hashlib.sha256(
            json.dumps(echoed, sort_keys=True).encode()
        ).hexdigest(),
        "counts": {pool: _count(records) for pool, records in splits.items()},
        "digests": digests,
    }
    files["manifest.json"] = json.dumps(manifest, indent=2) + "\n"
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot write to output directory {out}: {exc}") from None
    return manifest


def _count(records: list[dict]) -> dict:
    by_type: dict[str, dict[str, int]] = {}
    totals = {"total": len(records), "correct": 0, "misconception": 0}
    for r in records:
        totals[r["label"]] += 1
        slot = by_type.setdefault(r["problem_type"], {"correct": 0, "misconception": 0})
        slot[r["label"]] += 1
    totals["by_type"] = {k: by_type[k] for k in sorted(by_type)}
    return totals


# ---------------------------------------------------------------------------
# Dataset verification (replay)
# ---------------------------------------------------------------------------

_RECORD_KEYS = ("id", "problem_type", "equation", "steps", "final_answer", "label", "seed")


@dataclass
class VerifyReport:
    total: int = 0
    passed: int = 0
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.total > 0 and self.passed == self.total


def _replay(rec: dict) -> None:
    """Check the record's fields, then re-derive its steps from its equation."""
    missing = [k for k in _RECORD_KEYS if k not in rec]
    if missing:
        raise SchemaError(f"missing fields: {missing}")
    for name in (*_RECORD_KEYS, "misconception_id"):
        if name != "steps" and not isinstance(rec.get(name, ""), str):
            raise SchemaError(f"field '{name}' must be a string")
    steps = rec["steps"]
    if not isinstance(steps, list) or not all(isinstance(s, str) for s in steps):
        raise SchemaError("field 'steps' must be a list of strings")
    eq = parse_equation(rec["equation"])
    t = classify(eq)
    if t.name != rec["problem_type"]:
        raise SchemaError(f"classifies as {t.name}, recorded {rec['problem_type']}")
    label = rec["label"]
    if label == "correct":
        trace = reduce(eq)
        if str(trace.answer) not in rec["final_answer"]:
            raise SchemaError("final answer does not match the oracle")
        if trace.answer != closed_form_solution(eq):
            raise SchemaError("correct record disagrees with the closed form")
    elif label == "misconception":
        mid = rec.get("misconception_id")
        if not mid:
            raise SchemaError("misconception record lacks misconception_id")
        trace = reduce_with_misconceptions(eq, [mid])
        if trace.misconceptions_used != (mid,):
            raise SchemaError(f"trace does not use exactly {mid}")
    else:
        raise SchemaError(f"unknown label {label!r}")
    if rec["steps"] != trace.equation_lines():
        raise SchemaError("steps do not replay")
    if rec["final_answer"] != rec["steps"][-1]:
        raise SchemaError("final_answer is not the last step")


def verify_records(lines: list[str]) -> VerifyReport:
    report = VerifyReport()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        report.total += 1
        try:
            _replay(decode_json_object(line))
        except (EngineError, SchemaError) as exc:
            report.failures.append((lineno, str(exc)))
            continue
        report.passed += 1
    return report


def verify_dataset(path: str | Path) -> VerifyReport:
    return verify_records(read_input(path, "dataset").splitlines())


def misconception_targets() -> dict[tuple[ProblemType, str], str]:
    """Computed target label per (type, misconception) edge, derived by
    rewriting a conforming representative instance and reclassifying.  A
    target depends only on the instance's shape, so one fixed draw serves."""
    out: dict[tuple[ProblemType, str], str] = {}
    for m in CATALOG:
        for t in ORDERED_TYPES:
            if t not in m.applicable_types:
                continue
            if m.at_solve:
                out[(t, m.id)] = "solved"
                continue
            rng = random.Random(f"0:target:{m.id}:{t.name}")
            try:
                eq, _ = sample_for_misconception(m, t, rng)
            except SamplingExhaustedError:
                out[(t, m.id)] = "none"
                continue
            res = try_apply(m, eq, t)
            assert res is not None
            _, label = res
            out[(t, m.id)] = str(label)
    return out
