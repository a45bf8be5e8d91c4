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
from typing import Sequence

from .equations import Equation, closed_form_solution, parse_equation
from .errors import EngineError, SamplingExhaustedError, SchemaError, decode_json_object, read_input
from .misconceptions import (
    CATALOG, Misconception, Node, get_misconception, reduce_with_misconceptions, walk,
)
from .reduction import ReductionTrace, rebuild, reduce
from .taxonomy import (
    CAtom,
    CORRECT_EDGES,
    GroupAtom,
    ORDERED_TYPES,
    PATTERN_ATOMS,
    ProblemType,
    ProdAtom,
    SignedAtom,
    XAtom,
    classify,
    letter_code,
)

MAX_TRIES = 1000


def _nz(rng: random.Random, lo: int, hi: int) -> Fraction:
    if lo > hi or (lo == 0 and hi == 0):
        raise SchemaError(f"coefficient range [{lo}, {hi}] has no nonzero integer")
    while True:
        v = rng.randint(lo, hi)
        if v != 0:
            return Fraction(v)


# where a type draws its letters other than alphabetically; the pinned digests
# record these orders
_DRAW_ORDER = {ProblemType.T9: "CDAB", ProblemType.T10: "BACD",
               ProblemType.T12: "DEABC", ProblemType.T16: "BCDA"}
_CODES = {t: [letter_code(c) for c in _DRAW_ORDER.get(t) or sorted(filter(str.isupper, t.pattern))]
          for t in ORDERED_TYPES}


def _build(t: ProblemType, rng: random.Random, lo: int, hi: int) -> Equation:
    """One draw of type ``t``: a nonzero value per letter of its pattern, then
    each side of the pattern's parse rebuilt with those values."""
    values = {code: _nz(rng, lo, hi) for code in _CODES[t]}
    lhs, rhs = PATTERN_ATOMS[t]
    return Equation(rebuild(_fill(lhs, values)), rebuild(_fill(rhs, values)))


def _fill(atoms: Sequence[SignedAtom], values: dict[int, Fraction]) -> list[SignedAtom]:
    """``atoms`` with each letter code ``c`` replaced by ``values[c.numerator]``
    (an int key hashes much faster than a ``Fraction``); a later product or
    group term links by minus when its leading factor is negative."""
    out: list[SignedAtom] = []
    for i, (s, a) in enumerate(atoms):
        if isinstance(a, XAtom):
            a = XAtom(values[a.coef.numerator])
        elif isinstance(a, CAtom):
            a = CAtom(values[a.value.numerator])
        else:
            lead = values[(a.factors[0] if isinstance(a, ProdAtom) else a.multiplier).numerator]
            if i and lead < 0:
                s, lead = -s, -lead
            if isinstance(a, ProdAtom):
                a = ProdAtom((lead, *(values[c.numerator] for c in a.factors[1:])))
            else:
                a = GroupAtom(lead, tuple(_fill(a.inner, values)))
        out.append((s, a))
    return out


def sample_instance(
    t: ProblemType,
    rng: random.Random,
    coeff_min: int = -9,
    coeff_max: int = 9,
    accept=None,
    m: Misconception | str | None = None,
) -> tuple[Equation, ReductionTrace]:
    """Draw a non-degenerate instance of exactly type ``t`` with its correct
    reduction trace or, given a misconception ``m``, with the trace firing it.

    Each draw is checked in turn, the check that rejects most draws first:
    the optional ``accept`` hook must take it, ``classify`` must give ``t``,
    and the closed form and the correct walk must both succeed.  With ``m``,
    the walk firing ``m`` then starts from the root the correct walk built;
    it must use exactly ``m`` and end somewhere distinguishable from the
    correct answer.  No check draws randomness and every check must pass, so
    the order only decides how much work a rejected draw costs: the accepted
    draw, and so the generated bytes, stay the same.  At most ``MAX_TRIES``
    draws are made.
    """
    mals = () if m is None else (get_misconception(m),)
    for _ in range(MAX_TRIES):
        eq = _build(t, rng, coeff_min, coeff_max)
        try:
            if (accept is not None and not accept(eq)) or classify(eq) is not t:
                continue
            closed_form_solution(eq)
            trace = correct = walk(root := Node(eq, t), ())
            if mals:
                trace = walk(root, mals)
        except EngineError:
            continue
        if not mals or (trace.misconceptions_used == (mals[0].id,)
                        and (trace.dead_end is not None or trace.answer != correct.answer)):
            return eq, trace
    what = f"acceptable {t}" if m is None else f"conforming ({m}, {t})"
    raise SamplingExhaustedError(
        f"no {what} instance in [{coeff_min}, {coeff_max}] after {MAX_TRIES} draws"
    )


@dataclass(frozen=True)
class InstanceSampler:
    """Deterministic instance source: same seed and config, same sequence."""

    seed: int
    coeff_min: int = -9
    coeff_max: int = 9

    def rng_for(self, key: str) -> random.Random:
        return random.Random(f"{self.seed}:{key}")

    def sample(self, t: ProblemType, key: str) -> Equation:
        eq, _ = sample_instance(t, self.rng_for(key), self.coeff_min, self.coeff_max)
        return eq


def sample_for_misconception(
    m: Misconception | str,
    t: ProblemType,
    rng: random.Random,
    coeff_min: int = -9,
    coeff_max: int = 9,
    accept=None,
) -> tuple[Equation, ReductionTrace]:
    """``sample_instance`` of ``t`` firing ``m``, drawn again until the
    optional ``accept(eq, trace)`` hook takes the instance and its trace."""
    for _ in range(MAX_TRIES):
        eq, trace = sample_instance(t, rng, coeff_min, coeff_max, m=m)
        if accept is None or accept(eq, trace):
            return eq, trace
    raise SamplingExhaustedError(
        f"no ({m}, {t}) instance the hook accepts after {MAX_TRIES} attempts"
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
        in_pool = lambda e: _pool(config.seed, str(e)) == pool
        for key, t, rule in draws:
            _, trace = sample_instance(t, sampler.rng_for(key), config.coeff_min,
                                       config.coeff_max, in_pool, rule)
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


def type_graph() -> dict:
    """The ``dump-graph`` document: the types, every correct edge, and every
    (type, misconception) edge with the label its rewrite reaches."""
    edges = [{"source": src.name, "target": dst.name, "kind": "correct", "id": rule}
             for src, rule, dst in CORRECT_EDGES]
    edges += [{"source": t.name, "computed": _computed_target(m, t), "kind": "misconception",
               "id": m.id} for m in CATALOG for t in ORDERED_TYPES if t in m.applicable_types]
    return {"nodes": [t.name for t in ORDERED_TYPES], "edges": edges}


def _computed_target(m: Misconception, t: ProblemType) -> str:
    """The label ``m`` rewrites a ``t`` instance to, computed on one conforming
    instance drawn from the stream ``0:target:{rule}:{type}``: a target depends
    only on the instance's shape, so one fixed draw serves."""
    if m.at_solve:
        return "solved"
    try:
        _, trace = sample_instance(t, random.Random(f"0:target:{m.id}:{t.name}"), m=m)
    except SamplingExhaustedError:
        return "none"
    assert trace.steps[1].via.rule_id == m.id  # m fired on the drawn instance itself
    return str(trace.steps[1].label)
