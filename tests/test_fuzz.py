"""Seeded fuzzing of the CLI: every input ends in a documented exit code
with at most one message line per error.

Equation commands get mutated equation text, ``score`` and ``diagnose`` get
transcript lines with random field values, ``verify`` gets dataset lines and
``gen --config`` config files with random field values, and oversized inputs
(long equations, deep JSON nesting, huge JSON numbers) probe the bounds.
``cli.main`` runs in-process, so any exception escaping it fails the test
with its traceback.  The same mutated text checks the two round trips that
comparing a transcript as printed rests on.
"""

from __future__ import annotations

import json
import random
import re

from conftest import Corpus

from malgebra.cli import main
from malgebra.datasets import DatasetConfig, generate
from malgebra.equations import parse_equation
from malgebra.errors import EngineError
from malgebra.misconceptions import CATALOG
from malgebra.solution_space import enumerate_tree
from malgebra.taxonomy import ORDERED_TYPES

EXIT_CODES = {0, 1, 2, 3}
_ALPHABET = "0123456789x+-*/=() .a²٣é\u00a0"
# field values a message may echo: a line break, a line separator, a NUL
_BREAKING = ["T1\nX", "M1\u2028", "a\x00b"]
# a control character other than the newline ending each line, or a line or
# paragraph separator: printed raw, either breaks the one-line contract
_RAW_BREAK = re.compile("[\x00-\x09\x0b-\x1f\x7f-\x9f\u2028\u2029]")


def _seeds() -> list[str]:
    sampler = Corpus(seed=5)
    texts = [str(sampler.sample(t, f"fuzz:{t.name}:{i}")) for t in ORDERED_TYPES for i in range(3)]
    return texts + ["-3(x + -4) = 2x", "1/2x = 3/4", "x = 0", "0x = 4", "7 = 12", "x * x = 1"]


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(4)
        pos = rng.randrange(len(chars) + 1)
        if op == 0 and chars:
            del chars[min(pos, len(chars) - 1)]
        elif op == 1:
            chars.insert(pos, rng.choice(_ALPHABET))
        elif op == 2 and chars:
            chars[min(pos, len(chars) - 1)] = rng.choice(_ALPHABET)
        else:
            start = rng.randrange(len(chars) + 1)
            chars[pos:pos] = chars[start : start + rng.randint(1, 6)]
    return "".join(chars)


def _run(capsys, argv: list[str]) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in EXIT_CODES, (argv, code)
    assert _RAW_BREAK.search(err) is None and err[-1:] in ("", "\n"), (argv, err)
    lines = err.splitlines()
    if argv[0] == "verify":  # one line per failing record, or one error
        assert all(line.startswith(("line ", "error: ")) for line in lines), (argv, err)
    else:
        assert lines == [] or len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    return code


def test_fuzz_equation_commands(capsys):
    rng = random.Random(2024)
    seeds = _seeds()
    ids = [m.id for m in CATALOG]
    codes = set()
    for _ in range(1500):
        text = _mutate(rng, rng.choice(seeds))
        mids = ",".join(rng.choices(ids, k=rng.randint(1, 4)))
        command = rng.choice([
            ["classify"],
            ["solve", "--trace"],
            ["malsolve", "--trace", "--misconceptions", mids],
            ["tree", "--cap", str(rng.randint(1, 2)), "--misconceptions", mids],
        ])
        codes.add(_run(capsys, command + ["--", text]))
    assert codes == {0, 1}


def test_fuzz_oversized_equations(capsys):
    oversized = [
        "x = " + "1" * 5000,
        "(" * 2000 + "x" + ")" * 2000 + " = 1",
        "x = " + " + ".join(["1"] * 2000),
        "x = " + "2 * " * 2000 + "2",
        "x = " + "-(" * 2000 + "1" + ")" * 2000,
        "x = " + "2(" * 2000 + "x" + ")" * 2000,
    ]
    for text in oversized:
        for command in (["classify"], ["solve"], ["malsolve", "--misconceptions", "M1"],
                        ["tree", "--misconceptions", "M1"]):
            assert _run(capsys, command + ["--", text]) == 1


def test_malformed_argv(capsys, tmp_path):
    path = tmp_path / "tr.jsonl"
    path.write_text('{"problem_type": "T1", "equation": "4x = 12", "model_answer": "3"}\n')
    score = ["score", str(path), "--misconception", "M8"]
    for argv in (
        ["classify"],  # a missing positional
        ["solve", "--frob", "x = 1"],  # an unknown option
        ["tree", "--cap", "abc", "x = 1"],  # a bad int
        ["tree", "--cap", "1\n2", "x = 1"],
        ["tree", "--cap", "-1", "2x = 4"],  # a negative cap
        ["tree", "--format", "svg", "x = 1"],  # a bad choice
        ["tree", "--format", "a\u2028b", "x = 1"],
        ["frobnicate\x00"],
        score + ["--theta-m", "abc"],  # a bad threshold
        score + ["--theta-c", "9" * 30],
    ):
        assert _run(capsys, argv) == 2, argv


def _random_value(rng: random.Random, texts: list[str]):
    kind = rng.randrange(10)
    if kind == 0:
        return rng.choice([None, True, False, 0, -3, 2.5, 10 ** 40, "", {}, []])
    if kind == 1:
        return rng.choice([t.name for t in ORDERED_TYPES] + ["T13", "t1", " T1", *_BREAKING])
    if kind == 2:
        return [rng.choice(texts) for _ in range(rng.randint(0, 4))]
    if kind == 3:
        return [_random_value(rng, texts) for _ in range(rng.randint(1, 3))]
    if kind == 4:
        return {"x": rng.choice(texts)}
    if kind == 5:
        return str(rng.randint(-20, 20)) + rng.choice(["", "/3", "/0", ".5"])
    if kind == 6:
        return "x = " + str(rng.randint(-9, 9))
    if kind == 7:
        return "9" * rng.choice([30, 5000])
    return rng.choice(texts)


def test_fuzz_transcript_lines(capsys, tmp_path):
    rng = random.Random(7)
    texts = _seeds()
    texts += [_mutate(rng, rng.choice(texts)) for _ in range(30)]
    fields = ["problem_type", "equation", "model_answer", "model_steps"]
    path = tmp_path / "tr.jsonl"
    codes = set()
    for i in range(400):
        row = {f: _random_value(rng, texts) for f in fields if rng.random() < 0.9}
        if rng.random() < 0.5:
            row["equation"] = rng.choice(texts)
        line = json.dumps(row)
        if i % 40 == 0:
            line = rng.choice(["[" * 5000, '{"equation": ' + "1" * 5000 + "}", line[:-1], "{}x"])
        path.write_text(line + "\n")
        command = rng.choice([["score", "--misconception", rng.choice(CATALOG).id], ["diagnose"]])
        codes.add(_run(capsys, [command[0], str(path), *command[1:]]))
    assert {1, 2} <= codes


_BAD_JSON = ["[" * 5000, '{"seed": ' + "1" * 5000 + "}", "5", "null", '"x"', "[]", "{"]


def test_fuzz_dataset_lines(capsys, tmp_path):
    rng = random.Random(11)
    generate(DatasetConfig(seed=3, misconception="M6", n_m=6, ratio=1.0, test_per_type=0,
                           out_dir=str(tmp_path / "ds")))
    lines = (tmp_path / "ds" / "train.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    texts = _seeds() + ["correct", "misconception", "M6", "M99"]
    fields = sorted({f for r in records for f in r}) + ["extra"]
    path = tmp_path / "fz.jsonl"
    codes = set()
    for _ in range(200):
        lines = []
        for _ in range(4):
            rec = dict(rng.choice(records))
            for f in rng.sample(fields, rng.randint(0, 3)):
                roll = rng.random()
                if roll < 0.15:
                    rec.pop(f, None)
                elif roll < 0.4:
                    rec[f] = rng.choice(records).get(f)
                else:
                    rec[f] = _random_value(rng, texts)
            lines.append(json.dumps(rec) if rng.random() < 0.9 else rng.choice(_BAD_JSON))
        path.write_text("\n".join(lines) + "\n")
        codes.add(_run(capsys, ["verify", str(path)]))
    assert codes == {0, 1}


def _config_value(rng: random.Random, field: str):
    """A random value for one config field.  Counts stay small when they are
    valid, so every generated dataset holds a few dozen records at most."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([None, True, False, "", "5", 2.5, -1, 0, [], {}, [1], {"a": 1}, "M1",
                           *_BREAKING])
    if field in ("seed", "coeff_min", "coeff_max") and kind == 1:
        return rng.choice([10 ** 40, -10 ** 40, rng.randint(-12, 12)])
    if field == "misconception":
        return rng.choice([m.id for m in CATALOG] + ["M99", "m1", None])
    if field == "ratio":
        return rng.choice([0.0, 0.25, 0.5, 1.0, 1, 0, 0.3, -1.0, "0.5"])
    return rng.randint(-2, 2)


def test_fuzz_gen_configs(capsys, tmp_path):
    rng = random.Random(13)
    fields = ["seed", "misconception", "n_m", "ratio", "n_correct_per_type", "test_per_type",
              "coeff_min", "coeff_max"]
    path = tmp_path / "cfg.json"
    codes = set()
    for i in range(150):
        config = {"seed": i, "misconception": rng.choice([None, rng.choice(CATALOG).id]),
                  "n_m": 2, "ratio": 0.5, "n_correct_per_type": 1, "test_per_type": 1}
        for f in rng.sample(fields, rng.randint(1, 3)):
            config[f] = _config_value(rng, f)
        if rng.random() < 0.1:
            config["extra"] = 1
        text = json.dumps(config) if rng.random() < 0.85 else rng.choice(_BAD_JSON)
        path.write_text(text)
        codes.add(_run(capsys, ["gen", "--config", str(path), "--out", str(tmp_path / "ds")]))
    assert {0, 1, 2} <= codes


def test_render_round_trips_parsed_text():
    # P1: parse(str(p)) == p.  Seeds 7 and 8 reach a product chain before a
    # group (``5 * -1 * (1)``, ``5*5 * (-5 * -1)``), once printed as
    # ``5 * -1(1)``, which parses as another product.  Only text with a
    # ``*`` is parsed, to keep the test short: ``*`` is where the chains are.
    seeds = _seeds()
    for seed, draws in ((7, 59_000), (8, 191_000)):
        rng = random.Random(seed)
        for _ in range(draws):
            text = _mutate(rng, rng.choice(seeds))
            if "*" not in text:
                continue
            try:
                eq = parse_equation(text)
            except EngineError:
                continue
            assert parse_equation(str(eq)) == eq, text


def test_engine_lines_print_back_to_themselves():
    # P2: str(parse(line)) == line for every engine line that parses, so a
    # model step and an engine line are compared as printed, and no engine
    # line is parsed again.  Lines past the input bounds do not parse.
    roots = [Corpus(seed, -bound, bound).sample(t, "p2")
             for seed in range(30) for bound in (9, 10**19) for t in ORDERED_TYPES]
    rng, seeds = random.Random(3), _seeds()
    while len(roots) < 1700:
        try:
            roots.append(parse_equation(_mutate(rng, rng.choice(seeds))))
        except EngineError:
            pass
    lines = set()
    for root in roots:
        try:
            tree = enumerate_tree(root, CATALOG, 1)
        except EngineError:
            continue
        for leaf in tree.leaves:
            lines.update(leaf.equations)
    parsed = 0
    for line in lines:
        try:
            eq = parse_equation(line)
        except EngineError:
            continue
        assert str(eq) == line
        parsed += 1
    assert parsed > 10_000
