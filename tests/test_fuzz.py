"""Seeded fuzzing of the CLI: every input ends in a documented exit code.

Equation commands get mutated equation text, ``score`` and ``diagnose`` get
transcript lines with random field values, and oversized inputs probe the
parser's bounds.  ``cli.main`` runs in-process, so any exception escaping it
fails the test with its traceback.
"""

from __future__ import annotations

import json
import random

from malgebra.cli import main
from malgebra.datasets import InstanceSampler
from malgebra.misconceptions import CATALOG
from malgebra.taxonomy import ORDERED_TYPES

EXIT_CODES = {0, 1, 2, 3}
_ALPHABET = "0123456789x+-*/=() .a"


def _seeds() -> list[str]:
    sampler = InstanceSampler(seed=5)
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
    capsys.readouterr()
    assert code in EXIT_CODES, (argv, code)
    return code


def test_fuzz_equation_commands(capsys):
    rng = random.Random(2024)
    seeds = _seeds()
    ids = [m.id for m in CATALOG]
    codes = set()
    for _ in range(1500):
        text = _mutate(rng, rng.choice(seeds))
        mids = ",".join(rng.sample(ids, rng.randint(1, 4)))
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


def _random_value(rng: random.Random, texts: list[str]):
    kind = rng.randrange(10)
    if kind == 0:
        return rng.choice([None, True, False, 0, -3, 2.5, 10 ** 40, "", {}, []])
    if kind == 1:
        return rng.choice([t.name for t in ORDERED_TYPES] + ["T13", "t1", " T1"])
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
