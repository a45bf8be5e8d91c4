from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import malgebra.datasets as datasets
import malgebra.errors as errors
from malgebra.cli import build_parser, main
from malgebra.datasets import MAX_RECORDS, DatasetConfig, generate
from malgebra.equations import closed_form_solution, parse_equation
from malgebra.errors import EngineError, SchemaError
from malgebra.misconceptions import CATALOG, reduce_with_misconceptions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "2x = 3(4x + 5)")
    assert (code, out.strip()) == (0, "T9")


def test_classify_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "7 = 12")
    assert code == 1 and "error" in err


def test_internal_error_exit_4(capsys, monkeypatch):
    def boom(eq):
        raise RuntimeError("boom")

    monkeypatch.setattr("malgebra.cli.classify", boom)
    code, out, err = run(capsys, "classify", "2x = 3")
    # one line on stderr, no traceback
    assert (code, out, err) == (4, "", "error: internal error: RuntimeError: boom\n")
    # a usage error is not internal: it exits 2, with one line
    code, out, err = run(capsys, "classify")
    assert (code, out) == (2, "")
    assert err == "error: malgebra classify: the following arguments are required: equation\n"


def test_solve(capsys):
    code, out, _ = run(capsys, "solve", "3x = 12")
    assert code == 0 and out.strip() == "x = 4"


def test_solve_trace(capsys):
    code, out, _ = run(capsys, "solve", "2x = 3(4x + 5)", "--trace")
    lines = out.strip().splitlines()
    assert lines == [
        "T9 | 2x = 3(4x + 5) | distribute",
        "T7 | 2x = 12x + 15 | move-x",
        "T1 | -10x = 15 | solve",
        "x = -3/2",
    ]


def test_trace_prints_each_state_as_its_line(capsys, monkeypatch):
    # a side a step leaves alone prints as written, and the correct walk
    # prints its lines without building an expression
    def no_rebuild(atoms):
        raise AssertionError("an expression was built")

    with monkeypatch.context() as patch:
        patch.setattr("malgebra.taxonomy.rebuild", no_rebuild)
        assert run(capsys, "solve", "--trace", "(2x) = 3 + 4") == (
            0, "T2 | (2x) = 3 + 4 | fold-sum\nT1 | (2x) = 7 | solve\nx = 7/2\n", "")
    code, out, _ = run(capsys, "malsolve", "--trace", "(2x) = 3 + 4", "--misconceptions", "M14")
    assert (code, out) == (0, "T2 | (2x) = 3 + 4 | M14\nT2 | (2x) = 3 - 4 | fold-sum\n"
                              "T1 | (2x) = -1 | solve\nx = -1/2\n")


def test_misconception_workloads_build_no_expression(capsys, monkeypatch, tmp_path):
    # a walk types each rewrite from the sides it built, so gen, verify,
    # score and diagnose of a small M6 cell build no expression from a walk
    # state.  M1's (part) atom, which diagnose tries on these roots, builds
    # its own chain through misconceptions' binding and is not counted here;
    # test_datasets.py::test_m1_gen_builds_one_chain_per_firing bounds it.
    from malgebra import taxonomy

    calls, original = [], taxonomy.rebuild
    monkeypatch.setattr(taxonomy, "rebuild", lambda atoms: calls.append(atoms) or original(atoms))
    out = tmp_path / "m6"
    assert run(capsys, "gen", "--misconception", "M6", "--n-m", "3", "--ratio", "0",
               "--test-per-type", "0", "--seed", "0", "--out", str(out))[0] == 0
    assert calls == [], "gen"
    records = [json.loads(line) for line in (out / "train.jsonl").read_text().splitlines()]
    transcripts = tmp_path / "tr.jsonl"
    transcripts.write_text("".join(json.dumps(
        {"problem_type": r["problem_type"], "equation": r["equation"],
         "model_answer": r["final_answer"], "model_steps": r["steps"]}) + "\n" for r in records))
    for command in (["verify", str(out / "train.jsonl")],
                    ["score", str(transcripts), "--misconception", "M6"],
                    ["diagnose", str(transcripts)]):
        assert run(capsys, *command)[0] == 0
        assert calls == [], command[0]
    assert len(records) == 3


def test_verify_atomizes_each_record_side_once(capsys, monkeypatch, tmp_path):
    # a parsed side is its surface atoms, and a root is typed from its sides:
    # verifying a small M6 cell atomizes each record's two sides once
    from malgebra import taxonomy

    out = tmp_path / "m6"
    assert run(capsys, "gen", "--misconception", "M6", "--n-m", "20", "--ratio", "1.0",
               "--test-per-type", "0", "--seed", "0", "--out", str(out))[0] == 0
    records = [json.loads(line) for line in (out / "train.jsonl").read_text().splitlines()]
    calls, original = [], taxonomy._atomize
    monkeypatch.setattr(taxonomy, "_atomize", lambda node: calls.append(node) or original(node))
    assert run(capsys, "verify", str(out / "train.jsonl"))[0] == 0
    verified = len(calls)
    calls.clear()
    for r in records:
        eq = parse_equation(r["equation"])
        taxonomy.surface_atoms(eq.lhs), taxonomy.surface_atoms(eq.rhs)
    assert (len(records), verified) == (40, len(calls)) and verified == 154


def test_negative_cap_is_a_usage_error(capsys):
    assert run(capsys, "tree", "2x = 4", "--cap", "-1") == (
        2, "", "error: malgebra tree: argument --cap: must be 0 or more, got -1\n")
    assert run(capsys, "tree", "2x = 4", "--cap", "abc")[2] == (
        "error: malgebra tree: argument --cap: invalid int value: 'abc'\n")


def test_python_m_malgebra_runs_the_cli():
    # a checkout without an install runs the command line from src/
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "malgebra", "solve", "4x = 12"],
                          capture_output=True, text=True, env=env, cwd=root, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "x = 3\n", "")


def test_solve_degenerate_exit_1(capsys):
    code, _, err = run(capsys, "solve", "0x = 5")
    assert code == 1


def test_malsolve(capsys):
    code, out, _ = run(capsys, "malsolve", "4x = 12", "--misconceptions", "M22_S1")
    assert code == 0 and out.strip() == "x = 1/3"


def test_malsolve_trace_marks_misconceptions(capsys):
    code, out, _ = run(
        capsys, "malsolve", "2x = 3(4x + 5)", "--misconceptions", "M2_S3,M19", "--trace"
    )
    assert code == 0
    assert "| M2_S3" in out and "| M19" in out


def test_malsolve_dead_end(capsys):
    code, out, _ = run(capsys, "malsolve", "4x + 5 = 9", "--misconceptions", "M13")
    assert code == 0 and "dead end" in out


def test_tree_json_and_dot(capsys):
    code, out, _ = run(capsys, "tree", "4x = 12", "--misconceptions", "M19,M21")
    assert code == 0
    doc = json.loads(out)
    answers = [l["answer"] for l in doc["leaves"]]
    assert answers == ["3", "16", "-8"]
    code, out, _ = run(
        capsys, "tree", "4x = 12", "--misconceptions", "M19", "--format", "dot"
    )
    assert code == 0 and out.startswith("digraph")


def test_catalog_lists_all_rules(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 19
    assert any("M20_S20" in l and "All Types" in l for l in lines)
    assert any("M8" in l and "T9, T12" in l for l in lines)


def test_gen_verify_roundtrip(capsys, tmp_path):
    out_dir = tmp_path / "ds"
    code, out, _ = run(
        capsys, "gen", "--misconception", "M8", "--n-m", "10", "--ratio", "0.5",
        "--seed", "4", "--test-per-type", "1", "--out", str(out_dir),
    )
    assert code == 0 and "10 misconception" in out
    code, out, _ = run(capsys, "verify", str(out_dir / "train.jsonl"))
    assert code == 0 and "15/15 records replay cleanly" in out


def test_gen_config_file_with_overrides(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_correct_per_type": 2, "test_per_type": 0, "seed": 1}))
    out_dir = tmp_path / "ds2"
    code, out, _ = run(capsys, "gen", "--config", str(cfg), "--out", str(out_dir))
    assert code == 0
    assert len((out_dir / "train.jsonl").read_text().splitlines()) == 30


@pytest.mark.parametrize("flag, value, field, want", [
    ("--seed", "2", "seed", 2),
    ("--misconception", "M6", "misconception", "M6"),
    ("--n-m", "0", "n_m", 0),
    ("--ratio", "1.0", "ratio", 1.0),
    ("--n-correct-per-type", "0", "n_correct_per_type", 0),
    ("--test-per-type", "0", "test_per_type", 0),
    ("--out", "flag_dir", "out_dir", None),
])
def test_gen_flag_overrides_its_config_field(capsys, tmp_path, monkeypatch, flag, value, field,
                                             want):
    # a config file sets every field; the one flag given wins over its field
    # and every other field keeps the file's value
    monkeypatch.chdir(tmp_path)
    base = {"seed": 1, "misconception": "M8", "n_m": 2, "ratio": 0.5, "n_correct_per_type": 1,
            "test_per_type": 1, "coeff_min": -5, "coeff_max": 5, "out_dir": "config_dir"}
    (tmp_path / "cfg.json").write_text(json.dumps(base))
    code, _, err = run(capsys, "gen", "--config", "cfg.json", flag, value)
    assert (code, err) == (0, "")
    out_dir = tmp_path / (value if field == "out_dir" else "config_dir")
    echoed = json.loads((out_dir / "manifest.json").read_text())["config"]
    assert echoed == {k: v for k, v in base.items() if k != "out_dir"} | (
        {} if field == "out_dir" else {field: want})
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json", out_dir.name])


def test_every_gen_option_names_a_config_field():
    # an option's dest is the field it overrides; --config alone is not one
    parser = build_parser()
    dests = set(vars(parser.parse_args(["gen"]))) - set(vars(parser.parse_args(["catalog"])))
    assert dests - {"config"} <= set(DatasetConfig.__dataclass_fields__)
    assert "config" in dests and "out_dir" in dests


def test_gen_invalid_ratio_exit_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "gen", "--misconception", "M8", "--n-m", "4", "--ratio", "0.4",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2


@pytest.mark.parametrize(
    "config",
    [[1, 2], {"n_m": "5"}, {"seed": True}, {"misconception": ["M1"], "n_m": 1}, {"out_dir": 5},
     {"ratio": True}, {"coeff_max": 10**20, "n_correct_per_type": 1, "test_per_type": 0},
     {"coeff_min": -10**1500, "coeff_max": 10**1500},
     {"out_dir": "a\u0000b", "n_correct_per_type": 0, "test_per_type": 0}],
)
def test_gen_bad_config_exit_2(capsys, tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)  # the default out_dir is relative
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, "gen", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("config", [
    {"coeff_min": 5, "coeff_max": 1, "n_correct_per_type": 0, "test_per_type": 0},
    {"coeff_min": 5, "coeff_max": 1, "misconception": "M19", "n_m": 1, "ratio": 0,
     "test_per_type": 0},
    {"coeff_min": 0, "coeff_max": 0, "n_correct_per_type": 0, "test_per_type": 0},
])
def test_gen_empty_coefficient_range_exit_2(capsys, tmp_path, config):
    # a range with no nonzero integer is refused before any write, whether
    # or not the config asks for a record to draw from it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    lo, hi = config["coeff_min"], config["coeff_max"]
    assert run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path / "ds")) == (
        2, "", f"error: coefficient range [{lo}, {hi}] has no nonzero integer\n")
    assert not (tmp_path / "ds").exists()


def test_verbose_prints_the_resolved_config_on_stderr_only(capsys, tmp_path):
    # -v adds one stderr line and leaves stdout byte for byte as it was
    gen = ["gen", "--n-correct-per-type", "1", "--test-per-type", "0", "--out", str(tmp_path)]
    for argv, opens, closes in ((gen, "DatasetConfig(", ")"), (["classify", "4x = 12"], "{", "}")):
        code, quiet, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "-v", *argv)
        assert (code, out) == (0, quiet)
        assert err.count("\n") == 1, err
        assert err.startswith(f"resolved config: {opens}") and err.endswith(f"{closes}\n"), err
    # solve shares malsolve's handler yet prints its own namespace, no rule ids
    for argv, shown, answer in (
        (["solve", "4x = 12"], "'command': 'solve', 'equation': '4x = 12', 'trace': False", "3"),
        (["malsolve", "4x = 12", "--misconceptions", "M19"],
         "'command': 'malsolve', 'equation': '4x = 12', 'misconceptions': 'M19', 'trace': False",
         "16"),
    ):
        assert run(capsys, *argv) == (0, f"x = {answer}\n", "")
        assert run(capsys, "-v", *argv) == (
            0, f"x = {answer}\n", f"resolved config: {{'verbose': True, {shown}}}\n")


@pytest.mark.parametrize("counts", [
    ["--n-correct-per-type", "1000000000"],
    ["--n-correct-per-type", "0", "--test-per-type", "1000000000"],
    ["--misconception", "M1", "--n-m", "1000000000", "--ratio", "0"],
])
def test_gen_record_count_bound_exit_2(capsys, tmp_path, monkeypatch, counts):
    # the bound is checked before any draw or write
    monkeypatch.setattr(datasets, "_draw", lambda *args: pytest.fail("drew an instance"))
    code, out, err = run(capsys, "gen", *counts, "--out", str(tmp_path / "ds"))
    assert (code, out) == (2, "")
    assert err == (f"error: a config may request at most {MAX_RECORDS} records,"
                   " train and test together\n")
    assert not (tmp_path / "ds").exists()


def test_record_count_bound_counts_what_generate_writes():
    at_bound = DatasetConfig(misconception="M1", n_m=MAX_RECORDS // 2, ratio=1.0,
                             n_correct_per_type=10**9, test_per_type=0)
    at_bound.validate()  # n_correct_per_type is unused with a misconception
    with pytest.raises(SchemaError):
        DatasetConfig(misconception="M1", n_m=MAX_RECORDS // 2, ratio=1.0,
                      test_per_type=1).validate()
    DatasetConfig(n_correct_per_type=0, test_per_type=MAX_RECORDS // 15).validate()
    with pytest.raises(SchemaError):
        DatasetConfig(n_correct_per_type=1, test_per_type=MAX_RECORDS // 15).validate()


def test_gen_ratio_int_and_float_share_a_manifest(capsys, tmp_path):
    manifests = []
    for ratio in (1, 1.0):
        cfg = tmp_path / f"cfg-{ratio}.json"
        cfg.write_text(json.dumps({"misconception": "M8", "n_m": 2, "ratio": ratio,
                                   "test_per_type": 0}))
        out_dir = tmp_path / f"ds-{ratio}"
        code, _, _ = run(capsys, "gen", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        manifests.append((out_dir / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_verify_corrupted_line(capsys, tmp_path):
    out_dir = tmp_path / "ds3"
    generate(DatasetConfig(seed=1, n_correct_per_type=1, test_per_type=0,
                           out_dir=str(out_dir)))
    path = out_dir / "train.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["final_answer"] = "x = 42424242"
    rec["steps"][-1] = "x = 42424242"
    lines[0] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "line 1" in err


def test_verify_non_object_lines(capsys, tmp_path):
    out_dir = tmp_path / "ds4"
    generate(DatasetConfig(seed=1, n_correct_per_type=1, test_per_type=0,
                           out_dir=str(out_dir)))
    path = out_dir / "train.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["5", '"steps, final_answer"', *lines[2:]]) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert err.splitlines() == ["line 1: not a JSON object", "line 2: not a JSON object"]
    assert out == f"{len(lines) - 2}/{len(lines)} records replay cleanly\n"


_DEEP = "[" * 5000
_HUGE = '{"seed": ' + "1" * 5000 + "}"


def test_verify_bad_json_lines(capsys, tmp_path):
    path = tmp_path / "ds.jsonl"
    path.write_text(_DEEP + "\n" + _HUGE + "\n{\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (1, "0/3 records replay cleanly\n")
    lines = err.splitlines()
    assert lines[:2] == ["line 1: JSON nested deeper than 16",
                         "line 2: JSON numeral longer than 100 characters"]
    assert lines[2].startswith("line 3: bad JSON: ") and len(lines) == 3


@pytest.mark.parametrize("text", [_DEEP, _HUGE, "{", "[1, 2]"], ids=["deep", "huge", "cut", "list"])
def test_gen_config_bad_json_exit_2(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path / "ds"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config {cfg}: ") and err.count("\n") == 1
    assert not (tmp_path / "ds").exists()


def _json_limits():
    """(name, the text of a value that nests its object ``n`` deep or is ``n``
    characters long, n, message)."""
    from malgebra.errors import MAX_JSON_DEPTH, MAX_JSON_NUMERAL

    nest = lambda n: "[" * (n - 1) + "]" * (n - 1)  # noqa: E731
    return [("depth", nest, MAX_JSON_DEPTH, f"JSON nested deeper than {MAX_JSON_DEPTH}"),
            ("numeral", lambda n: "1" * n, MAX_JSON_NUMERAL,
             f"JSON numeral longer than {MAX_JSON_NUMERAL} characters")]


@pytest.mark.parametrize("source", ["transcript", "dataset", "config"])
@pytest.mark.parametrize("limit", _json_limits(), ids=lambda c: c[0])
def test_json_limits(capsys, tmp_path, limit, source):
    # each limit at N is read as JSON, and at N + 1 stops with malgebra's
    # own message, never the interpreter's, with the input's usual exit code
    name, value, n, message = limit
    if source == "dataset":
        generate(DatasetConfig(seed=1, n_correct_per_type=1, test_per_type=0,
                               out_dir=str(tmp_path / "ds")))
        record = (tmp_path / "ds" / "train.jsonl").read_text().split("\n")[0]
    path = tmp_path / "input"
    for size in (n, n + 1):
        if source == "transcript":
            path.write_text('{"problem_type": "T1", "equation": "4x = 12", '
                            f'"model_answer": {value(size)}}}\n')
            argv = ["score", str(path), "--misconception", "M8"]
            at, past = (0, ""), (2, f"error: line 1: {message}\n")
        elif source == "dataset":
            path.write_text('{"id": ' + value(size) + ", " + record.split(", ", 1)[1] + "\n")
            argv = ["verify", str(path)]
            at, past = (1, "line 1: field 'id' must be a string\n"), (1, f"line 1: {message}\n")
        else:
            path.write_text('{"seed": ' + value(size) + ', "n_correct_per_type": 1, '
                            '"test_per_type": 0}')
            argv = ["gen", "--config", str(path), "--out", str(tmp_path / f"out{size}")]
            at = (0, "") if name == "numeral" else (
                2, f"error: seed must be an integer, got {value(n)}\n")
            past = (2, f"error: cannot read config {path}: {message}\n")
        code, _, err = run(capsys, *argv)
        assert (code, err) == (at if size == n else past)
        assert "sys." not in err and "recursion" not in err


@pytest.mark.parametrize("source", ["transcript", "dataset", "config"])
def test_input_size_limit(capsys, tmp_path, monkeypatch, source):
    # a file of MAX_INPUT_BYTES bytes is read; one byte more, a blank that
    # the readers would skip, stops the command with one line and exit 2
    if source == "transcript":
        text = json.dumps({"problem_type": "T1", "equation": "4x = 12", "model_answer": "3"})
        argv, what = ["score", "{path}", "--misconception", "M8"], "transcripts"
    elif source == "dataset":
        text, argv, what = json.dumps(_T1_RECORD), ["verify", "{path}"], "dataset"
    else:
        text = '{"n_correct_per_type": 1, "test_per_type": 0}'
        argv, what = ["gen", "--config", "{path}", "--out", str(tmp_path / "out")], "config"
    path, n = tmp_path / "input", len(text.encode()) + 1
    argv = [a.format(path=path) for a in argv]
    monkeypatch.setattr(errors, "MAX_INPUT_BYTES", n)
    path.write_text(text + "\n")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
    path.write_text(text + "\n ")
    assert run(capsys, *argv) == (2, "", f"error: {what} {path} is longer than {n} bytes\n")


def test_input_size_limit_bounds_a_pipe(monkeypatch):
    # past the bound the reader stops without waiting for the writer to
    # close the pipe
    monkeypatch.setattr(errors, "MAX_INPUT_BYTES", 100)
    r, w = os.pipe()
    closer = threading.Timer(30, os.close, (w,))
    closer.start()
    try:
        os.write(w, b" " * 101)
        start = time.monotonic()
        with pytest.raises(SchemaError, match=r"^dataset /dev/fd/\d+ is longer than 100 bytes$"):
            errors.read_input(f"/dev/fd/{r}", "dataset")
        assert time.monotonic() - start < 10
    finally:
        if closer.is_alive():
            closer.cancel()
            os.close(w)
        os.close(r)


def test_input_size_limit_holds_every_file_gen_writes(tmp_path):
    # the bound is MAX_RECORDS lines of 8 KiB: a record gen writes is far
    # shorter, even at the widest coefficient range under the longest seed
    # that gen's --seed takes (a sign and 4,300 digits, the interpreter's
    # default limit)
    assert errors.MAX_INPUT_BYTES == MAX_RECORDS * 8192
    big = 10**20 - 1
    longest = 0
    for m in [None, *CATALOG]:
        generate(DatasetConfig(seed=-(10**4300 - 1), misconception=m and m.id, n_m=10, ratio=1.0,
                               n_correct_per_type=1, test_per_type=0, coeff_min=-big,
                               coeff_max=big, out_dir=str(tmp_path)))
        lines = (tmp_path / "train.jsonl").read_bytes().split(b"\n")[:-1]
        longest = max(longest, *(len(line) + 1 for line in lines))
    assert 4300 < longest <= 6144, longest  # 5,578 bytes


@pytest.mark.parametrize("field,value", [
    ("equation", 5),
    ("final_answer", 5),
    ("problem_type", None),
    ("label", ["correct"]),
    ("id", 3),
    ("seed", 0),
    ("misconception_id", 5),
    ("misconception_id", None),
    ("steps", "2x = 4"),
    ("steps", 5),
    ("steps", [1, 2]),
], ids=lambda v: json.dumps(v) if not isinstance(v, str) else v)
def test_verify_field_types(capsys, tmp_path, field, value):
    out_dir = tmp_path / "ds"
    generate(DatasetConfig(seed=1, n_correct_per_type=1, test_per_type=0,
                           out_dir=str(out_dir)))
    path = out_dir / "train.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), field: value})
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    want = "a list of strings" if field == "steps" else "a string"
    assert (code, err) == (1, f"line 2: field '{field}' must be {want}\n")
    assert out == f"{len(lines) - 1}/{len(lines)} records replay cleanly\n"


_T1_RECORD = {"id": "a", "problem_type": "T1", "equation": "4x = 12", "steps": ["4x = 12", "x = 3"],
              "final_answer": "x = 3", "label": "correct", "seed": "b"}


@pytest.mark.parametrize("edit,reason", [
    ({"note": "", "extra": 1}, "unknown fields: ['extra', 'note']"),
    ({"misconception_id": "M8"}, "correct record carries misconception_id"),
    ({"label": "misconception", "misconception_id": "M8"}, "trace does not use exactly M8"),
    ({"equation": "4x=12"}, "equation is not the first step"),
    ({"problem_type": "T9"}, "claims T9 for a T1 equation: 4x = 12"),
    ({"equation": "x = 5", "steps": ["x = 5", "x = 5"], "final_answer": "x = 5",
      "label": "misconception", "misconception_id": "M20_S20"}, "trace ends at the correct answer"),
    ({"problem_type": "T7", "equation": "2x = 2x + 3", "steps": ["2x = 2x + 3", "2x = 5", "x = 5/2"],
      "final_answer": "x = 5/2", "label": "misconception", "misconception_id": "M13"},
     "no unique solution: 2x = 2x + 3"),
], ids=["unknown-fields", "correct-with-mid", "rule-does-not-fire", "equation-not-first-step",
        "type-mismatch", "correct-answer", "no-unique-solution"])
def test_verify_rejects_records_generation_never_writes(capsys, tmp_path, edit, reason):
    # M8 has no site on a T1 equation, so its walk is the correct one; M20_S20
    # solves x = 5 to x = 5, the correct answer; 2x = 2x + 3 has no answer,
    # so generation never draws it, though M13 walks it to x = 5/2
    path = tmp_path / "ds.jsonl"
    path.write_text(json.dumps(_T1_RECORD) + "\n" + json.dumps({**_T1_RECORD, **edit}) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (1, "1/2 records replay cleanly\n", f"line 2: {reason}\n")


def test_verify_empty_file_exit_3(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run(capsys, "verify", str(empty)) == (3, "", "error: no records found\n")


def test_score_text_and_json(capsys, tmp_path, sampler):
    rows = []
    for t in ("T9", "T12"):
        eq = sampler.sample(__import__("malgebra").ProblemType[t], f"cli:{t}")
        rows.append({"problem_type": t, "equation": str(eq),
                     "model_answer": str(closed_form_solution(eq))})
    path = tmp_path / "tr.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code, out, _ = run(capsys, "score", str(path), "--misconception", "M8")
    assert code == 0 and "MA" in out
    code, out, _ = run(
        capsys, "score", str(path), "--misconception", "M8", "--report", "json"
    )
    doc = json.loads(out)
    assert doc["MA"] == 0.0 and doc["CA_A"] == 100.0
    assert doc["CA_NA"] is None  # 13 types absent from the batch


def test_score_empty_exit_3(capsys, tmp_path):
    path = tmp_path / "none.jsonl"
    path.write_text("")
    code, _, _ = run(capsys, "score", str(path), "--misconception", "M8")
    assert code == 3


def test_score_schema_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"problem_type": "T1"}\n')
    code, _, _ = run(capsys, "score", str(path), "--misconception", "M8")
    assert code == 2


def test_score_type_mismatch_exit_2(capsys, tmp_path):
    # a T9 equation claimed as T1 would count under T1 (there with CA 100);
    # the error names the transcript by its index, blank lines skipped
    path = tmp_path / "tr.jsonl"
    path.write_text('{"problem_type": "T1", "equation": "2x = 3(4x + 5)", "model_answer": "-3/2"}\n')
    code, out, err = run(capsys, "score", str(path), "--misconception", "M8")
    assert (code, out) == (2, "")
    assert err == "error: transcript 0: claims T1 for a T9 equation: 2x = 3(4x + 5)\n"
    good = json.dumps({"problem_type": "T1", "equation": "4x = 12", "model_answer": "3"})
    bad = json.dumps({"problem_type": "T3", "equation": "3x + 4 = 7", "model_answer": "1"})
    path.write_text(f"{good}\n\n{bad}\n")
    code, out, err = run(capsys, "score", str(path), "--misconception", "M8")
    assert (code, out) == (2, "")
    assert err == "error: transcript 1: claims T3 for a T5 equation: 3x + 4 = 7\n"


def test_score_unknown_type_names_its_transcript_exit_2(capsys, tmp_path):
    good = json.dumps({"problem_type": "T1", "equation": "4x = 12", "model_answer": "3"})
    bad = json.dumps({"problem_type": "T13", "equation": "4x = 12", "model_answer": "3"})
    path = tmp_path / "tr.jsonl"
    path.write_text(f"{good}\n{good}\n\n{bad}\n")
    code, out, err = run(capsys, "score", str(path), "--misconception", "M8")
    assert (code, out, err) == (2, "", "error: transcript 2: unknown problem type 'T13'\n")


def test_diagnose_type_mismatch_exit_2(capsys, tmp_path):
    # the M2_S3 walk of a T9 equation claimed as T1: score rejects the line
    eq = parse_equation("2x = 3(4x + 5)")
    lines = reduce_with_misconceptions(eq, ["M2_S3"]).equation_lines()
    row = {"problem_type": "T1", "equation": lines[0], "model_answer": lines[-1],
           "model_steps": lines}
    path = tmp_path / "tr.jsonl"
    path.write_text(json.dumps(row) + "\n")
    code, out, err = run(capsys, "diagnose", str(path))
    assert (code, out) == (2, "")
    assert err == "error: transcript 0: claims T1 for a T9 equation: 2x = 3(4x + 5)\n"
    path.write_text(json.dumps({**row, "equation": "2x = 3(4x +"}) + "\n")
    code, out, err = run(capsys, "diagnose", str(path))
    assert (code, out) == (1, "") and err.startswith("error: transcript 0: ")
    # a claim holding a line break is echoed escaped, on one line
    path.write_text(json.dumps({**row, "problem_type": "T2\nZ"}) + "\n")
    code, out, err = run(capsys, "diagnose", str(path))
    assert (code, out) == (2, "")
    assert err == "error: transcript 0: claims T2\\nZ for a T9 equation: 2x = 3(4x + 5)\n"
    path.write_text(json.dumps({**row, "problem_type": "T9", "model_steps": [lines[0], "x = = 1"]})
                    + "\n")
    code, out, err = run(capsys, "diagnose", str(path))
    assert (code, out) == (1, "")
    assert err == "error: transcript 0: expected a number, 'x' or '(', got '=' (at position 4)\n"


def test_diagnose_error_names_its_transcript(capsys, tmp_path):
    # the index is the output's "index": blank lines do not count
    good = {"problem_type": "T1", "equation": "4x = 12", "model_answer": "3",
            "model_steps": ["4x = 12", "x = 3"]}
    zero = {**good, "equation": "0x = 12", "model_steps": ["0x = 12"]}
    path = tmp_path / "tr.jsonl"
    path.write_text(json.dumps(good) + "\n\n" + json.dumps(zero) + "\n")
    code, out, err = run(capsys, "diagnose", str(path))
    assert (code, out, err) == (1, "", "error: transcript 1: zero coefficient on x: 0x = 12\n")
    # no steps, like an empty list of them, would agree with every walk
    for steps in (None, []):
        path.write_text(json.dumps({**good, "model_steps": steps}) + "\n")
        code, out, err = run(capsys, "diagnose", str(path))
        assert (code, out, err) == (2, "", "error: transcript 0: diagnosis needs model_steps\n")


def test_diagnose_names_the_transcript_on_a_shared_equation(capsys, tmp_path):
    # transcripts 0 and 2 share an equation, and so its root: transcript 2
    # still stops the batch under its own index, with the exit code of its
    # error, and a bad transcript 1 stops it first
    eq = "2x = 3(4x + 5)"
    lines = reduce_with_misconceptions(parse_equation(eq), ["M2_S3"]).equation_lines()
    first = {"problem_type": "T9", "equation": eq, "model_answer": lines[-1], "model_steps": lines}
    other = {"problem_type": "T1", "equation": "4x = 12", "model_answer": "3",
             "model_steps": ["4x = 12", "x = 3"]}
    bad = {**other, "equation": "4x = = 12"}
    with pytest.raises(EngineError) as unparsable:
        parse_equation("x = = 1")
    cases = [
        ({**first, "problem_type": "T1"}, 2, f"claims T1 for a T9 equation: {eq}"),
        ({**first, "model_steps": [eq, "x = = 1"]}, 1, str(unparsable.value)),
    ]
    path = tmp_path / "tr.jsonl"
    for third, code_want, message in cases:
        path.write_text("".join(json.dumps(t) + "\n" for t in (first, other, third)))
        code, out, err = run(capsys, "diagnose", str(path))
        assert (code, out, err) == (code_want, "", f"error: transcript 2: {message}\n")
        path.write_text("".join(json.dumps(t) + "\n" for t in (first, bad, third)))
        code, out, err = run(capsys, "diagnose", str(path))
        assert (code, out) == (1, "") and err.startswith("error: transcript 1: "), err


def test_diagnose_matches_a_line_past_the_input_length_bound(capsys, tmp_path):
    # written without spaces the T12 root is 196 characters; the engine
    # prints it in 202, a line no parse would accept
    q = "-12345678901234567891/98765432109876543211"
    eq = f"{q}x={q}+{q}({q}x+-12345678901234567891)"
    row = {"problem_type": "T12", "equation": eq, "model_answer": "1", "model_steps": [eq, "x=1"]}
    path = tmp_path / "tr.jsonl"
    path.write_text(json.dumps(row) + "\n")
    code, out, err = run(capsys, "diagnose", str(path))
    assert (code, err) == (0, "")
    qualities = [d["quality"] for d in json.loads(out)[0]["diagnosis"]]
    assert len(qualities) == 5 and all(q.startswith("prefix 1/") for q in qualities)


def test_score_grades_a_dead_end_past_the_numeral_bound_other(capsys, tmp_path):
    # an M13 walk dead-ends on a line holding a 21-digit numeral, which the
    # transcript's text never contained
    path = tmp_path / "tr.jsonl"
    path.write_text(json.dumps({"problem_type": "T5", "model_answer": "7",
                                "equation": "99999999999999999999x + 99999999999999999999 = 5"})
                    + "\n")
    code, out, err = run(capsys, "score", str(path), "--misconception", "M13", "--report", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["per_type"]["T5"] == {"CA": 0.0, "MA": 0.0, "n": 1}


@pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u3000"])
def test_only_ascii_whitespace_is_skipped(capsys, space):
    code, out, err = run(capsys, "classify", f"x{space}= 3")
    assert (code, out) == (1, "")
    assert err == f"error: unexpected character '{space}' (at position 1)\n"


def test_ascii_whitespace_is_skipped(capsys):
    code, out, _ = run(capsys, "classify", "x \t\n\r\v\f= 3")
    assert (code, out) == (0, "T1\n")


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_only_ascii_digits_are_numerals(capsys, tmp_path, digit):
    text = f"x = {digit}"
    code, out, err = run(capsys, "classify", text)
    assert (code, out) == (1, "")
    assert err == f"error: unexpected character '{digit}' (at position 4)\n"

    path = tmp_path / "tr.jsonl"
    path.write_text(json.dumps({"problem_type": "T1", "equation": text, "model_answer": "3"},
                               ensure_ascii=False) + "\n")
    code, out, _ = run(capsys, "score", str(path), "--misconception", "M19", "--report", "json")
    assert code == 0
    assert json.loads(out)["per_type"]["T1"] == {"CA": 0.0, "MA": 0.0, "n": 1}

    rec = {"id": "train-000000", "problem_type": "T1", "equation": text, "steps": [text],
           "final_answer": text, "label": "correct", "seed": "0:k"}
    path.write_text(json.dumps(rec, ensure_ascii=False) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == "0/1 records replay cleanly\n"
    assert err == f"line 1: unexpected character '{digit}' (at position 4)\n"


@pytest.mark.parametrize("command", [["score", "--misconception", "M8"], ["diagnose"]])
@pytest.mark.parametrize("line", ["[1, 2]", "5", '"x"', "null"])
def test_transcript_line_not_an_object_exit_2(capsys, tmp_path, command, line):
    path = tmp_path / "tr.jsonl"
    path.write_text('{"problem_type": "T1", "equation": "4x = 12", "model_answer": "3"}\n'
                    + line + "\n")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err == "error: line 2: not a JSON object\n"


@pytest.mark.parametrize("flag", ["--theta-m", "--theta-c"])
@pytest.mark.parametrize("value", ["abc", "1/0", "1e400", "٣"])
def test_score_bad_threshold_exit_2(capsys, tmp_path, flag, value):
    path = tmp_path / "tr.jsonl"
    path.write_text('{"problem_type": "T1", "equation": "4x = 12", "model_answer": "3"}\n')
    code, out, err = run(capsys, "score", str(path), "--misconception", "M8", flag, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malgebra score: argument {flag}: ") and err.count("\n") == 1


def test_diagnose_cli(capsys, tmp_path):
    row = {
        "problem_type": "T1",
        "equation": "4x = 12",
        "model_answer": "12",
        "model_steps": ["4x = 12", "x = 12"],
    }
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(row) + "\n")
    code, out, _ = run(capsys, "diagnose", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["diagnosis"][0]["misconceptions"] == ["M20_S20"]


def test_steps_along_the_second_correct_path_are_correct(capsys, tmp_path):
    # T14 solved by moving the x term first, the path its walk does not take
    lines = ["3x + 4 = 5x + 6", "-2x + 4 = 6", "-2x = 2", "x = -1"]
    row = {"problem_type": "T14", "equation": lines[0], "model_answer": "-1",
           "model_steps": lines}
    path = tmp_path / "tr.jsonl"
    path.write_text(json.dumps(row) + "\n")
    code, out, _ = run(capsys, "score", str(path), "--misconception", "M19",
                       "--mode", "steps", "--report", "json")
    assert code == 0 and json.loads(out)["per_type"]["T14"] == {"CA": 100.0, "MA": 0.0, "n": 1}
    code, out, err = run(capsys, "diagnose", str(path))
    assert (code, err) == (0, "") and '"diagnosis": []' in out


def test_a_rule_fired_off_the_walk_is_a_full_diagnosis(capsys, tmp_path):
    # M19 at the solve step of T14's second correct path: score and diagnose
    # read the steps by one rule, so the match is full in both
    lines = ["3x + 4 = 5x + 6", "-2x + 4 = 6", "-2x = 2", "x = 0"]
    row = {"problem_type": "T14", "equation": lines[0], "model_answer": "0",
           "model_steps": lines}
    path = tmp_path / "tr.jsonl"
    path.write_text(json.dumps(row) + "\n")
    code, out, _ = run(capsys, "score", str(path), "--misconception", "M19",
                       "--mode", "steps", "--report", "json")
    assert code == 0 and json.loads(out)["per_type"]["T14"] == {"CA": 0.0, "MA": 100.0, "n": 1}
    code, out, err = run(capsys, "diagnose", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)[0]["diagnosis"] == [{"misconceptions": ["M19"], "quality": "full"}]


def test_dump_graph(capsys):
    code, out, _ = run(capsys, "dump-graph")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 15
    correct = [e for e in doc["edges"] if e["kind"] == "correct"]
    mal = [e for e in doc["edges"] if e["kind"] == "misconception"]
    assert {"source": "T9", "target": "T7", "kind": "correct", "id": "distribute"} in correct
    m8 = [e for e in mal if e["id"] == "M8"]
    assert {e["source"] for e in m8} == {"T9", "T12"}
    assert all(e["computed"] for e in m8)
    solve_rules = [e for e in mal if e["id"] == "M19"]
    assert len(solve_rules) == 15 and all(e["computed"] == "solved" for e in solve_rules)


def test_dump_graph_matches_pinned_digest(capsys):
    # a computed target depends only on the instance's shape: seeds 0-59 of
    # the former --seed option all printed these bytes
    code, out, _ = run(capsys, "dump-graph")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "fb8a486ad6cba32a8160cf89fb205c81854d866cd4442882ff6cca2028ca3621"


_READERS = [["verify", "{path}"], ["score", "{path}", "--misconception", "M8"],
            ["diagnose", "{path}"]]
_GEN = ["gen", "--n-correct-per-type", "1", "--test-per-type", "0", "--out", "{path}"]


@pytest.mark.parametrize(
    "argv,kind",
    [(c, k) for c in _READERS for k in ("missing", "directory", "not-utf8", "nul")]
    + [(_GEN, "file"), (_GEN, "nul")],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_unreadable_input_or_unwritable_output_exit_2(capsys, tmp_path, argv, kind):
    path = tmp_path / ("a\0b" if kind == "nul" else "f")
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    elif kind == "file":
        path.write_text("taken\n")
    code, out, err = run(capsys, *[a.format(path=path) for a in argv])
    assert (code, out) == (2, "")
    # the message stays one line: a NUL in the path is echoed escaped
    shown = str(path).replace("\0", "\\x00")
    assert err.startswith("error: ") and shown in err and err.count("\n") == 1
    if kind == "file":
        assert path.read_text() == "taken\n"


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "malgebra" in capsys.readouterr().out


def test_usage_error_exit_2(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert (code, out) == (2, "")
    assert err.startswith("error: malgebra: argument command: invalid choice: 'frobnicate'")
    assert err.count("\n") == 1


def test_help_snapshot(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    golden = Path(__file__).parent / "data" / "cli_help.txt"
    assert build_parser().format_help() == golden.read_text()


@pytest.mark.parametrize("command", ["classify", "solve", "malsolve", "tree", "catalog", "gen",
                                     "verify", "score", "diagnose", "dump-graph"])
def test_subcommand_help_snapshot(capsys, monkeypatch, command):
    # each metavar is pinned, so a renamed dest cannot change what --help prints
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    golden = Path(__file__).parent / "data" / f"cli_help_{command}.txt"
    assert (info.value.code, capsys.readouterr()) == (0, (golden.read_text(), ""))


_GOOD = {"problem_type": "T1", "equation": "4x = 12", "model_answer": "3", "model_steps": ["x = 3"]}


@pytest.mark.parametrize("command", [["score", "--misconception", "M8"], ["diagnose"]])
@pytest.mark.parametrize("field,value", [
    ("problem_type", 5),
    ("problem_type", ["T1"]),
    ("equation", 5),
    ("equation", None),
    ("model_steps", 5),
    ("model_steps", [1, 2]),
    ("model_steps", "x = 3"),
    ("model_steps", {"x": 3}),
], ids=lambda v: json.dumps(v) if not isinstance(v, str) else v)
def test_transcript_field_types_exit_2(capsys, tmp_path, command, field, value):
    path = tmp_path / "tr.jsonl"
    path.write_text(json.dumps(_GOOD) + "\n" + json.dumps({**_GOOD, field: value}) + "\n")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    want = "must be null or a list of strings" if field == "model_steps" else "must be a string"
    assert (code, out, err) == (2, "", f"error: line 2: transcript field '{field}' {want}\n")


def test_transcript_missing_field_names_its_line(capsys, tmp_path):
    path = tmp_path / "tr.jsonl"
    path.write_text(json.dumps(_GOOD) + "\n\n" + '{"problem_type": "T1"}\n')
    code, out, err = run(capsys, "score", str(path), "--misconception", "M8")
    assert (code, out, err) == (2, "", "error: line 3: transcript missing field 'equation'\n")


def _at_and_past_limits():
    """(name, accepted text at the limit, rejected text one past it, message)."""
    from malgebra.equations import MAX_EQUATION_LENGTH, MAX_NUMERAL_DIGITS, MAX_PAREN_DEPTH

    chain = ("x=1" + "+1" * ((MAX_EQUATION_LENGTH - 3) // 2)).ljust(MAX_EQUATION_LENGTH)
    nest = lambda d: "x = " + "(" * (d - 1) + "3(x + 1)" + ")" * (d - 1)  # noqa: E731
    digits = lambda n: "2x = " + "9" * n  # noqa: E731
    return [
        ("length", chain, chain.rstrip() + "+1", f"longer than {MAX_EQUATION_LENGTH} characters"),
        ("depth", nest(MAX_PAREN_DEPTH), nest(MAX_PAREN_DEPTH + 1),
         f"nested deeper than {MAX_PAREN_DEPTH}"),
        ("digits", digits(MAX_NUMERAL_DIGITS), digits(MAX_NUMERAL_DIGITS + 1),
         f"longer than {MAX_NUMERAL_DIGITS} digits"),
    ]


_ALL_IDS = ",".join(m.id for m in CATALOG)
_EQUATION_COMMANDS = [
    ["classify"],
    ["solve", "--trace"],
    ["malsolve", "--trace", "--misconceptions", _ALL_IDS],
    ["tree", "--cap", "2", "--misconceptions", _ALL_IDS],
]


@pytest.mark.parametrize("case", _at_and_past_limits(), ids=lambda c: c[0])
@pytest.mark.parametrize("command", _EQUATION_COMMANDS, ids=lambda c: c[0])
def test_parse_limits(capsys, case, command):
    _, at_limit, past_limit, message = case
    code, out, err = run(capsys, *command, "--", at_limit)
    assert (code, err) == (0, "") and out
    code, out, err = run(capsys, *command, "--", past_limit)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
