from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from malgebra.cli import build_parser, main
from malgebra.datasets import DatasetConfig, generate
from malgebra.equations import closed_form_solution, parse_equation
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
    # argparse's own exit still passes through
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2


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
    assert [line.split(": bad JSON: ")[0] for line in lines] == ["line 1", "line 2", "line 3"]
    assert "recursion" in lines[0] and "digits" in lines[1]


@pytest.mark.parametrize("text", [_DEEP, _HUGE, "{", "[1, 2]"], ids=["deep", "huge", "cut", "list"])
def test_gen_config_bad_json_exit_2(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path / "ds"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config {cfg}: ") and err.count("\n") == 1
    assert not (tmp_path / "ds").exists()


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
], ids=["unknown-fields", "correct-with-mid", "rule-does-not-fire"])
def test_verify_rejects_records_generation_never_writes(capsys, tmp_path, edit, reason):
    # M8 has no site on a T1 equation, so its walk is the correct one
    path = tmp_path / "ds.jsonl"
    path.write_text(json.dumps(_T1_RECORD) + "\n" + json.dumps({**_T1_RECORD, **edit}) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (1, "1/2 records replay cleanly\n", f"line 2: {reason}\n")


def test_verify_empty_file_exit_3(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, _ = run(capsys, "verify", str(empty))
    assert code == 3


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
    # a T9 equation claimed as T1 would count under T1 (there with CA 100)
    path = tmp_path / "tr.jsonl"
    path.write_text('{"problem_type": "T1", "equation": "2x = 3(4x + 5)", "model_answer": "-3/2"}\n')
    code, out, err = run(capsys, "score", str(path), "--misconception", "M8")
    assert (code, out) == (2, "")
    assert err == "error: transcript claims T1 for a T9 equation: 2x = 3(4x + 5)\n"


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
    assert err == "error: transcript claims T1 for a T9 equation: 2x = 3(4x + 5)\n"
    path.write_text(json.dumps({**row, "equation": "2x = 3(4x +"}) + "\n")
    code, out, err = run(capsys, "diagnose", str(path))
    assert (code, out) == (1, "") and err.startswith("error: ")


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
    with pytest.raises(SystemExit) as info:
        main(["score", str(path), "--misconception", "M8", flag, value])
    assert info.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


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
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1
    if kind == "file":
        assert path.read_text() == "taken\n"


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "malgebra" in capsys.readouterr().out


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_help_snapshot(capsys):
    golden = Path(__file__).parent / "data" / "cli_help.txt"
    assert build_parser().format_help() == golden.read_text()


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
