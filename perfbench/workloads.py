"""The benchmark's workloads: inputs built from a seed, one pass, and its checks.

Every workload drives ``malgebra.cli.main(argv)`` in-process with stdout
captured, so a pass includes argument parsing, JSONL input and output and
printing.  ``setup`` builds the inputs under a work directory; ``run_pass``
makes one pass of CLI calls over them, checks every output and returns the
op count, the failed ops, the time spent inside the calls and a digest of
everything the calls wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import time
import traceback
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from tracing import draws_per_request


@dataclass(frozen=True)
class Sizes:
    """Input sizes: the defaults are the benchmark's, ``TINY`` the self-test's."""

    gen_correct_per_type: int = 40
    gen_m1_n_m: int = 400
    gen_m6_n_m: int = 100
    gen_test_per_type: int = 20
    verify_correct_per_type: int = 40
    verify_mal_per_rule: int = 30
    grade_split_per_type: int = 40  # test split the grade inputs are drawn from
    score_per_type: int = 24  # transcripts per type in each rule's batch
    diagnose_explained_per_pair: int = 2  # per (rule, applicable type)
    diagnose_unexplained_per_type: int = 6


TINY = Sizes(gen_correct_per_type=2, gen_m1_n_m=8, gen_m6_n_m=4, gen_test_per_type=1,
             verify_correct_per_type=2, verify_mal_per_rule=1, grade_split_per_type=6,
             score_per_type=3, diagnose_explained_per_pair=1, diagnose_unexplained_per_type=1)


@dataclass
class Pass:
    ops: int = 0
    failed: int = 0
    seconds: float = 0.0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    seconds: float


def call_cli(mal, argv: list[str]) -> CliResult:
    """Run ``malgebra.cli.main(argv)`` with stdout and stderr captured.

    A crash is a failed call (code -1) with its traceback on stderr, not a
    crash of the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mal.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = -1
        traceback.print_exc()
    seconds = time.perf_counter() - start
    return CliResult(code, out.getvalue(), err.getvalue(), seconds)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _distinct_shares(pairs: list[tuple[str, str]]) -> dict:
    """Share of distinct equations, overall and among T1, of (type, equation) pairs."""
    t1 = [eq for t, eq in pairs if t == "T1"]
    return {
        "distinct_equation_share": round(len({eq for _, eq in pairs}) / len(pairs), 4),
        "distinct_equation_share_T1": round(len(set(t1)) / len(t1), 4) if t1 else None,
    }


class Workload:
    name = ""
    op = ""
    throughput = ""  # what ops_per_s means on this workload

    def __init__(self, seed: int, sizes: Sizes, workdir: Path,
                 reference: dict | None = None) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.reference = reference  # recorded output digests, on the reference seed only
        self.properties: dict = {}

    def setup(self, mal) -> str:
        """Build the inputs; return a digest of them."""
        raise NotImplementedError

    def run_pass(self, mal) -> Pass:
        raise NotImplementedError

    def final_failures(self, mal, passes: int) -> int:
        """Failed ops found by checks run once, after the timed passes."""
        return 0

    def corrupt(self) -> None:
        """Spoil one input so that the checks must report a failure."""
        raise NotImplementedError

    def trace_properties(self, spans: list[tuple], passes: int) -> dict:
        """Input properties that only the traced run can count."""
        return {}

    def _split(self, mal, per_type: int) -> dict[str, list[str]]:
        """Equations of a generated test split, by problem type."""
        out = self.workdir / "split"
        mal.datasets.generate(mal.datasets.DatasetConfig(
            seed=self.seed, n_correct_per_type=0, test_per_type=per_type, out_dir=str(out)))
        split: dict[str, list[str]] = {}
        for line in (out / "test.jsonl").read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            split.setdefault(rec["problem_type"], []).append(rec["equation"])
        return split


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

GEN_FILES = ("train.jsonl", "test.jsonl", "manifest.json")
_WROTE = re.compile(r"wrote (\d+) train \((\d+) misconception, (\d+) correct\) and (\d+) test records")


class Gen(Workload):
    """A sweep of ``malgebra gen`` cells sharing one seed, each with its own test split."""

    name = "gen"
    op = "record written"
    throughput = "gen.records_per_s: train and test records written per second"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.first: dict[str, dict[str, str]] = {}  # file digests per cell, first pass

    def cells(self) -> list[tuple[str, list[str], int]]:
        """(cell, gen arguments, expected train records)."""
        s = self.sizes
        return [
            ("correct", ["--n-correct-per-type", str(s.gen_correct_per_type)],
             15 * s.gen_correct_per_type),
            ("M1", ["--misconception", "M1", "--n-m", str(s.gen_m1_n_m), "--ratio", "1.0"],
             2 * s.gen_m1_n_m),
            ("M6", ["--misconception", "M6", "--n-m", str(s.gen_m6_n_m), "--ratio", "0.5"],
             s.gen_m6_n_m + s.gen_m6_n_m // 2),
        ]

    def setup(self, mal) -> str:
        argv = [self._argv(c, a) for c, a, _ in self.cells()]
        return hashlib.sha256(json.dumps(argv).encode()).hexdigest()

    def _argv(self, cell: str, args: list[str]) -> list[str]:
        return ["gen", *args, "--test-per-type", str(self.sizes.gen_test_per_type),
                "--seed", str(self.seed), "--out", str(self.workdir / "gen" / cell)]

    def run_pass(self, mal) -> Pass:
        p = Pass()
        n_test = 15 * self.sizes.gen_test_per_type
        for cell, args, n_train in self.cells():
            r = call_cli(mal, self._argv(cell, args))
            out = self.workdir / "gen" / cell
            m = _WROTE.match(r.out)
            ok = r.code == 0 and m is not None and (int(m[1]), int(m[4])) == (n_train, n_test)
            files = {name: _sha256(out / name) for name in GEN_FILES} if ok else {}
            if ok:
                lines = [len((out / n).read_text(encoding="utf-8").splitlines())
                         for n in GEN_FILES[:2]]
                ok = lines == [n_train, n_test]
            p.ops += n_train + n_test
            p.seconds += r.seconds
            p.failed += 0 if ok else n_train + n_test
            self.first.setdefault(cell, files)
            # the output directory differs between checkouts; the bytes must not
            stdout = r.out.replace(str(self.workdir), "<work>")
            p.digest.update(json.dumps([cell, r.code, stdout, files]).encode())
        return p

    def final_failures(self, mal, passes: int) -> int:
        """Replay the output through ``verify_records``; on the reference seed
        and sizes, compare the file digests with the recorded ones."""
        failed = 0
        for cell, _, n_train in self.cells():
            out = self.workdir / "gen" / cell
            n_records = n_train + 15 * self.sizes.gen_test_per_type
            bad = 0
            for name in GEN_FILES[:2]:
                path = out / name
                if not path.is_file():
                    continue
                report = mal.datasets.verify_records(path.read_text(encoding="utf-8").splitlines())
                bad += report.total - report.passed
            if self.reference is not None and self.first.get(cell) != self.reference.get(cell):
                bad = n_records
            failed += min(bad, n_records) * passes
        self.properties["reference_digests_checked"] = self.reference is not None
        return failed

    def trace_properties(self, spans: list[tuple], passes: int) -> dict:
        """Instance draws per record written, per cell."""
        cells = self.cells()
        draws: dict[str, int] = {}
        for k, (_, n) in enumerate(draws_per_request(spans)):
            cell = cells[k % len(cells)][0]
            draws[cell] = draws.get(cell, 0) + n
        n_test = 15 * self.sizes.gen_test_per_type
        return {"draws_per_record": {
            cell: round(draws.get(cell, 0) / ((n_train + n_test) * passes), 3)
            for cell, _, n_train in cells}}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_REPLAYED = re.compile(r"(\d+)/(\d+) records replay cleanly")


class Verify(Workload):
    """``malgebra verify`` on correct records of all 15 types and misconception
    records of all 19 rules, generated from the seed."""

    name = "verify"
    op = "record replayed"
    throughput = "verify.records_per_s"

    def setup(self, mal) -> str:
        ds = mal.datasets
        s = self.sizes
        configs = [ds.DatasetConfig(seed=self.seed, n_correct_per_type=s.verify_correct_per_type,
                                    test_per_type=0)]
        configs += [ds.DatasetConfig(seed=self.seed, misconception=m.id,
                                     n_m=s.verify_mal_per_rule, test_per_type=0)
                    for m in mal.misconceptions.CATALOG]
        lines: list[str] = []
        for i, config in enumerate(configs):
            out = self.workdir / "parts" / str(i)
            ds.generate(replace(config, out_dir=str(out)))
            lines += (out / "train.jsonl").read_text(encoding="utf-8").splitlines()
        self.lines = lines
        self.path = self.workdir / "dataset.jsonl"
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        recs = [json.loads(line) for line in lines]
        labels: dict[str, int] = {}
        for r in recs:
            labels[r["label"]] = labels.get(r["label"], 0) + 1
        self.properties = {"records": len(recs), "label_mix": labels,
                           **_distinct_shares([(r["problem_type"], r["equation"]) for r in recs])}
        return _sha256(self.path)

    def corrupt(self) -> None:
        rec = json.loads(self.lines[0])
        rec["steps"][1] = rec["steps"][1].replace(" = ", " = 1 + ", 1)
        self.lines[0] = json.dumps(rec)
        self.path.write_text("\n".join(self.lines) + "\n", encoding="utf-8")

    def run_pass(self, mal) -> Pass:
        r = call_cli(mal, ["verify", str(self.path)])
        n = len(self.lines)
        m = _REPLAYED.fullmatch(r.out.strip())
        passed = int(m[1]) if m and int(m[2]) == n and r.code in (0, 1) else 0
        p = Pass(ops=n, failed=n - passed, seconds=r.seconds)
        p.digest.update(json.dumps([r.code, r.out, r.err]).encode())
        return p


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

# answer kinds by position in a rule's batch
_MIX = ("correct",) * 4 + ("malgorithm",) * 3 + ("other-rule",) * 2 + ("unparsable",)
UNPARSABLE_ANSWER = "x = ?"


def _mal_answers(mal, eq, m) -> set:
    """Numeric terminals reachable with exactly one firing of ``m``."""
    tree = mal.solution_space.enumerate_tree(eq, [m], 1)
    return {leaf.answer for leaf in tree.leaves
            if leaf.misconceptions == (m.id,) and leaf.answer is not None}


def _rule_trace(mal, eq, m):
    """The single-rule trace of ``m`` if it fires and is distinguishable."""
    try:
        tr = mal.misconceptions.reduce_with_misconceptions(eq, [m])
    except mal.errors.EngineError:
        return None
    if tr.misconceptions_used != (m.id,):
        return None
    if tr.dead_end is None and tr.answer == mal.equations.closed_form_solution(eq):
        return None
    return tr


def _may_fire(mal) -> dict[str, list]:
    """Per problem type, the rules applicable somewhere on its correct paths.

    A rule outside this list never fires on an instance of the type, so its
    set of outcomes there is empty.
    """
    out = {}
    for t in mal.taxonomy.ORDERED_TYPES:
        seen, todo = {t}, [t]
        while todo:
            for dst, _ in mal.taxonomy.correct_successors(todo.pop()):
                if dst not in seen:
                    seen.add(dst)
                    todo.append(dst)
        out[t.name] = [m for m in mal.misconceptions.CATALOG
                       if m.at_solve or m.applicable_types & seen]
    return out


class Score(Workload):
    """``malgebra score`` once per rule on that rule's batch over a test split."""

    name = "score"
    op = "transcript scored"
    throughput = "score.transcripts_per_s"

    def setup(self, mal) -> str:
        s = self.sizes
        split = self._split(mal, s.grade_split_per_type)
        may_fire = _may_fire(mal)
        self.batches: list[tuple[str, Path, dict[str, list[int]]]] = []
        mix: dict[str, int] = {}
        used: list[tuple[str, str]] = []
        digest = hashlib.sha256()
        for k, m in enumerate(mal.misconceptions.CATALOG):
            rows, expected = [], {}
            for t in mal.taxonomy.ORDERED_TYPES:
                for text in split[t.name][:s.score_per_type]:
                    j = len(rows)
                    answer, label, kind = self._answer(mal, text, m, _MIX[j % len(_MIX)],
                                                       may_fire[t.name], k + j)
                    rows.append({"problem_type": t.name, "equation": text,
                                 "model_answer": answer})
                    slot = expected.setdefault(t.name, [0, 0, 0])
                    slot[0] += 1
                    slot[1] += label == "correct"
                    slot[2] += label == "match"
                    mix[kind] = mix.get(kind, 0) + 1
                    if k == 0:
                        used.append((t.name, text))
            path = self.workdir / "score" / f"{m.id}.jsonl"
            _write_jsonl(path, rows)
            digest.update(path.read_bytes())
            self.batches.append((m.id, path, expected))
        self.properties = {"transcripts_per_pass": sum(mix.values()), "answer_mix": mix,
                           **_distinct_shares(used)}
        return digest.hexdigest()

    @staticmethod
    def _answer(mal, text: str, m, kind: str, may_fire: list,
                offset: int) -> tuple[str, str, str]:
        """(model answer, expected grade, realised kind) for one transcript."""
        eq = mal.equations.parse_equation(text)
        correct = mal.equations.closed_form_solution(eq)
        if kind == "correct":
            return str(correct), "correct", kind
        if kind == "unparsable":
            return UNPARSABLE_ANSWER, "other", kind
        if kind == "malgorithm" and m in may_fire:
            tr = _rule_trace(mal, eq, m)
            if tr is not None:
                answer = str(tr.answer) if tr.answer is not None else tr.equation_lines()[-1]
                return answer, "match", kind
        # wrong under another rule, never an outcome of m
        taken = {correct} | (_mal_answers(mal, eq, m) if m in may_fire else set())
        for j in range(len(may_fire)):
            r = may_fire[(offset + j) % len(may_fire)]
            if r.id == m.id:
                continue
            tr = _rule_trace(mal, eq, r)
            if tr is not None and tr.answer is not None and tr.answer not in taken:
                return str(tr.answer), "other", "other-rule"
        value = correct + 1
        while value in taken:
            value += 1
        return str(value), "other", "other-offset"

    def corrupt(self) -> None:
        _, _, expected = self.batches[0]
        slot = next(iter(expected.values()))
        slot[1] -= 1

    def run_pass(self, mal) -> Pass:
        p = Pass()
        for mid, path, expected in self.batches:
            r = call_cli(mal, ["score", str(path), "--misconception", mid, "--report", "json"])
            n = sum(slot[0] for slot in expected.values())
            p.ops += n
            p.seconds += r.seconds
            p.failed += self._check(r, expected) if r.code == 0 else n
            p.digest.update(json.dumps([mid, r.code, r.out]).encode())
        return p

    @staticmethod
    def _check(r: CliResult, expected: dict[str, list[int]]) -> int:
        """Transcripts whose grade disagrees with how the batch was built."""
        failed = 0
        try:
            per_type = json.loads(r.out)["per_type"]
            for t, (n, n_correct, n_match) in expected.items():
                got = per_type[t]
                if got["n"] != n:
                    failed += n
                    continue
                got_correct = round(Fraction(got["CA"]) * n / 100)
                got_match = round(Fraction(got["MA"]) * n / 100)
                failed += min(n, abs(got_correct - n_correct) + abs(got_match - n_match))
        except (ValueError, KeyError, TypeError):  # a malformed report fails every transcript
            return sum(slot[0] for slot in expected.values())
        return failed


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

UNEXPLAINED_OFFSET = Fraction(1, 997)


class Diagnose(Workload):
    """``malgebra diagnose`` on wrong transcripts with steps over a test split:
    some explained by a single rule, some by none."""

    name = "diagnose"
    op = "transcript diagnosed"
    throughput = "diagnose.transcripts_per_s"

    def setup(self, mal) -> str:
        s = self.sizes
        split = self._split(mal, s.grade_split_per_type)
        catalog = mal.misconceptions.CATALOG
        rows: list[dict] = []
        self.expected: list[str | None] = []  # generating rule, None when unexplained
        short = 0
        for m in catalog:
            for t in mal.taxonomy.ORDERED_TYPES:
                if t not in m.applicable_types:
                    continue
                found = 0
                for text in split[t.name]:
                    if found == s.diagnose_explained_per_pair:
                        break
                    eq = mal.equations.parse_equation(text)
                    tr = _rule_trace(mal, eq, m)
                    if tr is None or not _unambiguous(mal, eq, tr, m, catalog):
                        continue
                    lines = tr.equation_lines()
                    rows.append({"problem_type": t.name, "equation": text,
                                 "model_answer": lines[-1], "model_steps": lines})
                    self.expected.append(m.id)
                    found += 1
                short += s.diagnose_explained_per_pair - found
        for t in mal.taxonomy.ORDERED_TYPES:
            for text in split[t.name][:s.diagnose_unexplained_per_type]:
                eq = mal.equations.parse_equation(text)
                lines = mal.reduction.reduce(eq).equation_lines()
                wrong = mal.equations.closed_form_solution(eq) + UNEXPLAINED_OFFSET
                lines[-1] = f"x = {wrong}"
                rows.append({"problem_type": t.name, "equation": text,
                             "model_answer": lines[-1], "model_steps": lines})
                self.expected.append(None)
        self.rows = rows
        self.path = self.workdir / "diagnose.jsonl"
        _write_jsonl(self.path, rows)
        explained = sum(e is not None for e in self.expected)
        self.properties = {"transcripts_per_pass": len(rows), "explained": explained,
                           "unexplained": len(rows) - explained,
                           "explained_pairs_short": short,
                           **_distinct_shares([(r["problem_type"], r["equation"]) for r in rows])}
        return _sha256(self.path)

    def run_pass(self, mal) -> Pass:
        r = call_cli(mal, ["diagnose", str(self.path)])
        n = len(self.rows)
        p = Pass(ops=n, seconds=r.seconds)
        p.digest.update(json.dumps([r.code, r.out]).encode())
        try:
            results = json.loads(r.out) if r.code == 0 else None
        except ValueError:
            results = None
        if not isinstance(results, list) or len(results) != n:
            p.failed = n
            return p
        misses = unexplained_full = 0
        for i, (res, row, rule) in enumerate(zip(results, self.rows, self.expected)):
            try:
                ranked = res["diagnosis"]
                top = ranked[0]["misconceptions"] if ranked else None
                full = any(d["quality"] == "full" for d in ranked)
                ok = res["index"] == i and res["equation"] == row["equation"]
            except (KeyError, TypeError, IndexError):
                ok = False
            if not ok:
                p.failed += 1
            elif rule is not None:
                misses += top != [rule]
            else:
                unexplained_full += full
        self.properties["rank1_misses"] = misses
        self.properties["unexplained_with_full_match"] = unexplained_full
        return p


def _unambiguous(mal, eq, trace, m, catalog) -> bool:
    """No other single rule yields the same trace (no diagnoser could separate them)."""
    lines = trace.equation_lines()
    for other in catalog:
        if other.id == m.id:
            continue
        try:
            tr2 = mal.misconceptions.reduce_with_misconceptions(eq, [other])
        except mal.errors.EngineError:
            continue
        if tr2.misconceptions_used == (other.id,) and tr2.equation_lines() == lines:
            return False
    return True


WORKLOADS = {w.name: w for w in (Gen, Verify, Score, Diagnose)}
