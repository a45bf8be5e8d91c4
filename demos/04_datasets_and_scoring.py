"""Generate a small training set, verify it, then score and diagnose
transcripts the way an external model would be evaluated.

Run:  python demos/04_datasets_and_scoring.py
"""

import json
import tempfile
from pathlib import Path

from malgebra import DatasetConfig, Transcript, diagnose, generate, score, verify_dataset
from malgebra.equations import closed_form_solution, parse_equation
from malgebra.errors import EngineError
from malgebra.misconceptions import reduce_with_misconceptions

# The dataset lives in a temporary directory, removed when the block ends.
with tempfile.TemporaryDirectory(prefix="malgebra-demo-") as tmp:
    workdir = Path(tmp)

    # 40 M8 records plus 10 correct ones (ratio 0.25), with a disjoint test split.
    config = DatasetConfig(
        seed=7, misconception="M8", n_m=40, ratio=0.25, test_per_type=5,
        out_dir=str(workdir),
    )
    manifest = generate(config)
    print(f"wrote {manifest['counts']['train']['total']} train records to {workdir}")
    print(json.dumps(manifest["counts"]["train"]["by_type"], indent=2))

    report = verify_dataset(workdir / "train.jsonl")
    print(f"\nreplay check: {report.passed}/{report.total} records verify")

    first = json.loads((workdir / "train.jsonl").read_text().splitlines()[0])
    print("\na record looks like:")
    print(json.dumps(first, indent=2))

    # Score a synthetic "student" that applies M8 on its applicable types and
    # solves everything else correctly: the ideal cognitive student model.
    batch = []
    for line in (workdir / "test.jsonl").read_text().splitlines():
        rec = json.loads(line)
        eq = parse_equation(rec["equation"])
        if rec["problem_type"] in ("T9", "T12"):
            try:
                answer = str(reduce_with_misconceptions(eq, ["M8"]).answer)
            except EngineError:  # M8 can leave 0x = B: no answer, graded "other"
                answer = "no solution"
        else:
            answer = str(closed_form_solution(eq))
        batch.append(Transcript(rec["problem_type"], rec["equation"], answer))

result = score(batch, "M8")
print("\nscoring that student against the oracles:")
print(result.render_text())

# Diagnosis: given only the written steps, which rule explains the error?
trace = reduce_with_misconceptions(parse_equation("2x = 3(4x + 5)"), ["M8"])
t = Transcript("T9", "2x = 3(4x + 5)", str(trace.answer), tuple(trace.equation_lines()))
print("\ndiagnosing a transcript with steps:")
for line in trace.equation_lines():
    print(f"  {line}")
for d in diagnose(t):
    print(f"diagnosis: {'+'.join(d.misconceptions)} ({d.quality})")
