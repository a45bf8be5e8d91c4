"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

At tiny input sizes and one pass per run, it checks that:

- every metric BENCHMARK.json names is printed, with its unit, by name, in
  both the untraced and the traced run, and ``failed_share`` is printed too;
- one altered step line in a ``verify`` input, and one mislabelled
  transcript count in a ``score`` batch, each raise ``failed_share`` above 0;
- the same seed gives the same output digest twice (the untraced and the
  traced run of each workload).

It exits 0 when all hold and 1, listing what failed, otherwise.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import TINY, WORKLOADS

SEED = 3


def _run(name: str, trace: bool = False, corrupt: bool = False) -> tuple[dict, list[str]]:
    lines: list[str] = []
    result = run.run(name, SEED, 0, trace, TINY, corrupt, emit=lines.append)
    return result, lines


def _printed(lines: list[str], prefix: str) -> dict[str, list[str]]:
    return {line.split()[1]: line.split()[2:] for line in lines if line.startswith(prefix)}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")

    for name in WORKLOADS:
        digests = []
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = _run(name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace:d}: {result['failed']} failed ops")
            printed = _printed(lines, "metric ")
            for m in spec[key]:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or printed.get(m["name"], [None, None])[1] != m["unit"]:
                    problems.append(f"{name}: {m['name']} not reported in {m['unit']}")
            if set(result["metrics"]) != {m["name"] for m in spec[key]}:
                problems.append(f"{name}: metrics {sorted(result['metrics'])} are not the {key} list")
            if "failed_share" not in printed:
                problems.append(f"{name}: failed_share not printed")
            digests += [line.split()[1] for line in lines if line.startswith("output_digest ")]
        if len(digests) != 2 or digests[0] != digests[1]:
            problems.append(f"{name}: output digests differ for one seed: {digests}")

    for name in ("verify", "score"):
        result, _ = _run(name, corrupt=True)
        if result["failed"] == 0 or result["correct"]:
            problems.append(f"{name}: a corrupted input left failed_share at 0")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
