"""Benchmark of malgebra's user-facing workloads, one workload per process.

    python3 perfbench/run.py --workload gen --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one child each

Each workload is a closed loop with one caller: every ``malgebra.cli.main``
call starts when the previous one returns.  Inputs are built from ``--seed``
during set-up; a pass is one round of CLI calls over them, repeated until
``--seconds`` have gone by.  The package is imported afresh before every pass,
so a pass sees what one CLI process sees: state kept in a module does not
carry over from the pass before.

Throughput and set-up time are scaled to a reference machine speed, taken
from a fixed calibrator timed between passes (see ``machine_speed``); the
wall-clock figures are printed beside them.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics named in BENCHMARK.json.  With ``--trace 1`` an untraced
half is followed by a traced half; the last line carries the per-layer
metrics derived from the traced half's spans, which are also written to
``.perfbench-run/trace-<workload>.tsv.gz`` (replaced by the next traced
run).  The lines before it name every metric with its unit,
``failed_share``, the inputs' properties and a digest of everything the CLI
wrote, for byte-identity checks across commits.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import typing
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Sizes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
BASELINE = HERE / "baseline.json"
DEFAULT_SEED = 0
# Set-up runs at least this often and for at least this long; setup_s is the
# median, so that a short set-up (an import alone) is measured often enough.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

# Nominal calibrator runs per second, near those of the machine the baseline
# was recorded on; timings are reported as if the machine ran at this speed.
REFERENCE_SPEED = 360.0

# Standard-library modules malgebra imports, loaded once here so that every
# set-up times the same work: importing malgebra's own modules.
for _name in ("argparse", "dataclasses", "enum", "fractions", "hashlib", "json",
              "pathlib", "random", "typing"):
    importlib.import_module(_name)


def _calibrator() -> None:
    """Fixed work of the kind malgebra does: exact fractions, dicts, strings."""
    acc, seen = Fraction(0), {}
    for i in range(1, 300):
        f = Fraction(i, i % 7 + 1)
        acc += f * Fraction(3, i)
        seen[f"{f}x"] = (f, i)
    sorted(seen)


def machine_speed(seconds: float = 0.1) -> float:
    """Calibrator runs per second, measured over about ``seconds``.

    On a shared machine the speed of this process swings by tens of percent
    over seconds to minutes with load from outside it.  Timings taken between
    two of these samples are scaled to REFERENCE_SPEED, which cancels most of
    that swing; the wall-clock figures are printed beside them.
    """
    start = time.perf_counter()
    runs = 0
    while (elapsed := time.perf_counter() - start) < seconds:
        _calibrator()
        runs += 1
    return runs / elapsed


def fresh_import():
    """Import malgebra from this checkout's ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "malgebra" or n.startswith("malgebra.")]:
        del sys.modules[name]
    # typing's caches hold classes of the dropped modules, and through them the
    # modules' globals; without this, memory grows with every pass
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    mal = importlib.import_module("malgebra")
    importlib.import_module("malgebra.cli")
    if Path(mal.__file__).resolve().parent != SRC / "malgebra":
        raise RuntimeError(f"malgebra was imported from {mal.__file__}, not from {SRC}")
    return mal


@dataclass
class Totals:
    passes: int = 0
    ops: int = 0
    failed: int = 0
    seconds: float = 0.0
    wall_rates: list[float] = field(default_factory=list)  # ops per second, per pass
    speeds: list[float] = field(default_factory=list)  # machine speed around each pass

    @property
    def ops_per_s(self) -> float:
        """Median over passes of ops per second at the reference machine speed,
        so that a burst of load during one pass does not move the figure."""
        return statistics.median(r * REFERENCE_SPEED / v
                                 for r, v in zip(self.wall_rates, self.speeds))

    @property
    def wall_ops_per_s(self) -> float:
        return statistics.median(self.wall_rates)


def measure(workload, seconds: float, digest: str | None,
            tracer: Tracer | None = None) -> tuple[Totals, str]:
    """Run whole passes until ``seconds`` of wall time have gone by.

    Every pass must write the same bytes as the first one of the run.
    """
    totals = Totals()
    start = time.perf_counter()
    speed = machine_speed()
    while totals.passes == 0 or time.perf_counter() - start < seconds:
        mal = fresh_import()
        if tracer is not None:
            tracer.install()
        gc.collect()  # the dropped modules are garbage; collect it outside the timing
        p = workload.run_pass(mal)
        after = machine_speed()
        pass_digest = p.digest.hexdigest()
        digest = digest or pass_digest
        totals.passes += 1
        totals.ops += p.ops
        totals.seconds += p.seconds
        totals.wall_rates.append(p.ops / p.seconds)
        totals.speeds.append((speed + after) / 2)
        totals.failed += p.failed if pass_digest == digest else p.ops
        speed = after
    return totals, digest


def _reference(name: str, seed: int, sizes: Sizes) -> dict | None:
    """Recorded output digests, when this run's seed and sizes are the reference ones."""
    if seed != DEFAULT_SEED or sizes != Sizes() or not BASELINE.is_file():
        return None
    return json.loads(BASELINE.read_text(encoding="utf-8"))["reference_digests"].get(name)


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(),
        corrupt: bool = False, emit=print) -> dict:
    """Set up, measure and check one workload; return the result object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = RUN_DIR / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = WORKLOADS[name](seed, sizes, workdir, _reference(name, seed, sizes))

        setup_times, setup_speeds, input_digests = [], [], set()
        speed = machine_speed()
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            start = time.perf_counter()
            input_digests.add(workload.setup(fresh_import()))
            setup_times.append(time.perf_counter() - start)
            after = machine_speed()
            setup_speeds.append((speed + after) / 2)
            speed = after
        if corrupt:
            workload.corrupt()

        untraced, digest = measure(workload, seconds / 2 if trace else seconds, None)
        phases = [untraced]
        if trace:
            tracer = Tracer()
            traced, digest = measure(workload, seconds / 2, digest, tracer)
            phases.append(traced)
        passes = sum(t.passes for t in phases)
        attempted = sum(t.ops for t in phases)
        failed = sum(t.failed for t in phases)
        failed += workload.final_failures(fresh_import(), passes)
        if len(input_digests) != 1:  # the same seed must give the same inputs
            failed = attempted
        failed = min(failed, attempted)

        if trace:
            names = [m["name"] for m in spec["per_layer"]]
            values = layer_metrics(tracer.spans, names, traced.ops, traced.passes)
            values["tracing.overhead_ratio"] = untraced.ops_per_s / traced.ops_per_s
            workload.properties.update(workload.trace_properties(tracer.spans, traced.passes))
            tracer.write(RUN_DIR / f"trace-{name}.tsv.gz")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            values = {
                "ops_per_s": untraced.ops_per_s,
                "setup_s": statistics.median(t * v / REFERENCE_SPEED
                                             for t, v in zip(setup_times, setup_speeds)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    emit(f"# workload {name} (op: {workload.op}), seed {seed}, {passes} passes, "
         f"{attempted} ops, {sum(t.seconds for t in phases):.3f} s inside CLI calls")
    for metric, unit in units.items():
        note = f"  ({workload.throughput})" if metric == "ops_per_s" else ""
        emit(f"metric {metric} {values[metric]!r} {unit}{note}")
    emit(f"metric failed_share {failed / attempted!r} share  ({failed} of {attempted} ops)")
    emit(f"# wall clock: ops_per_s {untraced.wall_ops_per_s!r}, setup_s "
         f"{statistics.median(setup_times)!r}; machine speed {statistics.median(untraced.speeds):.1f} "
         f"calibrator runs/s (reference {REFERENCE_SPEED})")
    emit("# wall-clock ops_per_s per pass: " + " ".join(f"{r:.1f}" for r in untraced.wall_rates))
    emit("# machine speed per pass: " + " ".join(f"{v:.1f}" for v in untraced.speeds))
    if trace:
        emit(f"metric tracing.untraced_ops_per_s {untraced.ops_per_s!r} 1/s")
        emit(f"metric tracing.traced_ops_per_s {traced.ops_per_s!r} 1/s")
    for key, value in workload.properties.items():
        emit(f"input {key} {json.dumps(value, sort_keys=True)}")
    emit(f"output_digest {digest}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "malgebra" / "__init__.py").is_file():
        print(f"error: no malgebra sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            child = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = code or subprocess.run(child, check=False).returncode
        return code
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
