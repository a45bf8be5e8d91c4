"""In-memory span tracing of malgebra's public functions, from outside the package.

Each traced function is wrapped at every module binding that holds it, because
``from .x import f`` copies the binding into the importing module (for
example ``malgebra.datasets.reduce`` and ``malgebra.evaluation.reduce``).
A span is ``(name, start, end, parent, request, tag)``: ``parent`` is the
index of the enclosing span (-1 for none), ``request`` the index of the span
that opened the request, which is the CLI call or, inside one, the transcript
being graded or diagnosed.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import gzip
import math
import statistics
import sys
import time
from pathlib import Path


def _grade_tag(result) -> str:
    return {"correct": "correct", "misconception-match": "match"}.get(result, "other")


def _diagnose_tag(result) -> str:
    if not result or any(d.quality == "full" for d in result):
        return "explained"
    return "unexplained"


# (module, function, tag of a normal return); the span name is "<layer>.<function>"
TARGETS = (
    ("malgebra.equations", "parse_equation", None),
    ("malgebra.equations", "closed_form_solution", None),
    ("malgebra.taxonomy", "classify", None),
    ("malgebra.reduction", "reduce", None),
    ("malgebra.reduction", "reduce_step", None),
    ("malgebra.misconceptions", "reduce_with_misconceptions", None),
    ("malgebra.misconceptions", "try_apply", None),
    ("malgebra.solution_space", "enumerate_tree", None),
    ("malgebra.datasets", "sample_instance", None),
    ("malgebra.datasets", "sample_for_misconception", None),
    ("malgebra.datasets", "generate", None),
    ("malgebra.datasets", "verify_records", None),
    ("malgebra.evaluation", "grade", _grade_tag),
    ("malgebra.evaluation", "diagnose", _diagnose_tag),
    ("malgebra.cli", "main", None),
)

REQUEST_ROOTS = frozenset({"cli.main", "evaluation.grade", "evaluation.diagnose"})

# A raised exception tags the span "raise"; grade raising TranscriptError is
# scored as "other", so it is counted there.
_RAISE_AS = {"evaluation.grade": "other"}

# Draws beneath a sampler: the direct child call made once per candidate.
_DRAW_CHILD = {
    "datasets.sample_instance": "taxonomy.classify",
    "datasets.sample_for_misconception": "misconceptions.reduce_with_misconceptions",
}


class Tracer:
    """Collects spans from every call into the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[tuple[int, int]] = []

    def install(self) -> None:
        """Wrap the targets at every binding of the currently imported package.

        Call it again after each re-import: fresh modules hold fresh bindings.
        """
        modules = [m for n, m in sys.modules.items()
                   if n == "malgebra" or n.startswith("malgebra.")]
        for modname, fn, tagger in TARGETS:
            orig = getattr(sys.modules[modname], fn)
            wrapped = self._wrap(f"{modname.rsplit('.', 1)[1]}.{fn}", orig, tagger)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

    def _wrap(self, name, fn, tagger):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_root = name in REQUEST_ROOTS
        raise_tag = _RAISE_AS.get(name, "raise")

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent, parent_req = stack[-1] if stack else (-1, -1)
            req = sid if is_root or parent_req < 0 else parent_req
            stack.append((sid, req))
            tag = raise_tag
            start = clock()
            try:
                result = fn(*args, **kwargs)
                tag = tagger(result) if tagger else ""
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, req, tag)

        return traced

    def write(self, path: Path) -> None:
        """Write the spans as gzip-compressed tab-separated lines, one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\trequest\ttag\n")
            for sid, (name, start, end, parent, req, tag) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{req}\t{tag}\n")


def _pct_us(durations: list[float], q: float) -> float:
    """Nearest-rank percentile of span durations, in microseconds."""
    if not durations:
        return 0.0
    if q == 0.5:
        return statistics.median(durations) * 1e6
    xs = sorted(durations)
    return xs[min(len(xs) - 1, math.ceil(q * len(xs)) - 1)] * 1e6


def layer_metrics(spans: list[tuple], names: list[str], ops: int, passes: int) -> dict:
    """Derive the named per-layer metrics from spans of ``passes`` passes.

    Names are ``<layer>.<function>[.<tag>].<stat>``.  ``calls`` and ``self_s``
    are per pass over the workload's inputs; ``calls_per_op`` is per op.
    """
    child_time = [0.0] * len(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    returns: dict[str, int] = {}
    direct: dict[tuple[str, str], int] = {}
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for sid, (name, start, end, parent, _, tag) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[sid]
        durations.setdefault(name, []).append(dur)
        if tag:
            durations.setdefault(f"{name}.{tag}", []).append(dur)
        if tag != "raise":
            returns[name] = returns.get(name, 0) + 1
        if parent >= 0:
            key = (spans[parent][0], name)
            direct[key] = direct.get(key, 0) + 1

    out = {}
    for metric in names:
        fn, stat = metric.rsplit(".", 1)
        if stat == "calls":
            value = calls.get(fn, 0) / passes
        elif stat == "calls_per_op":
            value = calls.get(fn, 0) / ops
        elif stat == "self_s":
            value = self_s.get(fn, 0.0) / passes
        elif stat == "p50_us":
            value = _pct_us(durations.get(fn, []), 0.5)
        elif stat == "p99_us":
            value = _pct_us(durations.get(fn, []), 0.99)
        elif stat == "accept_ratio":
            draws = direct.get((fn, _DRAW_CHILD[fn]), 0)
            value = returns.get(fn, 0) / draws if draws else 0.0
        elif stat == "candidates_per_call":
            n = calls.get(fn, 0)
            value = direct.get((fn, "misconceptions.reduce_with_misconceptions"), 0) / n if n else 0.0
        else:
            continue
        out[metric] = value
    return out


def draws_per_request(spans: list[tuple]) -> list[tuple[int, int]]:
    """(request span, instance draws) per CLI call, in call order.

    A draw is a ``classify`` call made directly by ``sample_instance``.
    """
    draws: dict[int, int] = {}
    for name, _, _, parent, req, _ in spans:
        if name == "cli.main":
            draws.setdefault(req, 0)
        elif (name == "taxonomy.classify" and parent >= 0
              and spans[parent][0] == "datasets.sample_instance"):
            draws[req] = draws.get(req, 0) + 1
    return sorted(draws.items())
