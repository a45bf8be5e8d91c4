"""Every name the benchmark reaches the package by still exists.

``perfbench/tracing.py`` wraps its targets by module and function name, so
a function that moves or is renamed would silently lose its span; the
workloads in ``perfbench/workloads.py`` call the package by name, so a
deleted name would fail the benchmark's run.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{modname}.{fn}"
        for modname, fn, _ in tracing.TARGETS
        if not inspect.isfunction(getattr(importlib.import_module(modname), fn, None))
    ]
    assert missing == []


def test_workload_library_names_resolve():
    workloads = _TRACING.with_name("workloads.py").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\bmal\.(\w+)\.(\w+)", workloads)))
    assert len(names) >= 10
    missing = [
        f"{modname}.{name}"
        for modname, name in names
        if not hasattr(importlib.import_module(f"malgebra.{modname}"), name)
    ]
    assert missing == []
