"""Every span target of the benchmark's tracer names a function of the package.

``perfbench/tracing.py`` wraps its targets by module and function name, so
a function that moves or is renamed would silently lose its span.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
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
