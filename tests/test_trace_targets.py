"""The functions the benchmark's tracer wraps exist under their names."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_trace_targets_are_functions(monkeypatch):
    # bench/spans.py is read, never written: no bytecode cache beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for modname, fname, _, _ in spans.TARGETS:
        mod = importlib.import_module(f"crossdifflab.{modname}")
        assert inspect.isfunction(getattr(mod, fname, None)), \
            f"crossdifflab.{modname}.{fname}"
