"""The functions the benchmark's tracer wraps exist under their names, and
the benchmark's workloads, traced at their small sizes, do the work they
count: every dump goes through one dump_slices call, every march through
its solver."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(monkeypatch, name):
    """bench/<name>.py, loaded under another name.  It is read, never
    written: no bytecode cache beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_are_functions(monkeypatch):
    spans = _bench_module(monkeypatch, "spans")
    assert spans.TARGETS
    for modname, fname, _, _ in spans.TARGETS:
        mod = importlib.import_module(f"crossdifflab.{modname}")
        assert inspect.isfunction(getattr(mod, fname, None)), \
            f"crossdifflab.{modname}.{fname}"


@pytest.mark.parametrize("workload",
                         ["duality_1d", "field_2d", "skt_converge_1d"])
def test_small_workload_traced_counts_what_it_computes(monkeypatch, tmp_path,
                                                       workload):
    spans = _bench_module(monkeypatch, "spans")
    workloads = _bench_module(monkeypatch, "workloads")
    # spans.install rebinds each target in every loaded crossdifflab
    # module; setting each binding to itself first has monkeypatch put
    # the original back afterwards
    loaded = [m for key, m in sys.modules.items()
              if key == "crossdifflab" or key.startswith("crossdifflab.")]
    for modname, fname, _, _ in spans.TARGETS:
        orig = getattr(sys.modules[f"crossdifflab.{modname}"], fname)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, value)
    tracer = spans.Tracer()
    spans.install(tracer)
    run = workloads.WORKLOADS[workload](3, True)
    run.prepare()
    led = workloads.Ledger()
    run.execute(led, str(tmp_path))
    assert [op for op in led.ops if op["problems"]] == []
    assert tracer.check() == []
    assert spans.count_mismatches(tracer.stats, led.counts) == []
