"""The benchmark's outputs and work counts are pinned bit for bit.

The three workloads of bench/workloads.py run at their small size, in
process, at seeds 1 and 2 (seed 20171123 stays held out), and their
checked `outputs` (hex floats, a CSV hash) and `counts` must equal the
golden file.  FFT and SIMD `exp` bits may differ across numpy versions, so
the golden values are compared only under the numpy version that made
them; under another one the test checks that two runs agree and warns
that the golden values were not compared.

A change that moves bits on purpose rewrites the golden file in the same
commit, so that its diff shows every value that moved:

    PYTHONPATH=src python tests/test_bench_bits.py
"""

import importlib.util
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"
GOLDEN = Path(__file__).with_name("bench_bits.json")
SEEDS = (1, 2)


def _workloads():
    # bench/ is read, never written: no bytecode cache beside it
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads",
                                                      WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


def _runs(outdir) -> dict:
    """{"<workload>/seed<s>": {"outputs", "counts"}} of every small
    workload at every seed; an operation that fails is an AssertionError."""
    wl = _workloads()
    runs = {}
    for name, workload in sorted(wl.WORKLOADS.items()):
        for seed in SEEDS:
            key = f"{name}/seed{seed}"
            w = workload(seed, True)
            w.prepare()
            led = wl.Ledger()
            sub = os.path.join(outdir, key.replace("/", "-"))
            os.makedirs(sub)
            w.execute(led, sub)
            failed = [op for op in led.ops if op["problems"]]
            assert not failed, f"{key}: {failed}"
            runs[key] = {"outputs": led.outputs, "counts": led.counts}
    return runs


def _machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu_model": cpu, "arch": platform.machine(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def test_small_workloads_give_the_golden_bits(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    runs = _runs(str(tmp_path / "a"))
    if np.__version__ == golden["numpy"]:
        assert runs == golden["runs"]
    else:
        assert runs == _runs(str(tmp_path / "b"))
        warnings.warn(f"golden values not compared: numpy {np.__version__} "
                      f"here, {golden['numpy']} in {GOLDEN.name}; two runs "
                      "agree")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"numpy": np.__version__, "machine": _machine(),
                  "runs": _runs(tmp)}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
