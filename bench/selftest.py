"""Self-test of the benchmark at reduced size.

    python3 bench/selftest.py

For every workload it runs the benchmark untraced and traced with
--small, then checks that:
  * every run completes and reports correct outputs;
  * every metric named in BENCHMARK.json is printed, with its unit;
  * the traced run saw the program and the work counts are not all zero;
and that the benchmark refuses to run, without a result line, in a copy
holding only BENCHMARK.json and bench/.  Exits 0 when everything holds.

A traced run pairs an untraced and a traced repetition, and it is only
`correct` when the span tree is consistent (self time >= 0, children
inside parents) and the work counts and checked outputs (residuals, norms,
CSV bytes) are bit-identical in both: so tracing does not change the
program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(cwd: Path, *args):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result_line(stdout: str):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        records = {}
        for trace in (0, 1):
            tag = f"{wl} trace={trace}"
            code, out = bench(ROOT, "--workload", wl, "--seed", "3",
                              "--seconds", "0", "--trace", str(trace),
                              "--small")
            res = result_line(out)
            check(code == 0 and res is not None and res["correct"]
                  and res["failed"] == 0, f"{tag}: completes, correct")
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == units[trace],
                  f"{tag}: metrics and units are the BENCHMARK.json ones")
            if trace == 0:
                check(all(f"{name} " in out and f" {unit} " in out
                          for name, unit in units[0].items())
                      and "failed_frac" in out,
                      f"{tag}: every end-to-end metric printed with unit")
            records[trace] = json.loads(
                (OUT / f"result-{wl}-s3-t{trace}-small.json").read_text())
        if len(records) < 2:
            continue
        check(records[1]["per_layer"]["lab.run.calls"]["median"] >= 1,
              f"{wl}: traced run saw lab.run")
        check(any(v for v in records[0]["counts"].values()),
              f"{wl}: work counts are not all zero")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = bench(bare, "--workload", spec["workloads"][0]["name"],
                      "--seed", "3", "--seconds", "1", "--trace", "0")
    check(code != 0 and result_line(out) is None,
          "refuses to run without the sources, prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
