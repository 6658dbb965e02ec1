"""Record the benchmark's baseline and its run-to-run spread.

    python3 bench/baseline.py [--out FILE]

For each workload in BENCHMARK.json it runs the benchmark ten times with
the default seed, untraced, for the run_seconds set there.  For each
end-to-end metric it reports the median and quartiles of the per-run
values, and the spread: the distance between the quartiles as a share of
the median (`statistics.quantiles(values, n=4)`).  A spread at or above a third of the metric's bound is flagged.
The clock's own seconds and the probe's slowdowns are summarized the
same way.  It then makes one traced run per workload with the default
seed and keeps its per-layer numbers.  The result is written as JSON (to
stdout, or to --out).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

RUNS = 10


def summary(values: list) -> dict:
    """Median, quartiles and spread: (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med, "values": values}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run; returns its result line and its full record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stdout}")
    record = json.loads((run.OUT / f"result-{workload}-s{seed}-t{trace}"
                                   ".json").read_text())
    return result, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the JSON here, not to stdout")
    args = ap.parse_args()
    seed = run.DEFAULT_SEED
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"run_seconds": spec["run_seconds"], "seed": seed, "runs": RUNS,
              "environment": run.environment(run.child_env()),
              "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        measured = {}
        for _ in range(RUNS):
            result, record = bench(wl, seed, spec["run_seconds"], 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            for name, s in record["measured"].items():
                measured.setdefault(name, []).append(s["median"])
        e2e = {}
        for m in spec["end_to_end"]:
            s = summary(values[m["name"]])
            steady = s["spread"] < m["bound"] / 3
            e2e[m["name"]] = dict(s, unit=m["unit"], bound=m["bound"],
                                  steady=steady)
            print(f"{wl:16s} {m['name']:12s} median {s['median']:10.4f} "
                  f"{m['unit']:7s} spread {s['spread']:.4f} (bound "
                  f"{m['bound']}{'' if steady else ', NOT steady'})",
                  file=sys.stderr, flush=True)
        layers, _ = bench(wl, seed, spec["run_seconds"], 1)
        report["workloads"][wl] = {
            "end_to_end": e2e,
            "measured": {name: summary(v) for name, v in measured.items()},
            "per_layer": layers["metrics"]}

    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
