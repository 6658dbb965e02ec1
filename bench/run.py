"""crossdifflab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in fresh worker processes (one compute thread each),
one after another, until --seconds have passed (at least three
repetitions untraced, or one untraced/traced pair with --trace 1).  Every
repetition checks its outputs.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (medians over the
repetitions, times at the machine's nominal speed: see worker.SpeedProbe);
with --trace 1 they are the per-layer ones from the traced repetitions.
The full record, with the seed, the work counts and a
record of the environment, is written to .bench_out/ in the checkout.

Exit codes: 0 all outputs correct; 1 a check failed (the result line is
still printed); 2 the program could not be started (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("duality_1d", "field_2d", "skt_converge_1d")
DEFAULT_SEED = 1  # the baseline seed; 20171123 is held out (README.md)
MIN_REPS = 3
REP_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "mpts_per_s": "Mpts/s",
             "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crossdifflab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    """Unified cache sizes by level, as the kernel describes CPU 0."""
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified":
            sizes[f"l{level}"] = size
    return sizes


def environment(env: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: env.get(k) for k in THREAD_VARS + ("CDL_THREADS",)},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def run_rep(args, index: int, traced: bool, env: dict) -> dict:
    """One repetition in a fresh process; returns its record or a failure."""
    tag = f"{args.workload}-s{args.seed}-p{os.getpid()}-r{index}"
    outdir = OUT / tag
    outdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--outdir", str(outdir), "--trace", str(int(traced))]
    if args.small:
        cmd.append("--small")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], env=env,
                            stdout=subprocess.PIPE, text=True)
    stdout = ""
    try:
        stdout, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:  # timed out, or this process is stopping
            proc.kill()
            proc.communicate()
        shutil.rmtree(outdir, ignore_errors=True)
    try:
        record = json.loads(stdout.strip().splitlines()[-1]) \
            if proc.returncode == 0 else None
    except (json.JSONDecodeError, IndexError):
        record = None
    if record is None:
        return {"traced": traced, "crashed": True,
                "ops": [{"name": "repetition",
                         "problems": [f"worker exit {proc.returncode}"]}]}
    record["traced"] = traced
    record["duration_s"] = time.monotonic() - spawned
    return record


def repetitions(args, env: dict) -> list:
    """Untraced repetitions, or alternating untraced/traced pairs, until
    the time is used up; a repetition is not started if the previous one
    shows it would not end in time."""
    group = [False, True] if args.trace else [False]
    reps, start = [], time.monotonic()
    while True:
        batch = [run_rep(args, len(reps) + i, traced, env)
                 for i, traced in enumerate(group)]
        reps += batch
        if any(r.get("crashed") for r in batch):
            break
        elapsed = time.monotonic() - start
        if len(reps) < MIN_REPS and not args.trace:
            continue
        if elapsed + sum(r["duration_s"] for r in batch) > args.seconds:
            break
    return reps


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(values) -> dict:
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}


def consistency_problems(reps: list) -> list:
    """Work counts and checked outputs must repeat exactly across every
    repetition of the run, traced or not (same seed, same inputs)."""
    problems = []
    first = reps[0]
    for r in reps[1:]:
        for key in ("counts", "outputs"):
            if r[key] != first[key]:
                problems.append(
                    f"{key} differ between repetition 0 and a "
                    f"{'traced' if r['traced'] else 'untraced'} repetition")
    for r in reps:
        problems += r.get("trace_problems", [])
    return problems


def e2e_samples(reps: list) -> dict:
    plain = [r for r in reps if not r["traced"]]
    return {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "mpts_per_s": [r["counts"]["point_updates"] / r["wall_s"] / 1e6
                       for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }


def measured_samples(reps: list) -> dict:
    """The seconds as the clock measured them, and how much slower than
    nominal the speed probe saw the machine run (see worker.SpeedProbe)."""
    plain = [r for r in reps if not r["traced"]]
    return {
        "wall_raw_s": ([r["wall"]["raw_s"] for r in plain], "s"),
        "setup_raw_s": ([r["setup"]["raw_s"] for r in plain], "s"),
        "wall_slowdown": ([r["wall"]["slowdown"] for r in plain], "x"),
        "setup_slowdown": ([r["setup"]["slowdown"] for r in plain], "x"),
    }


def layer_samples(reps: list) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    per_rep = [spans.layer_metrics(r["layers"], r["counts"]) for r in traced]
    out = {name: ([m[name][0] for m in per_rep], unit)
           for name, (_, unit) in per_rep[0].items()}
    out["setup.import_s"] = ([r["import_s"] for r in plain], "s")
    out["setup.inputs_s"] = ([r["inputs_s"] for r in plain], "s")
    out["trace.overhead_s"] = (
        [statistics.median(r["wall_s"] for r in traced)
         - statistics.median(r["wall_s"] for r in plain)], "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed; 1 is the baseline, 20171123 is held "
                         "out for checking a claim")
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the self-test")
    args = ap.parse_args(argv)
    # stopping the run stops its worker too (see run_rep)
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "crossdifflab" / "__init__.py").is_file():
        print(f"error: no crossdifflab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = child_env()
    # fills the bytecode cache and the file cache before anything is timed
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = sys.argv[1:];"
         " import crossdifflab, workloads", str(ROOT / "src"), str(HERE)],
        env=env)
    if warm.returncode != 0:
        print("error: crossdifflab does not import", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    reps = repetitions(args, env)
    ops = [op for r in reps for op in r["ops"]]
    failed = [op for op in ops if op["problems"]]
    crashed = any(r.get("crashed") for r in reps)
    problems = [] if crashed else consistency_problems(reps)
    correct = not failed and not problems

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "small": args.small,
              "seconds": args.seconds, "repetitions": len(reps),
              "attempted": len(ops), "failed": len(failed),
              "failed_ops": failed, "problems": problems,
              "environment": environment(env)}
    metrics = {}
    if not crashed:
        record["counts"] = reps[0]["counts"]
        record["outputs"] = reps[0]["outputs"]
        e2e = {name: summarize(v) for name, v in e2e_samples(reps).items()}
        record["end_to_end"] = {name: dict(s, unit=E2E_UNITS[name])
                                for name, s in e2e.items()}
        record["measured"] = {name: dict(summarize(v), unit=unit)
                              for name, (v, unit)
                              in measured_samples(reps).items()}
        if args.trace:
            layers = {name: dict(summarize(v), unit=unit)
                      for name, (v, unit) in layer_samples(reps).items()}
            record["per_layer"] = layers
            metrics = {name: {"value": s["median"], "unit": s["unit"]}
                       for name, s in layers.items()}
        else:
            metrics = {name: {"value": s["median"], "unit": E2E_UNITS[name]}
                       for name, s in e2e.items()}

    print(f"# crossdifflab bench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} repetitions={len(reps)}")
    print("# environment " + json.dumps(record["environment"]))
    for name, s in record.get("end_to_end", {}).items():
        print(f"{name:14s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  (n={s['n']})")
    for name, s in record.get("measured", {}).items():
        print(f"{name:14s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  (n={s['n']})")
    for name, s in record.get("per_layer", {}).items():
        print(f"{name:34s} median {s['median']:.6g} {s['unit']}  "
              f"(n={s['n']})")
    print(f"{'failed_frac':12s} {len(failed) / max(len(ops), 1):.6g} "
          f"(failed ops / attempted ops = {len(failed)}/{len(ops)})")
    for op in failed:
        print(f"FAILED {op['name']}: {'; '.join(op['problems'])}")
    for p in problems:
        print(f"INCONSISTENT {p}")
    if "counts" in record:
        print("# work counts (computed from the grids) "
              + json.dumps(record["counts"]))
    path = OUT / (f"result-{args.workload}-s{args.seed}-t{args.trace}"
                  f"{'-small' if args.small else ''}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
