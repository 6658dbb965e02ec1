"""One benchmark repetition in a fresh process; prints one JSON record.

Started by run.py with the monotonic time at which it was spawned, so that
setup time counts the interpreter start, `import crossdifflab` and the
making and parsing of the inputs.  Not meant to be run by hand.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

PROBE_PERIOD_S = 0.03
# the reference's time when no other tenant slows the core: the 5th
# percentile of its times on a 2-vCPU "Intel Xeon Processor" VM
REFERENCE_NOMINAL_S = 3.2e-4
_X = np.arange(64.0)


def reference() -> None:
    """A fixed piece of small-array NumPy and interpreter work, written
    here and not in crossdifflab, so that no change to the program
    changes it."""
    x = _X
    for _ in range(10):
        x = x + 1e-9 * (np.roll(x, 1) + np.roll(x, -1) - 2 * x)
    s = 0
    for i in range(2000):
        s += i * i


class SpeedProbe:
    """Samples how fast the machine runs while the repetition runs.

    On a shared VM, when another tenant uses the same physical core,
    every instruction stream slows by up to 1.6x, and this switches on
    and off within seconds.  Every PROBE_PERIOD_S of
    wall-clock time a SIGALRM handler runs `reference()` once to warm
    the caches the program left cold, then times it.  REFERENCE_NOMINAL_S
    over a sample is the speed, as a share of nominal, at that moment;
    the samples are evenly spaced in time, so the work an interval did at
    nominal speed is its length times their mean.  The handler touches no
    state of the program under test.
    """

    def __init__(self):
        self.samples = []    # the timed reference runs
        self.spent = []      # the whole handler, warm-up included
        self._closed = 0     # samples before the last mark
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def _tick(self, signum, frame):
        entered = time.perf_counter()
        reference()
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent.append(end - entered)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> tuple:
        """Closes an interval: the number of samples so far and the
        monotonic time.  An interval that got no sample (it was shorter
        than a period, or one long C call) takes one now."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            if len(self.samples) == self._closed:
                self._tick(signal.SIGALRM, None)
            self._closed = len(self.samples)
            return self._closed, time.monotonic()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def interval(self, raw_s: float, first: int, last: int) -> dict:
        """An interval of `raw_s` seconds that holds samples
        [first, last): the time the program ran in it (the probe's own
        time taken out), and that time at nominal speed."""
        taken = self.samples[first:last]
        run_s = raw_s - sum(self.spent[first:last])
        nominal_s = run_s * statistics.fmean(REFERENCE_NOMINAL_S / t
                                             for t in taken)
        return {"raw_s": raw_s, "run_s": run_s,
                "slowdown": run_s / nominal_s, "samples": len(taken),
                "nominal_s": nominal_s}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()

    probe = SpeedProbe()
    sys.path.insert(0, HERE)
    import crossdifflab  # noqa: F401  (timed as part of set-up)
    import spans
    import workloads
    t_imported = time.monotonic()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.small)
    t_begin_inputs = time.monotonic()
    workload.prepare()
    ready, t_ready = probe.mark()

    led = workloads.Ledger()
    workload.execute(led, args.outdir)
    done, t_done = probe.mark()
    probe.stop()

    setup = probe.interval(t_ready - args.spawned, 0, ready)
    wall = probe.interval(t_done - t_ready, ready, done)
    record = {
        "setup_s": setup["nominal_s"],
        "wall_s": wall["nominal_s"],
        "setup": setup,
        "wall": wall,
        "import_s": t_imported - args.spawned,
        "inputs_s": t_ready - t_begin_inputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": led.ops,
        "counts": led.counts,
        "outputs": led.outputs,
    }
    if tracer is not None:
        record["layers"] = tracer.stats
        record["trace_problems"] = (tracer.check()
                                    + spans.count_mismatches(tracer.stats,
                                                             led.counts))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
