"""Per-layer tracing of crossdifflab, installed from the benchmark's side.

`install` wraps the public functions listed in TARGETS.  Callers import
names such as `lap_array` or `solve_forward` into their own namespace, so
the wrapper replaces every binding of the original function object in
every loaded crossdifflab module; a call through any binding is counted.

Functions called every time step (HOT) keep a call count and total time
only.  The others also record one span per call: name, start, end and the
span that caused it.  A layer's self time is its busy time minus the time
its direct children (spans or hot calls) were busy.
"""

from __future__ import annotations

import functools
import sys
import time

HOT, SPAN = True, False


def _steps(args, result):
    return args[0].grid.steps


def _dump_bytes(args, result):
    path, dim, n, slices = args
    return 13 + 8 * len(slices) * n ** dim  # 13-byte .cdl header


def _load_bytes(args, result):
    return 13 + result[2].nbytes


def _windows(args, result):
    return args[0].grid.n // 2 - 1


def _run_failed(args, result):
    return 0 if result.passed else 1


# (module, function, kind, extra count taken at the call boundary as
# (name, function of the arguments and the result)); a call that raises
# adds 1 to a "failed" count
TARGETS = (
    ("torus", "lap_array", HOT, None),
    ("torus", "spacetime_norm", SPAN, None),
    ("torus", "dump_slices", SPAN, ("bytes", _dump_bytes)),
    ("torus", "load_slices", SPAN, ("bytes", _load_bytes)),
    ("kolmo", "solve_forward", SPAN, ("steps", _steps)),
    ("dual", "solve_dual", SPAN, ("steps", _steps)),
    ("dual", "duality_pairings", SPAN, None),
    ("dual", "verify_apriori", SPAN, None),
    ("dual", "smooth_mu", SPAN, None),
    ("dual", "stability_study", SPAN, None),
    ("mollify", "convolve_array", HOT, None),
    ("mollify", "make_kernel", SPAN, None),
    ("skt", "step", HOT, None),
    ("skt", "solve_system", SPAN, ("steps", _steps)),
    ("weights", "maximal_function", SPAN, ("windows", _windows)),
    ("weights", "a2_constant", SPAN, None),
    ("lab", "run", SPAN, ("failed", _run_failed)),
    ("lab", "parse_config", SPAN, None),
    ("lab", "build_field", SPAN, None),
)


class Tracer:
    """In-memory call statistics and spans for one process."""

    def __init__(self):
        self.stats = {}
        self.spans = []      # (id, parent id or -1, name, start, end, self_s)
        self._stack = []     # per active call: [child busy time, span id]
        self._next_id = 0

    def wrap(self, name, fn, hot, extra):
        stats = self.stats.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        if extra is not None:
            key, count = extra
            stats[key] = 0
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if hot:
                sid = parent
            else:
                sid = self._next_id
                self._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                own = busy - frame[0]
                stats["calls"] += 1
                stats["busy_s"] += busy
                stats["self_s"] += own
                if stack:
                    stack[-1][0] += busy
                if not hot:
                    spans.append((sid, parent, name, start, end, own))
                if extra is not None:
                    if ok:
                        stats[key] += count(args, result)
                    elif key == "failed":
                        stats[key] += 1

        return wrapper

    def check(self) -> list:
        """Problems with the span tree: negative self time, or a child
        that is not inside its parent.  Empty when consistent."""
        problems = [f"{name}: self_s {s['self_s']!r} < 0"
                    for name, s in self.stats.items() if s["self_s"] < 0]
        by_id = {s[0]: s for s in self.spans}
        for sid, parent, name, start, end, own in self.spans:
            if own < 0:
                problems.append(f"span {sid} {name}: self {own!r} < 0")
            if parent < 0:
                continue
            p = by_id.get(parent)
            if p is None:
                problems.append(f"span {sid} {name}: parent {parent} missing")
            elif not (p[3] <= start <= end <= p[4]):
                problems.append(f"span {sid} {name} lies outside {p[2]}")
        if self._stack:
            problems.append(f"{len(self._stack)} calls still open")
        return problems


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded crossdifflab module."""
    mods = [m for key, m in sorted(sys.modules.items())
            if key == "crossdifflab" or key.startswith("crossdifflab.")]
    for modname, fname, hot, extra in TARGETS:
        orig = getattr(sys.modules[f"crossdifflab.{modname}"], fname)
        wrapped = tracer.wrap(f"{modname}.{fname}", orig, hot, extra)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)


def _per(total, count, scale=1e6):
    return total * scale / count if count else 0.0


def layer_metrics(stats: dict, counts: dict) -> dict:
    """Per-layer metric name -> (value, unit) for one traced process."""
    out = {}
    for modname, fname, _, extra in TARGETS:
        name = f"{modname}.{fname}"
        s = stats[name]
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.busy_s"] = (s["busy_s"], "s")
        out[f"{name}.self_s"] = (s["self_s"], "s")
        if extra is not None:
            out[f"{name}.{extra[0]}"] = (s[extra[0]], "count")
    for name in ("torus.lap_array", "mollify.convolve_array"):
        s = stats[name]
        out[f"{name}.us_per_call"] = (_per(s["busy_s"], s["calls"]), "us")
    for name in ("kolmo.solve_forward", "dual.solve_dual"):
        s = stats[name]
        out[f"{name}.us_per_step"] = (_per(s["busy_s"], s["steps"]), "us")
    out["mollify.fft_count"] = (counts["ffts"], "count")
    out["lab.artifact_bytes"] = (counts["artifact_bytes"], "count")
    return out


def count_mismatches(stats: dict, counts: dict) -> list:
    """Work counts seen at the layer boundaries that differ from the ones
    computed from the grids.  Empty when they agree."""
    seen = {
        "lap_calls": stats["torus.lap_array"]["calls"],
        "convolutions": stats["mollify.convolve_array"]["calls"],
        "forward_steps": stats["kolmo.solve_forward"]["steps"],
        "dual_steps": stats["dual.solve_dual"]["steps"],
        "skt_steps": stats["skt.solve_system"]["steps"],
        "windows": stats["weights.maximal_function"]["windows"],
        "dump_bytes": stats["torus.dump_slices"]["bytes"],
        "load_bytes": stats["torus.load_slices"]["bytes"],
        # one rfftn and one irfftn per convolution, one per kernel made
        "ffts": (2 * stats["mollify.convolve_array"]["calls"]
                 + stats["mollify.make_kernel"]["calls"]),
    }
    return [f"{key}: traced {value}, computed {counts[key]}"
            for key, value in seen.items() if value != counts[key]]
