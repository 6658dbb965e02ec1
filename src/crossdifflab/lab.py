"""Experiment orchestration: strict JSON configs, runs, sweeps, artifacts.

Configs are strict: unknown keys are fatal (with a spelling suggestion),
all randomness flows from the config seed through a counter-based
generator, and every artifact is written atomically so repeated runs with
the same config are byte-identical.

`parse_config` reads every value once and builds the run, so a config is
refused there or not at all; `run` only solves and writes.
"""

from __future__ import annotations

import difflib
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import __version__
from . import dual as dual_mod
from . import kolmo as kolmo_mod
from . import skt as skt_mod
from . import weights as weights_mod
from .mollify import check_widths, make_kernel
from .torus import (BlockSource, Field, Grid, Trajectory, atomic_write_text,
                    dump_slices, dump_trajectory, is_integer, is_real,
                    load_field, make_grid, norm, spacetime_norm)


class ConfigError(ValueError):
    pass


@contextmanager
def config_errors(path: str):
    """The one gate for outside input: a value that the code inside cannot
    use (a TypeError, ValueError or OverflowError) becomes a ConfigError
    naming `path`, the input it came from.  A ConfigError passes as is."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    return value


def _integer(value, path: str, positive: bool = False) -> int:
    """The integer config value at `path`.  A bool, a float (2.9 or 2.0), a
    string and a positive one below 1 are ConfigErrors, not truncated."""
    if not is_integer(value) or positive and value < 1:
        what = "a positive integer" if positive else "an integer"
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    return value


def _number(value, path: str, positive: bool = False) -> float:
    """The float config value at `path`, a finite real number (is_real).
    A bool, a string, None, NaN, +-inf and, when `positive`, one <= 0 are
    ConfigErrors, not parsed."""
    if (not (is_real(value) and math.isfinite(value))
            or positive and not value > 0):
        what = "a finite positive number" if positive else "a finite number"
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    return float(value)


def _numbers(values, path: str) -> list:
    """The list of float config values at `path`, each read by _number."""
    if not isinstance(values, list):
        raise ConfigError(f"{path} must be a list")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(values)]


def _check_keys(d: dict, allowed, required, path: str) -> None:
    for key in d:
        if key not in allowed:
            hint = difflib.get_close_matches(key, allowed, n=1)
            msg = f"unknown key {path}.{key}"
            if hint:
                msg += f" (did you mean {hint[0]!r}?)"
            raise ConfigError(msg)
    for key in required:
        if key not in d:
            raise ConfigError(f"missing key {path}.{key}")


# ---------------------------------------------------------------------------
# named field families: the one registry behind configs and `cdl a2-check`

def philox_rng(seed: int, *counters: int) -> np.random.Generator:
    """Counter-based generator: reproducible per point, order-independent."""
    mix = 0
    for c in counters:
        mix = (mix * 0x9E3779B97F4A7C15 + int(c) + 1) & 0xFFFFFFFFFFFFFFFF
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, mix], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def build_field(grid: Grid, spec: dict, path: str, seed: int = 0) -> Field:
    """The field of one family spec.  A spec whose values cannot be used (a
    non-number, NaN or an infinity, an unreadable dump) is a ConfigError.
    An overflow on the way is silent: Field refuses a non-finite result,
    and a finite one is right (a narrow spike's exp(-inf) = 0)."""
    with config_errors(path), np.errstate(over="ignore", invalid="ignore"):
        return _family_field(grid, spec, path, seed)


def _family_field(grid: Grid, spec: dict, path: str, seed: int) -> Field:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError(f"{path} must be an object with a 'family' key")
    fam = spec["family"]
    if fam == "constant":
        _check_keys(spec, {"family", "value"}, {"value"}, path)
        return Field.constant(grid, _number(spec["value"], f"{path}.value"))
    if fam == "fourier_mode":
        _check_keys(spec, {"family", "k", "amp", "offset"}, {"k"}, path)
        k = _integer(spec["k"], f"{path}.k")
        amp = _number(spec.get("amp", 1.0), f"{path}.amp")
        off = _number(spec.get("offset", 0.0), f"{path}.offset")
        return Field.from_function(
            grid, lambda *xs: off + amp * np.cos(2 * np.pi * k * xs[0]))
    if fam == "piecewise":
        _check_keys(spec, {"family", "levels"}, {"levels"}, path)
        levels = np.array(_numbers(spec["levels"], f"{path}.levels"))
        if levels.size < 1:
            raise ConfigError(f"{path}.levels must be a non-empty list")
        edges = np.floor(np.arange(grid.n) * levels.size / grid.n).astype(int)
        line = levels[edges]
        if grid.dim == 1:
            vals = line
        else:
            vals = np.broadcast_to(line[:, None], grid.shape)
        return Field(grid, np.ascontiguousarray(vals).reshape(-1))
    if fam == "random":
        _check_keys(spec, {"family", "seed", "lo", "hi"}, {"lo", "hi"}, path)
        lo = _number(spec["lo"], f"{path}.lo")
        hi = _number(spec["hi"], f"{path}.hi")
        if not lo < hi:
            raise ConfigError(f"{path}: need lo < hi")
        rng = philox_rng(seed, _integer(spec.get("seed", 0), f"{path}.seed"))
        return Field(grid, rng.uniform(lo, hi, size=grid.size))
    if fam == "spike":
        # periodic Gaussian bump of the given width at the origin
        _check_keys(spec, {"family", "base", "peak", "width"},
                    {"base", "peak", "width"}, path)
        base = _number(spec["base"], f"{path}.base")
        peak = _number(spec["peak"], f"{path}.peak")
        width = _number(spec["width"], f"{path}.width", positive=True)
        x = np.arange(grid.n) * grid.h
        d = np.minimum(x, 1.0 - x)
        line = base + (peak - base) * np.exp(-(d / width) ** 2)
        if grid.dim == 2:
            # the root of a product of two lines keeps no sign
            for key, level in (("base", base), ("peak", peak)):
                if level < 0:
                    raise ConfigError(f"{path}.{key} must be >= 0 on a 2-D "
                                      f"grid, got {level!r}")
            line = np.sqrt(line[:, None] * line[None, :])
        return Field(grid, line.reshape(-1))
    if fam == "dump":
        _check_keys(spec, {"family", "path"}, {"path"}, path)
        # open() takes an int as a file descriptor: 0 would read stdin
        if not isinstance(spec["path"], str):
            raise ConfigError(f"{path}.path must be a string, got "
                              f"{spec['path']!r}")
        dump = load_field(spec["path"])
        if (dump.grid.dim, dump.grid.n) != (grid.dim, grid.n):
            raise ConfigError(
                f"{path}: dump is dim={dump.grid.dim}, n={dump.grid.n}; "
                f"grid wants dim={grid.dim}, n={grid.n}")
        return Field(grid, dump.values)
    raise ConfigError(f"{path}.family: unknown family {fam!r}")


# ---------------------------------------------------------------------------
# config parsing

@dataclass
class RunConfig:
    """A parsed config, its JSON (echoed in the manifest) and its run:
    `compute(write)` solves, hands each artifact in order to `write(file
    name, Trajectory | BlockSource | (CSV header, rows))` (see run) and
    returns (checks, constants)."""
    kind: str
    raw: dict
    seed: int
    grid: Grid
    compute: Callable[[Callable], tuple]


def _build_grid(gd: dict, path: str, mu_sup_hint: float | None = None) -> Grid:
    """The config grid; without `steps`, the step count is the CFL count
    for a diffusion coefficient bounded by `mu_sup_hint`.  A value that is
    not a number, or not a valid grid, is a ConfigError."""
    _check_keys(gd, {"dim", "n", "t_final", "steps"},
                {"dim", "n", "t_final"}, path)
    dim = _integer(gd["dim"], f"{path}.dim")
    n = _integer(gd["n"], f"{path}.n")
    t_final = _number(gd["t_final"], f"{path}.t_final")
    with config_errors(path):
        steps = (_integer(gd["steps"], f"{path}.steps") if "steps" in gd
                 else kolmo_mod.steps_for(dim, n, t_final, mu_sup_hint))
        return make_grid(dim, n, t_final, steps)


def _mu_grid(raw: dict, seed: int):
    """The config grid and config.mu on it.  A field does not depend on the
    time axis, so mu is built once, on a one-step grid, checked to be
    positive, and its sup sets the CFL step count when grid.steps is not
    given."""
    gd = raw["grid"]
    probe = _build_grid(dict(gd, steps=1), "config.grid")
    mu = build_field(probe, raw["mu"], "config.mu", seed)
    if not mu.values.min() > 0.0:
        raise ConfigError("config.mu must be positively lower-bounded, got "
                          f"minimum {mu.values.min()}")
    grid = _build_grid(gd, "config.grid", mu_sup_hint=float(mu.values.max()))
    return grid, Trajectory.constant_in_time(grid, mu)


def parse_config(text: str) -> RunConfig:
    """The run of a config text.  Every value is read here, once: the schema,
    then the kind's plan builds the grid, fields, widths, counts and
    problems; a value that cannot be run is a ConfigError naming it."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "kind" not in raw:
        raise ConfigError("missing key config.kind")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        hint = difflib.get_close_matches(str(kind), _KINDS, n=1)
        msg = f"config.kind: unknown kind {kind!r}"
        if hint:
            msg += f" (did you mean {hint[0]!r}?)"
        raise ConfigError(msg)
    plan, required, optional = _KINDS[kind]
    _check_keys(raw, {"kind", "grid", "seed", *required, *optional},
                ("grid", *required), "config")
    if kind == "kolmogorov" and ("source" in raw) == ("reaction" in raw):
        raise ConfigError("exactly one of config.source/config.reaction "
                          "must be present")
    _object(raw["grid"], "config.grid")
    seed = _integer(raw.get("seed", 0), "config.seed")
    for key in ("eps", "species"):
        if not isinstance(raw.get(key, []), list):
            raise ConfigError(f"config.{key} must be a list")
        if raw.get(key) == []:
            raise ConfigError(f"config.{key} must not be empty")
    return RunConfig(kind, raw, seed, *plan(raw, seed))


# ---------------------------------------------------------------------------
# manifests and artifact writing

@dataclass
class RunManifest:
    config: dict
    version: str
    grid: dict
    tau: float
    wall_time: float
    checks: dict          # name -> bool
    constants: dict       # name -> float
    artifacts: list

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> str:
        return json.dumps(dict(asdict(self), passed=self.passed),
                          indent=2, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# plans: each reads and builds one kind's run from (raw, seed) and returns
# (grid, compute); compute only solves

def _field_trajectory(grid: Grid, spec: dict, path: str,
                      seed: int) -> Trajectory:
    return Trajectory.constant_in_time(
        grid, build_field(grid, spec, path, seed))


def _plan_kolmogorov(raw: dict, seed: int):
    mode = "source" if "source" in raw else "reaction"
    grid, mu = _mu_grid(raw, seed)
    z0 = build_field(grid, raw["z0"], "config.z0", seed)
    rhs = _field_trajectory(grid, raw[mode], f"config.{mode}", seed)
    with config_errors("config"):
        p = kolmo_mod.KolmogorovProblem(grid=grid, mu=mu, z0=z0,
                                        **{mode: rhs})

    # the run streams into its dump and its report: no trajectory is kept
    def compute(write):
        summary = kolmo_mod.RunSummary(grid)
        write("trajectory.cdl", BlockSource(
            grid.steps + 1, lambda dump: kolmo_mod.solve_forward(
                p, kolmo_mod.fan(summary, dump))))
        rep = summary.report(p, kolmo_mod.cfl_fraction(grid, p.mu_sup()))
        constants = {"min_value": rep.min_value, "cfl_used": rep.cfl_used,
                     "final_l2": norm(Field(grid, summary.last), "L2")}
        # the march refuses every state with NaN or +-inf, and z0 is finite
        checks = {"finite": bool(np.isfinite(rep.min_value))}
        if mode == "source":
            checks["mass_ledger"] = rep.mass_drift <= 1e-9 * max(
                1.0, norm(z0, "L1"))
            constants["mass_drift"] = rep.mass_drift
        if z0.values.min() >= 0 and (mode == "reaction"
                                     or rhs.distinct_rows().min() >= 0):
            checks["non_negative"] = rep.min_value >= 0.0
        return checks, constants
    return grid, compute


def _plan_dual(raw: dict, seed: int):
    grid, mu = _mu_grid(raw, seed)
    s = _field_trajectory(grid, raw["s"], "config.s", seed)
    with config_errors("config"):
        p = dual_mod.DualProblem(grid=grid, mu=mu, s=s)

    # the run streams into its dump and verify_apriori's reductions, whose
    # Laplacian energy reads the march's own Laplacians
    def compute(write):
        sums = dual_mod.AprioriSums(p)
        write("phi.cdl", BlockSource(
            grid.steps + 1, lambda dump: dual_mod.solve_dual(
                p, kolmo_mod.fan(sums, dump), sums.energy)))
        reps = sums.reports()
        checks = {"apriori_energy": reps[0].passed}
        if s.distinct_rows().min() >= 0:
            checks["sign_non_positive"] = bool(sums.max <= 1e-13)
        constants = {"apriori_ratio": reps[0].ratio,
                     "supnorm_constant": reps[1].ratio,
                     "phi0_l2": norm(Field(grid, sums.phi0), "L2")}
        return checks, constants
    return grid, compute


# the range random_duality_problem draws mu from; its upper end sets the
# CFL step count of verify_duality
DUALITY_MU_RANGE = (0.3, 3.0)


def random_duality_problem(grid: Grid, seed: int, index: int):
    """One randomized (mu, z0, G, S) tuple for duality studies."""
    rng = philox_rng(seed, index)
    mu_vals = rng.uniform(*DUALITY_MU_RANGE, size=grid.size)
    mu = Trajectory.constant_in_time(grid, Field(grid, mu_vals))
    z0 = Field(grid, rng.standard_normal(grid.size))
    g = Trajectory.constant_in_time(
        grid, Field(grid, rng.standard_normal(grid.size)))
    s = Trajectory.constant_in_time(
        grid, Field(grid, rng.standard_normal(grid.size)))
    return mu, z0, g, s


def _plan_verify_duality(raw: dict, seed: int):
    count = _integer(raw.get("count", 20), "config.count", positive=True)
    threshold = _number(raw.get("threshold", 1e-11), "config.threshold",
                        positive=True)
    grid = _build_grid(raw["grid"], "config.grid",
                       mu_sup_hint=DUALITY_MU_RANGE[1])

    # drawn from the seed one at a time, after parsing: no value reaches
    # them.  Each problem streams both marches into its pairings, and a NaN
    # residual (DualityPairings.residual) is the worst
    def compute(write):
        residuals = [0.0]
        for i in range(count):
            mu, z0, g, s = random_duality_problem(grid, seed, i)
            p = kolmo_mod.KolmogorovProblem(grid=grid, mu=mu, z0=z0, source=g)
            residuals.append(dual_mod.streamed_duality_residual(p, s))
        worst = float(np.max(residuals))
        checks = {"duality_identity": bool(worst <= threshold)}
        constants = {"max_residual": worst, "threshold": threshold}
        return checks, constants
    return grid, compute


def _plan_stability(raw: dict, seed: int):
    grid, mu = _mu_grid(raw, seed)
    z0 = build_field(grid, raw["z0"], "config.z0", seed)
    g = (_field_trajectory(grid, raw["g"], "config.g", seed) if "g" in raw
         else Trajectory.constant(grid, 0.0))
    with config_errors("config.eps"):
        eps = check_widths(grid, raw["eps"])

    def compute(write):
        rows = dual_mod.stability_study(mu, eps, z0, g)
        dists = [r.z_distance for r in rows]
        ok = all(b <= a * 1.10 for a, b in zip(dists, dists[1:]))
        checks = {"z_distance_non_increasing": ok}
        constants = {"final_z_distance": dists[-1]}
        table = [(r.eps, r.mu_distance, r.z_distance) for r in rows]
        write("stability.csv", (["eps", "mu_distance", "z_distance"], table))
        return checks, constants
    return grid, compute


def _skt_spec(raw: dict, seed: int,
              identity_kernels=False) -> skt_mod.SktSpec:
    """The cross-diffusion system of a config; without grid.steps, the step
    count is the CFL count for the largest coefficient bound `hi`.  Every
    kernel_eps is checked, also where `identity_kernels` leaves it out."""
    species = raw["species"]
    coeffs, reactions = [], []
    for i, sp in enumerate(species):
        path = f"config.species[{i}]"
        _check_keys(_object(sp, path),
                    {"coeff", "reaction", "kernel_eps", "init"},
                    {"coeff", "reaction", "init"}, path)
        cd = _object(sp["coeff"], path + ".coeff")
        _check_keys(cd, {"kind", "d", "c", "lo", "hi", "kink", "pivot"},
                    {"kind", "d"}, path + ".coeff")
        rd = _object(sp["reaction"], path + ".reaction")
        _check_keys(rd, {"rho", "s"}, {"rho", "s"}, path + ".reaction")
        # lo, hi, kink and pivot default as in CoeffFamily
        numbers = {k: _number(v, f"{path}.coeff.{k}") for k, v in cd.items()
                   if k not in ("kind", "c")}
        c = _numbers(cd.get("c", []), f"{path}.coeff.c")
        with config_errors(path):
            coeffs.append(skt_mod.CoeffFamily(kind=cd["kind"], c=tuple(c),
                                              **numbers))
            reactions.append(skt_mod.ReactionFamily(
                rho=_number(rd["rho"], f"{path}.reaction.rho"),
                s=tuple(_numbers(rd["s"], f"{path}.reaction.s"))))
    hi_max = max(cf.hi for cf in coeffs)
    if not np.isfinite(hi_max):
        raise ConfigError("config.species: every coefficient needs a finite "
                          "hi, the bound the CFL step is set from")
    grid = _build_grid(raw["grid"], "config.grid", mu_sup_hint=hi_max)
    kernels = []
    for i, sp in enumerate(species):
        with config_errors(f"config.species[{i}].kernel_eps"):
            eps = sp.get("kernel_eps")
            kernel = None if eps is None else make_kernel(grid, eps)
        kernels.append(None if identity_kernels else kernel)
    init = [build_field(grid, sp["init"], f"config.species[{i}].init",
                        seed) for i, sp in enumerate(species)]
    with config_errors("config.species"):
        return skt_mod.SktSpec(grid=grid, coeffs=tuple(coeffs),
                               reactions=tuple(reactions),
                               kernels=tuple(kernels), init=tuple(init))


def _plan_skt(raw: dict, seed: int):
    spec = _skt_spec(raw, seed)

    def compute(write):
        sols = skt_mod.solve_system(spec)
        min_val = min(float(t.data.min()) for t in sols)
        checks = {"non_negative": min_val >= 0.0}
        constants = {"min_value": min_val}
        for i, t in enumerate(sols):
            constants[f"l2q_u{i + 1}"] = spacetime_norm(t, "L2Q")
        for i, t in enumerate(sols):
            write(f"species_{i + 1}.cdl", t)
        return checks, constants
    return spec.grid, compute


def _plan_converge(raw: dict, seed: int):
    spec = _skt_spec(raw, seed, identity_kernels=True)
    with config_errors("config.eps"):
        eps = check_widths(spec.grid, raw["eps"])

    def compute(write):
        table = skt_mod.converge_study(spec, eps)
        count = spec.species_count
        dists = np.array([r.distances for r in table])
        ok = bool(np.all(dists[1:] <= dists[:-1] * 1.10))
        checks = {"distances_non_increasing": ok}
        constants = {f"final_dist_u{i + 1}": float(dists[-1, i])
                     for i in range(count)}
        header = ["eps", "defect"] + [f"dist_u{i + 1}" for i in range(count)]
        rows = [(r.eps, r.defect, *r.distances) for r in table]
        write("converge.csv", (header, rows))
        return checks, constants
    return spec.grid, compute


def _plan_weights(raw: dict, seed: int):
    grid = _build_grid({"t_final": 1.0, "steps": 1, **raw["grid"]},
                       "config.grid")
    field = build_field(grid, raw["weight"], "config.weight", seed)
    with config_errors("config.weight"):
        w = weights_mod.Weight(field)
    trials = _integer(raw.get("trials", 20), "config.trials", positive=True)
    if seed < 0:  # it seeds numpy's default_rng, which takes none
        raise ConfigError(f"config.seed must be >= 0 for weights, got {seed}")

    def compute(write):
        a2 = weights_mod.a2_constant(w)
        ratio = weights_mod.maximal_boundedness(w, trials=trials, seed=seed)
        checks = {"a2_at_least_one": a2 >= 1.0,
                  "ratio_finite": ratio.passed}
        constants = {"a2_constant": a2, "maximal_ratio": ratio.lhs}
        return checks, constants
    return grid, compute


# kind -> (plan, top-level keys its config must have, keys it may have);
# every kind also takes kind, grid and seed, and no other key
_KINDS = {
    "kolmogorov": (_plan_kolmogorov, ("mu", "z0"), ("source", "reaction")),
    "dual": (_plan_dual, ("mu", "s"), ()),
    "verify_duality": (_plan_verify_duality, (), ("count", "threshold")),
    "stability": (_plan_stability, ("mu", "z0", "eps"), ("g",)),
    "skt": (_plan_skt, ("species",), ()),
    "converge": (_plan_converge, ("eps", "species"), ()),
    "weights": (_plan_weights, ("weight",), ("trials",)),
}


def run(cfg: RunConfig, outdir: str | None = None) -> RunManifest:
    """Solve a parsed config and write its artifacts, then manifest.json,
    into `outdir` (atomically, each).  parse_config has refused every value
    that cannot be run, so this raises only a numerical abort (CflViolation,
    NumericalBlowUp) or an OSError."""
    start = time.perf_counter()
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    paths = []

    # a kept Trajectory and a CSV are written as they are handed over, a
    # BlockSource as its march runs (dump_slices); without outdir nothing
    # is written, but a BlockSource still marches for its reductions
    def write(name, item):
        if not outdir:
            if isinstance(item, BlockSource):
                item(None)
            return
        paths.append(os.path.join(outdir, name))
        if isinstance(item, Trajectory):
            dump_trajectory(paths[-1], item)
        elif isinstance(item, BlockSource):
            dump_slices(paths[-1], cfg.grid.dim, cfg.grid.n, item)
        else:
            write_csv(paths[-1], *item)
    checks, constants = cfg.compute(write)
    manifest = RunManifest(
        config=cfg.raw,
        version=__version__,
        grid=asdict(cfg.grid),
        tau=cfg.grid.tau,
        wall_time=time.perf_counter() - start,
        checks=checks,
        constants=constants,
        artifacts=paths,
    )
    if outdir:
        atomic_write_text(os.path.join(outdir, "manifest.json"),
                          manifest.to_json())
    return manifest


def _set_path(d: dict, dotted: str, value):
    parts = dotted.split(".")
    cur = d
    for p in parts[:-1]:
        if p not in cur or not isinstance(cur[p], dict):
            raise ConfigError(f"sweep axis {dotted!r} not found in config")
        cur = cur[p]
    if parts[-1] not in cur:
        raise ConfigError(f"sweep axis {dotted!r} not found in config")
    cur[parts[-1]] = value


def sweep(cfg: RunConfig, axis: str, values, outdir: str | None = None):
    """Independent runs along one numeric config axis, one after another;
    failures are recorded per point and the sweep continues."""
    def one(i, v):
        raw = json.loads(json.dumps(cfg.raw))
        _set_path(raw, axis, v)
        sub = os.path.join(outdir, f"point_{i:03d}") if outdir else None
        try:
            return run(parse_config(json.dumps(raw)), sub)
        except Exception as exc:  # recorded, sweep continues
            return exc

    return [one(i, v) for i, v in enumerate(values)]
