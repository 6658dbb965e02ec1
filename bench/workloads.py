"""The benchmark's workloads: inputs made from a seed, timed operations,
output checks and work counts.

Each workload goes through the public crossdifflab API only.  `prepare`
makes and parses its inputs (this is part of setup_s); `execute` runs the
operations, checks every output and computes the work counts from the
grids the runs report (this is wall_s).  One operation is one `lab.run`
or one library solve; it fails if it raises or if any of its checks
fails.

Library functions are always reached through their module (`lab.run`,
`kolmo.solve_forward`, ...) so that a traced process sees every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import numpy as np

from crossdifflab import kolmo, lab, torus
from crossdifflab.torus import Field, Trajectory

# upper bounds of the random mu; the step counts are set from them (CFL),
# so that the work does not depend on the seed
MU_HI = 3.0
STABILITY_MU_HI = 1.5
DUMP_HEADER = 13     # .cdl header: magic, u8 dim, u32 n, u32 count

COUNT_KEYS = ("forward_steps", "dual_steps", "skt_steps", "point_updates",
              "lap_calls", "convolutions", "ffts", "windows", "dump_bytes",
              "load_bytes", "artifact_bytes")


class Ledger:
    """Operations attempted, their failures, work counts and the checked
    outputs of one process."""

    def __init__(self):
        self.ops = []
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.outputs = {}

    def op(self, name, fn):
        """Run one operation; `fn` returns the list of failed checks."""
        try:
            problems = list(fn())
        except Exception as exc:  # an operation that raises has failed
            problems = [f"raised {type(exc).__name__}: {exc}"]
        self.ops.append({"name": name, "problems": problems})

    def solved(self, kind, grid, solves=1, species=1):
        """Count `solves` marches over `grid`; every step applies the
        stencil once per species."""
        steps = solves * grid["steps"]
        self.counts[f"{kind}_steps"] += steps
        self.counts["point_updates"] += (
            steps * grid["n"] ** grid["dim"] * species)
        self.counts["lap_calls"] += steps * species

    def convolved(self, count, kernels):
        """Count convolutions: an rfftn and an irfftn each, plus one FFT
        per kernel (cached on the kernel)."""
        self.counts["convolutions"] += count
        self.counts["ffts"] += 2 * count + kernels

    def artifacts(self, manifest):
        for path in manifest.artifacts:
            self.counts["artifact_bytes"] += os.path.getsize(path)


def _hex(x) -> str:
    return float(x).hex()


def _manifest_problems(m, required) -> list:
    problems = [f"check {k} missing" for k in sorted(set(required)
                                                      - set(m.checks))]
    problems += [f"check {k} failed" for k, ok in sorted(m.checks.items())
                 if not ok]
    return problems


def _dump_size(grid: dict) -> int:
    return DUMP_HEADER + 8 * (grid["steps"] + 1) * grid["n"] ** grid["dim"]


def _parse(raw: dict):
    return lab.parse_config(json.dumps(raw))


# ---------------------------------------------------------------------------

def _smooth_field(grid, rng, modes=6):
    """Fixed low-frequency content: the same function at any n."""
    x = np.arange(grid.n) / grid.n
    v = np.full(grid.n, rng.standard_normal())
    for k in range(1, modes + 1):
        a, b = rng.standard_normal(2)
        v += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
    return Field(grid, v)


def _block_rough_mu(grid, rng, blocks=8):
    """Piecewise constant on fixed physical blocks: rough but grid-stable."""
    vals = rng.uniform(0.3, MU_HI, size=blocks)
    return Field(grid, vals[(np.arange(grid.n) * blocks) // grid.n])


class Duality1D:
    """Many small independent 1-D marches: the duality identity, then the
    duality-estimate constant C*."""

    name = "duality_1d"

    def __init__(self, seed: int, small: bool):
        self.seed, self.small = seed, small

    def prepare(self):
        rng = random.Random(self.seed)
        n = 64
        t_verify, count = (0.02, 2) if self.small else (0.25, 10)
        t_const, problems = (0.01, 2) if self.small else (0.1, 6)
        self.verify = _parse({
            "kind": "verify_duality",
            "grid": {"dim": 1, "n": n, "t_final": t_verify},
            "seed": rng.randrange(2 ** 31), "count": count,
            "threshold": 1e-11})
        grid = torus.make_grid(1, n, t_const,
                               kolmo.steps_for(1, n, t_const, MU_HI))
        cseed = rng.randrange(2 ** 31)
        self.problems = []
        for i in range(problems):
            prng = lab.philox_rng(cseed, i)
            mu = Trajectory.constant_in_time(grid, _block_rough_mu(grid, prng))
            z0 = _smooth_field(grid, prng)
            src = Trajectory.constant_in_time(grid, _smooth_field(grid, prng))
            self.problems.append(kolmo.KolmogorovProblem(
                grid=grid, mu=mu, z0=z0, source=src))

    def execute(self, led: Ledger, outdir: str):
        def verify():
            m = lab.run(self.verify)
            # every problem is one forward and one dual march
            led.solved("forward", m.grid, self.verify.raw["count"])
            led.solved("dual", m.grid, self.verify.raw["count"])
            residual = m.constants["max_residual"]
            led.outputs["max_residual"] = _hex(residual)
            problems = _manifest_problems(m, ["duality_identity"])
            if not residual <= 1e-11:
                problems.append(f"residual {residual} > 1e-11")
            return problems

        led.op("verify_duality", verify)
        ratios = []

        def constant(p):
            g = p.grid
            rep = kolmo.solve_forward(p)
            led.solved("forward", {"dim": g.dim, "n": g.n, "steps": g.steps})
            z, mu = rep.trajectory.data, p.mu.data
            num = np.sqrt(g.tau * g.cell_volume()
                          * np.sum(mu[:-1] * z[:-1] ** 2))
            den = ((np.sqrt(torus.spacetime_norm(p.mu, "L1Q")) + 1.0)
                   * (torus.norm(p.z0, "L2")
                      + torus.spacetime_norm(p.source, "L1Hminus1")))
            ratio = float(num / den)
            ratios.append(_hex(ratio))
            problems = []
            if not (np.isfinite(ratio) and ratio > 0):
                problems.append(f"C* ratio {ratio} not finite and > 0")
            ledger = 1e-9 * max(1.0, torus.norm(p.z0, "L1"))
            if not rep.mass_drift <= ledger:
                problems.append(f"mass drift {rep.mass_drift} > {ledger}")
            return problems

        for i, p in enumerate(self.problems):
            led.op(f"duality_constant[{i}]", lambda p=p: constant(p))
        led.outputs["cstar_ratios"] = ratios


class Field2D:
    """A few large 2-D runs that write dumps and read one back, plus the
    weights toolkit and a stability study."""

    name = "field_2d"

    def __init__(self, seed: int, small: bool):
        self.seed, self.small = seed, small

    def prepare(self):
        rng = random.Random(self.seed)
        small = self.small
        n, t_final = (32 if small else 128), 0.004
        grid = {"dim": 2, "n": n, "t_final": t_final,
                "steps": kolmo.steps_for(2, n, t_final, MU_HI)}
        n_stab, t_stab = (32 if small else 64), 0.02

        def seed():
            return rng.randrange(2 ** 31)

        def mode():
            return {"family": "fourier_mode", "k": rng.randint(1, 3),
                    "amp": round(rng.uniform(0.2, 0.8), 6), "offset": 1.0}

        def random_field(lo, hi):
            return {"family": "random", "seed": seed(), "lo": lo, "hi": hi}

        self.runs = [
            ("kolmogorov", True, _parse({
                "kind": "kolmogorov", "grid": grid, "seed": seed(),
                "mu": random_field(0.3, MU_HI), "z0": mode(),
                "source": {"family": "constant", "value": 0.5}})),
            ("dual", True, _parse({
                "kind": "dual", "grid": grid, "seed": seed(),
                "mu": random_field(0.3, MU_HI),
                "s": random_field(0.1, 1.0)})),
            ("weights", False, _parse({
                "kind": "weights",
                "grid": {"dim": 2, "n": 32 if small else 256},
                "seed": seed(),
                "weight": random_field(round(rng.uniform(0.2, 0.5), 6),
                                       round(rng.uniform(2.0, 8.0), 6)),
                "trials": 2 if small else 10})),
            ("stability", False, _parse({
                "kind": "stability",
                "grid": {"dim": 2, "n": n_stab, "t_final": t_stab,
                         "steps": kolmo.steps_for(2, n_stab, t_stab,
                                                  STABILITY_MU_HI)},
                "seed": seed(),
                "mu": {"family": "piecewise",
                       "levels": [round(rng.uniform(0.5, STABILITY_MU_HI), 6)
                                  for _ in range(8)]},
                "z0": mode(),
                "eps": [0.2, 0.1] if small else [0.2, 0.1, 0.05]})),
        ]

    REQUIRED = {
        "kolmogorov": ("finite", "mass_ledger", "non_negative"),
        "dual": ("apriori_energy", "sign_non_positive"),
        "weights": ("a2_at_least_one", "ratio_finite"),
        "stability": ("z_distance_non_increasing",),
    }

    def execute(self, led: Ledger, outdir: str):
        manifests = {}

        def one(kind, cfg, sub):
            m = lab.run(cfg, sub)
            manifests[kind] = m
            led.outputs[kind] = {k: _hex(v)
                                 for k, v in sorted(m.constants.items())}
            led.artifacts(m)
            g = m.grid
            if kind in ("kolmogorov", "dual"):
                led.solved("forward" if kind == "kolmogorov" else "dual", g)
                led.counts["dump_bytes"] += _dump_size(g)
            elif kind == "weights":
                led.counts["windows"] += (cfg.raw["trials"]
                                          * (g["n"] // 2 - 1))
            else:
                eps = cfg.raw["eps"]
                led.solved("forward", g, 1 + len(eps))
                # smooth_mu convolves every time slice of mu, per width
                led.convolved(len(eps) * (g["steps"] + 1), len(eps))
            problems = _manifest_problems(m, self.REQUIRED[kind])
            if sub:
                (dump,) = m.artifacts
                if os.path.getsize(dump) != _dump_size(g):
                    problems.append(f"{dump} has {os.path.getsize(dump)} "
                                    f"bytes, expected {_dump_size(g)}")
            return problems

        for kind, with_dir, cfg in self.runs:
            sub = os.path.join(outdir, kind) if with_dir else None
            led.op(kind, lambda k=kind, c=cfg, s=sub: one(k, c, s))

        def reload():
            m = manifests["kolmogorov"]
            grid = torus.make_grid(**m.grid)
            dim, n, data = torus.load_slices(m.artifacts[0])
            led.counts["load_bytes"] += DUMP_HEADER + data.nbytes
            problems = []
            if (dim, n) != (grid.dim, grid.n):
                problems.append(f"dump is dim={dim} n={n}")
            if data.shape != (grid.steps + 1, grid.size):
                problems.append(f"dump shape {data.shape}")
                return problems
            traj = Trajectory(grid, data)
            norms = {kind: torus.spacetime_norm(traj, kind)
                     for kind in ("L2Q", "LinfL2", "L1Hminus1")}
            led.outputs["reloaded_norms"] = {k: _hex(v)
                                             for k, v in norms.items()}
            problems += [f"{k} norm {v} not finite"
                         for k, v in norms.items() if not np.isfinite(v)]
            return problems

        led.op("reload_trajectory", reload)


class SktConverge1D:
    """The criterion-8 reference cross-diffusion system: a local run and
    four relaxed runs with shrinking kernels, written as a CSV table."""

    name = "skt_converge_1d"

    def __init__(self, seed: int, small: bool):
        self.seed, self.small = seed, small

    def prepare(self):
        rng = random.Random(self.seed)
        n, t_final = (64, 0.005) if self.small else (128, 0.1)

        def init(k):
            return {"family": "fourier_mode", "k": k,
                    "amp": round(rng.uniform(0.2, 0.4), 6), "offset": 1.0}

        self.cfg = _parse({
            "kind": "converge",
            "grid": {"dim": 1, "n": n, "t_final": t_final},
            "seed": rng.randrange(2 ** 31),
            "eps": [0.4, 0.2, 0.1, 0.05],
            "species": [
                {"coeff": {"kind": "clamped_affine", "d": 1.0, "c": [1.0],
                           "lo": 0.5, "hi": 2.0},
                 "reaction": {"rho": 1.0, "s": [1.0, 1.0]},
                 "init": init(1)},
                {"coeff": {"kind": "constant", "d": 1.0},
                 "reaction": {"rho": 1.0, "s": [0.0, 1.0]},
                 "init": init(rng.randint(1, 2))}]})

    def execute(self, led: Ledger, outdir: str):
        def converge():
            m = lab.run(self.cfg, outdir)
            eps = self.cfg.raw["eps"]
            species = len(self.cfg.raw["species"])
            g = m.grid
            # the local run plus one relaxed run per kernel width; every
            # relaxed step convolves each species with that width's kernel
            led.solved("skt", g, 1 + len(eps), species)
            led.convolved(len(eps) * g["steps"] * species, len(eps))
            led.artifacts(m)
            problems = _manifest_problems(m, ["distances_non_increasing"])
            (csv,) = m.artifacts
            with open(csv, "rb") as fh:
                body = fh.read()
            led.outputs["csv_sha256"] = hashlib.sha256(body).hexdigest()
            led.outputs["constants"] = {
                k: _hex(v) for k, v in sorted(m.constants.items())}
            rows = body.decode().splitlines()[1:]
            if len(rows) != len(eps):
                problems.append(f"CSV has {len(rows)} rows, "
                                f"expected {len(eps)}")
            if not all(np.isfinite(float(x))
                       for row in rows for x in row.split(",")):
                problems.append("CSV holds non-finite values")
            return problems

        led.op("converge", converge)


WORKLOADS = {w.name: w for w in (Duality1D, Field2D, SktConverge1D)}
