"""Explicit forward solver for d/dt z - Lap(mu z) = G (or = R z).

The scheme is z^{k+1} = z^k + tau*Lap(mu^k z^k) + tau*G^k.  Under the CFL
bound tau <= h^2/(2 dim sup mu) the update matrix has non-negative entries,
so non-negative data stay non-negative exactly.  In reaction mode the
diffusion step is followed by the exponential substep z <- z*exp(tau R^k),
which keeps positivity unconditionally and makes the comparison bound
z <= ztilde * exp(rbar t) an exact discrete inequality for constant rbar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import Field, Grid, Trajectory, lap_array, make_grid

BLOWUP_LIMIT = 1e12
CFL_SAFETY = 0.9


class CflViolation(ValueError):
    pass


class NumericalBlowUp(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"solution is non-finite or exceeds "
                         f"{BLOWUP_LIMIT:g} in magnitude at step {step}")
        self.step = step


@dataclass(frozen=True)
class KolmogorovProblem:
    grid: Grid
    mu: Trajectory
    z0: Field
    source: Trajectory | None = None    # G, source mode
    reaction: Trajectory | None = None  # R, reaction mode

    def __post_init__(self):
        if (self.source is None) == (self.reaction is None):
            raise ValueError("exactly one of source/reaction must be given")
        if self.mu.data.min() <= 0.0:
            raise ValueError("mu must be positively lower-bounded")
        if self.reaction is not None and self.z0.values.min() < 0.0:
            raise ValueError("reaction mode requires z0 >= 0")

    @property
    def mode(self) -> str:
        return "source" if self.source is not None else "reaction"

    def mu_sup(self) -> float:
        return float(self.mu.data.max())


@dataclass(frozen=True)
class SolveReport:
    trajectory: Trajectory
    min_value: float
    mass_drift: float
    cfl_used: float      # tau as a fraction of the raw stability bound
    steps_taken: int


def cfl_timestep(grid: Grid, mu_sup: float) -> float:
    """Largest safe tau for the explicit scheme, with a 0.9 safety factor."""
    if mu_sup <= 0:
        raise ValueError("mu_sup must be positive")
    return CFL_SAFETY * grid.h ** 2 / (2.0 * grid.dim * mu_sup)


def steps_for(grid_dim: int, n: int, t_final: float, mu_sup: float) -> int:
    """Number of time steps needed to satisfy the CFL bound."""
    tau_max = cfl_timestep(make_grid(grid_dim, n, t_final, 1), mu_sup)
    return int(np.ceil(t_final / tau_max))


def _check_cfl(grid: Grid, mu_sup: float) -> float:
    """Raise CflViolation if grid.tau exceeds the bound for the largest
    diffusion coefficient; returns tau as a fraction of the raw bound."""
    bound = cfl_timestep(grid, mu_sup)
    if grid.tau > bound:
        raise CflViolation(
            f"tau={grid.tau:g} exceeds CFL bound {bound:g} "
            f"(sup mu = {mu_sup:g})")
    return grid.tau * 2.0 * grid.dim * mu_sup / grid.h ** 2


def _guard(state: np.ndarray, step: int) -> None:
    """Raise NumericalBlowUp unless every value of the state is within
    BLOWUP_LIMIT in magnitude; NaN fails the comparison too."""
    if not np.abs(state).max() <= BLOWUP_LIMIT:
        raise NumericalBlowUp(step)


def solve_forward(p: KolmogorovProblem) -> SolveReport:
    g = p.grid
    cfl_used = _check_cfl(g, p.mu_sup())
    tau = g.tau
    mu = p.mu.data
    src = p.source.data if p.mode == "source" else None
    out = np.empty((g.steps + 1, g.size))
    out[0] = p.z0.values
    flux, work = np.empty((2, g.size))
    # z^{k+1} = z^k + tau*Lap(mu^k z^k), then + tau*G^k or * exp(tau*R^k),
    # written straight into out[k+1]
    for k in range(g.steps):
        z, znew = out[k], out[k + 1]
        np.multiply(mu[k], z, out=flux)
        np.multiply(lap_array(flux, g, work), tau, out=work)
        np.add(z, work, out=znew)
        if src is not None:
            np.multiply(src[k], tau, out=work)
            np.add(znew, work, out=znew)
        else:
            np.multiply(p.reaction.data[k], tau, out=work)
            np.multiply(znew, np.exp(work, out=work), out=znew)
        _guard(znew, k + 1)
    return SolveReport(
        trajectory=Trajectory(g, out),
        min_value=float(out.min()),
        mass_drift=check_mass_array(out, p) if src is not None else np.nan,
        cfl_used=cfl_used,
        steps_taken=g.steps,
    )


def check_mass_array(data: np.ndarray, p: KolmogorovProblem) -> float:
    g = p.grid
    vol = g.cell_volume()
    mass = vol * data.sum(axis=1)                       # per slice k=0..K
    src_mass = vol * p.source.data[:-1].sum(axis=1)     # G^0..G^{K-1}
    expected = mass[0] + g.tau * np.concatenate(
        [[0.0], np.cumsum(src_mass)])
    return float(np.abs(mass - expected).max())


def check_mass(report: SolveReport, p: KolmogorovProblem) -> float:
    """Max over k of |int z^k - int z^0 - sum_{j<k} tau int G^j|."""
    if p.mode != "source":
        raise ValueError("mass ledger is defined for source mode only")
    return check_mass_array(report.trajectory.data, p)


@dataclass(frozen=True)
class ComparisonReport:
    max_defect: float          # max over Q_T of z - ztilde*exp(rbar t)
    rel_defect: float          # defect / sup |ztilde|
    r_bar: float


def comparison_check(p: KolmogorovProblem, r_bar: float) -> ComparisonReport:
    """Compare a reaction solve against the reaction-free solve times e^{rt}."""
    if p.mode != "reaction":
        raise ValueError("comparison_check requires reaction mode")
    if p.reaction.data.max() > r_bar:
        raise ValueError("reaction exceeds r_bar somewhere")
    rep = solve_forward(p)
    p0 = KolmogorovProblem(grid=p.grid, mu=p.mu, z0=p.z0,
                           reaction=Trajectory.constant(p.grid, 0.0))
    rep0 = solve_forward(p0)
    growth = np.exp(r_bar * p.grid.times())[:, None]
    defect = rep.trajectory.data - rep0.trajectory.data * growth
    sup0 = float(np.abs(rep0.trajectory.data).max())
    md = float(defect.max())
    return ComparisonReport(max_defect=md,
                            rel_defect=md / sup0 if sup0 > 0 else 0.0,
                            r_bar=float(r_bar))
