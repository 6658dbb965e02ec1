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

from .torus import (Field, GhostCells, Grid, Trajectory, distinct_count,
                    is_real, lap_array, make_grid, on_grid, per_slice,
                    row_blocks, row_sums)

BLOWUP_LIMIT = 1e12
CFL_SAFETY = 0.9


class CflViolation(ValueError):
    pass


class NumericalBlowUp(RuntimeError):
    """A march produced a state holding NaN, inf or a value beyond
    BLOWUP_LIMIT in magnitude.  `step` is the first such state in
    marching order: the lowest step index of a forward or cross-diffusion
    march, the highest of the backward dual march."""

    def __init__(self, step: int):
        super().__init__(f"solution is non-finite or exceeds "
                         f"{BLOWUP_LIMIT:g} in magnitude at step {step}")
        self.step = step


def check_inputs(problem, *names) -> None:
    """A ValueError naming the first of mu and the given trajectories of
    the problem that lives on another grid or holds NaN or +-inf, then one
    if mu is not positively lower-bounded.  Only distinct rows are read,
    by their minimum and maximum: NaN propagates through both, and inf
    shows in one."""
    for name in ("mu", *names):
        traj = getattr(problem, name)
        if traj is None:
            continue
        if traj.grid != problem.grid:
            raise ValueError(f"{name} lives on grid {traj.grid}, "
                             f"the problem on grid {problem.grid}")
        rows = traj.distinct_rows()
        if not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
            raise ValueError(f"{name} holds a non-finite value")
    if problem.mu.distinct_rows().min() <= 0.0:
        raise ValueError("mu must be positively lower-bounded")


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
        check_inputs(self, "source", "reaction")
        if self.reaction is not None and self.z0.values.min() < 0.0:
            raise ValueError("reaction mode requires z0 >= 0")

    @property
    def mode(self) -> str:
        return "source" if self.source is not None else "reaction"

    def mu_sup(self) -> float:
        return float(self.mu.distinct_rows().max())


@dataclass(frozen=True)
class SolveReport:
    trajectory: Trajectory
    min_value: float
    mass_drift: float
    cfl_used: float      # tau as a fraction of the raw stability bound


def cfl_timestep(grid: Grid, mu_sup: float) -> float:
    """Largest safe tau for the explicit scheme, with a 0.9 safety factor.
    Dividing by the power of two 2 dim first gives the bits of 0.9 h^2 /
    (2 dim mu_sup) without its overflow for a mu_sup near the float range."""
    if not (is_real(mu_sup) and 0.0 < mu_sup < np.inf):
        raise ValueError(
            f"mu_sup must be finite and positive, got {mu_sup!r}")
    return CFL_SAFETY * grid.h ** 2 / (2.0 * grid.dim) / mu_sup


def steps_for(grid_dim: int, n: int, t_final: float, mu_sup: float) -> int:
    """Number of time steps needed to satisfy the CFL bound; a ValueError
    when that number is beyond the float range."""
    tau_max = cfl_timestep(make_grid(grid_dim, n, t_final, 1), mu_sup)
    steps = t_final / tau_max if tau_max > 0.0 else np.inf
    if steps == np.inf:
        raise ValueError(f"the CFL step count for t_final={t_final!r} and "
                         f"sup mu = {mu_sup!r} is beyond the float range")
    return int(np.ceil(steps))


def keep(data: np.ndarray):
    """The march consumer that keeps a trajectory: each block of finished
    rows goes into rows first.. of `data`, shape lead + (K+1, grid.size)."""
    def consume(first, rows):
        data[..., first:first + rows.shape[-2], :] = rows
    return consume


def march(grid: Grid, coeff_sup: float, start: np.ndarray, advance,
          consume, backward: bool = False) -> float:
    """The one explicit march.  CflViolation if grid.tau exceeds the bound
    for the largest diffusion coefficient; else it works in a buffer of
    one block of rows (row_blocks) plus a carry row that starts as
    `start`, of shape lead + (grid.size,) (species may lead; steps go on
    the second-to-last axis).  For each block of steps a..b-1 in marching
    order (last block first when `backward`), `advance(a, b, window)`
    writes the new states of those steps into `window`, the buffer's rows
    for steps a..b, whose carry row, its first (last, backward), holds
    the state the block starts from.  After each block NumericalBlowUp
    names the first step in marching order whose new state has a value
    beyond BLOWUP_LIMIT in magnitude or NaN, the step a per-step guard
    would report; so a march may run one block past a blow-up, with
    overflow and invalid results silenced.  A block that passed the guard
    goes to `consume(first, rows)`, its finished rows in index order from
    row `first` (the opening block's with the start state), and the state
    the next block starts from moves to the carry row.  Returns tau as a
    fraction of the raw bound."""
    bound = cfl_timestep(grid, coeff_sup)
    if grid.tau > bound:
        raise CflViolation(
            f"tau={grid.tau:g} exceeds CFL bound {bound:g} "
            f"(sup mu = {coeff_sup:g})")
    blocks = row_blocks(grid.steps, grid.size)
    per = blocks[0][1]      # the steps of a full block
    rows = np.empty(start.shape[:-1] + (per + 1, grid.size))
    carry, last = (-1, 0) if backward else (0, -1)
    rows[..., carry, :] = start
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in reversed(blocks) if backward else blocks:
            window = rows[..., per - (b - a):, :] if backward \
                else rows[..., :b - a + 1, :]
            advance(a, b, window)
            new = window[..., :-1, :] if backward else window[..., 1:, :]
            first = a if backward else a + 1   # the lowest new row
            # NaN fails both, and neither makes a block-size temporary
            if not (new.max() <= BLOWUP_LIMIT and new.min() >= -BLOWUP_LIMIT):
                ok = (np.abs(new) <= BLOWUP_LIMIT).all(axis=-1)
                bad = first + np.flatnonzero(
                    ~ok.reshape(-1, b - a).all(axis=0))
                raise NumericalBlowUp(int(bad[-1] if backward else bad[0]))
            if b == grid.steps if backward else a == 0:
                new, first = window, a     # the opening block: with start
            consume(first, new)
            window[..., carry, :] = window[..., last, :]
    return grid.tau * 2.0 * grid.dim * coeff_sup / grid.h ** 2


def diffuse(z: np.ndarray, coeff, grid: Grid, out: np.ndarray,
            ghost: GhostCells, scale) -> np.ndarray:
    """The diffusion update out = z + tau*Lap(coeff*z), with scale =
    tau*n^2 as a 0-d array, of one slice of shape grid.shape or of a stack
    of them along one lead axis (the species of a cross-diffusion step):
    coeff*z goes in one multiply into the march's ghost buffer of that
    lead, the stencil, scaled once, into `out` one slice at a time (over
    the buffer's `rows`), and z is added in one add."""
    np.multiply(coeff, z, ghost.inner)
    if z.ndim == grid.dim:
        lap_array(ghost, grid, out, scale)
    else:
        for row, o in zip(ghost.rows, out):
            lap_array(row, grid, o, scale)
    return np.add(z, out, out)


def solve_forward(p: KolmogorovProblem, consume=None) -> SolveReport | None:
    """March the problem over all time steps.  With `consume`, the march
    streams every row of the trajectory to it, in marching order (see
    march), keeps none of them and returns None."""
    g = p.grid
    tau = g.tau
    source = p.mode == "source"
    # a kept trajectory comes before the march's buffers: after them on the
    # C heap, it left the next run a hole it did not fit (3 MB more RSS)
    out = np.empty((g.steps + 1, g.size)) if consume is None else None
    # the march works on grid-shaped views of the flat rows
    mu = on_grid(p.mu.data, g)
    rhs = on_grid((p.source if source else p.reaction).data, g)
    ghost, scale = GhostCells(g), np.array(tau * g.n ** 2)
    scratch = np.empty((row_blocks(g.steps, g.size)[0][1],) + g.shape)

    # z^{k+1} = z^k + tau*Lap(mu^k z^k), then + tau*G^k or * exp(tau*R^k),
    # written straight into the window's row of step k+1; tau*G^k
    # (exp(tau*R^k)) for a block of steps at once
    def advance(a, b, window):
        trhs = np.multiply(rhs[a:b], tau, out=scratch[:b - a])
        if not source:
            np.exp(trhs, out=trhs)
        z = on_grid(window, g)
        for zk, znew, muk, t in zip(z[:-1], z[1:], mu[a:b], trhs):
            diffuse(zk, muk, g, znew, ghost, scale)
            if source:
                np.add(znew, t, znew)
            else:
                np.multiply(znew, t, znew)

    cfl_used = march(g, p.mu_sup(), p.z0.values, advance,
                     consume if out is None else keep(out))
    if out is None:
        return None
    return SolveReport(
        trajectory=Trajectory(g, out),
        min_value=float(out.min()),
        mass_drift=_mass_drift(out, p) if source else np.nan,
        cfl_used=cfl_used,
    )


def _mass_drift(data: np.ndarray, p: KolmogorovProblem) -> float:
    """The mass ledger of a source-mode trajectory: the max over k of
    |int z^k - int z^0 - sum_{j<k} tau int G^j|.  A constant-in-time G
    is summed once (distinct_count): the cumulative sum then adds K copies
    of that one row's mass, the bits of adding K equal row masses."""
    g = p.grid
    vol = g.cell_volume()
    mass = vol * data.sum(axis=1)                       # per slice k=0..K
    src = p.source.data
    # G^0..G^{K-1}, or the one row of a constant-in-time G, in any layout
    src_mass = vol * per_slice(lambda a, b: row_sums(src[a:b]),
                               distinct_count(g.steps, src), g)
    expected = mass[0] + g.tau * np.concatenate(
        [[0.0], np.cumsum(np.broadcast_to(src_mass, g.steps))])
    return float(np.abs(mass - expected).max())


@dataclass(frozen=True)
class ComparisonReport:
    max_defect: float          # max over Q_T of z - ztilde*exp(rbar t)
    rel_defect: float          # defect / sup |ztilde|
    r_bar: float


def comparison_check(p: KolmogorovProblem, r_bar: float) -> ComparisonReport:
    """Compare a reaction solve against the reaction-free solve times e^{rt}."""
    if p.mode != "reaction":
        raise ValueError("comparison_check requires reaction mode")
    if p.reaction.distinct_rows().max() > r_bar:
        raise ValueError("reaction exceeds r_bar somewhere")
    rep = solve_forward(p)
    p0 = KolmogorovProblem(grid=p.grid, mu=p.mu, z0=p.z0,
                           reaction=Trajectory.constant(p.grid, 0.0))
    rep0 = solve_forward(p0)
    z, z0 = rep.trajectory.data, rep0.trajectory.data
    growth = np.exp(r_bar * p.grid.times())[:, None]

    def sup(values):  # a maximum over per_slice: no third trajectory array
        return float(per_slice(values, len(z), p.grid).max())
    md = sup(lambda a, b: (z[a:b] - z0[a:b] * growth[a:b]).max(axis=1))
    sup0 = sup(lambda a, b: np.abs(z0[a:b]).max(axis=1))
    return ComparisonReport(max_defect=md,
                            rel_defect=md / sup0 if sup0 > 0 else 0.0,
                            r_bar=float(r_bar))
