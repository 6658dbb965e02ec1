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

from .torus import (Field, GhostCells, Grid, RowValues, Trajectory,
                    distinct_count, is_real, lap_array, make_grid, on_grid,
                    per_slice, row_blocks, row_sums)

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
    trajectory: Trajectory | None   # None for a streamed run (RunSummary)
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


def cfl_fraction(grid: Grid, coeff_sup: float) -> float:
    """tau as a fraction of the raw stability bound h^2 / (2 dim coeff_sup):
    what a march over `grid` returns."""
    return grid.tau * 2.0 * grid.dim * coeff_sup / grid.h ** 2


def keep(data: np.ndarray):
    """The march consumer that keeps a trajectory: each block of finished
    rows goes into rows first.. of `data`, shape lead + (K+1, grid.size)."""
    def consume(first, rows):
        data[..., first:first + rows.shape[-2], :] = rows
    return consume


def fan(*consumers):
    """The march consumer that hands each block to every given consumer in
    turn; a None among them is left out."""
    each = [c for c in consumers if c is not None]

    def consume(first, rows):
        for c in each:
            c(first, rows)
    return consume


def split(*consumers):
    """The march consumer of a species-stacked march that hands species i
    of each (I, rows, width) block to the i-th consumer."""
    def consume(first, rows):
        for c, species in zip(consumers, rows):
            c(first, species)
    return consume


class RunSummary:
    """A march consumer that gathers a forward run's report from its
    blocks (in any order): the running minimum, each row's sum (row_sums,
    the bits of a sum over the kept trajectory's rows) and the last row.
    The states are below the march guard's BLOWUP_LIMIT, so no sum can
    overflow and none needs the prescale of torus.norm."""

    def __init__(self, grid: Grid):
        self.min = np.inf
        self.sums = RowValues(grid.steps + 1, lambda k0, k1, r: row_sums(r))
        self.last = np.empty(grid.size)

    def __call__(self, first: int, rows: np.ndarray) -> None:
        self.min = min(self.min, float(rows.min()))
        self.sums(first, rows)
        if first + len(rows) == len(self.sums.values):
            self.last[...] = rows[-1]

    def report(self, p: "KolmogorovProblem", cfl_used: float,
               trajectory: Trajectory | None = None) -> SolveReport:
        return SolveReport(
            trajectory=trajectory, min_value=self.min,
            mass_drift=(_mass_drift(self.sums.values, p) if p.mode == "source"
                        else np.nan),
            cfl_used=cfl_used)


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
    return cfl_fraction(grid, coeff_sup)


def diffuse(z: np.ndarray, coeff, grid: Grid, out: np.ndarray,
            ghost: GhostCells, scale) -> np.ndarray:
    """The diffusion update out = z + tau*Lap(coeff*z) of a stack of
    slices along one lead axis (the species of a cross-diffusion step),
    with scale = tau*n^2 as a 0-d array: coeff*z goes in one multiply into
    the march's ghost buffer of that lead, the stencil, scaled once, into
    `out` one slice at a time (over the buffer's `rows`), and z is added
    in one add."""
    np.multiply(coeff, z, ghost.inner)
    for row, o in zip(ghost.rows, out):
        lap_array(row, grid, o, scale)
    return np.add(z, out, out)


def window_rows(grid: Grid):
    """The rows of a march's windows for its step loop: a function
    (window) -> the list of the window's rows, each the grid-shaped
    slices of one step, with any lead axes (species) first: a window of
    shape lead + (count, grid.size) gives count rows of shape lead +
    grid.shape.  The list is made once for each window length, since
    march hands the same rows of its buffer to every block of one length
    (all but a short last block), so a step takes its row from a list,
    not as a new view of an array."""
    made = {}

    def rows(window):
        count = window.shape[-2]
        if count not in made:
            made[count] = list(np.moveaxis(on_grid(window, grid),
                                           -grid.dim - 1, 0))
        return made[count]
    return rows


def block_products(rows: np.ndarray, grid: Grid, product=None):
    """The products of the march's blocks of steps with an input that does
    not depend on the state: a function (a, b) giving the rows of
    product(rows[a:b], buf), written into a buffer of one block made here,
    as a list made once per march (so a step takes its row from a list,
    not as a new view); with no `product`, the rows of rows[a:b]
    themselves.  When distinct_count makes the rows one (a constant-in-time
    input), the product of that one row is made once and each block is a
    list of it, with the same bits."""
    per = row_blocks(grid.steps, grid.size)[0][1]
    if distinct_count(grid.steps, rows) == 1:
        one = rows[:1] if product is None \
            else product(rows[:1], np.empty((1,) + rows.shape[1:]))
        every = [one[0]] * per
        return lambda a, b: every[:b - a]
    if product is None:
        return lambda a, b: rows[a:b]
    buf = np.empty((per,) + rows.shape[1:])
    each = list(buf)

    def block(a, b):
        product(rows[a:b], buf[:b - a])
        return each[:b - a]
    return block


def solve_forward(p: KolmogorovProblem, consume=None) -> SolveReport | None:
    """March the problem over all time steps and keep the trajectory, with
    its report gathered by a RunSummary.  With `consume`, the march streams
    every row of the trajectory to it, in marching order (see march), keeps
    none of them and returns None."""
    g = p.grid
    tau = g.tau
    source = p.mode == "source"
    # a kept trajectory comes before the march's buffers: after them on the
    # C heap, it left the next run a hole it did not fit (3 MB more RSS)
    out = np.empty((g.steps + 1, g.size)) if consume is None else None
    summary = RunSummary(g) if consume is None else None
    # the march works on grid-shaped views of the flat rows
    mu = on_grid(p.mu.data, g)
    rhs = on_grid((p.source if source else p.reaction).data, g)
    ghost, scale = GhostCells(g), np.array(tau * g.n ** 2)

    def product(rows, buf):
        np.multiply(rows, tau, out=buf)
        return buf if source else np.exp(buf, out=buf)
    trhs, mus = block_products(rhs, g, product), block_products(mu, g)
    zs = window_rows(g)

    # z^{k+1} = z^k + tau*Lap(mu^k z^k), then + tau*G^k or * exp(tau*R^k),
    # written straight into the window's row of step k+1; tau*G^k
    # (exp(tau*R^k)) for a block of steps at once, or once per march
    # (block_products).  A step is its four calls: mu^k z^k into the ghost
    # buffer, the stencil, + z^k, and + tau*G^k (* exp(tau*R^k)), with the
    # ufuncs and the buffer bound once per block; lap_array is looked up
    # at each call, so a tracer or a test that replaces it sees every one
    def advance(a, b, window):
        multiply, add, inner = np.multiply, np.add, ghost.inner
        then = add if source else multiply
        z = zs(window)
        for zk, znew, muk, t in zip(z, z[1:], mus(a, b), trhs(a, b)):
            multiply(muk, zk, inner)
            lap_array(ghost, g, znew, scale)
            add(zk, znew, znew)
            then(znew, t, znew)

    cfl_used = march(g, p.mu_sup(), p.z0.values, advance,
                     consume if out is None else fan(keep(out), summary))
    if out is None:
        return None
    return summary.report(p, cfl_used, Trajectory(g, out))


def _mass_drift(sums: np.ndarray, p: KolmogorovProblem) -> float:
    """The mass ledger of a source-mode trajectory whose K+1 row sums are
    `sums`: the max over k of |int z^k - int z^0 - sum_{j<k} tau int G^j|.
    A constant-in-time G is summed once (distinct_count): the cumulative
    sum then adds K copies of that one row's mass, the bits of adding K
    equal row masses."""
    g = p.grid
    vol = g.cell_volume()
    mass = vol * sums                                   # per slice k=0..K
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
    """Compare a reaction solve against the reaction-free solve times e^{rt};
    an r_bar that is no finite real number is refused before any solve.
    Only the reference is kept; the reaction run streams into its row
    maxima of z - ztilde*e^{rt}, which are exact."""
    if p.mode != "reaction":
        raise ValueError("comparison_check requires reaction mode")
    if not (is_real(r_bar) and -np.inf < r_bar < np.inf):
        raise ValueError(f"r_bar must be a finite real number, got {r_bar!r}")
    if p.reaction.distinct_rows().max() > r_bar:
        raise ValueError("reaction exceeds r_bar somewhere")
    p0 = KolmogorovProblem(grid=p.grid, mu=p.mu, z0=p.z0,
                           reaction=Trajectory.constant(p.grid, 0.0))
    ref = solve_forward(p0).trajectory.data
    growth = np.exp(r_bar * p.grid.times())[:, None]
    defects = RowValues(p.grid.steps + 1, lambda k0, k1, rows: (
        rows - ref[k0:k1] * growth[k0:k1]).max(axis=1))
    solve_forward(p, defects)
    md = float(defects.values.max())
    sup0 = float(max(ref.max(), -ref.min()))
    return ComparisonReport(max_defect=md,
                            rel_defect=md / sup0 if sup0 > 0 else 0.0,
                            r_bar=float(r_bar))
