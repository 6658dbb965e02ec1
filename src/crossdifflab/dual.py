"""Backward solver for d/dt Phi + mu*Lap(Phi) = S with Phi(T) = 0, and
the identities and estimates of its solution.

The backward march Phi^k = Phi^{k+1} + tau*mu^k*Lap(Phi^{k+1}) - tau*S^k
is the exact algebraic adjoint of the forward update in `kolmo`: summing
by parts over the K steps gives, for any forward solution z,

    tau*sum_k <z^k, S^k> + <z^0, Phi^0> + tau*sum_k <G^k, Phi^{k+1}> = 0,

an identity that holds to round-off.  `duality_residual` measures it on
kept trajectories, `streamed_duality_residual` on the two marches' blocks,
with the same bits.  The a-priori estimates and the energy identities
for a mu of x only or of t only reduce Phi by march consumers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kolmo import (KolmogorovProblem, block_products, check_inputs, fan,
                    keep, march, solve_forward, window_rows)
from .mollify import Kernel, convolve_array, make_kernels
from .torus import (Field, GhostCells, Grid, RowValues, SpacetimeNorm,
                    Trajectory, feed, grad_sq_stack, lap_array, lap_stack,
                    on_grid, quadrature, quadrature_of_sums, row_blocks,
                    row_sums, spacetime_norm)

# the relative slack of the a-priori estimate and the energy identities
SLACK = 0.05


@dataclass(frozen=True)
class DualProblem:
    grid: Grid
    mu: Trajectory
    s: Trajectory

    def __post_init__(self):
        check_inputs(self, "s")

    def mu_sup(self) -> float:
        return float(self.mu.distinct_rows().max())


@dataclass(frozen=True)
class EstimateReport:
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    label: str


def solve_dual(p: DualProblem, consume=None,
               laplacians=None) -> Trajectory | None:
    """March the problem backward over all time steps and keep Phi.  With
    `consume`, the march streams every row of Phi to it, last block first
    (see kolmo.march), keeps none of them and returns None.

    `laplacians`, when given, is a march consumer of Lap Phi^0..Lap Phi^K,
    handed after each block of Phi, last block first.  Step k takes the
    stencil's neighbour sum of Phi^{k+1}; times n^2 (a power of two, so
    exact) that is lap_stack's Lap Phi^{k+1}, bit for bit.  Lap Phi^0, which
    no step takes, is lap_stack of the Phi^0 row."""
    g = p.grid
    tau = g.tau
    # first, as in solve_forward
    out = np.empty((g.steps + 1, g.size)) if consume is None else None
    # the march works on grid-shaped views of the flat rows
    mu, s = on_grid(p.mu.data, g), on_grid(p.s.data, g)
    ghost = GhostCells(g)
    ghost.inner[...] = 0.0
    # the neighbour sums of a block's steps, kept for `laplacians` (with
    # none, every step writes the one row), and their grid-shaped rows,
    # made once: a step takes one from a list, not a new view
    per = row_blocks(g.steps, g.size)[0][1]
    sums = np.empty((1 if laplacians is None else per, g.size))
    laps = list(on_grid(sums, g)) * (per // len(sums))

    def tau_mu(rows, buf):   # (tau*mu^k)*n^2, two multiplies in this order
        np.multiply(rows, tau, out=buf)
        return np.multiply(buf, g.n ** 2, out=buf)
    tmu = block_products(mu, g, tau_mu)
    ts = block_products(s, g, lambda rows, buf: np.multiply(rows, tau,
                                                            out=buf))

    # Phi^k = Phi^{k+1} + (tau*mu^k)*Lap(Phi^{k+1}) - tau*S^k, written
    # straight into the window's row of step k and then into the ghost
    # buffer, which holds Phi^{k+1} for the next step.  The blocks of steps
    # go backwards, with tau*mu^k and tau*S^k for a block at once; the
    # stencil leaves its unscaled neighbour sum in the block's row of
    # `sums`, and the block's tau*mu^k take the exact factor n^2 = 1/h^2
    # instead.  The buffer and the ufuncs are bound once per block, and
    # lap_array is looked up at each call, as in solve_forward.
    phis = window_rows(g)

    def advance(a, b, window):
        multiply, add, subtract = np.multiply, np.add, np.subtract
        inner = ghost.inner
        last = b - a - 1    # the block's new rows, last first
        for phinew, lap, tm, t in zip(
                phis(window)[last::-1], laps[last::-1],
                tmu(a, b)[last::-1], ts(a, b)[last::-1]):
            multiply(tm, lap_array(ghost, g, lap, None), phinew)
            add(inner, phinew, phinew)
            subtract(phinew, t, phinew)
            inner[...] = phinew

    # the block of steps first..b-1 took the sums of Phi^{first+1}..Phi^b;
    # its rows are Phi^first..Phi^{b-1}, and Phi^K too in the first block
    def hand(first, rows):
        m = min(len(rows), g.steps - first)
        laplacians(first + 1, np.multiply(sums[:m], g.n ** 2, out=sums[:m]))
        if first == 0:
            laplacians(0, lap_stack(rows[:1], g))

    phi = keep(out) if consume is None else consume
    march(g, p.mu_sup(), np.zeros(g.size), advance,
          phi if laplacians is None else fan(phi, hand), backward=True)
    return None if out is None else Trajectory(g, out)


class DualityPairings:
    """The three terms of the discrete duality identity of a source-mode
    problem and an S, gathered from march blocks.  `forward(first, rows)`
    takes blocks of z, `dual(first, rows)` blocks of Phi, each a march
    consumer taking them in any order.  `forward` is the RowValues of the
    row sums (row_sums) of z^k S^k, k < K; `dual` hands its blocks to the
    RowValues of the row sums of G^k Phi^{k+1} one row down, and keeps
    Phi^0.  terms() finishes both sums by quadrature_of_sums, so the terms
    have the bits of the quadratures over the kept trajectories."""

    def __init__(self, p_forward: KolmogorovProblem, s: Trajectory):
        g = p_forward.grid
        if p_forward.mode != "source":
            raise ValueError("duality identity requires a source-mode problem")
        if s.grid != g:
            raise ValueError("grid mismatch")
        self.p, self.s = p_forward, s
        self.forward = RowValues(g.steps, lambda k0, k1, rows: row_sums(
            rows * s.data[k0:k1]))
        self.gphi = RowValues(g.steps, lambda k0, k1, rows: row_sums(
            p_forward.source.data[k0:k1] * rows))
        self.phi0 = np.empty(g.size)

    def dual(self, first: int, rows: np.ndarray) -> None:
        self.gphi(first - 1, rows)      # Phi^{k+1} pairs with G^k
        if first == 0:
            self.phi0[...] = rows[0]

    def terms(self) -> tuple:
        g = self.p.grid
        return (quadrature_of_sums(self.forward.values, g),
                g.cell_volume() * np.dot(self.p.z0.values, self.phi0),
                quadrature_of_sums(self.gphi.values, g))

    def residual(self) -> float:
        """relative_gap of the three terms.  NaN when all three are 0
        although S and one of z0 and G are non-zero: the pairings then
        underflowed (data near 1e-320) or vanish term by term, and a gap
        with no scale has no value.  0.0 when S = 0, or z0 = G = 0, where
        every term is exactly 0."""
        terms = self.terms()
        if not any(terms) and np.any(self.s.distinct_rows()) and (
                np.any(self.p.z0.values)
                or np.any(self.p.source.distinct_rows())):
            return np.nan
        return relative_gap(*terms)


def duality_pairings(z: Trajectory, p_forward: KolmogorovProblem,
                     s: Trajectory, phi: Trajectory | None = None):
    """The three terms of the discrete duality identity (they sum to ~0)
    of the kept z and Phi (solved here when not given), and Phi."""
    pairings, phi = _kept_pairings(z, p_forward, s, phi)
    return (*pairings.terms(), phi)


def _kept_pairings(z, p_forward, s, phi) -> tuple:
    """The DualityPairings fed by the kept z and Phi, and Phi."""
    g = z.grid
    pairings = DualityPairings(p_forward, s)
    if p_forward.grid != g:
        raise ValueError("grid mismatch")
    if phi is None:
        phi = solve_dual(DualProblem(grid=g, mu=p_forward.mu, s=s))
    elif phi.grid != g:
        raise ValueError("grid mismatch")
    feed(pairings.forward, z.data, g)
    feed(pairings.dual, phi.data, g)
    return pairings, phi


def relative_gap(*terms) -> float:
    """|sum of the terms| / sum of their magnitudes, 0 when all are 0: how
    far terms that should cancel are from cancelling (NaN if one is)."""
    scale = sum(abs(t) for t in terms)
    return abs(sum(terms)) / scale if scale != 0.0 else 0.0


def duality_residual(z: Trajectory, p_forward: KolmogorovProblem,
                     s: Trajectory, phi: Trajectory | None = None) -> float:
    """The relative gap of the duality identity over the kept z and Phi
    (DualityPairings.residual: NaN when every term underflowed)."""
    return _kept_pairings(z, p_forward, s, phi)[0].residual()


def streamed_duality_residual(p_forward: KolmogorovProblem,
                              s: Trajectory) -> float:
    """duality_residual, bit for bit, of the problem's forward solve and
    the dual solve of S, with both marches streamed into the pairings:
    neither trajectory is kept."""
    pairings = DualityPairings(p_forward, s)
    solve_forward(p_forward, pairings.forward)
    solve_dual(DualProblem(grid=p_forward.grid, mu=p_forward.mu, s=s),
               pairings.dual)
    return pairings.residual()


def _gradients(grid: Grid, count: int) -> RowValues:
    """The squared gradient norms of Phi^0..Phi^{count-1}."""
    return RowValues(count, lambda k0, k1, rows: grad_sq_stack(rows, grid))


def _laplacian_energy(p: DualProblem) -> RowValues:
    """The row sums of mu^k (Lap Phi^k)^2, k < K, of the Laplacians it is
    handed (solve_dual's `laplacians`, or feed_laplacians of a kept Phi):
    the summands of ||mu^{1/2} Lap Phi||^2_{L2Q}, of AprioriSums and case
    iii."""
    mu = p.mu.data
    return RowValues(p.grid.steps, lambda k0, k1, lp: row_sums(
        mu[k0:k1] * lp * lp))


def feed_laplacians(consume, phi: np.ndarray, grid: Grid) -> None:
    """Hand lap_stack of the rows of a kept Phi to a consumer of solve_dual's
    `laplacians`, in row_blocks: the same values the march hands."""
    feed(lambda first, rows: consume(first, lap_stack(rows, grid)), phi,
         grid)


class AprioriSums:
    """verify_apriori's reductions of a dual solution Phi of p, gathered
    from march blocks (a consumer of solve_dual's march, in any order): of
    each slice its squared gradient norm, its LinfL2 norm (`sup`), and the
    maximum of Phi and Phi^0; and `energy`, the consumer of the march's
    `laplacians`, the row sum of mu^k (Lap Phi^k)^2 of each row k < K.
    reports() finishes them by the rules of verify_apriori's kept
    reductions.  |Phi| stays below the march guard's 1e12, so the Phi^2
    sums need no prescale (spacetime_norm's)."""

    def __init__(self, p: DualProblem):
        g = p.grid
        self.p = p
        self.grad = _gradients(g, g.steps + 1)
        self.sup = SpacetimeNorm(g, "LinfL2")
        self.energy = _laplacian_energy(p)
        self.max = -np.inf
        self.phi0 = np.empty(g.size)

    def __call__(self, first: int, rows: np.ndarray) -> None:
        self.grad(first, rows)
        self.sup(first, rows)
        self.max = max(self.max, float(rows.max()))
        if first == 0:
            self.phi0[...] = rows[0]

    def reports(self) -> list:
        p = self.p
        g, mu, s = p.grid, p.mu.data, p.s.data
        grad_sup = float(self.grad.values.max())
        lap_term = quadrature_of_sums(self.energy.values, g)
        rhs1 = quadrature(lambda a, b: s[a:b] ** 2 / mu[a:b], g, s, mu)
        lhs1 = grad_sup + lap_term
        rep1 = EstimateReport(
            lhs=lhs1, rhs=rhs1,
            ratio=lhs1 / rhs1 if rhs1 > 0 else 0.0,
            passed=lhs1 <= rhs1 * (1.0 + SLACK),
            label=f"gradient+laplacian energy estimate, slack={SLACK}")

        phi_sup_sq = self.sup.value() ** 2
        rhs2 = (spacetime_norm(p.mu, "L1Q") + 1.0) * rhs1
        measured_c = phi_sup_sq / rhs2 if rhs2 > 0 else 0.0
        rep2 = EstimateReport(
            lhs=phi_sup_sq, rhs=rhs2, ratio=measured_c,
            passed=np.isfinite(measured_c),
            label="sup-norm estimate; ratio is the measured constant")
        return [rep1, rep2]


def verify_apriori(p: DualProblem, phi: Trajectory) -> list:
    """Check the two a-priori energy estimates for the backward solve.

    First report: sup_t ||grad Phi||^2 + ||mu^{1/2} Lap Phi||^2_{L2Q}
    against ||mu^{-1/2} S||^2_{L2Q}, pass/fail with relative slack SLACK.
    Second report: ||Phi||^2_{LinfL2} against (||mu||_{L1Q}+1) times the
    same right-hand side; the measured constant is recorded, not judged.
    The kept Phi goes through AprioriSums, as a streamed one does, and its
    Laplacians through feed_laplacians.
    """
    if phi.grid != p.grid:
        raise ValueError("grid mismatch")
    sums = AprioriSums(p)
    feed(sums, phi.data, p.grid)
    feed_laplacians(sums.energy, phi.data, p.grid)
    return sums.reports()


def _identity_report(lhs: float, rhs: float, what: str) -> EstimateReport:
    gap = relative_gap(lhs, -rhs)
    return EstimateReport(lhs=lhs, rhs=rhs, ratio=gap, passed=gap <= SLACK,
                          label=f"{what} energy identity, slack={SLACK}")


def energy_identity_case_ii(mu_x: Field, s: Trajectory) -> EstimateReport:
    """For mu depending on x only:
    0.5*||mu^{-1/2} Phi(0)||^2 + ||grad Phi||^2_{L2Q} = -<mu^{-1} Phi, S>.
    One dual march streams into each term's row values; Phi is not kept."""
    g = s.grid
    inv_mu, sd = 1.0 / mu_x.values, s.data
    phi0 = RowValues(1, lambda k0, k1, rows: np.sum(inv_mu * rows[0] ** 2))
    grad = _gradients(g, g.steps)
    pairing = RowValues(g.steps, lambda k0, k1, rows: row_sums(
        rows * inv_mu * sd[k0:k1]))
    mu = Trajectory.constant_in_time(g, mu_x)
    solve_dual(DualProblem(grid=g, mu=mu, s=s), fan(phi0, grad, pairing))
    lhs = 0.5 * g.cell_volume() * float(phi0.values[0])
    lhs += g.tau * math.fsum(grad.values.tolist())
    rhs = -quadrature_of_sums(pairing.values, g)
    return _identity_report(lhs, rhs, "x-only")


def energy_identity_case_iii(mu_t, s: Trajectory) -> EstimateReport:
    """For mu depending on t only:
    0.5*||grad Phi(0)||^2 + ||mu^{1/2} Lap Phi||^2_{L2Q} = <Lap Phi, S>.
    One dual march streams into each term's row values; Phi is not kept."""
    g = s.grid
    mu_t = np.asarray(mu_t, dtype=np.float64)
    if mu_t.shape != (g.steps + 1,):
        raise ValueError(f"mu_t must have {g.steps + 1} entries")
    mu = Trajectory(g, np.broadcast_to(mu_t[:, None], (g.steps + 1, g.size)))
    p, sd = DualProblem(grid=g, mu=mu, s=s), s.data
    grad0, energy = _gradients(g, 1), _laplacian_energy(p)
    pairing = RowValues(g.steps, lambda k0, k1, lp: row_sums(lp * sd[k0:k1]))
    solve_dual(p, grad0, fan(energy, pairing))
    lhs = (0.5 * float(grad0.values[0])
           + quadrature_of_sums(energy.values, g))
    return _identity_report(lhs, quadrature_of_sums(pairing.values, g),
                            "t-only")


@dataclass(frozen=True)
class StabilityRow:
    eps: float
    mu_distance: float   # ||mu_eps - mu||_{L1Q}
    z_distance: float    # ||z_eps - z||_{L2Q}


def smooth_mu(mu: Trajectory, kernel: Kernel,
              out: np.ndarray | None = None) -> Trajectory:
    """Convolve every time slice of mu in space, into `out` (an array of
    the shape of mu.data) when one is given.  The kernel averages, so
    each true value lies in [min mu, max mu]; an FFT convolution is exact
    only to round-off of about eps * max mu, which can leave a value of a
    mu spanning many decades at or below 0.  Then every value below min mu
    is raised to it, which is within that round-off of the true value."""
    if out is None:
        out = np.empty_like(mu.data)
    for k in range(mu.data.shape[0]):
        out[k] = convolve_array(mu.data[k], kernel)
    if out.min() <= 0.0:
        np.maximum(out, mu.distinct_rows().min(), out=out)
    return Trajectory(mu.grid, out)


def stability_study(mu_rough: Trajectory, smoothing_eps, z0: Field,
                    g: Trajectory) -> list:
    """Solve with mollified diffusion coefficients and with the rough one.

    Returns StabilityRow entries, one per eps, comparing each smoothed run
    to the rough reference in L1 (coefficients) and L2 (solutions).  Every
    width is checked before the first solve.  Only the reference run is
    kept; each smoothed run streams into its distance.
    """
    grid = mu_rough.grid
    kernels = make_kernels(grid, smoothing_eps)
    ref = solve_forward(KolmogorovProblem(
        grid=grid, mu=mu_rough, z0=z0, source=g)).trajectory

    # each width's smoothed mu goes into one buffer, and its run streams
    # into its z distance.  A new trajectory-size array per width, freed
    # as the next is made, is served from the C heap once the first is
    # freed (glibc raises its mmap threshold), and one such array alone is
    # below the heap's trim threshold: the process kept it after the study
    smoothed = np.empty(mu_rough.data.shape)

    def row(kern):
        mu_eps = smooth_mu(mu_rough, kern, smoothed)
        z_dist = SpacetimeNorm(grid, "L2Q", minus=ref)
        solve_forward(KolmogorovProblem(
            grid=grid, mu=mu_eps, z0=z0, source=g), z_dist)
        return StabilityRow(
            eps=kern.eps,
            mu_distance=spacetime_norm(mu_eps, "L1Q", minus=mu_rough),
            z_distance=z_dist.value())
    return [row(kern) for kern in kernels]
