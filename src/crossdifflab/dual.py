"""Backward solver for d/dt Phi + mu*Lap(Phi) = S with Phi(T) = 0.

The backward march Phi^k = Phi^{k+1} + tau*mu^k*Lap(Phi^{k+1}) - tau*S^k
is the exact algebraic adjoint of the forward update in `kolmo`: summing
by parts over the K steps gives, for any forward solution z,

    tau*sum_k <z^k, S^k> + <z^0, Phi^0> + tau*sum_k <G^k, Phi^{k+1}> = 0,

an identity that holds to round-off.  `duality_residual` measures it on
kept trajectories, `streamed_duality_residual` on the two marches' blocks,
with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kolmo import (KolmogorovProblem, block_products, check_inputs, keep,
                    march, solve_forward)
from .mollify import Kernel, convolve_array, make_kernels
from .torus import (Field, GhostCells, Grid, SpacetimeNorm, Trajectory, feed,
                    grad_sq_stack, lap_array, lap_stack, on_grid, quadrature,
                    quadrature_of_sums, row_sums, spacetime_norm)

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


def solve_dual(p: DualProblem, consume=None) -> Trajectory | None:
    """March the problem backward over all time steps and keep Phi.  With
    `consume`, the march streams every row of Phi to it, last block first
    (see kolmo.march), keeps none of them and returns None."""
    g = p.grid
    tau = g.tau
    # first, as in solve_forward
    out = np.empty((g.steps + 1, g.size)) if consume is None else None
    # the march works on grid-shaped views of the flat rows
    mu, s = on_grid(p.mu.data, g), on_grid(p.s.data, g)
    ghost = GhostCells(g)
    ghost.inner[...] = 0.0

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
    # stencil leaves its unscaled neighbour sum, and the block's tau*mu^k
    # take the exact factor n^2 = 1/h^2 instead.
    def advance(a, b, window):
        last = b - a - 1    # the block's new rows, last first
        for phinew, tm, t in zip(on_grid(window, g)[last::-1],
                                 tmu(a, b)[last::-1], ts(a, b)[last::-1]):
            np.multiply(tm, lap_array(ghost, g, phinew, None), phinew)
            np.add(ghost.inner, phinew, phinew)
            np.subtract(phinew, t, phinew)
            ghost.inner[...] = phinew

    march(g, p.mu_sup(), np.zeros(g.size), advance,
          keep(out) if consume is None else consume, backward=True)
    return None if out is None else Trajectory(g, out)


class DualityPairings:
    """The three terms of the discrete duality identity of a source-mode
    problem and an S, gathered from march blocks.  `forward(first, rows)`
    takes blocks of z, `dual(first, rows)` blocks of Phi, each a march
    consumer taking them in any order.  Of each row k < K it keeps the row
    sums (row_sums) of z^k S^k and of G^k Phi^{k+1}, and it keeps Phi^0;
    terms() finishes both sums by quadrature_of_sums, so the terms have
    the bits of the quadratures over the kept trajectories."""

    def __init__(self, p_forward: KolmogorovProblem, s: Trajectory):
        g = p_forward.grid
        if p_forward.mode != "source":
            raise ValueError("duality identity requires a source-mode problem")
        if s.grid != g:
            raise ValueError("grid mismatch")
        self.p, self.s = p_forward, s
        self.zs, self.gphi = np.empty((2, g.steps))
        self.phi0 = np.empty(g.size)

    def forward(self, first: int, rows: np.ndarray) -> None:
        stop = min(first + len(rows), len(self.zs))
        self.zs[first:stop] = row_sums(rows[:stop - first]
                                       * self.s.data[first:stop])

    def dual(self, first: int, rows: np.ndarray) -> None:
        # Phi^{k+1} pairs with G^k: rows first.. give sums first-1..
        lo = max(first, 1)
        stop = first + len(rows)
        self.gphi[lo - 1:stop - 1] = row_sums(
            self.p.source.data[lo - 1:stop - 1] * rows[lo - first:])
        if first == 0:
            self.phi0[...] = rows[0]

    def terms(self) -> tuple:
        g = self.p.grid
        return (quadrature_of_sums(self.zs, g),
                g.cell_volume() * np.dot(self.p.z0.values, self.phi0),
                quadrature_of_sums(self.gphi, g))

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


def laplacian_energy_sums(phi: np.ndarray, mu: np.ndarray,
                          grid: Grid) -> np.ndarray:
    """The row sums (row_sums) of mu^k (Lap Phi^k)^2 of rows of Phi and
    the rows of mu of the same steps: the summands of ||mu^{1/2} Lap
    Phi||^2_{L2Q}, of AprioriSums and weights.energy_identity_case_iii."""
    lp = lap_stack(phi, grid)
    return row_sums(mu * lp * lp)


class AprioriSums:
    """verify_apriori's reductions of a dual solution Phi of p, gathered
    from march blocks (a consumer of solve_dual's march, in any order): of
    each slice its squared gradient norm (grad_sq_stack), its LinfL2 norm
    (`sup`), of each row k < K the row sum of mu^k (Lap Phi^k)^2, and the
    maximum of Phi and Phi^0.  reports() finishes them by the rules of
    verify_apriori's kept reductions.  |Phi| stays below the march guard's
    1e12, so the Phi^2 sums need no prescale (spacetime_norm's)."""

    def __init__(self, p: DualProblem):
        g = p.grid
        self.p = p
        self.grad = np.empty(g.steps + 1)
        self.sup = SpacetimeNorm(g, "LinfL2")
        self.energy = np.empty(g.steps)
        self.max = -np.inf
        self.phi0 = np.empty(g.size)

    def __call__(self, first: int, rows: np.ndarray) -> None:
        g = self.p.grid
        stop = first + len(rows)
        self.grad[first:stop] = grad_sq_stack(rows, g)
        self.sup(first, rows)
        body = min(stop, g.steps) - first     # the rows k < K
        if body > 0:
            self.energy[first:first + body] = laplacian_energy_sums(
                rows[:body], self.p.mu.data[first:first + body], g)
        self.max = max(self.max, float(rows.max()))
        if first == 0:
            self.phi0[...] = rows[0]

    def reports(self) -> list:
        p = self.p
        g, mu, s = p.grid, p.mu.data, p.s.data
        grad_sup = float(self.grad.max())
        lap_term = quadrature_of_sums(self.energy, g)
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
    The kept Phi goes through AprioriSums, as a streamed one does.
    """
    if phi.grid != p.grid:
        raise ValueError("grid mismatch")
    sums = AprioriSums(p)
    feed(sums, phi.data, p.grid)
    return sums.reports()


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
