"""Backward solver for d/dt Phi + mu*Lap(Phi) = S with Phi(T) = 0.

The backward march Phi^k = Phi^{k+1} + tau*mu^k*Lap(Phi^{k+1}) - tau*S^k
is the exact algebraic adjoint of the forward update in `kolmo`: summing
by parts over the K steps gives, for any forward solution z,

    tau*sum_k <z^k, S^k> + <z^0, Phi^0> + tau*sum_k <G^k, Phi^{k+1}> = 0,

an identity that holds to round-off.  `duality_residual` measures it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kolmo import KolmogorovProblem, check_inputs, march, solve_forward
from .mollify import Kernel, convolve_array, make_kernels
from .torus import (Field, GhostCells, Grid, Trajectory, grad_sq_stack,
                    lap_array, lap_stack, on_grid, quadrature, row_blocks,
                    spacetime_norm)

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


def solve_dual(p: DualProblem) -> Trajectory:
    g = p.grid
    tau = g.tau
    out = np.empty((g.steps + 1, g.size))
    out[g.steps] = 0.0
    # the march works on grid-shaped views of the flat rows
    phi, mu, s = on_grid(out, g), on_grid(p.mu.data, g), on_grid(p.s.data, g)
    ghost = GhostCells(g)
    ghost.inner[...] = 0.0
    tmu, ts = np.empty((2, row_blocks(g.steps, g.size)[0][1]) + g.shape)

    # Phi^k = Phi^{k+1} + (tau*mu^k)*Lap(Phi^{k+1}) - tau*S^k, written
    # straight into out[k] and then into the ghost buffer, which holds
    # Phi^{k+1} for the next step.  The blocks of steps go backwards, with
    # tau*mu^k and tau*S^k for a block at once; the stencil leaves its
    # unscaled neighbour sum, and the block's tau*mu^k take the exact
    # factor n^2 = 1/h^2 instead.
    def advance(a, b):
        np.multiply(mu[a:b], tau, out=tmu[:b - a])
        np.multiply(tmu[:b - a], g.n ** 2, out=tmu[:b - a])
        np.multiply(s[a:b], tau, out=ts[:b - a])
        for k in range(b - 1, a - 1, -1):
            phinew = phi[k]
            np.multiply(tmu[k - a], lap_array(ghost, g, phinew, None), phinew)
            np.add(ghost.inner, phinew, phinew)
            np.subtract(phinew, ts[k - a], phinew)
            ghost.inner[...] = phinew

    march(g, p.mu_sup(), out, advance, backward=True)
    return Trajectory(g, out)


def duality_pairings(z: Trajectory, p_forward: KolmogorovProblem,
                     s: Trajectory, phi: Trajectory | None = None):
    """The three terms of the discrete duality identity (they sum to ~0)."""
    g = z.grid
    if p_forward.mode != "source":
        raise ValueError("duality identity requires a source-mode problem")
    if s.grid != g or p_forward.grid != g:
        raise ValueError("grid mismatch")
    if phi is None:
        phi = solve_dual(DualProblem(grid=g, mu=p_forward.mu, s=s))
    zd, sd, gd, pd = z.data, s.data, p_forward.source.data, phi.data
    term_zs = quadrature(lambda a, b: zd[a:b] * sd[a:b], g)
    term_z0 = g.cell_volume() * np.dot(p_forward.z0.values, pd[0])
    term_g = quadrature(lambda a, b: gd[a:b] * pd[a + 1:b + 1], g)
    return term_zs, term_z0, term_g, phi


def relative_gap(*terms) -> float:
    """|sum of the terms| / sum of their magnitudes, 0 when all are 0: how
    far terms that should cancel are from cancelling (NaN if one is)."""
    scale = sum(abs(t) for t in terms)
    return abs(sum(terms)) / scale if scale != 0.0 else 0.0


def duality_residual(z: Trajectory, p_forward: KolmogorovProblem,
                     s: Trajectory, phi: Trajectory | None = None) -> float:
    return relative_gap(*duality_pairings(z, p_forward, s, phi)[:3])


def mu_half_delta_phi_sq(p: DualProblem, phi: Trajectory) -> float:
    """Squared L2(Q_T) norm of mu^{1/2} Lap(Phi), left-endpoint in time."""
    g = p.grid
    mu, data = p.mu.data, phi.data

    def energy(a, b):
        lp = lap_stack(data[a:b], g)
        return mu[a:b] * lp * lp
    return quadrature(energy, g)


def verify_apriori(p: DualProblem, phi: Trajectory) -> list:
    """Check the two a-priori energy estimates for the backward solve.

    First report: sup_t ||grad Phi||^2 + ||mu^{1/2} Lap Phi||^2_{L2Q}
    against ||mu^{-1/2} S||^2_{L2Q}, pass/fail with relative slack SLACK.
    Second report: ||Phi||^2_{LinfL2} against (||mu||_{L1Q}+1) times the
    same right-hand side; the measured constant is recorded, not judged.
    """
    if phi.grid != p.grid:
        raise ValueError("grid mismatch")
    mu, s = p.mu.data, p.s.data
    grad_sup = float(grad_sq_stack(phi.data, p.grid).max())
    lap_term = mu_half_delta_phi_sq(p, phi)
    rhs1 = quadrature(lambda a, b: s[a:b] ** 2 / mu[a:b], p.grid, s, mu)
    lhs1 = grad_sup + lap_term
    rep1 = EstimateReport(
        lhs=lhs1, rhs=rhs1,
        ratio=lhs1 / rhs1 if rhs1 > 0 else 0.0,
        passed=lhs1 <= rhs1 * (1.0 + SLACK),
        label=f"gradient+laplacian energy estimate, slack={SLACK}")

    phi_sup_sq = spacetime_norm(phi, "LinfL2") ** 2
    rhs2 = (spacetime_norm(p.mu, "L1Q") + 1.0) * rhs1
    measured_c = phi_sup_sq / rhs2 if rhs2 > 0 else 0.0
    rep2 = EstimateReport(
        lhs=phi_sup_sq, rhs=rhs2, ratio=measured_c,
        passed=np.isfinite(measured_c),
        label="sup-norm estimate; ratio is the measured constant")
    return [rep1, rep2]


@dataclass(frozen=True)
class StabilityRow:
    eps: float
    mu_distance: float   # ||mu_eps - mu||_{L1Q}
    z_distance: float    # ||z_eps - z||_{L2Q}


def smooth_mu(mu: Trajectory, kernel: Kernel) -> Trajectory:
    """Convolve every time slice of mu in space.  The kernel averages, so
    each true value lies in [min mu, max mu]; an FFT convolution is exact
    only to round-off of about eps * max mu, which can leave a value of a
    mu spanning many decades at or below 0.  Then every value below min mu
    is raised to it, which is within that round-off of the true value."""
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
    width is checked before the first solve.
    """
    grid = mu_rough.grid
    kernels = make_kernels(grid, smoothing_eps)
    ref = solve_forward(KolmogorovProblem(
        grid=grid, mu=mu_rough, z0=z0, source=g)).trajectory
    rows = []
    for kern in kernels:
        mu_eps = smooth_mu(mu_rough, kern)
        z_eps = solve_forward(KolmogorovProblem(
            grid=grid, mu=mu_eps, z0=z0, source=g)).trajectory
        mu_dist = spacetime_norm(mu_eps, "L1Q", minus=mu_rough)
        z_dist = spacetime_norm(z_eps, "L2Q", minus=ref)
        rows.append(StabilityRow(eps=kern.eps, mu_distance=mu_dist,
                                 z_distance=z_dist))
    return rows
