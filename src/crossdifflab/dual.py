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

from .kolmo import KolmogorovProblem, _check_cfl, _guard, solve_forward
from .mollify import Kernel, convolve_array, make_kernel
from .torus import (Field, Grid, Trajectory, grad_sq_stack, lap_array,
                    lap_stack, spacetime_norm)


@dataclass(frozen=True)
class DualProblem:
    grid: Grid
    mu: Trajectory
    s: Trajectory

    def __post_init__(self):
        if self.mu.data.min() <= 0.0:
            raise ValueError("mu must be positively lower-bounded")

    def mu_sup(self) -> float:
        return float(self.mu.data.max())


@dataclass(frozen=True)
class EstimateReport:
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    label: str


def solve_dual(p: DualProblem) -> Trajectory:
    g = p.grid
    _check_cfl(g, p.mu_sup())
    tau = g.tau
    mu = p.mu.data
    s = p.s.data
    out = np.empty((g.steps + 1, g.size))
    out[g.steps] = 0.0
    lap, work = np.empty((2, g.size))
    # Phi^k = Phi^{k+1} + (tau*mu^k)*Lap(Phi^{k+1}) - tau*S^k, written
    # straight into out[k]
    for k in range(g.steps - 1, -1, -1):
        phi, phinew = out[k + 1], out[k]
        lap_array(phi, g, lap)
        np.multiply(mu[k], tau, out=work)
        np.multiply(work, lap, out=work)
        np.add(phi, work, out=phinew)
        np.multiply(s[k], tau, out=work)
        np.subtract(phinew, work, out=phinew)
        _guard(phinew, k)
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
    vol = g.cell_volume()
    tau = g.tau
    term_zs = tau * vol * np.sum(z.data[:-1] * s.data[:-1])
    term_z0 = vol * np.dot(p_forward.z0.values, phi.data[0])
    term_g = tau * vol * np.sum(p_forward.source.data[:-1] * phi.data[1:])
    return term_zs, term_z0, term_g, phi


def duality_residual(z: Trajectory, p_forward: KolmogorovProblem,
                     s: Trajectory, phi: Trajectory | None = None) -> float:
    term_zs, term_z0, term_g, phi = duality_pairings(z, p_forward, s, phi)
    scale = abs(term_zs) + abs(term_z0) + abs(term_g)
    if scale == 0.0:
        return 0.0
    return abs(term_zs + term_z0 + term_g) / scale


def mu_half_delta_phi_sq(p: DualProblem, phi: Trajectory) -> float:
    """Squared L2(Q_T) norm of mu^{1/2} Lap(Phi), left-endpoint in time."""
    g = p.grid
    lp = lap_stack(phi.data[:-1], g)
    return float(g.tau * g.cell_volume()
                 * np.sum(p.mu.data[:-1] * lp * lp))


def verify_apriori(p: DualProblem, phi: Trajectory,
                   slack: float = 0.05) -> list:
    """Check the two a-priori energy estimates for the backward solve.

    First report: sup_t ||grad Phi||^2 + ||mu^{1/2} Lap Phi||^2_{L2Q}
    against ||mu^{-1/2} S||^2_{L2Q}, pass/fail with the given slack.
    Second report: ||Phi||^2_{LinfL2} against (||mu||_{L1Q}+1) times the
    same right-hand side; the measured constant is recorded, not judged.
    """
    g = p.grid
    vol = g.cell_volume()
    tau = g.tau
    grad_sup = float(grad_sq_stack(phi.data, g).max())
    lap_term = mu_half_delta_phi_sq(p, phi)
    rhs1 = float(tau * vol * np.sum(p.s.data[:-1] ** 2 / p.mu.data[:-1]))
    lhs1 = grad_sup + lap_term
    rep1 = EstimateReport(
        lhs=lhs1, rhs=rhs1,
        ratio=lhs1 / rhs1 if rhs1 > 0 else 0.0,
        passed=lhs1 <= rhs1 * (1.0 + slack),
        label=f"gradient+laplacian energy estimate, slack={slack}")

    phi_sup_sq = spacetime_norm(phi, "LinfL2") ** 2
    mu_l1 = float(tau * vol * np.sum(np.abs(p.mu.data[:-1])))
    rhs2 = (mu_l1 + 1.0) * rhs1
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
    """Convolve every time slice of mu in space."""
    out = np.empty_like(mu.data)
    for k in range(mu.data.shape[0]):
        out[k] = convolve_array(mu.data[k], kernel)
    return Trajectory(mu.grid, out)


def stability_study(mu_rough: Trajectory, smoothing_eps, z0: Field,
                    g: Trajectory) -> list:
    """Solve with mollified diffusion coefficients and with the rough one.

    Returns StabilityRow entries, one per eps, comparing each smoothed run
    to the rough reference in L1 (coefficients) and L2 (solutions).
    """
    grid = mu_rough.grid
    eps_list = list(smoothing_eps)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps list must be strictly decreasing")
    ref = solve_forward(KolmogorovProblem(
        grid=grid, mu=mu_rough, z0=z0, source=g)).trajectory
    rows = []
    for eps in eps_list:
        kern = make_kernel(grid, eps)
        mu_eps = smooth_mu(mu_rough, kern)
        z_eps = solve_forward(KolmogorovProblem(
            grid=grid, mu=mu_eps, z0=z0, source=g)).trajectory
        mu_dist = spacetime_norm(
            Trajectory(grid, mu_eps.data - mu_rough.data), "L1Q")
        z_dist = spacetime_norm(
            Trajectory(grid, z_eps.data - ref.data), "L2Q")
        rows.append(StabilityRow(eps=eps, mu_distance=mu_dist,
                                 z_distance=z_dist))
    return rows
