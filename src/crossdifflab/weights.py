"""Discrete maximal function, A2 weight constants, and energy identities.

Discrete "balls" are centered cubes (l-infinity neighborhoods) of odd side
2w+1 cells, w = 0 .. n/2 - 1, so the smallest ball is the center cell alone
and Mf >= |f| pointwise.  Averages use wrap-around sliding windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .dual import DualProblem, EstimateReport, solve_dual
from .mollify import KernelSequence, convolve_array
from .torus import Field, Grid, Trajectory, grad_sq_stack, lap_stack


@dataclass(frozen=True)
class Weight:
    values: Field

    def __post_init__(self):
        if self.values.values.min() <= 0.0:
            raise ValueError("weight must be strictly positive")


def _window_sizes(n: int):
    return [2 * w + 1 for w in range(n // 2)]


def _ball_means(v: np.ndarray, grid: Grid, size: int) -> np.ndarray:
    return uniform_filter(v.reshape(grid.shape), size=size,
                          mode="wrap").reshape(-1)


def maximal_function(f: Field) -> Field:
    g = f.grid
    a = np.abs(f.values)
    out = a.copy()  # window size 1 is the center cell itself
    for size in _window_sizes(g.n)[1:]:
        np.maximum(out, _ball_means(a, g, size), out=out)
    return Field(g, out)


def a2_constant(w: Weight) -> float:
    g = w.values.grid
    nu = w.values.values
    inv = 1.0 / nu
    best = 1.0  # size-1 balls give exactly 1
    for size in _window_sizes(g.n)[1:]:
        prod = _ball_means(nu, g, size) * _ball_means(inv, g, size)
        best = max(best, float(prod.max()))
    return best


def domination_check(f: Field, ks: KernelSequence,
                     tiny: float = 1e-300) -> EstimateReport:
    """Measured constant A* in |f * rho_eps| <= A* M|f|, over the sequence."""
    mf = maximal_function(f).values
    a_star = 0.0
    for kern in ks:
        conv = np.abs(convolve_array(f.values, kern))
        a_star = max(a_star, float((conv / (mf + tiny)).max()))
    return EstimateReport(lhs=a_star, rhs=np.inf, ratio=a_star,
                          passed=np.isfinite(a_star),
                          label="convolution domination constant A*")


def weighted_l2(v: np.ndarray, w: Weight) -> float:
    g = w.values.grid
    return float(np.sqrt(g.cell_volume()
                         * np.sum(w.values.values * v * v)))


def maximal_boundedness(w: Weight, trials: int = 20,
                        seed: int = 0) -> EstimateReport:
    """Measured operator ratio sup ||Mf||_{L2_nu} / ||f||_{L2_nu} over
    random fields."""
    g = w.values.grid
    rng = np.random.default_rng(seed)
    ratio = 0.0
    for _ in range(trials):
        v = rng.standard_normal(g.size)
        mf = maximal_function(Field(g, v)).values
        ratio = max(ratio, weighted_l2(mf, w) / weighted_l2(v, w))
    return EstimateReport(lhs=ratio, rhs=np.inf, ratio=ratio,
                          passed=np.isfinite(ratio) and ratio >= 1.0,
                          label=f"maximal operator ratio, {trials} trials")


def a2_ratio_correlation(weights, trials: int = 20, seed: int = 0) -> float:
    """Spearman rank correlation between A2 constants and measured maximal
    operator ratios across a family of weights."""
    from scipy.stats import spearmanr  # costs ~0.5 s to import; only here
    a2 = [a2_constant(w) for w in weights]
    ratios = [maximal_boundedness(w, trials=trials, seed=seed).lhs
              for w in weights]
    rho, _ = spearmanr(a2, ratios)
    return float(rho)


def energy_identity_case_ii(mu_x: Field, s: Trajectory,
                            slack: float = 0.05) -> EstimateReport:
    """For mu depending on x only:
    0.5*||mu^{-1/2} Phi(0)||^2 + ||grad Phi||^2_{L2Q} = -<mu^{-1} Phi, S>."""
    g = s.grid
    mu = Trajectory.constant_in_time(g, mu_x)
    p = DualProblem(grid=g, mu=mu, s=s)
    phi = solve_dual(p)
    vol = g.cell_volume()
    inv_mu = 1.0 / mu_x.values
    lhs = 0.5 * vol * float(np.sum(inv_mu * phi.data[0] ** 2))
    lhs += float(g.tau * grad_sq_stack(phi.data[:-1], g).sum())
    rhs = -g.tau * vol * float(
        np.sum(phi.data[:-1] * inv_mu[None, :] * s.data[:-1]))
    scale = abs(lhs) + abs(rhs)
    gap = abs(lhs - rhs) / scale if scale > 0 else 0.0
    return EstimateReport(lhs=lhs, rhs=rhs, ratio=gap, passed=gap <= slack,
                          label=f"x-only energy identity, slack={slack}")


def energy_identity_case_iii(mu_t, s: Trajectory,
                             slack: float = 0.05) -> EstimateReport:
    """For mu depending on t only:
    0.5*||grad Phi(0)||^2 + ||mu^{1/2} Lap Phi||^2_{L2Q} = <Lap Phi, S>."""
    g = s.grid
    mu_t = np.asarray(mu_t, dtype=np.float64)
    if mu_t.shape != (g.steps + 1,):
        raise ValueError(f"mu_t must have {g.steps + 1} entries")
    mu = Trajectory(g, np.repeat(mu_t[:, None], g.size, axis=1))
    p = DualProblem(grid=g, mu=mu, s=s)
    phi = solve_dual(p)
    vol = g.cell_volume()
    lhs = 0.5 * float(grad_sq_stack(phi.data[0], g))
    lp = lap_stack(phi.data[:-1], g)
    lhs += float(g.tau * vol * np.sum(mu_t[:-1, None] * lp * lp))
    rhs = float(g.tau * vol * np.sum(lp * s.data[:-1]))
    scale = abs(lhs) + abs(rhs)
    gap = abs(lhs - rhs) / scale if scale > 0 else 0.0
    return EstimateReport(lhs=lhs, rhs=rhs, ratio=gap, passed=gap <= slack,
                          label=f"t-only energy identity, slack={slack}")
