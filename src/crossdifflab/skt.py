"""Triangular non-local cross-diffusion systems and their local limits.

Species i diffuses with coefficient a_i evaluated on the *smoothed*
densities of species i+1..I only (strict triangularity; the last species
has a constant coefficient), and reacts through r_i evaluated on the
smoothed densities of all species.  Replacing every kernel by the
identity gives the classical local system; `converge_study` measures the
distance between the two as the kernels shrink toward a Dirac mass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf

from .kolmo import _check_cfl, _guard, _march_errstate
from .mollify import KernelSequence, convolve_array, dirac_defect, make_kernel
from .torus import Grid, Trajectory, lap_array, row_blocks, spacetime_norm


def _smoothed_abs(y: np.ndarray, sigma: float) -> np.ndarray:
    """E|y + sigma*Z| for standard normal Z; equals |y| as sigma -> 0."""
    if sigma == 0.0:
        return np.abs(y)
    return (y * erf(y / (sigma * np.sqrt(2.0)))
            + sigma * np.sqrt(2.0 / np.pi) * np.exp(-y ** 2 / (2 * sigma ** 2)))


@dataclass(frozen=True)
class CoeffFamily:
    """Bounded continuous diffusion coefficient a_i.

    kinds:
      constant            -- a = d (lo = hi = d)
      clamped_affine      -- a = clip(d + sum_j c_j * v_j, lo, hi)
      rational_saturating -- a = clip(d / (1 + sum_j c_j * v_j), lo, hi)
      kinked_affine       -- a = clip(d + kink*|v_1 - pivot|, lo, hi);
                             sigma > 0 smooths the |.| kink in its argument
    """

    kind: str
    d: float
    c: tuple = ()
    lo: float = 0.0
    hi: float = np.inf
    kink: float = 0.0
    pivot: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "clamped_affine",
                             "rational_saturating", "kinked_affine"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "constant":
            if self.d <= 0:
                raise ValueError("constant coefficient must be positive")
            object.__setattr__(self, "lo", self.d)
            object.__setattr__(self, "hi", self.d)
            return
        if not (0.0 < self.lo <= self.hi):
            raise ValueError(f"need 0 < lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def arity(self) -> int:
        if self.kind == "constant":
            return 0
        if self.kind == "kinked_affine":
            return 1
        return len(self.c)

    def evaluate(self, args) -> np.ndarray | float:
        if self.kind == "constant":
            return self.d
        if len(args) != self.arity:
            raise ValueError(
                f"{self.kind} expects {self.arity} arguments, got {len(args)}")
        if self.kind == "clamped_affine":
            raw = self.d + sum(cj * aj for cj, aj in zip(self.c, args))
        elif self.kind == "rational_saturating":
            raw = self.d / (1.0 + sum(cj * aj
                                      for cj, aj in zip(self.c, args)))
        else:  # kinked_affine
            raw = self.d + self.kink * _smoothed_abs(args[0] - self.pivot,
                                                     self.sigma)
        # np.clip's result for lo <= hi, with less call overhead
        return np.minimum(np.maximum(raw, self.lo), self.hi)


@dataclass(frozen=True)
class ReactionFamily:
    """Lotka-Volterra row: r_i(v_1..v_I) = rho - sum_j s_j * v_j, s_j >= 0."""

    rho: float
    s: tuple

    def __post_init__(self):
        if any(sj < 0 for sj in self.s):
            raise ValueError("competition coefficients must be >= 0")

    def evaluate(self, args) -> np.ndarray:
        if len(args) != len(self.s):
            raise ValueError(
                f"reaction expects {len(self.s)} arguments, got {len(args)}")
        terms = [sj * aj for sj, aj in zip(self.s, args) if sj != 0.0]
        if not terms:
            return np.full_like(np.asarray(args[0], dtype=np.float64),
                                self.rho)
        out = np.subtract(self.rho, terms[0])
        for t in terms[1:]:
            out -= t
        return out


@dataclass(frozen=True)
class SktSpec:
    grid: Grid
    coeffs: tuple       # CoeffFamily, one per species
    reactions: tuple    # ReactionFamily, one per species
    kernels: tuple      # Kernel or None (identity) per species
    init: tuple         # non-negative Field per species

    def __post_init__(self):
        I = len(self.coeffs)
        if not (len(self.reactions) == len(self.kernels)
                == len(self.init) == I):
            raise ValueError("species lists must have equal length")
        for i, cf in enumerate(self.coeffs):
            # strict triangularity: coeff i reads species i+1..I only
            if cf.arity != I - 1 - i and not (
                    cf.kind == "constant" and cf.arity == 0):
                raise ValueError(
                    f"coeff {i} must consume {I - 1 - i} smoothed species, "
                    f"takes {cf.arity}")
        if self.coeffs[-1].kind not in ("constant",):
            raise ValueError("last species coefficient must be constant-in-u")
        for i, r in enumerate(self.reactions):
            if len(r.s) != I:
                raise ValueError(f"reaction {i} must take all {I} species")
        for i, f in enumerate(self.init):
            if f.values.min() < 0:
                raise ValueError(f"initial data for species {i} is negative")

    @property
    def species_count(self) -> int:
        return len(self.coeffs)

    def hi_max(self) -> float:
        return max(cf.hi for cf in self.coeffs)


def _smoothed_state(spec: SktSpec, state) -> list:
    return [convolve_array(u, k) if k is not None else u
            for u, k in zip(state, spec.kernels)]


def evaluate_coeff(spec: SktSpec, i: int, state):
    """Coefficient field for species i (0-based) at the given state."""
    return spec.coeffs[i].evaluate(_smoothed_state(spec, state)[i + 1:])


def step(spec: SktSpec, state, out=None) -> list:
    """One explicit step; coefficients frozen at the incoming state.  The
    new state is written into `out` (one array per species, such as the
    rows of a 2-D array, none of them overlapping the state) when given,
    and returned."""
    g = spec.grid
    tau = g.tau
    if out is None:
        out = [np.empty(g.size) for _ in state]
    smoothed = _smoothed_state(spec, state)
    flux, work = np.empty((2, g.size))
    # u_i <- (u_i + tau*Lap(a_i u_i)) * exp(tau*r_i)
    for i, (u, unew) in enumerate(zip(state, out)):
        a = spec.coeffs[i].evaluate(smoothed[i + 1:])
        np.multiply(a, u, out=flux)
        np.multiply(lap_array(flux, g, work), tau, out=work)
        np.add(u, work, out=unew)
        r = spec.reactions[i].evaluate(smoothed)
        np.multiply(r, tau, out=work)
        np.multiply(unew, np.exp(work, out=work), out=unew)
    return out


def solve_system(spec: SktSpec):
    """March the system over all time steps; returns one Trajectory per
    species.  Positivity is exact under the global CFL bound."""
    g = spec.grid
    _check_cfl(g, spec.hi_max())
    out = np.empty((spec.species_count, g.steps + 1, g.size))
    for o, f in zip(out, spec.init):
        o[0] = f.values
    with _march_errstate():
        for a, b in row_blocks(g.steps, g.size):
            for k in range(a, b):
                step(spec, out[:, k], out[:, k + 1])
            _guard(out[:, a + 1:b + 1], range(a + 1, b + 1))
    return [Trajectory(g, o) for o in out]


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    defect: float        # second moment of the kernel at this eps
    distances: tuple     # per-species L2(Q_T) distance to the local run


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple

    def __post_init__(self):
        KernelSequence.check_order([r.eps for r in self.rows])


def _with_kernels(spec: SktSpec, kernels) -> SktSpec:
    return replace(spec, kernels=tuple(kernels))


def converge_study(spec_template: SktSpec, eps_list) -> ConvergenceTable:
    """Distance between the relaxed runs and the local (identity-kernel)
    limit run, for each kernel width in eps_list.  Every width is checked
    before the first march."""
    if any(k is not None for k in spec_template.kernels):
        raise ValueError("template must use identity kernels")
    kernels = KernelSequence(make_kernel(spec_template.grid, eps)
                             for eps in eps_list)
    ref = solve_system(spec_template)
    rows = []
    for kern in kernels:
        sol = solve_system(_with_kernels(
            spec_template, [kern] * spec_template.species_count))
        dists = tuple(spacetime_norm(s, "L2Q", minus=r)
                      for s, r in zip(sol, ref))
        rows.append(ConvergenceRow(eps=kern.eps, defect=dirac_defect(kern),
                                   distances=dists))
    return ConvergenceTable(rows=tuple(rows))


@dataclass(frozen=True)
class RegularizationRow:
    sigma: float
    distances: tuple


def regularization_study(spec: SktSpec, kink_strength: float,
                         sigmas=(0.2, 0.1, 0.05)):
    """Solve with a kinked (merely Lipschitz) coefficient and with
    argument-smoothed versions of it; returns per-sigma distances plus
    the reference solution norms."""
    if all(cf.kind != "kinked_affine" for cf in spec.coeffs):
        raise ValueError("spec has no kinked coefficient family")

    def kinked(base: SktSpec, **changes) -> SktSpec:
        return replace(base, coeffs=tuple(
            replace(cf, **changes) if cf.kind == "kinked_affine" else cf
            for cf in base.coeffs))

    base_spec = kinked(spec, kink=float(kink_strength), sigma=0.0)
    ref = solve_system(base_spec)
    ref_norms = tuple(spacetime_norm(t, "L2Q") for t in ref)
    rows = []
    for sigma in sigmas:
        sol = solve_system(kinked(base_spec, sigma=float(sigma)))
        dists = tuple(spacetime_norm(s, "L2Q", minus=r)
                      for s, r in zip(sol, ref))
        rows.append(RegularizationRow(sigma=float(sigma), distances=dists))
    return rows, ref_norms
