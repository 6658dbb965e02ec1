"""Triangular non-local cross-diffusion systems and their local limits.

Species i diffuses with coefficient a_i evaluated on the *smoothed*
densities of species i+1..I only (strict triangularity; the last species
has a constant coefficient), and reacts through r_i evaluated on the
smoothed densities of all species.  Replacing every kernel by the
identity gives the classical local system; `converge_study` measures the
distance between the two as the kernels shrink toward a Dirac mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kolmo import diffuse, march
from .mollify import convolve_array, dirac_defect, make_kernels
from .torus import GhostCells, Grid, Trajectory, is_real, spacetime_norm


def _smoothed_abs(y: np.ndarray, sigma: float) -> np.ndarray:
    """E|y + sigma*Z| for standard normal Z; equals |y| as sigma -> 0."""
    if sigma == 0.0:
        return np.abs(y)
    from scipy.special import erf  # scipy loads only for sigma > 0
    return (y * erf(y / (sigma * np.sqrt(2.0)))
            + sigma * np.sqrt(2.0 / np.pi) * np.exp(-y ** 2 / (2 * sigma ** 2)))


def _check_finite(**values) -> None:
    """A ValueError naming the first of the values that is NaN, +-inf or
    not a real number by torus.is_real."""
    for name, x in values.items():
        if not (is_real(x) and math.isfinite(x)):
            raise ValueError(f"{name} must be finite, got {x!r}")


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
        _check_finite(d=self.d, lo=self.lo, kink=self.kink, pivot=self.pivot,
                      sigma=self.sigma,
                      **{f"c[{j}]": cj for j, cj in enumerate(self.c)})
        if not is_real(self.hi) or math.isnan(self.hi):  # +inf: unbounded
            raise ValueError(f"hi must not be NaN or a non-number, "
                             f"got {self.hi!r}")
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
        if self.kind == "kinked_affine":
            raw = self.d + self.kink * _smoothed_abs(args[0] - self.pivot,
                                                     self.sigma)
        else:
            # sum_j c_j v_j from the first term, not from 0: one add fewer;
            # the two differ only in the sign of a zero, which d + . (or
            # 1 + .) and the clip to lo > 0 erase
            terms = [cj * aj for cj, aj in zip(self.c, args)]
            lin = sum(terms[1:], terms[0]) if terms else 0
            raw = (self.d + lin if self.kind == "clamped_affine"
                   else self.d / (1.0 + lin))
        # np.clip's result for lo <= hi, with less call overhead
        return np.minimum(np.maximum(raw, self.lo), self.hi)


@dataclass(frozen=True)
class ReactionFamily:
    """Lotka-Volterra row: r_i(v_1..v_I) = rho - sum_j s_j * v_j, s_j >= 0."""

    rho: float
    s: tuple

    def __post_init__(self):
        _check_finite(rho=self.rho,
                      **{f"s[{j}]": sj for j, sj in enumerate(self.s)})
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


def step(spec: SktSpec, state, out=None, scratch=None) -> list:
    """One explicit step; coefficients frozen at the incoming state.  The
    new state is written into `out` (one array per species, such as the
    rows of a 2-D array, none of them overlapping the state) when given,
    and returned.  `scratch` is a march's (GhostCells, work array of
    grid.shape) pair, made here when not given."""
    g = spec.grid
    if out is None:
        out = [np.empty(g.size) for _ in state]
    ghost, work = scratch or (GhostCells(g), np.empty(g.shape))
    scale = g.tau * g.n ** 2
    state = [u.reshape(g.shape) for u in state]
    smoothed = _smoothed_state(spec, state)
    # u_i <- (u_i + tau*Lap(a_i u_i)) * exp(tau*r_i)
    for i, (u, unew) in enumerate(zip(state, out)):
        unew = unew.reshape(g.shape)
        diffuse(u, spec.coeffs[i].evaluate(smoothed[i + 1:]), g, unew,
                ghost, scale)
        r = spec.reactions[i].evaluate(smoothed)
        np.multiply(r, g.tau, out=work)
        np.multiply(unew, np.exp(work, out=work), out=unew)
    return out


def solve_system(spec: SktSpec):
    """March the system over all time steps; returns one Trajectory per
    species.  Positivity is exact under the global CFL bound."""
    g = spec.grid
    out = np.empty((spec.species_count, g.steps + 1, g.size))
    for o, f in zip(out, spec.init):
        o[0] = f.values

    scratch = GhostCells(g), np.empty(g.shape)

    def advance(a, b):
        for k in range(a, b):
            step(spec, out[:, k], out[:, k + 1], scratch)

    march(g, spec.hi_max(), out, advance)
    return [Trajectory(g, o) for o in out]


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    defect: float        # second moment of the kernel at this eps
    distances: tuple     # per-species L2(Q_T) distance to the local run


def _distances(sol, ref) -> tuple:
    """The per-species L2(Q_T) distances of one run to the reference."""
    return tuple(spacetime_norm(s, "L2Q", minus=r) for s, r in zip(sol, ref))


def converge_study(spec_template: SktSpec, eps_list) -> tuple:
    """ConvergenceRows of the distance between the relaxed runs and the
    local (identity-kernel) limit run, one per kernel width in eps_list.
    Every width is checked before the first march."""
    if any(k is not None for k in spec_template.kernels):
        raise ValueError("template must use identity kernels")
    kernels = make_kernels(spec_template.grid, eps_list)
    ref = solve_system(spec_template)
    count = spec_template.species_count
    rows = []
    for kern in kernels:
        sol = solve_system(replace(spec_template, kernels=(kern,) * count))
        rows.append(ConvergenceRow(eps=kern.eps, defect=dirac_defect(kern),
                                   distances=_distances(sol, ref)))
    return tuple(rows)


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
        rows.append(RegularizationRow(sigma=float(sigma),
                                      distances=_distances(sol, ref)))
    return rows, ref_norms
