"""Triangular non-local cross-diffusion systems and their local limits.

Species i diffuses with coefficient a_i evaluated on the *smoothed*
densities of species i+1..I only (strict triangularity; the last species
has a constant coefficient), and reacts through r_i evaluated on the
smoothed densities of all species.  Replacing every kernel by the
identity gives the classical local system; `converge_study` measures the
distance between the two as the kernels shrink toward a Dirac mass.  The
studies keep their reference run only: every other run streams each
species' rows through the march into its own torus.SpacetimeNorm, the L2Q
norm of its difference to the reference (kolmo.split).

The explicit step is species-stacked: its buffers have one row per
species, shape (I, n^dim), and every operation that does not read another
species runs once on the stack.  A march makes one step plan
(StepScratch), which binds what every step looks up: the buffers, the
relaxed species' kernels, each varying coefficient row with its family's
evaluation body, and each reaction with its row.  The constants of the
hot loop (tau, tau*n^2, the families' d, lo, hi, c_j, rho and s_j) are
float64 0-d arrays made once, which numpy takes faster than Python
floats, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kolmo import diffuse, keep, march, split, window_rows
from .mollify import convolve_array, dirac_defect, make_kernels
from .torus import (GhostCells, Grid, SpacetimeNorm, Trajectory, is_real,
                    spacetime_norm)


def _zero_d(x) -> np.ndarray:
    """x as a read-only 0-d float64 array."""
    a = np.array(float(x))
    a.flags.writeable = False
    return a


_ONE = _zero_d(1.0)


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
        if self.sigma < 0:   # E|y + sigma Z| takes sigma >= 0
            raise ValueError(f"sigma must be >= 0, got {self.sigma!r}")
        if self.kind == "constant":
            if self.d <= 0:
                raise ValueError("constant coefficient must be positive")
            object.__setattr__(self, "lo", self.d)
            object.__setattr__(self, "hi", self.d)
        elif not (0.0 < self.lo <= self.hi):
            raise ValueError(f"need 0 < lo <= hi, got [{self.lo}, {self.hi}]")
        # the operands of evaluate as 0-d arrays (see the module docstring)
        for name in ("d", "lo", "hi"):
            object.__setattr__(self, f"_{name}", _zero_d(getattr(self, name)))
        object.__setattr__(self, "_c", tuple(map(_zero_d, self.c)))

    @property
    def arity(self) -> int:
        if self.kind == "constant":
            return 0
        if self.kind == "kinked_affine":
            return 1
        return len(self.c)

    def evaluate(self, args, out=None) -> np.ndarray | float:
        """a at the smoothed densities `args` (species i+1..I), written
        into `out` when one is given; the constant kind returns d."""
        if self.kind == "constant":
            return self.d
        if len(args) != self.arity:
            raise ValueError(
                f"{self.kind} expects {self.arity} arguments, got {len(args)}")
        return self.body(args, out)

    @property
    def body(self):
        """evaluate of a non-constant kind without its checks: the method
        of the kind, taking (args, out) with len(args) == arity.  A march
        looks it up once (StepScratch)."""
        return getattr(self, "_" + self.kind)

    def _linear(self, args):
        # sum_j c_j v_j from the first term, not from 0: one add fewer;
        # the two differ only in the sign of a zero, which d + . (or
        # 1 + .) and the clip to lo > 0 erase
        c = self._c
        lin = c[0] * args[0] if c else 0
        for j in range(1, len(c)):
            lin = lin + c[j] * args[j]
        return lin

    # np.clip's result for lo <= hi, with less call overhead; `out`, when
    # given, takes the maximum too
    def _clamped_affine(self, args, out):
        return np.minimum(np.maximum(self._d + self._linear(args), self._lo,
                                     out=out), self._hi, out=out)

    def _rational_saturating(self, args, out):
        return np.minimum(np.maximum(self._d / (_ONE + self._linear(args)),
                                     self._lo, out=out), self._hi, out=out)

    def _kinked_affine(self, args, out):
        raw = self._d + self.kink * _smoothed_abs(args[0] - self.pivot,
                                                  self.sigma)
        return np.minimum(np.maximum(raw, self._lo, out=out), self._hi,
                          out=out)


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
        # the operands of evaluate as 0-d arrays (see the module
        # docstring): rho and the (j, s_j) of the non-zero s_j
        object.__setattr__(self, "_rho", _zero_d(self.rho))
        object.__setattr__(self, "_terms", tuple(
            (j, _zero_d(sj)) for j, sj in enumerate(self.s) if sj != 0.0))

    def evaluate(self, args) -> np.ndarray:
        if len(args) != len(self.s):
            raise ValueError(
                f"reaction expects {len(self.s)} arguments, got {len(args)}")
        terms = self._terms
        if not terms:
            return np.full_like(np.asarray(args[0], dtype=np.float64),
                                self.rho)
        j, sj = terms[0]
        out = np.subtract(self._rho, sj * args[j])
        for j, sj in terms[1:]:
            out -= sj * args[j]
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


def evaluate_coeff(spec: SktSpec, i: int, state):
    """Coefficient field for species i (0-based) at the given state."""
    smoothed = [convolve_array(u, k) if k is not None else u
                for u, k in zip(state, spec.kernels)]
    return spec.coeffs[i].evaluate(smoothed[i + 1:])


class StepScratch:
    """The step plan of one march of `spec`: what every step looks up,
    bound once.  It holds its spec; the (species, kernel) pairs of the
    relaxed species; a ghost-cell buffer with one row per species (the
    stencil runs on its row views); the coefficient rows, whose constant
    ones are filled here, and the varying ones bound to their family's
    `body`, whose arity SktSpec checked; the (evaluate, row) pairs of the
    reactions and their rows of tau*r_i; and tau and tau*n^2 as 0-d
    arrays."""

    def __init__(self, spec: SktSpec):
        g = spec.grid
        self.spec, self.grid = spec, g
        self.shape = (spec.species_count,) + g.shape
        self.species = range(spec.species_count)
        self.kernels = [(i, k) for i, k in enumerate(spec.kernels)
                        if k is not None]
        self.ghost = GhostCells(g, self.shape[:1])
        self.coeff = np.empty(self.shape)
        self.varying = []   # (i, body, row) of the non-constant rows
        for i, (row, cf) in enumerate(zip(self.coeff, spec.coeffs)):
            if cf.kind == "constant":
                row[...] = cf.d
            else:
                self.varying.append((i, cf.body, row))
        self.rate = np.empty(self.shape)
        self.reactions = [(r.evaluate, row)
                          for r, row in zip(spec.reactions, self.rate)]
        self.tau = np.array(g.tau)
        self.scale = np.array(g.tau * g.n ** 2)


def step(spec: SktSpec, state, out=None, scratch=None) -> np.ndarray:
    """One explicit step of all species at once; coefficients frozen at
    the incoming state.  `state` holds one row per species, flat or of
    grid.shape; the new state is written into `out`, an array of the same
    shape not overlapping the state, made here when not given, and
    returned.  `scratch` is the march's StepScratch of this spec, made
    here when not given; one made for another spec is a ValueError.  A
    march hands the plan and (I, *grid.shape) arrays, which go to the
    arithmetic as they are.

    Every operation that does not read another species runs once on the
    (I, ...) stack: the coefficient times state product, the add that ends
    the diffusion update, the exp and the product with it.  Each species
    still has its own convolution (relaxed species), coefficient, stencil
    call and reaction, with the bits of a step species by species."""
    plan = StepScratch(spec) if scratch is None else scratch
    if plan.spec is not spec:
        raise ValueError("scratch is the StepScratch of another SktSpec: "
                         "its kernels and coefficient rows are not this "
                         "spec's")
    u, new = state, out
    if out is None or type(state) is not np.ndarray \
            or state.shape != plan.shape:
        state = np.asarray(state)
        if out is None:
            out = np.empty(state.shape)
        u, new = state.reshape(plan.shape), out.reshape(plan.shape)
    smoothed = [u[i] for i in plan.species]
    for i, kern in plan.kernels:
        smoothed[i] = convolve_array(smoothed[i], kern)
    # u_i <- (u_i + tau*Lap(a_i u_i)) * exp(tau*r_i)
    for i, body, row in plan.varying:
        body(smoothed[i + 1:], row)
    diffuse(u, plan.coeff, plan.grid, new, plan.ghost, plan.scale)
    for evaluate, rate in plan.reactions:
        np.multiply(evaluate(smoothed), plan.tau, rate)
    np.multiply(new, np.exp(plan.rate, plan.rate), new)
    return out


def solve_system(spec: SktSpec, consume=None):
    """March the system over all time steps; returns one Trajectory per
    species.  Positivity is exact under the global CFL bound.  With
    `consume`, the march streams the (I, rows, n^dim) blocks of the
    trajectories to it (see kolmo.march), keeps none of them and returns
    None."""
    g = spec.grid
    out = np.empty((spec.species_count, g.steps + 1, g.size)) \
        if consume is None else None   # first, as in solve_forward
    scratch = StepScratch(spec)
    rows = window_rows(g)   # the (I, *grid.shape) state of each step

    def advance(a, b, window):
        states = rows(window)
        for state, new in zip(states, states[1:]):
            step(spec, state, new, scratch)

    march(g, spec.hi_max(), np.stack([f.values for f in spec.init]),
          advance, consume if out is None else keep(out))
    return None if out is None else [Trajectory(g, o) for o in out]


def _distances(spec: SktSpec, ref) -> tuple:
    """The L2(Q_T) distance of each species of spec's run, streamed, to its
    Trajectory in `ref`."""
    norms = [SpacetimeNorm(spec.grid, "L2Q", minus=r) for r in ref]
    solve_system(spec, split(*norms))
    return tuple(acc.value() for acc in norms)


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    defect: float        # second moment of the kernel at this eps
    distances: tuple     # per-species L2(Q_T) distance to the local run


def converge_study(spec_template: SktSpec, eps_list) -> tuple:
    """ConvergenceRows of the distance between the relaxed runs and the
    local (identity-kernel) limit run, one per kernel width in eps_list.
    Every width is checked before the first march."""
    if any(k is not None for k in spec_template.kernels):
        raise ValueError("template must use identity kernels")
    kernels = make_kernels(spec_template.grid, eps_list)
    ref = solve_system(spec_template)
    count = spec_template.species_count
    return tuple(ConvergenceRow(
        eps=kern.eps, defect=dirac_defect(kern), distances=_distances(
            replace(spec_template, kernels=(kern,) * count), ref))
        for kern in kernels)


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
    sigmas = tuple(sigmas)
    _check_finite(kink_strength=kink_strength,
                  **{f"sigmas[{j}]": sj for j, sj in enumerate(sigmas)})

    def kinked(base: SktSpec, **changes) -> SktSpec:
        return replace(base, coeffs=tuple(
            replace(cf, **changes) if cf.kind == "kinked_affine" else cf
            for cf in base.coeffs))

    base_spec = kinked(spec, kink=float(kink_strength), sigma=0.0)
    # every smoothed spec (a sigma < 0 is refused) before the first march
    specs = [kinked(base_spec, sigma=float(sigma)) for sigma in sigmas]
    ref = solve_system(base_spec)
    ref_norms = tuple(spacetime_norm(t, "L2Q") for t in ref)
    return [RegularizationRow(sigma=float(sigma),
                              distances=_distances(smoothed, ref))
            for sigma, smoothed in zip(sigmas, specs)], ref_norms
