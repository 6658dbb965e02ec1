"""Triangular cross-diffusion systems and kernel-to-Dirac studies."""

import re

import numpy as np
import pytest

from crossdifflab import skt as skt_mod
from crossdifflab.kolmo import CflViolation, NumericalBlowUp, steps_for
from crossdifflab.mollify import convolve_array, make_kernel
from crossdifflab.skt import (CoeffFamily, ConvergenceRow, ReactionFamily,
                              SktSpec, _smoothed_abs, converge_study,
                              evaluate_coeff, regularization_study,
                              solve_system, step)
from crossdifflab.torus import Field, GhostCells, make_grid, spacetime_norm


def _grid(n=32, t_final=0.02, hi=2.0, dim=1):
    return make_grid(dim, n, t_final, steps_for(dim, n, t_final, hi))


def _two_species(g, eps1=None, eps2=None, coeff1=None, s1=(1.0, 1.0)):
    x = np.arange(g.n) / g.n
    if g.dim == 2:
        x = np.add.outer(x, x).reshape(-1) / 2
    u1 = Field(g, 1.0 + 0.3 * np.cos(2 * np.pi * x))
    u2 = Field(g, 1.0 + 0.3 * np.sin(2 * np.pi * x))
    if coeff1 is None:
        coeff1 = CoeffFamily(kind="clamped_affine", d=1.0, c=(1.0,),
                             lo=0.5, hi=2.0)
    kernels = (make_kernel(g, eps1) if eps1 else None,
               make_kernel(g, eps2) if eps2 else None)
    return SktSpec(
        grid=g,
        coeffs=(coeff1, CoeffFamily(kind="constant", d=1.0)),
        reactions=(ReactionFamily(rho=1.0, s=s1),
                   ReactionFamily(rho=1.0, s=(0.0, 1.0))),
        kernels=kernels,
        init=(u1, u2))


def test_smoothed_abs_limits():
    y = np.linspace(-2, 2, 41)
    assert np.array_equal(_smoothed_abs(y, 0.0), np.abs(y))
    # converges to |y| and always dominates it
    for sigma in (0.5, 0.1, 0.01):
        sm = _smoothed_abs(y, sigma)
        assert np.all(sm >= np.abs(y) - 1e-12)
        assert np.abs(sm - np.abs(y)).max() < sigma
    # value at the kink is sigma*sqrt(2/pi), the mean of |N(0, sigma^2)|
    assert abs(_smoothed_abs(np.zeros(1), 0.3)[0]
               - 0.3 * np.sqrt(2 / np.pi)) < 1e-14


def test_coeff_families_evaluate():
    v = np.array([0.0, 1.0, 4.0])
    const = CoeffFamily(kind="constant", d=1.5)
    assert const.evaluate([]) == 1.5
    assert const.arity == 0 and const.lo == const.hi == 1.5

    aff = CoeffFamily(kind="clamped_affine", d=1.0, c=(1.0,), lo=0.5, hi=2.0)
    assert np.array_equal(aff.evaluate([v]), [1.0, 2.0, 2.0])

    rat = CoeffFamily(kind="rational_saturating", d=2.0, c=(1.0,),
                      lo=0.1, hi=3.0)
    assert np.allclose(rat.evaluate([v]), [2.0, 1.0, 0.4])

    kink = CoeffFamily(kind="kinked_affine", d=1.0, kink=2.0, pivot=1.0,
                       lo=0.5, hi=10.0)
    assert np.allclose(kink.evaluate([v]), [3.0, 1.0, 7.0])

    # no upper bound means no CFL step: the kind is gone
    with pytest.raises(ValueError, match="unknown coefficient kind"):
        CoeffFamily(kind="affine_floor_only", d=1.0, c=(-1.0,), lo=0.25)


def test_coeff_validation():
    with pytest.raises(ValueError, match="unknown coefficient kind"):
        CoeffFamily(kind="cubic", d=1.0)
    with pytest.raises(ValueError, match="positive"):
        CoeffFamily(kind="constant", d=0.0)
    with pytest.raises(ValueError, match="lo <= hi"):
        CoeffFamily(kind="clamped_affine", d=1.0, c=(1.0,), lo=2.0, hi=1.0)
    aff = CoeffFamily(kind="clamped_affine", d=1.0, c=(1.0,), lo=0.5, hi=2.0)
    with pytest.raises(ValueError, match="expects 1 argument"):
        aff.evaluate([np.zeros(3), np.zeros(3)])


def test_reaction_family():
    r = ReactionFamily(rho=1.0, s=(0.5, 2.0))
    out = r.evaluate([np.array([1.0]), np.array([0.25])])
    assert np.allclose(out, 1.0 - 0.5 - 0.5)
    with pytest.raises(ValueError, match=">= 0"):
        ReactionFamily(rho=1.0, s=(-1.0,))
    with pytest.raises(ValueError, match="expects 2"):
        r.evaluate([np.zeros(3)])


def test_spec_triangularity_enforced():
    g = _grid()
    u = Field.constant(g, 1.0)
    coeff_ok = CoeffFamily(kind="clamped_affine", d=1.0, c=(1.0,),
                           lo=0.5, hi=2.0)
    react = ReactionFamily(rho=0.0, s=(0.0, 0.0))
    # last coefficient must not read any species
    with pytest.raises(ValueError, match="coeff 1 must consume 0"):
        SktSpec(grid=g, coeffs=(coeff_ok, coeff_ok),
                reactions=(react, react), kernels=(None, None), init=(u, u))
    # first coefficient of a 2-species system must read exactly one species
    too_many = CoeffFamily(kind="clamped_affine", d=1.0, c=(1.0, 1.0),
                           lo=0.5, hi=2.0)
    const = CoeffFamily(kind="constant", d=1.0)
    with pytest.raises(ValueError, match="coeff 0"):
        SktSpec(grid=g, coeffs=(too_many, const),
                reactions=(react, react), kernels=(None, None), init=(u, u))
    # a clamped_affine of no species has arity 0, but is not constant-in-u
    with pytest.raises(ValueError, match="^last species coefficient must be "
                                         "constant-in-u$"):
        SktSpec(grid=g, coeffs=(coeff_ok, CoeffFamily(
                    kind="clamped_affine", d=1.0, c=(), lo=0.5, hi=2.0)),
                reactions=(react, react), kernels=(None, None), init=(u, u))
    with pytest.raises(ValueError, match="negative"):
        SktSpec(grid=g, coeffs=(coeff_ok, const),
                reactions=(react, react), kernels=(None, None),
                init=(Field.constant(g, -1.0), u))
    with pytest.raises(ValueError, match="all 2 species"):
        SktSpec(grid=g, coeffs=(coeff_ok, const),
                reactions=(ReactionFamily(rho=0.0, s=(0.0,)), react),
                kernels=(None, None), init=(u, u))


def test_evaluate_coeff_uses_smoothed_later_species():
    g = _grid()
    spec = _two_species(g, eps2=0.1)
    state = [f.values for f in spec.init]
    a1 = evaluate_coeff(spec, 0, state)
    # direct oracle: clamp(1 + rho_eps * u2, 0.5, 2)
    expect = np.clip(1.0 + convolve_array(state[1], spec.kernels[1]),
                     0.5, 2.0)
    assert np.allclose(a1, expect, atol=1e-14)
    assert evaluate_coeff(spec, 1, state) == 1.0


def test_solve_system_positive_and_bounded():
    g = _grid()
    spec = _two_species(g, eps1=0.1, eps2=0.1)
    sols = solve_system(spec)
    assert len(sols) == 2
    for t in sols:
        assert t.data.min() >= 0.0
        assert np.isfinite(spacetime_norm(t, "L2Q"))


def test_solve_system_cfl_guard():
    g = make_grid(1, 32, 1.0, 5)
    spec = _two_species(g)
    with pytest.raises(CflViolation):
        solve_system(spec)


def test_solve_system_blowup_guard():
    # exp(tau*rho) overflows: 0*inf is NaN where the prey is absent, and
    # NaN fails every comparison, so the guard must test "within the limit"
    g = _grid()
    spec = _two_species(g, s1=(1.0, 1.0))
    prey = np.where(np.arange(g.size) < g.size // 2, 0.0, 1.0)
    spec = SktSpec(grid=g, coeffs=spec.coeffs,
                   reactions=(ReactionFamily(rho=1e7, s=(1.0, 1.0)),
                              spec.reactions[1]),
                   kernels=spec.kernels,
                   init=(Field(g, prey), spec.init[1]))
    with pytest.raises(NumericalBlowUp) as exc, \
            np.errstate(over="ignore", invalid="ignore"):
        solve_system(spec)
    assert exc.value.step == 1


def test_logistic_spatially_uniform_oracle():
    # uniform data, no diffusion effect: each step multiplies by
    # exp(tau*(rho - u1 - u2)); compare against the scalar recursion
    g = _grid(t_final=0.05)
    u0 = 0.6
    spec = SktSpec(
        grid=g,
        coeffs=(CoeffFamily(kind="clamped_affine", d=1.0, c=(1.0,),
                            lo=0.5, hi=2.0),
                CoeffFamily(kind="constant", d=1.0)),
        reactions=(ReactionFamily(rho=1.0, s=(1.0, 1.0)),
                   ReactionFamily(rho=1.0, s=(1.0, 1.0))),
        kernels=(None, None),
        init=(Field.constant(g, u0), Field.constant(g, u0)))
    sols = solve_system(spec)
    u = np.full(2, u0)
    for _ in range(g.steps):
        u = u * np.exp(g.tau * (1.0 - u.sum()))
    assert np.abs(sols[0].data[-1] - u[0]).max() < 1e-12
    assert np.abs(sols[1].data[-1] - u[1]).max() < 1e-12


def test_last_species_decoupled_bit_identical():
    # r_2 reads u_2 only, so species 2 ignores species 1 entirely
    g = _grid()
    spec_a = _two_species(g, eps1=0.1)
    x = np.arange(g.n) / g.n
    bumped = Field(g, spec_a.init[0].values + 0.2 * np.cos(4 * np.pi * x))
    spec_b = SktSpec(grid=g, coeffs=spec_a.coeffs,
                     reactions=spec_a.reactions, kernels=spec_a.kernels,
                     init=(bumped, spec_a.init[1]))
    u2_a = solve_system(spec_a)[1]
    u2_b = solve_system(spec_b)[1]
    assert np.array_equal(u2_a.data, u2_b.data)


def test_step_matches_solve_system():
    g = _grid()
    spec = _two_species(g, eps1=0.15)
    state = [f.values.copy() for f in spec.init]
    state = step(spec, state)
    sols = solve_system(spec)
    assert np.allclose(sols[0].data[1], state[0], atol=1e-15)
    assert np.allclose(sols[1].data[1], state[1], atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_step_gives_the_march_bits_with_or_without_scratch(dim):
    # solve_system passes one ghost buffer and work array to every step;
    # a caller that passes none gets them made, and the same bits
    g = _grid(n=16, dim=dim)
    spec = _two_species(g, eps1=0.15)
    sols = solve_system(spec)
    state = [f.values.copy() for f in spec.init]
    scratch = GhostCells(g), np.empty(g.shape)
    for new in (step(spec, state), step(spec, state, scratch=scratch)):
        assert all(u.shape == (g.size,) for u in new)
        assert all(np.array_equal(sol.data[1], u)
                   for sol, u in zip(sols, new))


def test_converge_study_small():
    g = _grid(n=64)
    spec = _two_species(g)
    rows = converge_study(spec, [0.2, 0.1, 0.05])
    assert isinstance(rows, tuple)
    assert all(isinstance(r, ConvergenceRow) for r in rows)
    assert [r.eps for r in rows] == [0.2, 0.1, 0.05]
    d = np.array([r.distances for r in rows])
    assert np.all(d[1:] <= d[:-1])          # strictly improving here
    defects = [r.defect for r in rows]
    assert defects == sorted(defects, reverse=True)
    with pytest.raises(ValueError, match="identity kernels"):
        converge_study(_two_species(g, eps1=0.1), [0.2, 0.1])


@pytest.mark.parametrize("eps", [[0.1, 0.2], [0.2, 0.01]],
                         ids=["increasing", "under-resolved-last"])
def test_converge_study_checks_every_eps_before_solving(monkeypatch, eps):
    marches = []

    def counted(spec):
        marches.append(spec)
        return solve_system(spec)
    monkeypatch.setattr(skt_mod, "solve_system", counted)
    with pytest.raises(ValueError):
        converge_study(_two_species(_grid()), eps)
    assert marches == []


def test_regularization_study_converges():
    g = _grid(n=64, hi=3.0)
    kinked = CoeffFamily(kind="kinked_affine", d=1.0, kink=1.0, pivot=1.0,
                         lo=0.5, hi=3.0)
    spec = _two_species(g, coeff1=kinked)
    rows, ref_norms = regularization_study(spec, kink_strength=1.0,
                                           sigmas=(0.4, 0.2, 0.1))
    dists = [r.distances[0] for r in rows]
    assert dists == sorted(dists, reverse=True)
    assert dists[-1] < 0.05 * ref_norms[0]
    with pytest.raises(ValueError, match="no kinked"):
        regularization_study(_two_species(g), 1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, name", [
    (lambda x: CoeffFamily("constant", x), "d"),
    (lambda x: CoeffFamily("clamped_affine", x, c=(1.0,), lo=0.5, hi=2.0),
     "d"),
    (lambda x: CoeffFamily("clamped_affine", 1.0, c=(1.0, x), lo=0.5,
                           hi=2.0), "c[1]"),
    (lambda x: CoeffFamily("rational_saturating", 1.0, c=(1.0,), lo=x,
                           hi=2.0), "lo"),
    (lambda x: CoeffFamily("kinked_affine", 1.0, lo=0.5, hi=2.0, kink=x),
     "kink"),
    (lambda x: CoeffFamily("kinked_affine", 1.0, lo=0.5, hi=2.0, pivot=x),
     "pivot"),
    (lambda x: CoeffFamily("kinked_affine", 1.0, lo=0.5, hi=2.0, sigma=x),
     "sigma"),
    (lambda x: ReactionFamily(x, (1.0, 0.0)), "rho"),
    (lambda x: ReactionFamily(1.0, (0.0, x)), "s[1]"),
], ids=["constant-d", "d", "c", "lo", "kink", "pivot", "sigma", "rho", "s"])
@pytest.mark.parametrize("value", [
    NAN, INF, -INF, True, pytest.param("1", id="str"),
    pytest.param(10 ** 400, id="int-beyond-float")], ids=str)
def test_families_refuse_non_finite_numbers(make, name, value):
    # a NaN d used to pass `d <= 0` and end in NumericalBlowUp at step 1;
    # a bool passed as 0 or 1, and a string or an int beyond the float
    # range raised a TypeError from numpy
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "
                                         "finite"):
        make(value)


@pytest.mark.parametrize("hi", [True, "2", 10 ** 400],
                         ids=["True", "str", "int-beyond-float"])
def test_coeff_hi_must_be_a_real_number(hi):
    with pytest.raises(ValueError, match="^hi must not be NaN or a "
                                         "non-number"):
        CoeffFamily("clamped_affine", 1.0, c=(1.0,), lo=0.5, hi=hi)
    assert CoeffFamily("clamped_affine", 1.0, c=(1.0,), lo=0.5,
                       hi=np.float32(2.0)).hi == 2.0


def test_families_take_numpy_numbers():
    cf = CoeffFamily("clamped_affine", np.float32(1.0), c=(np.float64(1.0),),
                     lo=np.float32(0.5), hi=np.int64(2))
    assert cf.evaluate([np.zeros(3)]).tolist() == [1.0] * 3
    assert ReactionFamily(np.float32(0.5), (np.int64(0),)).rho == 0.5


def test_coeff_hi_may_be_unbounded_but_not_nan():
    with pytest.raises(ValueError, match="hi must not be NaN"):
        CoeffFamily("clamped_affine", 1.0, c=(1.0,), lo=0.5, hi=NAN)
    assert CoeffFamily("clamped_affine", 1.0, c=(1.0,), lo=0.5).hi == INF
