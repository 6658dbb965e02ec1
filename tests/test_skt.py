"""Triangular cross-diffusion systems and kernel-to-Dirac studies."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdifflab import skt as skt_mod
from crossdifflab.kolmo import CflViolation, NumericalBlowUp, steps_for
from crossdifflab.mollify import convolve_array, make_kernel
from crossdifflab.skt import (CoeffFamily, ConvergenceRow, ReactionFamily,
                              SktSpec, StepScratch, _smoothed_abs,
                              converge_study, evaluate_coeff,
                              regularization_study, solve_system, step)
from crossdifflab.torus import Field, make_grid, spacetime_norm
from test_marches import MARCH, _skt_case, blocked_grids


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


@settings(MARCH, max_examples=60)
@given(blocked_grids(),
       st.sampled_from(("clamped_affine", "rational_saturating",
                        "kinked_affine")),
       st.sampled_from((None, 0.25)),
       st.sampled_from(((1.0, 0.5), (0.0, 1.0), (0.0, 0.0))),
       st.sampled_from((2, 3)))
def test_steps_with_one_plan_are_solve_system(case, kind, eps, s0, species):
    # K calls of step, all with one plan and (I, *grid.shape) arrays, give
    # the march's trajectory bit for bit; every kind, the constant one as
    # the last species, with and without kernels, 2 and 3 species, 1-D
    # and 2-D
    g, _, mu_hi, rng = case
    spec = _skt_case(g, rng, mu_hi, kind, eps, s0, species)
    sols = solve_system(spec)
    plan = StepScratch(spec)
    states = np.empty((g.steps + 1, species) + g.shape)
    states[0] = np.stack([f.reshaped() for f in spec.init])
    for state, new in zip(states[:-1], states[1:]):
        assert step(spec, state, new, plan) is new
    assert all(np.array_equal(sol.data, states[:, i].reshape(sol.data.shape))
               for i, sol in enumerate(sols))


def test_step_refuses_the_plan_of_another_spec():
    # a plan holds its spec's kernels and coefficient rows: one made for
    # another spec would step with them, so it is refused
    g = _grid(n=16)
    spec, other = _two_species(g, eps1=0.15), _two_species(g, eps2=0.15)
    state = np.stack([f.values for f in spec.init])
    for out, rows in ((np.empty_like(state), state), (None, list(state))):
        with pytest.raises(ValueError, match="StepScratch of another "
                                             "SktSpec"):
            step(spec, rows, out, StepScratch(other))
    # an equal spec is another object, and so another spec's plan
    with pytest.raises(ValueError, match="another SktSpec"):
        step(replace(spec), state, scratch=StepScratch(spec))


@pytest.mark.parametrize("dim", [1, 2])
def test_step_gives_the_march_bits_with_or_without_scratch(dim):
    # solve_system passes one StepScratch to every step; a caller that
    # passes none gets one made, and the same bits
    g = _grid(n=16, dim=dim)
    spec = _two_species(g, eps1=0.15)
    sols = solve_system(spec)
    state = [f.values.copy() for f in spec.init]
    scratch = StepScratch(spec)
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


@pytest.mark.parametrize("kink, sigmas, name", [
    ("1", (0.2,), "kink_strength"), (True, (0.2,), "kink_strength"),
    (float("nan"), (0.2,), "kink_strength"),
    (1.0, ("0.1",), "sigmas[0]"), (1.0, (0.2, True), "sigmas[1]")], ids=repr)
def test_regularization_study_refuses_loose_scalars(kink, sigmas, name,
                                                    monkeypatch):
    # "1" and True went through float(): sigmas ("0.1", True) ran with
    # sigma 0.1 and 1.0; each is refused before the first solve
    kinked = CoeffFamily(kind="kinked_affine", d=1.0, kink=1.0, pivot=1.0,
                         lo=0.5, hi=3.0)
    spec = _two_species(_grid(n=16, hi=3.0), coeff1=kinked)
    monkeypatch.setattr(skt_mod, "solve_system", None)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite"):
        regularization_study(spec, kink, sigmas)


def test_negative_sigma_is_refused(monkeypatch):
    # E|y + sigma Z| took the sign of sigma: at v = 0.8, sigma = -0.1 gave
    # 0.70 where sigma = 0.1 gives 1.30, and regularization_study passed it
    msg = r"^sigma must be >= 0, got -0\.1$"
    with pytest.raises(ValueError, match=msg):
        CoeffFamily("kinked_affine", 1.0, kink=1.0, pivot=0.5, lo=0.5,
                    hi=3.0, sigma=-0.1)
    kinked = CoeffFamily(kind="kinked_affine", d=1.0, kink=1.0, pivot=1.0,
                         lo=0.5, hi=3.0)
    spec = _two_species(_grid(n=16, hi=3.0), coeff1=kinked)
    monkeypatch.setattr(skt_mod, "solve_system", None)
    with pytest.raises(ValueError, match=msg):   # before the first solve
        regularization_study(spec, 1.0, (0.2, -0.1))
    smooth = CoeffFamily("kinked_affine", 1.0, kink=1.0, pivot=0.5, lo=0.5,
                         hi=3.0, sigma=0.1)
    assert abs(smooth.evaluate([np.array([0.8])])[0] - 1.30) < 0.01


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


def test_spec_refuses_species_lists_of_unequal_length():
    g = _grid()
    spec = _two_species(g)
    for name in ("coeffs", "reactions", "kernels", "init"):
        with pytest.raises(ValueError, match="^species lists must have "
                                             "equal length$"):
            replace(spec, **{name: getattr(spec, name)[:1]})


def _bits(a):
    """The bits of a float64 or complex128 array, as int64."""
    return np.ascontiguousarray(a).view(np.int64)


SENTINEL = -7.25   # no family below evaluates to it

FAMILIES = {
    "constant": CoeffFamily("constant", 1.5),
    "clamped_affine-1": CoeffFamily("clamped_affine", 1.0, c=(1.0,),
                                    lo=0.5, hi=2.0),
    "clamped_affine-2": CoeffFamily("clamped_affine", 0.75, c=(0.5, -1.25),
                                    lo=0.25, hi=3.0),
    "clamped_affine-3": CoeffFamily("clamped_affine", 1.0,
                                    c=(0.3, 0.7, -0.2), lo=0.5, hi=INF),
    "rational_saturating-1": CoeffFamily("rational_saturating", 2.0,
                                         c=(1.0,), lo=0.1, hi=3.0),
    "rational_saturating-2": CoeffFamily("rational_saturating", 1.5,
                                         c=(0.25, 2.0), lo=0.2, hi=1.0),
    "rational_saturating-3": CoeffFamily("rational_saturating", 3.0,
                                         c=(0.1, 0.6, 1.3), lo=0.3, hi=2.5),
    "kinked_affine-sigma0": CoeffFamily("kinked_affine", 1.0, kink=2.0,
                                        pivot=1.0, lo=0.5, hi=10.0),
    "kinked_affine-sigma": CoeffFamily("kinked_affine", 1.0, kink=1.5,
                                       pivot=0.8, sigma=0.3, lo=0.5,
                                       hi=4.0),
    "reaction-some-zero": ReactionFamily(rho=1.0, s=(0.5, 0.0, 2.0)),
    "reaction-first-zero": ReactionFamily(rho=0.5, s=(0.0, 1.0)),
    "reaction-all-zero": ReactionFamily(rho=0.75, s=(0.0, 0.0)),
}


def _arity(family):
    return family.arity if isinstance(family, CoeffFamily) \
        else len(family.s)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.sampled_from(((1,), (7,), (16,), (4, 4), (3, 5))),
       st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("name", list(FAMILIES))
def test_evaluate_into_out_is_evaluate(name, shape, seed):
    # evaluate(args, out) writes the bits of evaluate(args) into out, the
    # middle row of a sentinel buffer, returns it, and writes nothing
    # else: neither the rows beside it nor its arguments
    family = FAMILIES[name]
    rng = np.random.default_rng(seed)
    args = list(rng.uniform(0.0, 3.0, (_arity(family),) + shape))
    before = [a.copy() for a in args]
    want = np.broadcast_to(family.evaluate(args), shape)
    buf = np.full((3,) + shape, SENTINEL)
    out = buf[1]
    assert family.evaluate(args, out) is out
    assert np.array_equal(_bits(out), _bits(want))
    assert np.all(buf[0] == SENTINEL) and np.all(buf[2] == SENTINEL)
    assert all(np.array_equal(_bits(a), _bits(b))
               for a, b in zip(args, before))


def _step_inputs(spec):
    """Every array a step reads besides its state: the initial fields, the
    kernels' values, FFTs and circulant matrices, and the families' 0-d
    operands."""
    arrays = [f.values for f in spec.init]
    for k in {id(k): k for k in spec.kernels if k is not None}.values():
        arrays += [k.values.values, k.fft()]
        arrays += [] if k._circulant is None else [k._circulant]
    for cf in spec.coeffs:
        arrays += [cf._d, cf._lo, cf._hi, *cf._c]
    for r in spec.reactions:
        arrays += [r._rho, *(sj for _, sj in r._terms)]
    return arrays


@settings(MARCH, max_examples=40)
@given(blocked_grids(),
       st.sampled_from(("clamped_affine", "rational_saturating",
                        "kinked_affine")),
       st.sampled_from((None, 0.25)),
       st.sampled_from(((1.0, 0.5), (0.0, 1.0), (0.0, 0.0))),
       st.sampled_from((2, 3)))
def test_a_step_leaves_its_state_kernels_and_families_unchanged(
        case, kind, eps, s0, species):
    # the plan writes the convolutions, coefficients and reactions into its
    # own rows; with identity kernels the smoothed rows are the state's own
    # rows, which a write there would corrupt.  Two steps from one state
    # with one plan give the same bits: the plan carries nothing over
    g, _, mu_hi, rng = case
    spec = _skt_case(g, rng, mu_hi, kind, eps, s0, species)
    plan = StepScratch(spec)
    state = np.stack([f.reshaped() for f in spec.init])
    watched = [state] + _step_inputs(spec)
    before = [a.copy() for a in watched]
    first, second = np.empty((2,) + state.shape)
    assert step(spec, state, first, plan) is first
    assert step(spec, state, second, plan) is second
    assert np.array_equal(_bits(first), _bits(second))
    assert all(np.array_equal(_bits(a), _bits(b))
               for a, b in zip(watched, before))
