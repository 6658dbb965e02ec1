"""The explicit marches write in place: one stencil call per species per
step, and the problem's own arrays are never written.  Marched over blocks
of steps, they give the bits and the blow-up step of the plain per-step
loops kept here as references."""

import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdifflab import dual, kolmo, skt, torus
from crossdifflab.dual import DualProblem, solve_dual
from crossdifflab.kolmo import (BLOWUP_LIMIT, KolmogorovProblem,
                                NumericalBlowUp, cfl_timestep, solve_forward,
                                steps_for)
from crossdifflab.mollify import make_kernel
from crossdifflab.skt import (CoeffFamily, ReactionFamily, SktSpec,
                              solve_system)
from crossdifflab.torus import (BlockSource, Field, Trajectory, dump_slices,
                                dump_trajectory, lap_stack, make_grid)


def _grid(dim):
    return make_grid(dim, 16, 0.002, steps_for(dim, 16, 0.002, 2.0))


def _traj(g, rng, lo, hi):
    return Trajectory(g, rng.uniform(lo, hi, (g.steps + 1, g.size)))


def _forward(g, rng, mode):
    return KolmogorovProblem(grid=g, mu=_traj(g, rng, 0.5, 2.0),
                             z0=Field(g, rng.uniform(0.0, 1.0, g.size)),
                             **{mode: _traj(g, rng, -1.0, 1.0)})


def _skt_spec(g, rng, eps):
    kern = make_kernel(g, eps) if eps else None
    return SktSpec(
        grid=g,
        coeffs=(CoeffFamily(kind="clamped_affine", d=1.0, c=(1.0,),
                            lo=0.5, hi=2.0),
                CoeffFamily(kind="constant", d=1.0)),
        reactions=(ReactionFamily(rho=1.0, s=(1.0, 1.0)),
                   ReactionFamily(rho=1.0, s=(0.0, 1.0))),
        kernels=(kern, kern),
        init=tuple(Field(g, rng.uniform(0.5, 1.5, g.size))
                   for _ in range(2)))


def _count_stencil_calls(monkeypatch, module):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return torus.lap_array(*args, **kwargs)

    monkeypatch.setattr(module, "lap_array", counted)
    return calls


@pytest.mark.parametrize("dim", [1, 2])
def test_one_stencil_call_per_species_per_step(monkeypatch, dim):
    g = _grid(dim)
    rng = np.random.default_rng(dim)
    calls = _count_stencil_calls(monkeypatch, kolmo)
    for mode in ("source", "reaction"):
        solve_forward(_forward(g, rng, mode))
    assert len(calls) == 2 * g.steps

    calls = _count_stencil_calls(monkeypatch, dual)
    solve_dual(DualProblem(grid=g, mu=_traj(g, rng, 0.5, 2.0),
                           s=_traj(g, rng, -1.0, 1.0)))
    assert len(calls) == g.steps

    calls = _count_stencil_calls(monkeypatch, skt)
    for eps in (None, 0.25):
        solve_system(_skt_spec(g, rng, eps))
    assert len(calls) == 2 * 2 * g.steps


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_window_rows_are_the_steps_with_the_species_first(dim, lead):
    # row k of a window lead + (count, size) of the march's buffer is step
    # k of every species, a grid-shaped view of the window; one list per
    # window length
    g = _grid(dim)
    rows = kolmo.window_rows(g)
    buf = np.arange(np.prod(lead + (4, g.size)),
                    dtype=float).reshape(lead + (4, g.size))
    for count in (4, 2, 4):
        window = buf[..., :count, :]
        got = rows(window)
        assert len(got) == count
        for k, row in enumerate(got):
            assert row.shape == lead + g.shape
            assert np.shares_memory(row, window)
            assert np.array_equal(row, window[..., k, :].reshape(row.shape))
    assert rows(window) is got


def _snapshot(*arrays):
    return [a.copy() for a in arrays]


def _unchanged(before, arrays):
    return all(np.array_equal(b, a) for b, a in zip(before, arrays))


@pytest.mark.parametrize("dim", [1, 2])
def test_marches_leave_their_inputs_unchanged(dim):
    g = _grid(dim)
    rng = np.random.default_rng(10 + dim)
    for mode in ("source", "reaction"):
        p = _forward(g, rng, mode)
        rhs = p.source if mode == "source" else p.reaction
        inputs = (p.z0.values, p.mu.data, rhs.data)
        before = _snapshot(*inputs)
        z = solve_forward(p).trajectory.data
        assert _unchanged(before, inputs)
        assert np.array_equal(z[0], p.z0.values)

    p = DualProblem(grid=g, mu=_traj(g, rng, 0.5, 2.0),
                    s=_traj(g, rng, -1.0, 1.0))
    inputs = (p.mu.data, p.s.data)
    before = _snapshot(*inputs)
    solve_dual(p)
    assert _unchanged(before, inputs)

    for eps in (None, 0.25):
        spec = _skt_spec(g, rng, eps)
        inputs = [f.values for f in spec.init]
        before = _snapshot(*inputs)
        sol = solve_system(spec)
        assert _unchanged(before, inputs)
        assert all(np.array_equal(t.data[0], f.values)
                   for t, f in zip(sol, spec.init))


# ---------------------------------------------------------------------------
# the per-step loops: every step's operations one call each, in the order
# the schemes write them, and a guard after every step

def _ref_guard(state, step):
    if not np.abs(state).max() <= BLOWUP_LIMIT:
        raise NumericalBlowUp(step)


def _ref_lap(v, g):
    # the stack stencil on a stack of one slice, through a ghost buffer of
    # its own, scaled by n^2; the marches scale by tau*n^2 in their own
    # ghost buffer
    return lap_stack(v[None], g)[0]


def _ref_forward(p):
    g, tau, mu = p.grid, p.grid.tau, p.mu.data
    out = np.empty((g.steps + 1, g.size))
    out[0] = p.z0.values
    flux, work = np.empty((2, g.size))
    for k in range(g.steps):
        z, znew = out[k], out[k + 1]
        np.multiply(mu[k], z, out=flux)
        np.multiply(_ref_lap(flux, g), tau, out=work)
        np.add(z, work, out=znew)
        if p.mode == "source":
            np.multiply(p.source.data[k], tau, out=work)
            np.add(znew, work, out=znew)
        else:
            np.multiply(p.reaction.data[k], tau, out=work)
            np.multiply(znew, np.exp(work, out=work), out=znew)
        _ref_guard(znew, k + 1)
    return out


def _ref_dual(p):
    g, tau, mu, s = p.grid, p.grid.tau, p.mu.data, p.s.data
    out = np.empty((g.steps + 1, g.size))
    out[g.steps] = 0.0
    work = np.empty(g.size)
    for k in range(g.steps - 1, -1, -1):
        phi, phinew = out[k + 1], out[k]
        lap = _ref_lap(phi, g)
        np.multiply(mu[k], tau, out=work)
        np.multiply(work, lap, out=work)
        np.add(phi, work, out=phinew)
        np.multiply(s[k], tau, out=work)
        np.subtract(phinew, work, out=phinew)
        _ref_guard(phinew, k)
    return out


def _ref_convolve(v, kern):
    g = kern.grid
    if g.dim == 1 and g.n <= 256:
        # the direct sum h * sum_j K[(i - j) mod n] v_j: row i of the
        # circulant is the reversed kernel K[-j mod n] shifted by i
        first = np.roll(kern.values.values[::-1], 1)
        circulant = np.stack([np.roll(first, i) for i in range(g.n)])
        return np.dot(circulant * g.h, v)
    fv = np.fft.rfftn(v.reshape(g.shape))
    kf = np.fft.rfftn(kern.values.reshaped())
    out = np.fft.irfftn(fv * kf, s=g.shape,
                        axes=tuple(range(g.dim))) * g.cell_volume()
    return out.reshape(v.shape)


def _ref_coeff(cf, args):
    # the constant kind and the three argument kinds the cases draw
    if cf.kind == "constant":
        return cf.d
    if cf.kind == "kinked_affine":
        # kink * E|y + sigma Z|, Z standard normal, y = v_1 - pivot; the
        # cases draw sigma > 0
        from scipy.special import erf
        y = args[0] - cf.pivot
        mean_abs = (y * erf(y / (cf.sigma * np.sqrt(2.0)))
                    + cf.sigma * np.sqrt(2.0 / np.pi)
                    * np.exp(-(y * y) / (2.0 * (cf.sigma * cf.sigma))))
        return np.clip(cf.d + cf.kink * mean_abs, cf.lo, cf.hi)
    lin = sum(cj * aj for cj, aj in zip(cf.c, args))
    raw = cf.d + lin if cf.kind == "clamped_affine" else cf.d / (1.0 + lin)
    return np.clip(raw, cf.lo, cf.hi)


def _ref_reaction(r, args):
    out = np.full_like(np.asarray(args[0], dtype=np.float64), r.rho)
    for sj, aj in zip(r.s, args):
        if sj != 0.0:
            out -= sj * aj
    return out


def _ref_skt(spec, reaction=_ref_reaction):
    g, tau = spec.grid, spec.grid.tau
    out = [np.empty((g.steps + 1, g.size)) for _ in spec.init]
    for o, f in zip(out, spec.init):
        o[0] = f.values
    flux, work = np.empty((2, g.size))
    for k in range(g.steps):
        state = [o[k] for o in out]
        smoothed = [u if kern is None else _ref_convolve(u, kern)
                    for u, kern in zip(state, spec.kernels)]
        for i, u in enumerate(state):
            unew = out[i][k + 1]
            np.multiply(_ref_coeff(spec.coeffs[i], smoothed[i + 1:]), u,
                        out=flux)
            np.multiply(_ref_lap(flux, g), tau, out=work)
            np.add(u, work, out=unew)
            np.multiply(reaction(spec.reactions[i], smoothed), tau, out=work)
            np.multiply(unew, np.exp(work, out=work), out=unew)
        for o in out:
            _ref_guard(o[k + 1], k + 1)
    return out


MARCH = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def blocked_grids(draw, ns=(8, 16)):
    """A 1-D or 2-D grid of one of the sizes `ns`, a number of steps per
    block (STREAM_BLOCK is patched to it) and a step count below, at or
    across a block boundary, with a generator for the data."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from(ns))
    per = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 3 * per + 1))
    mu_hi = draw(st.floats(0.5, 3.0))
    tau = 0.5 * cfl_timestep(make_grid(dim, n, 1.0, 1), mu_hi)
    g = make_grid(dim, n, steps * tau, steps)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return g, per, mu_hi, rng


def _data(g, rng, lo, hi, constant):
    """A trajectory of uniform values: the broadcast view of one field, or
    K+1 independent slices."""
    if constant:
        return Trajectory.constant_in_time(
            g, Field(g, rng.uniform(lo, hi, g.size)))
    return Trajectory(g, rng.uniform(lo, hi, (g.steps + 1, g.size)))


@contextmanager
def _blocks_of(g, per):
    """March in blocks of `per` steps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "STREAM_BLOCK", per * g.size)
        yield


@MARCH
@given(blocked_grids(), st.sampled_from(("source", "reaction")),
       st.booleans())
def test_forward_march_is_the_per_step_loop(case, mode, constant):
    g, per, mu_hi, rng = case
    p = KolmogorovProblem(
        grid=g, mu=_data(g, rng, 0.1, mu_hi, constant),
        z0=Field(g, rng.uniform(0.0, 1.0, g.size)),
        **{mode: _data(g, rng, -1.0, 1.0, constant)})
    with _blocks_of(g, per):
        z = solve_forward(p).trajectory.data
    assert np.array_equal(z, _ref_forward(p))


@MARCH
@given(blocked_grids(), st.booleans())
def test_dual_march_is_the_per_step_loop(case, constant):
    g, per, mu_hi, rng = case
    p = DualProblem(grid=g, mu=_data(g, rng, 0.1, mu_hi, constant),
                    s=_data(g, rng, -1.0, 1.0, constant))
    with _blocks_of(g, per):
        phi = solve_dual(p).data
    assert np.array_equal(phi, _ref_dual(p))


def _coeff(kind, rng, hi, arity):
    if kind == "kinked_affine":   # sigma > 0: the erf-smoothed kink
        return CoeffFamily(kind=kind, d=1.0, kink=rng.uniform(0.5, 1.5),
                           pivot=rng.uniform(0.0, 1.5),
                           sigma=rng.uniform(0.05, 0.5), lo=0.5, hi=hi)
    c = tuple(rng.uniform(0.5, 1.5) for _ in range(arity))
    return CoeffFamily(kind=kind, d=1.0, c=c, lo=0.5, hi=hi)


def _skt_case(g, rng, hi, kind, eps, s0, species=2):
    """Two species, or three: then species 0 takes a two-term c (of the
    affine kind, or clamped_affine beside a kinked species 1), and species
    1 a reaction row whose s is all zeros."""
    kern = make_kernel(g, eps) if eps else None
    if species == 2:
        coeffs = (_coeff(kind, rng, hi, 1),
                  CoeffFamily(kind="constant", d=rng.uniform(0.5, hi)))
        reactions = (ReactionFamily(rho=1.0, s=s0),
                     ReactionFamily(rho=0.5, s=(rng.uniform(0.0, 1.0), 1.0)))
    else:
        first = "clamped_affine" if kind == "kinked_affine" else kind
        coeffs = (_coeff(first, rng, hi, 2), _coeff(kind, rng, hi, 1),
                  CoeffFamily(kind="constant", d=rng.uniform(0.5, hi)))
        reactions = (ReactionFamily(rho=1.0, s=s0 + (0.25,)),
                     ReactionFamily(rho=0.75, s=(0.0, 0.0, 0.0)),
                     ReactionFamily(rho=0.5, s=(rng.uniform(0.0, 1.0),
                                                rng.uniform(0.0, 1.0), 1.0)))
    return SktSpec(
        grid=g, coeffs=coeffs, reactions=reactions,
        kernels=(kern,) * species,
        init=tuple(Field(g, rng.uniform(0.0, 1.5, g.size))
                   for _ in range(species)))


@settings(MARCH, max_examples=60)   # twice the draws for twice the kinds
@given(blocked_grids(),
       st.sampled_from(("clamped_affine", "rational_saturating",
                        "kinked_affine")),
       st.sampled_from((None, 0.25)),
       st.sampled_from(((1.0, 0.5), (0.0, 1.0), (0.0, 0.0))),
       st.sampled_from((2, 3)))
def test_skt_march_is_the_per_step_loop(case, kind, eps, s0, species):
    g, per, mu_hi, rng = case
    spec = _skt_case(g, rng, mu_hi, kind, eps, s0, species)
    with _blocks_of(g, per):
        sol = solve_system(spec)
    ref = _ref_skt(spec)
    assert all(np.array_equal(t.data, r) for t, r in zip(sol, ref))


# ---------------------------------------------------------------------------
# blow-ups inside a block: the guard runs once per block, the step it
# reports is the one the per-step guard reported

@st.composite
def blowups(draw):
    """A grid marched in blocks of `per` >= 3 steps, and a step j inside a
    full block (neither its first nor its last) whose data jump.  The
    state that first goes bad, j+1 forward and j backward, is then neither
    the first nor the last state that its block's guard checks."""
    g, _, mu_hi, rng = draw(blocked_grids())
    per = draw(st.integers(3, 5))
    steps = draw(st.integers(per, 3 * per))
    g = make_grid(g.dim, g.n, g.tau * steps, steps)
    a = per * draw(st.integers(0, steps // per - 1))
    return g, per, mu_hi, rng, a + draw(st.integers(1, per - 2))


def _raised_step(march, *args):
    """The step of the NumericalBlowUp that the march raises, and whether
    it warned."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(NumericalBlowUp) as exc:
            march(*args)
    return exc.value.step, any(issubclass(w.category, RuntimeWarning)
                               for w in seen)


def _ref_step(march, *args):
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalBlowUp) as exc:
        march(*args)
    return exc.value.step


def _jump(g, rng, j):
    """Uniform values in [-1, 1] but 1e20 at one point of slice j."""
    data = rng.uniform(-1.0, 1.0, (g.steps + 1, g.size))
    data[j, rng.integers(g.size)] = 1e20
    return Trajectory(g, data)


@MARCH
@given(blowups(), st.sampled_from(("source", "reaction")))
def test_forward_blowup_in_a_block_reports_the_loop_step(case, mode):
    g, per, mu_hi, rng, j = case
    p = KolmogorovProblem(grid=g, mu=_data(g, rng, 0.1, mu_hi, False),
                          z0=Field(g, rng.uniform(0.5, 1.0, g.size)),
                          **{mode: _jump(g, rng, j)})
    with _blocks_of(g, per):
        step, warned = _raised_step(solve_forward, p)
    assert step == _ref_step(_ref_forward, p) == j + 1
    assert not warned


@MARCH
@given(blowups())
def test_dual_blowup_in_a_block_reports_the_loop_step(case):
    g, per, mu_hi, rng, j = case
    p = DualProblem(grid=g, mu=_data(g, rng, 0.1, mu_hi, False),
                    s=_jump(g, rng, j))
    with _blocks_of(g, per):
        step, warned = _raised_step(solve_dual, p)
    assert step == _ref_step(_ref_dual, p) == j
    assert not warned


@dataclass(frozen=True)
class _JumpAt(ReactionFamily):
    """A reaction that is 1e20 at one point in its evaluation number `at`,
    that is at step `at`: a species' reaction is evaluated once a step."""

    at: int = 0
    calls: list = field(default_factory=list, compare=False)

    def evaluate(self, args, out=None):
        value = _ref_reaction(self, args)
        if len(self.calls) == self.at:
            value[0] = 1e20
        self.calls.append(1)
        if out is None:
            return value
        out[...] = value
        return out


@MARCH
@given(blowups(), st.integers(0, 1), st.sampled_from((None, 0.25)))
def test_skt_blowup_in_a_block_reports_the_loop_step(case, species, eps):
    g, per, mu_hi, rng, j = case
    base = _skt_case(g, rng, mu_hi, "clamped_affine", eps, (1.0, 0.5))

    def jumping():
        reactions = list(base.reactions)
        r = reactions[species]
        reactions[species] = _JumpAt(rho=r.rho, s=r.s, at=j)
        return replace(base, reactions=tuple(reactions))

    with _blocks_of(g, per):
        step, warned = _raised_step(solve_system, jumping())
    assert step == _ref_step(
        _ref_skt, jumping(), lambda r, args: r.evaluate(args)) == j + 1
    assert not warned


@pytest.mark.parametrize("dim", [1, 2])
def test_blowup_in_the_last_new_state_is_reported(dim):
    # the last block's guard reaches the march's last new state: step K
    # forward and in the cross-diffusion system, step 0 backward
    g = _grid(dim)
    rng = np.random.default_rng(20 + dim)
    p = KolmogorovProblem(grid=g, mu=_traj(g, rng, 0.5, 2.0),
                          z0=Field(g, rng.uniform(0.5, 1.0, g.size)),
                          source=_jump(g, rng, g.steps - 1))
    base = _skt_spec(g, rng, None)
    r = base.reactions[1]
    spec = replace(base, reactions=(
        base.reactions[0], _JumpAt(rho=r.rho, s=r.s, at=g.steps - 1)))
    with _blocks_of(g, 2):
        assert _raised_step(solve_forward, p) == (g.steps, False)
        assert _raised_step(solve_dual, DualProblem(
            grid=g, mu=p.mu, s=_jump(g, rng, 0))) == (0, False)
        assert _raised_step(solve_system, spec) == (g.steps, False)


# ---------------------------------------------------------------------------
# streamed runs: the march hands each finished block to a consumer and
# keeps none; the studies measure such runs against a kept reference

def _streamed_case(g, rng, mu_hi, kind):
    """A solver that returns a list of trajectories (or None, streamed),
    a reference problem and a run problem of the given kind: two forward
    problems that differ in mu, or the local and a relaxed cross-diffusion
    system."""
    if kind == "skt":
        ref = _skt_case(g, rng, mu_hi, "clamped_affine", None, (1.0, 0.5))
        return solve_system, ref, replace(
            ref, kernels=(make_kernel(g, 0.25),) * 2)
    z0 = Field(g, rng.uniform(0.0, 1.0, g.size))
    rhs = _data(g, rng, -1.0, 1.0, False)
    ref, run = (KolmogorovProblem(grid=g, z0=z0, **{kind: rhs},
                                  mu=_data(g, rng, 0.1, mu_hi, False))
                for _ in range(2))

    def solve(p, consume=None):
        rep = solve_forward(p, consume)
        return rep if rep is None else [rep.trajectory]
    return solve, ref, run


def _joined(seen, backward=False):
    """The rows of the recorded (first, rows) blocks joined in index order,
    once it is checked that the blocks came in marching order (last block
    first when `backward`) and hold every row once."""
    order = seen[::-1] if backward else seen
    firsts = [first for first, _ in order]
    assert firsts == [0] + list(
        np.cumsum([rows.shape[-2] for _, rows in order]))[:-1]
    return np.concatenate([rows for _, rows in order], axis=-2)


@MARCH
@given(blocked_grids(), st.sampled_from(("source", "reaction", "skt")))
def test_streamed_distance_is_the_kept_runs_norm(case, kind):
    g, per, mu_hi, rng = case
    solve, ref_problem, run_problem = _streamed_case(g, rng, mu_hi, kind)
    with _blocks_of(g, per):
        ref, kept = solve(ref_problem), solve(run_problem)
        norms = [torus.SpacetimeNorm(g, "L2Q", minus=r) for r in ref]
        dist = kolmo.split(*norms) if kind == "skt" else norms[0]
        seen = []

        def consume(first, rows):
            seen.append((first, rows.copy()))
            dist(first, rows)
        assert solve(run_problem, consume) is None
    # every row once, in marching order, as the kept run has it
    rows = _joined(seen)
    assert np.array_equal(rows.reshape(len(kept), g.steps + 1, g.size),
                          np.stack([t.data for t in kept]))
    assert [d.value().hex() for d in norms] == [
        torus.spacetime_norm(k, "L2Q", minus=r).hex()
        for k, r in zip(kept, ref)]


@MARCH
@given(blowups(), st.sampled_from(("source", "reaction", "skt")))
def test_streamed_blowup_names_the_kept_runs_step(case, kind):
    g, per, mu_hi, rng, j = case
    if kind == "skt":
        base = _skt_case(g, rng, mu_hi, "clamped_affine", 0.25, (1.0, 0.5))
        r = base.reactions[0]

        def problem():   # _JumpAt counts its calls: a fresh one per run
            return replace(base, reactions=(_JumpAt(rho=r.rho, s=r.s, at=j),
                                            base.reactions[1]))
        solve = solve_system
    else:
        p = KolmogorovProblem(grid=g, mu=_data(g, rng, 0.1, mu_hi, False),
                              z0=Field(g, rng.uniform(0.5, 1.0, g.size)),
                              **{kind: _jump(g, rng, j)})

        def problem():
            return p
        solve = solve_forward
    seen = []
    with _blocks_of(g, per):
        kept = _raised_step(solve, problem())
        streamed = _raised_step(
            lambda q: solve(q, lambda first, rows: seen.append(
                first + rows.shape[-2])), problem())
    assert streamed == kept == (j + 1, False)
    # a block reaches the consumer only after it passed the guard
    assert all(stop <= j + 1 for stop in seen)


# ---------------------------------------------------------------------------
# one layout: every march, forward or backward, works in one block plus a
# carry row and hands its finished rows to its consumer; keeping a
# trajectory is one such consumer (kolmo.keep)

@MARCH
@given(blocked_grids(), st.booleans(), st.sampled_from(((), (2,))))
def test_march_carries_each_blocks_start_in_either_direction(
        case, backward, lead):
    # a toy scheme whose state is the start plus the steps marched: a
    # window whose carry row did not hold its block's start would show
    g, per, mu_hi, rng = case
    start = rng.integers(-100, 100, lead + (g.size,)).astype(float)

    def advance(a, b, window):
        assert window.shape == lead + (b - a + 1, g.size)
        for i in range(b - a - 1, -1, -1) if backward else range(b - a):
            new, old = (i, i + 1) if backward else (i + 1, i)
            window[..., new, :] = window[..., old, :] + 1.0
    seen = []
    with _blocks_of(g, per):
        kolmo.march(g, mu_hi, start, advance,
                    lambda first, rows: seen.append((first, rows.copy())),
                    backward)
    rows = _joined(seen, backward)
    for first, block in seen:   # a block's rows, the start with the first
        opens = first + block.shape[-2] > g.steps if backward else first == 0
        assert block.shape[-2] <= per + opens
    k = np.arange(g.steps + 1.0)
    steps = g.steps - k if backward else k
    assert np.array_equal(rows, start[..., None, :] + steps[:, None])


def _recorded_march(seen):
    """kolmo.march, with each block its consumer takes recorded."""
    def recorded(grid, coeff_sup, start, advance, consume, backward=False):
        def both(first, rows):
            seen.append((first, rows.copy()))
            consume(first, rows)
        return kolmo.march(grid, coeff_sup, start, advance, both, backward)
    return recorded


@MARCH
@given(blocked_grids(), st.booleans())
def test_backward_march_hands_over_the_dual_rows(case, constant):
    g, per, mu_hi, rng = case
    p = DualProblem(grid=g, mu=_data(g, rng, 0.1, mu_hi, constant),
                    s=_data(g, rng, -1.0, 1.0, constant))
    seen = []
    with _blocks_of(g, per), pytest.MonkeyPatch.context() as mp:
        kept = solve_dual(p).data
        mp.setattr(dual, "march", _recorded_march(seen))
        assert np.array_equal(solve_dual(p).data, kept)
    # rows K..0, once each, last block first, each block in index order
    assert np.array_equal(_joined(seen, True), kept)
    assert np.array_equal(kept, _ref_dual(p))


@MARCH
@given(blowups())
def test_backward_blowup_never_reaches_the_consumer(case):
    g, per, mu_hi, rng, j = case
    p = DualProblem(grid=g, mu=_data(g, rng, 0.1, mu_hi, False),
                    s=_jump(g, rng, j))
    seen = []
    with _blocks_of(g, per), pytest.MonkeyPatch.context() as mp:
        mp.setattr(dual, "march", _recorded_march(seen))
        assert _raised_step(solve_dual, p) == (j, False)
    # the blocks above the bad row passed the guard; its own block did not
    assert all(first > j for first, _ in seen)
    assert len(seen) == (g.steps - 1) // per - j // per


# ---------------------------------------------------------------------------
# the runs that only reduce or write a trajectory stream it: the pairings,
# the run reports and the dumps have the bits of the kept runs

def _bits(*values):
    return [float(v).hex() for v in values]


def _report_bits(reports):
    return [(*_bits(r.lhs, r.rhs, r.ratio), r.passed, r.label)
            for r in reports]


def _dumped(traj, source):
    """The bytes of dump_trajectory(traj) and of dump_slices of the source
    on its grid."""
    g = traj.grid
    with tempfile.TemporaryDirectory() as tmp:
        kept, streamed = (os.path.join(tmp, name) for name in "ks")
        dump_trajectory(kept, traj)
        dump_slices(streamed, g.dim, g.n, source)
        with open(kept, "rb") as a, open(streamed, "rb") as b:
            return a.read(), b.read()


@MARCH
@given(blocked_grids(), st.booleans())
def test_streamed_duality_residual_is_the_kept_ones(case, constant):
    g, per, mu_hi, rng = case
    p = KolmogorovProblem(grid=g, mu=_data(g, rng, 0.1, mu_hi, constant),
                          z0=Field(g, rng.standard_normal(g.size)),
                          source=_data(g, rng, -1.0, 1.0, constant))
    s = _data(g, rng, -1.0, 1.0, constant)
    with _blocks_of(g, per):
        z = solve_forward(p).trajectory
        kept = dual.duality_pairings(z, p, s)
        pairings = dual.DualityPairings(p, s)
        solve_forward(p, pairings.forward)
        solve_dual(DualProblem(grid=g, mu=p.mu, s=s), pairings.dual)
        streamed = dual.streamed_duality_residual(p, s)
        residual = dual.duality_residual(z, p, s)
    assert _bits(*pairings.terms()) == _bits(*kept[:3])
    assert np.array_equal(pairings.phi0, kept[3].data[0])
    assert streamed.hex() == residual.hex()


@MARCH
@given(blocked_grids(), st.sampled_from(("source", "reaction")),
       st.booleans())
def test_streamed_forward_dump_and_report_are_the_kept_runs(case, mode,
                                                           constant):
    g, per, mu_hi, rng = case
    p = KolmogorovProblem(
        grid=g, mu=_data(g, rng, 0.1, mu_hi, constant),
        z0=Field(g, rng.uniform(0.0, 1.0, g.size)),
        **{mode: _data(g, rng, -1.0, 1.0, constant)})
    summary = kolmo.RunSummary(g)
    with _blocks_of(g, per):
        rep = solve_forward(p)
        kept, streamed = _dumped(rep.trajectory, BlockSource(
            g.steps + 1,
            lambda dump: solve_forward(p, kolmo.fan(summary, dump))))
    assert kept == streamed
    got = summary.report(p, kolmo.cfl_fraction(g, p.mu_sup()))
    assert _bits(got.min_value, got.mass_drift, got.cfl_used) == _bits(
        rep.min_value, rep.mass_drift, rep.cfl_used)
    assert got.trajectory is None
    assert np.array_equal(summary.last, rep.trajectory.data[-1])


@MARCH
@given(blocked_grids(), st.booleans())
def test_streamed_dual_dump_and_reports_are_the_kept_runs(case, constant):
    g, per, mu_hi, rng = case
    p = DualProblem(grid=g, mu=_data(g, rng, 0.1, mu_hi, constant),
                    s=_data(g, rng, -1.0, 1.0, constant))
    sums = dual.AprioriSums(p)
    with _blocks_of(g, per):
        phi = solve_dual(p)
        reports = dual.verify_apriori(p, phi)
        kept, streamed = _dumped(phi, BlockSource(
            g.steps + 1, lambda dump: solve_dual(p, kolmo.fan(sums, dump),
                                                  sums.energy)))
    assert kept == streamed
    assert _report_bits(sums.reports()) == _report_bits(reports)
    assert sums.max == phi.data.max()
    assert np.array_equal(sums.phi0, phi.data[0])


@MARCH
@given(blocked_grids(ns=(8, 16, 32)))
def test_dual_march_hands_the_laplacians_of_lap_stack(case):
    # solve_dual's `laplacians` are n^2 times the neighbour sums its steps
    # take, and Lap Phi^0 of the Phi^0 row: lap_stack of every row of Phi,
    # bit for bit, each handed once; the streamed AprioriSums reads them
    # and reports the kept verify_apriori's bits
    g, per, mu_hi, rng = case
    p = DualProblem(grid=g, mu=_data(g, rng, 0.1, mu_hi, False),
                    s=_data(g, rng, -1.0, 1.0, False))
    handed, rows_handed = np.full((g.steps + 1, g.size), np.nan), []

    def laplacians(first, rows):
        rows_handed.extend(range(first, first + len(rows)))
        handed[first:first + len(rows)] = rows
    sums = dual.AprioriSums(p)
    with _blocks_of(g, per):
        assert solve_dual(p, sums, kolmo.fan(laplacians, sums.energy)) \
            is None
    phi = solve_dual(p)
    assert sorted(rows_handed) == list(range(g.steps + 1))
    assert np.array_equal(handed, lap_stack(phi.data, g))
    assert _report_bits(sums.reports()) == _report_bits(
        dual.verify_apriori(p, phi))


def _blowing_source(g, rng, j, backward, written):
    """A BlockSource of a forward (or dual) march whose source (S) jumps
    at step j, recording the first row of each block it has written."""
    mu = _data(g, rng, 0.1, 2.0, False)
    if backward:
        p = DualProblem(grid=g, mu=mu, s=_jump(g, rng, j))
        solve = solve_dual
    else:
        p = KolmogorovProblem(grid=g, mu=mu, source=_jump(g, rng, j),
                              z0=Field(g, rng.uniform(0.5, 1.0, g.size)))
        solve = solve_forward
    return BlockSource(g.steps + 1, lambda dump: solve(p, kolmo.fan(
        dump, lambda first, rows: written.append(first))))


@pytest.mark.parametrize("backward", [False, True])
def test_blowup_in_a_streamed_dump_leaves_no_file(tmp_path, backward):
    g = make_grid(1, 16, 12 * 0.5 * cfl_timestep(make_grid(1, 16, 1.0, 1),
                                                2.0), 12)
    written = []
    source = _blowing_source(g, np.random.default_rng(3), 6, backward,
                             written)
    with _blocks_of(g, 3), pytest.raises(NumericalBlowUp):
        dump_slices(tmp_path / "z.cdl", g.dim, g.n, source)
    assert written          # blocks were written before the march raised
    assert os.listdir(tmp_path) == []


def test_a_source_that_hands_too_few_or_misplaced_rows_leaves_no_file(
        tmp_path):
    rows = np.zeros((2, 8))
    for march, why in [(lambda dump: dump(0, rows), "handed 2 slices, not 3"),
                       (lambda dump: dump(2, rows), "does not fit"),
                       (lambda dump: dump(0, np.zeros((3, 4))),
                        "does not fit")]:
        with pytest.raises(ValueError, match=why):
            dump_slices(tmp_path / "z.cdl", 1, 8, BlockSource(3, march))
        assert os.listdir(tmp_path) == []
