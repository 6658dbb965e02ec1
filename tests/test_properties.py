"""Property tests of the exact discrete guarantees over random grids,
coefficients and data.  Derandomized, so every run draws the same cases."""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdifflab import torus
from crossdifflab.cli import main
from crossdifflab.dual import (DualProblem, duality_pairings,
                               duality_residual, solve_dual, verify_apriori)
from crossdifflab.kolmo import (CflViolation, KolmogorovProblem,
                                NumericalBlowUp, cfl_timestep,
                                comparison_check, solve_forward, steps_for)
from crossdifflab.lab import ConfigError, parse_config, run
from crossdifflab.mollify import (check_width, check_widths, convolve_array,
                                  make_kernel)
from crossdifflab.skt import CoeffFamily, ReactionFamily, SktSpec, solve_system
from crossdifflab.torus import (STREAM_BLOCK, Field, GhostCells, Trajectory,
                                grad_sq_stack, lap_array, lap_stack,
                                make_grid, norm, on_grid, quadrature,
                                spacetime_norm)
from crossdifflab.weights import _ball_sums, maximal_function

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

# value counts for the long problems: under 8, up to 128, and within 64 of
# one to nine blocks of STREAM_BLOCK values
SIZES = st.one_of(
    st.integers(0, 7), st.integers(8, 128),
    st.tuples(st.integers(1, 9), st.integers(-64, 64)).map(
        lambda t: t[0] * STREAM_BLOCK + t[1]))


@st.composite
def problems(draw, long=False):
    """A grid (dim 1 or 2, n in 8/16/32) stepped for a random sup mu, with
    a random generator for the data on it.  A long problem has about a
    drawn number of SIZES values per slice stack, at the CFL step."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((8, 16, 32)))
    mu_lo = draw(st.floats(0.1, 1.0))
    mu_hi = mu_lo + draw(st.floats(0.0, 3.0))
    if long:
        steps = max(1, draw(SIZES) // n ** dim)
        tau = 0.999 * cfl_timestep(make_grid(dim, n, 1.0, 1), mu_hi)
        grid = make_grid(dim, n, steps * tau, steps)
    else:
        t_final = draw(st.floats(0.001, 0.01))
        grid = make_grid(dim, n, t_final, steps_for(dim, n, t_final, mu_hi))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mu = Trajectory(grid, rng.uniform(mu_lo, mu_hi,
                                      (grid.steps + 1, grid.size)))
    return grid, mu, rng


def _roll_laplacian(v, grid):
    """The stencil as np.roll writes it: -2 dim w, plus w[i-1], plus w[i+1],
    axis by axis, over h^2."""
    w = v.reshape(v.shape[:-1] + grid.shape)
    out = -2.0 * grid.dim * w
    for ax in range(-grid.dim, 0):
        out = out + np.roll(w, 1, axis=ax)
        out = out + np.roll(w, -1, axis=ax)
    return (out / grid.h ** 2).reshape(v.shape)


@PROPERTY
@given(problems(), st.sampled_from(((), (1,), (3,), (2, 3), (0,))),
       st.sampled_from((None, np.array(2.0 ** -9), 3.0)), st.booleans())
def test_slice_add_stencil_matches_roll(case, lead, scale, rows):
    # lap_stack, and lap_array of a stack's GhostCells or of its rows views
    # at any scale, are the rolled stencil's sums, bit for bit
    grid, mu, rng = case
    data = rng.standard_normal(lead + (grid.size,))
    ref = _roll_laplacian(data, grid)
    assert np.array_equal(lap_stack(data, grid), ref)
    sums = on_grid(ref * grid.h ** 2, grid)     # exact: h^2 = n^-2
    ghost = GhostCells(grid, lead)
    ghost.inner[...] = on_grid(data, grid)
    out = np.full(sums.shape, np.nan)
    if rows and lead:
        for row, o in zip(ghost.rows, out):
            lap_array(row, grid, o, scale)
    else:
        lap_array(ghost, grid, out, scale)
    assert np.array_equal(out, sums if scale is None else sums * scale)


@PROPERTY
@given(problems())
def test_stencil_on_stack_is_slice_by_slice(case):
    grid, mu, rng = case
    data = rng.standard_normal((5, grid.size))
    lap = lap_stack(data, grid)
    grad = grad_sq_stack(data, grid)
    for k in range(len(data)):
        assert np.array_equal(lap[k], lap_stack(data[k], grid))
        assert grad[k] == grad_sq_stack(data[k], grid)


@st.composite
def march_stencils(draw):
    """A grid (dim 1 or 2, n from 8 to 256) whose one step is a random
    CFL-admissible tau, a lead shape (a single slice or a stack), slices of
    values spread over twelve decades, and tau*mu for them."""
    dim = draw(st.sampled_from((1, 2)))
    n = 2 ** draw(st.integers(3, 8))
    lead = draw(st.sampled_from(((), (1,), (3,))))
    mu_hi = draw(st.floats(0.1, 10.0))
    tau = draw(st.floats(0.01, 0.999)) * cfl_timestep(
        make_grid(dim, n, 1.0, 1), mu_hi)
    grid = make_grid(dim, n, tau, 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = lead + (grid.size,)
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    tmu = rng.uniform(0.0, mu_hi, shape) * grid.tau
    return grid, lead, on_grid(v, grid), on_grid(tmu, grid)


@PROPERTY
@given(march_stencils())
def test_march_buffer_folds_tau_and_h_squared_exactly(case):
    # h^2 = n^-2 exactly, so one multiply by tau*n^2 gives the bits of the
    # Laplacian times tau (the forward and SKT marches), and (tau*mu)*n^2
    # times the unscaled neighbour sum gives the bits of (tau*mu) times
    # the Laplacian (the dual march)
    grid, lead, v, tmu = case
    lap = on_grid(lap_stack(v.reshape(lead + (grid.size,)), grid), grid)
    ghost = GhostCells(grid, lead)
    ghost.inner[...] = v
    out = np.full(v.shape, np.nan)
    assert lap_array(ghost, grid, out, grid.tau * grid.n ** 2) is out
    assert np.array_equal(out, lap * grid.tau)
    raw = lap_array(ghost, grid, np.empty(v.shape), 1.0)
    assert np.array_equal((tmu * grid.n ** 2) * raw, tmu * lap)


@st.composite
def bad_problems(draw):
    """The trajectories of a forward (source or reaction mode) or dual
    problem, all K+1 rows or all the broadcast view of one row, with NaN
    or +-inf at a random place of one of them, and that one's name."""
    grid, _, rng = draw(problems())
    other = draw(st.sampled_from(("source", "reaction", "s")))
    name = draw(st.sampled_from(("mu", other)))
    rows = draw(st.sampled_from((1, grid.steps + 1)))
    data = {"mu": rng.uniform(0.5, 2.0, (rows, grid.size)),
            other: rng.uniform(-1.0, 1.0, (rows, grid.size))}
    data[name][draw(st.integers(0, rows - 1)),
               draw(st.integers(0, grid.size - 1))] = draw(
        st.sampled_from((np.nan, np.inf, -np.inf)))
    full = (grid.steps + 1, grid.size)
    return grid, name, {key: Trajectory(grid, np.broadcast_to(d, full))
                        for key, d in data.items()}


@PROPERTY
@given(bad_problems())
def test_non_finite_problem_data_are_refused_at_construction(case):
    # a NaN mu once passed min() <= 0 and came out of the march as a
    # NumericalBlowUp, a NaN source or S as a NaN state
    grid, name, trajs = case
    with pytest.raises(ValueError, match=f"^{name} holds a non-finite"):
        if "s" in trajs:
            DualProblem(grid=grid, **trajs)
        else:
            KolmogorovProblem(grid=grid, z0=Field.constant(grid, 1.0),
                              **trajs)


@PROPERTY
@given(problems())
def test_duality_residual_round_off(case):
    grid, mu, rng = case
    shape = (grid.steps + 1, grid.size)
    p = KolmogorovProblem(grid=grid, mu=mu,
                          z0=Field(grid, rng.standard_normal(grid.size)),
                          source=Trajectory(grid, rng.standard_normal(shape)))
    z = solve_forward(p).trajectory
    s = Trajectory(grid, rng.standard_normal(shape))
    assert duality_residual(z, p, s) <= 1e-11


@PROPERTY
@given(problems(), st.sampled_from(("source", "reaction")))
def test_forward_march_stays_non_negative(case, mode):
    grid, mu, rng = case
    shape = (grid.steps + 1, grid.size)
    z0 = rng.uniform(0.0, 1.0, grid.size)
    z0[rng.random(grid.size) < 0.5] = 0.0
    rhs = (rng.uniform(0.0, 1.0, shape) if mode == "source"
           else rng.uniform(-5.0, 5.0, shape))
    p = KolmogorovProblem(grid=grid, mu=mu, z0=Field(grid, z0),
                          **{mode: Trajectory(grid, rhs)})
    assert solve_forward(p).min_value >= 0.0


@PROPERTY
@given(problems(), st.sampled_from(("source", "reaction")))
def test_mass_ledger_and_comparison_bound(case, mode):
    # source mode: int z^k = int z^0 + sum_{j<k} tau int G^j to round-off;
    # reaction mode with R <= rbar: z <= ztilde e^{rbar t}, ztilde the
    # reaction-free solve
    grid, mu, rng = case
    shape = (grid.steps + 1, grid.size)
    if mode == "source":
        z0 = Field(grid, rng.standard_normal(grid.size))
        g = Trajectory(grid, rng.standard_normal(shape))
        p = KolmogorovProblem(grid=grid, mu=mu, z0=z0, source=g)
        rep = solve_forward(p)
        inflow = norm(z0, "L1") + spacetime_norm(g, "L1Q")
        assert rep.mass_drift <= 1e-12 * max(1.0, inflow)
    else:
        z0 = rng.uniform(0.0, 1.0, grid.size)
        z0[rng.random(grid.size) < 0.3] = 0.0
        r_bar = rng.uniform(-1.0, 2.0)
        rea = Trajectory(grid, rng.uniform(r_bar - 5.0, r_bar, shape))
        rep = comparison_check(KolmogorovProblem(
            grid=grid, mu=mu, z0=Field(grid, z0), reaction=rea), r_bar)
        assert rep.rel_defect <= 1e-12


@st.composite
def skt_specs(draw):
    """A triangular system of 2 or 3 species on a small grid whose last
    species reacts with itself only, and random earlier-species data."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((8, 16, 32)))
    count = draw(st.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = []
    for i in range(count - 1):
        lo = rng.uniform(0.2, 1.0)
        coeffs.append(CoeffFamily(
            kind=draw(st.sampled_from(("clamped_affine",
                                       "rational_saturating"))),
            d=rng.uniform(0.5, 2.0),
            c=tuple(rng.uniform(0.0, 1.0, count - 1 - i)),
            lo=lo, hi=lo + rng.uniform(0.0, 2.0)))
    coeffs.append(CoeffFamily(kind="constant", d=rng.uniform(0.2, 2.0)))
    hi = max(cf.hi for cf in coeffs)
    t_final = draw(st.floats(0.001, 0.01))
    grid = make_grid(dim, n, t_final, steps_for(dim, n, t_final, hi))
    reactions = [ReactionFamily(rho=rng.uniform(-1.0, 2.0),
                                s=tuple(rng.uniform(0.0, 1.0, count)))
                 for _ in range(count - 1)]
    last = np.zeros(count)
    last[-1] = rng.uniform(0.0, 1.0)
    reactions.append(ReactionFamily(rho=rng.uniform(-1.0, 2.0),
                                    s=tuple(last)))
    kernels = tuple(
        make_kernel(grid, rng.uniform(2 * grid.h, 0.5))
        if draw(st.booleans()) else None for _ in range(count))
    init = tuple(Field(grid, rng.uniform(0.0, 2.0, grid.size))
                 for _ in range(count))
    spec = SktSpec(grid=grid, coeffs=tuple(coeffs),
                   reactions=tuple(reactions), kernels=kernels, init=init)
    return spec, rng


@settings(PROPERTY, max_examples=20)
@given(skt_specs())
def test_last_species_decoupled(case):
    # the last species reads no earlier species, so new data for all of
    # them leaves its trajectory bit-identical
    spec, rng = case
    other = [Field(spec.grid, rng.uniform(0.0, 2.0, spec.grid.size))
             for _ in spec.init[:-1]]
    moved = SktSpec(grid=spec.grid, coeffs=spec.coeffs,
                    reactions=spec.reactions, kernels=spec.kernels,
                    init=(*other, spec.init[-1]))
    last_a = solve_system(spec)[-1].data
    last_b = solve_system(moved)[-1].data
    assert np.array_equal(last_a, last_b)


# ---------------------------------------------------------------------------
# streamed reductions against the whole-array reductions they replace

def _spread(rng, shape):
    """Values over 16 decades with both signs, so that the order of the
    additions shows in the last bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


def _row_rule(values):
    """The quadrature rule on a whole (rows, width) array: np.sum of each
    row, then math.fsum of the row sums."""
    return math.fsum(np.sum(values, axis=1).tolist())


def _whole_norm(traj, kind):
    body = traj.data[:-1]
    tau, vol = traj.grid.tau, traj.grid.cell_volume()
    if kind == "L2Q":
        return float(np.sqrt(tau * vol * _row_rule(body * body)))
    if kind == "L1Q":
        return float(tau * vol * _row_rule(np.abs(body)))
    if kind == "L1Hminus1":   # the H^-1 norms of all K rows in one call
        return float(tau * math.fsum(torus._hminus1(traj.grid)(body).tolist()))
    per_slice = np.sqrt(vol * np.sum(traj.data * traj.data, axis=1))
    return float(per_slice.max())


def _whole_grad_sq(v, grid):
    w = v.reshape(v.shape[:-1] + grid.shape)
    axes = tuple(range(-grid.dim, 0))
    total = 0.0
    for ax in axes:
        d = (np.roll(w, -1, axis=ax) - w) / grid.h
        total = total + (d * d).sum(axis=axes)
    return total * grid.cell_volume()


@PROPERTY
@given(problems(long=True))
def test_streamed_norms_are_whole_array_norms(case):
    grid, mu, rng = case
    shape = (grid.steps + 1, grid.size)
    a = Trajectory(grid, _spread(rng, shape))
    b = Trajectory(grid, _spread(rng, shape))
    # broadcast views of one row, read once when every read is one
    c, d = (Trajectory.constant_in_time(grid, Field(
        grid, _spread(rng, grid.size))) for _ in range(2))

    def whole(t, minus):   # t - minus, C-ordered
        diff = t.data if minus is None else t.data - minus.data
        return Trajectory(grid, np.ascontiguousarray(diff))
    for kind in ("L2Q", "L1Q", "LinfL2", "L1Hminus1"):
        for t, minus in ((a, None), (mu, None), (a, b), (c, None), (c, d),
                         (c, a), (a, c)):
            value = spacetime_norm(t, kind, minus=minus)
            assert value == _whole_norm(whole(t, minus), kind)
            # the consumer, handed every row in random blocks in random
            # order, as the backward dual march hands them
            edges = np.unique(np.concatenate(([0, len(t.data)], rng.integers(
                1, len(t.data), rng.integers(0, 6)))))
            blocks = list(zip(edges[:-1], edges[1:]))
            rng.shuffle(blocks)
            acc = torus.SpacetimeNorm(grid, kind, minus)
            for lo, hi in blocks:
                acc(lo, t.data[lo:hi])
            assert _bits(acc.value()) == _bits(value)
    assert np.array_equal(grad_sq_stack(a.data, grid),
                          _whole_grad_sq(a.data, grid))
    assert grad_sq_stack(a.data[0], grid) == _whole_grad_sq(a.data[0], grid)


@PROPERTY
@given(problems(long=True), st.booleans())
def test_streamed_apriori_and_pairings_are_whole_array(case, constant):
    grid, mu, rng = case
    shape = (grid.steps + 1, grid.size)
    if constant:
        mu = Trajectory.constant_in_time(grid, Field(grid, mu.data[0]))
    s = Trajectory(grid, rng.standard_normal(shape))
    p = DualProblem(grid=grid, mu=mu, s=s)
    phi = solve_dual(p)
    tau, vol = grid.tau, grid.cell_volume()
    m, sd, pd = mu.data[:-1], s.data[:-1], phi.data
    lp = _roll_laplacian(pd[:-1], grid)
    lhs1 = (float(_whole_grad_sq(pd, grid).max())
            + float(tau * vol * _row_rule(m * lp * lp)))
    rhs1 = float(tau * vol * _row_rule(sd ** 2 / m))
    mu_l1 = float(tau * vol * _row_rule(np.abs(m)))
    rep1, rep2 = verify_apriori(p, phi)
    assert (rep1.lhs, rep1.rhs) == (lhs1, rhs1)
    assert rep2.lhs == _whole_norm(phi, "LinfL2") ** 2
    assert rep2.rhs == (mu_l1 + 1.0) * rhs1

    fp = KolmogorovProblem(grid=grid, mu=mu,
                           z0=Field(grid, rng.standard_normal(grid.size)),
                           source=Trajectory(grid, rng.standard_normal(shape)))
    z = solve_forward(fp).trajectory
    zs, z0, g, _ = duality_pairings(z, fp, s, phi)
    assert zs == tau * vol * _row_rule(z.data[:-1] * sd)
    assert z0 == vol * np.dot(fp.z0.values, pd[0])
    assert g == tau * vol * _row_rule(fp.source.data[:-1] * pd[1:])


@st.composite
def constant_in_time_cases(draw):
    """A grid (dim 1 or 2, n in 8/16/32, 1 to 64 steps) at 0.999 times the
    CFL step of a mu up to 2 scale, with scale from 1e-5 to 1e5, and a
    generator for the data on it."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((8, 16, 32)))
    steps = draw(st.integers(1, 64))
    scale = 10.0 ** draw(st.floats(-5.0, 5.0))
    tau = 0.999 * cfl_timestep(make_grid(dim, n, 1.0, 1), 2.0 * scale)
    grid = make_grid(dim, n, steps * tau, steps)
    return grid, scale, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


def _bits(*values):
    return [float(v).hex() for v in values]


@PROPERTY
@given(constant_in_time_cases())
def test_constant_in_time_inputs_read_once_give_the_same_bits(case):
    # a broadcast trajectory is read as its one row, times K; its
    # materialized copy row by row.  np.array of a broadcast view is
    # Fortran-ordered, so the copy's rows are not contiguous
    grid, scale, rng = case

    def pair(values):
        view = Trajectory.constant_in_time(grid, Field(grid, scale * values))
        return view, Trajectory(grid, np.array(view.data))

    a, a_copy = pair(rng.standard_normal(grid.size))
    b, b_copy = pair(rng.standard_normal(grid.size))
    full = Trajectory(grid, scale * rng.standard_normal(
        (grid.steps + 1, grid.size)))
    for kind in ("L2Q", "L1Q", "LinfL2", "L1Hminus1"):
        for minus, minus_copy in ((None, None), (b, b_copy), (full, full)):
            assert (_bits(spacetime_norm(a, kind, minus=minus))
                    == _bits(spacetime_norm(a_copy, kind, minus=minus_copy)))

    mu, mu_copy = pair(rng.uniform(0.5, 2.0, grid.size))
    p, p_copy = DualProblem(grid, mu, a), DualProblem(grid, mu_copy, a_copy)
    phi = solve_dual(p)
    assert np.array_equal(solve_dual(p_copy).data, phi.data)
    reports = [[_bits(r.lhs, r.rhs, r.ratio) for r in verify_apriori(q, phi)]
               for q in (p, p_copy)]
    assert reports[0] == reports[1]

    z0 = Field(grid, scale * rng.standard_normal(grid.size))
    drifts = [solve_forward(KolmogorovProblem(
        grid=grid, mu=m, z0=z0, source=src)).mass_drift
        for m, src in ((mu, b), (mu_copy, b_copy))]
    assert _bits(drifts[0]) == _bits(drifts[1])


# ---------------------------------------------------------------------------
# the quadrature rule depends on the row values only

@PROPERTY
@given(problems(long=True))
def test_quadrature_ignores_blocking_order_and_layout(case):
    grid, _, rng = case
    k, w = grid.steps, grid.size
    data = _spread(rng, (k + 1, w))

    def squares(a, b):
        x = data[a:b]
        return x * x
    ref = quadrature(squares, grid)

    # any block size, down to one row per block and below the row width
    for block in (1, max(1, w // 2), w, 3 * w + 5, STREAM_BLOCK, 2 ** 20):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(torus, "STREAM_BLOCK", block)
            assert quadrature(squares, grid) == ref

    # rows that arrive reversed or permuted
    for order in (np.arange(k)[::-1], rng.permutation(k)):
        assert quadrature(lambda a, b: squares(0, k)[order[a:b]],
                          grid) == ref

    # rows read out of a (B, K, N) stack and out of a (K, B, N) stack
    stack = np.stack([_spread(rng, data.shape), data * data,
                      _spread(rng, data.shape)])
    assert quadrature(lambda a, b: stack[1, a:b], grid) == ref
    inter = np.ascontiguousarray(stack.transpose(1, 0, 2))
    assert quadrature(lambda a, b: inter[a:b, 1], grid) == ref

    # rows of a Fortran-ordered array, whose row values are not contiguous
    fortran = np.asfortranarray(data * data)
    assert quadrature(lambda a, b: fortran[a:b], grid) == ref

    # one step at a time, as a march would accumulate it
    steps = [float(np.sum(squares(j, j + 1)[0])) for j in range(k)]
    assert float(grid.tau * grid.cell_volume() * math.fsum(steps)) == ref


@PROPERTY
@given(st.integers(1, 40), st.data())
def test_row_values_are_the_whole_arrays_values(steps, data):
    # K+1 rows handed in random blocks and a random order, at their own
    # first or one row down, fill slots 0..count-1 with the values of one
    # call on the whole array; blocks before slot 0 or past the end are
    # dropped, and the rule sees only slots that exist
    rows = steps + 1
    count = data.draw(st.integers(1, rows), "count")
    shift = data.draw(st.sampled_from((-1, 0)), "shift")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    whole = rng.standard_normal((rows, 5))
    weight = rng.standard_normal(count)
    calls = []

    def values(k0, k1, block):
        calls.append((k0, k1))
        return torus.row_sums(block) * weight[k0:k1]
    acc = torus.RowValues(count, values)
    cuts = sorted(data.draw(st.sets(st.integers(1, rows - 1)), "cuts"))
    handed = [(a + shift, whole[a:b])
              for a, b in zip([0] + cuts, cuts + [rows])]
    stray = whole[:data.draw(st.integers(1, 3), "stray")]
    handed += [(-len(stray) - data.draw(st.integers(0, 3), "before"), stray),
               (count + data.draw(st.integers(0, 3), "past"), stray)]
    for i in data.draw(st.permutations(range(len(handed))), "order"):
        acc(*handed[i])
    assert all(0 <= k0 < k1 <= count for k0, k1 in calls)
    filled = min(count, rows + shift)
    assert np.array_equal(acc.values[:filled],
                          values(0, filled, whole[-shift:filled - shift]))


@PROPERTY
@given(problems(long=True))
def test_quadrature_close_to_exact_sum(case):
    # each row's np.sum is a pairwise sum (sequential in leaves of at most
    # 128 values), so its error is at most (log2 width + 20) eps times the
    # sum of |x|; fsum adds no error beyond its last rounding
    grid, _, rng = case
    data = _spread(rng, (grid.steps + 1, grid.size))
    body = data[:-1]
    tv = grid.tau * grid.cell_volume()
    exact = tv * math.fsum(body.reshape(-1).tolist())
    bound = (tv * (math.log2(grid.size) + 20) * np.finfo(float).eps
             * math.fsum(np.abs(body).reshape(-1).tolist()))
    got = quadrature(lambda a, b: data[a:b], grid)
    assert abs(got - exact) <= bound


# ---------------------------------------------------------------------------
# the ring-sum ball scan of the weights toolkit against np.roll window sums

def _roll_ball_sum(v, grid, w):
    """The sum over the wrap-around ball of side 2w+1 around each cell, as
    np.roll writes it: the sum of the 2w+1 rolls along each axis in turn."""
    out = v.reshape(v.shape[:-1] + grid.shape)
    for ax in range(-grid.dim, 0):
        out = sum(np.roll(out, k, axis=ax) for k in range(-w, w + 1))
    return out.reshape(v.shape)


@st.composite
def ball_cases(draw):
    """A grid (dim 1 or 2, n in 8/16/32), a stack of one or two fields (the
    A2 scan takes nu and 1/nu together) and a generator for the data."""
    grid = make_grid(draw(st.sampled_from((1, 2))),
                     draw(st.sampled_from((8, 16, 32))), 1.0, 1)
    lead = draw(st.sampled_from(((), (2,))))
    return grid, lead, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


# the scan and the roll sums add the same non-negative terms in two orders;
# over these grids they differ by at most about 5.3 eps relative
BALL_REL = 8 * np.finfo(np.float64).eps


@PROPERTY
@given(ball_cases())
def test_ball_scan_is_roll_window_sum(case):
    grid, lead, rng = case
    shape = lead + (grid.size,)
    for data in (rng.uniform(0.0, 1.0, shape), np.abs(_spread(rng, shape))):
        sizes = []
        for size, sums in _ball_sums(data, grid):
            sizes.append(size)
            ref = _roll_ball_sum(data, grid, size // 2)
            assert sums.shape == shape
            assert np.all(np.abs(sums - ref) <= BALL_REL * ref)
        assert sizes == list(range(3, grid.n, 2))
    # small integers sum exactly in any order, so here every bit agrees
    ints = rng.integers(0, 10, shape).astype(np.float64)
    for size, sums in _ball_sums(ints, grid):
        assert np.array_equal(sums, _roll_ball_sum(ints, grid, size // 2))


@PROPERTY
@given(ball_cases())
def test_maximal_function_is_largest_ball_mean(case):
    grid, _, rng = case
    f = Field(grid, _spread(rng, grid.size))
    mf = maximal_function(f).values
    a = np.abs(f.values)
    assert np.all(mf >= a)
    best = a.copy()
    for w in range(1, grid.n // 2):
        mean = _roll_ball_sum(a, grid, w) / (2 * w + 1) ** grid.dim
        np.maximum(best, mean, out=best)
    assert np.all(np.abs(mf - best) <= BALL_REL * best)


# what a config may hold where a kernel width belongs
WIDTHS = st.one_of(st.floats(0.0, 0.7), st.just(math.nan), st.booleans(),
                   st.text(max_size=3), st.just(10 ** 400))


@settings(PROPERTY, max_examples=200)
@given(st.sampled_from((1, 2)), st.sampled_from((8, 16, 32, 64, 128, 256)),
       st.one_of(st.lists(WIDTHS, max_size=4),
                 st.lists(st.floats(0.0, 0.7), min_size=1, max_size=4,
                          unique=True).map(lambda w: sorted(w)[::-1])))
def test_width_lists_follow_one_rule(dim, n, widths):
    # refused exactly when empty, when check_width refuses a width, or when
    # the widths do not strictly decrease; parse_config refuses a stability
    # config with that eps exactly then, naming config.eps
    grid = make_grid(dim, n, 1.0, 1)

    def accepted(width):
        try:
            check_width(grid, width)
        except ValueError:
            return False
        return True
    refused = (not widths or not all(map(accepted, widths))
               or any(b >= a for a, b in zip(widths, widths[1:])))
    try:
        assert check_widths(grid, widths) == [float(w) for w in widths]
        assert not refused
    except ValueError:
        assert refused
    raw = {"kind": "stability", "grid": {"dim": dim, "n": n, "t_final": 0.01},
           "eps": widths, "mu": {"family": "constant", "value": 1.0},
           "z0": {"family": "constant", "value": 1.0}}
    try:
        assert parse_config(json.dumps(raw)).raw["eps"] == widths
        assert not refused
    except ConfigError as exc:
        assert refused and str(exc).startswith("config.eps")


@PROPERTY
@given(st.sampled_from((8, 16, 32, 64, 128, 256)),
       st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       st.integers(0, 2 ** 32 - 1), st.integers(-300, 300),
       st.integers(0, 4))
def test_direct_convolution_keeps_sign_and_mass(n, t, seed, decade, cells):
    # the circulant product of a 1-D grid up to DIRECT_MAX points: a
    # non-negative density stays exactly non-negative (narrow kernels on
    # data that are 0 on long runs of cells are where an FFT's round-off
    # goes below 0), its mass is kept to round-off, and the bits do not
    # depend on where or how the input lies in memory
    grid = make_grid(1, n, 1.0, 1)
    kern = make_kernel(grid, 2.0 * grid.h + t * (0.5 - 2.0 * grid.h))
    rng = np.random.default_rng(seed)
    v = rng.random(n) * 10.0 ** decade
    if cells:  # 0 draws data non-zero on every cell, else on that many
        v[rng.permutation(n)[cells:]] = 0.0
    out = convolve_array(v, kern)
    assert out.min() >= 0.0
    assert abs(out.sum() - v.sum()) <= 4 * n * np.finfo(float).eps * v.sum()
    shifted = np.empty(n + 1)[1:]  # one float64 past the allocation
    shifted[:] = v
    strided = np.empty(2 * n)[::2]
    strided[:] = v
    assert np.array_equal(convolve_array(shifted, kern), out)
    assert np.array_equal(convolve_array(strided, kern), out)


# ---------------------------------------------------------------------------
# a config that parses can be run

CONFIG_SPECIES = [
    {"coeff": {"kind": "clamped_affine", "d": 1.0, "c": [1.0], "lo": 0.5,
               "hi": 2.0},
     "reaction": {"rho": 1.0, "s": [1.0, 1.0]}, "kernel_eps": 0.25,
     "init": {"family": "fourier_mode", "k": 1, "amp": 0.3, "offset": 1.0}},
    {"coeff": {"kind": "constant", "d": 1.0},
     "reaction": {"rho": 1.0, "s": [0.0, 1.0]},
     "init": {"family": "spike", "base": 0.5, "peak": 1.5, "width": 0.2}}]
# one small valid config of each kind, both kolmogorov modes; every width
# is at least 2h on the coarsest grid, n = 8
CONFIGS = [
    {"kind": "kolmogorov", "seed": 1,
     "mu": {"family": "random", "seed": 3, "lo": 0.5, "hi": 1.5},
     "z0": {"family": "fourier_mode", "k": 1, "amp": 0.5, "offset": 1.0},
     "source": {"family": "spike", "base": 0.0, "peak": 1.0, "width": 0.1}},
    {"kind": "kolmogorov",
     "mu": {"family": "piecewise", "levels": [0.5, 1.5]},
     "z0": {"family": "spike", "base": 0.5, "peak": 2.0, "width": 0.1},
     "reaction": {"family": "fourier_mode", "k": 2, "amp": 1.0}},
    {"kind": "dual", "seed": 2,
     "mu": {"family": "spike", "base": 1.0, "peak": 2.0, "width": 0.2},
     "s": {"family": "random", "lo": -1.0, "hi": 1.0}},
    {"kind": "verify_duality", "seed": 5, "threshold": 1e-11},
    {"kind": "stability",
     "mu": {"family": "piecewise", "levels": [0.5, 1.5]},
     "z0": {"family": "fourier_mode", "k": 1, "offset": 1.0},
     "g": {"family": "constant", "value": 0.5}, "eps": [0.5, 0.25]},
    {"kind": "skt", "species": CONFIG_SPECIES},
    {"kind": "converge", "species": CONFIG_SPECIES, "eps": [0.5, 0.25]},
    {"kind": "weights", "seed": 4,
     "weight": {"family": "piecewise", "levels": [1.0, 9.0]}},
]
MUTANTS = [True, False, "x", None, [], {}, -1, -2.5, 0, 0.0, 2.5, 1e-300,
           1e308, -1e308, 10 ** 400, math.nan, math.inf, -math.inf]
# the keys that size a run: drawn from small sets below, never mutated
SIZING = ("grid", "count", "trials")
# a plan of more space-time points than this is parsed, not run
RUN_POINTS = 2 * 10 ** 5


def _json_paths(value, prefix=()):
    """The path of every value inside `value`, containers too, but for the
    sizing keys."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    paths = []
    for key, item in items:
        if prefix or key not in SIZING:
            paths += [prefix + (key,)] + _json_paths(item, prefix + (key,))
    return paths


@st.composite
def mutated_configs(draw):
    """A config of CONFIGS on a grid (dim 1 or 2, n in 8/16/32, t_final
    0.001 or 0.01, steps absent, 1 or 40), count and trials 1 or 2, with
    the value at one random path set to one of MUTANTS."""
    raw = json.loads(json.dumps(draw(st.sampled_from(CONFIGS))))
    raw["grid"] = {"dim": draw(st.sampled_from((1, 2))),
                   "n": draw(st.sampled_from((8, 16, 32))),
                   "t_final": draw(st.sampled_from((0.001, 0.01)))}
    steps = draw(st.sampled_from((None, 1, 40)))
    if steps is not None:
        raw["grid"]["steps"] = steps
    sized = {"verify_duality": "count", "weights": "trials"}.get(raw["kind"])
    if sized:
        raw[sized] = draw(st.sampled_from((1, 2)))
    *keys, last = draw(st.sampled_from(_json_paths(raw)))
    target = raw
    for key in keys:
        target = target[key]
    target[last] = draw(st.sampled_from(MUTANTS))
    return raw


@settings(PROPERTY, max_examples=1000)
@given(mutated_configs())
def test_a_config_that_parses_can_be_run(raw):
    # parse_config refuses the config, or run returns a manifest or stops
    # with a numerical abort: no other exception, and no RuntimeWarning
    # (pytest makes it an error).  The grid, count and trials come from
    # small sets so that every example takes milliseconds, and a plan
    # beyond RUN_POINTS space-time points is only parsed
    try:
        cfg = parse_config(json.dumps(raw))
    except ConfigError:
        return
    if (cfg.grid.steps + 1) * cfg.grid.size > RUN_POINTS:
        return
    try:
        run(cfg)
    except (CflViolation, NumericalBlowUp):
        pass


# ---------------------------------------------------------------------------
# the cdl commands that read a field dump

@st.composite
def field_dumps(draw):
    """(dim, n, values) of a field dump: dim 1 or 2, n in 8/16/32, values
    m 2^e with m in [1, 2) and e in a band of 0 to 2097 exponents ending at
    a drawn top, the ends of the float range often (the smallest values
    round to subnormals or 0); all positive or of both signs, some of them
    0, or all equal."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((8, 16, 32)))
    hi = draw(st.one_of(st.sampled_from((-1074, -1022, 1022, 1023)),
                        st.integers(-1074, 1023)))
    lo = max(-1074, hi - draw(st.sampled_from((0, 1, 16, 2097))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.ldexp(rng.uniform(1.0, 2.0, n ** dim),
                      rng.integers(lo, hi + 1, n ** dim))
    shape = draw(st.sampled_from(("positive", "signed", "zeros", "equal")))
    if shape == "signed":
        values *= rng.choice((-1.0, 1.0), values.size)
    elif shape == "zeros":
        values[rng.random(values.size) < 0.25] = 0.0
    elif shape == "equal":
        values[...] = values[0]
    return dim, n, values


@settings(PROPERTY, max_examples=200)
@given(field_dumps(), st.sampled_from(("maximal", "a2-check")))
def test_dump_commands_report_finite_values_or_refuse_the_dump(case,
                                                               command):
    # exit 0 with finite values, or exit 2 with one stderr line that names
    # the dump; no other exit, exception or RuntimeWarning (pytest makes it
    # an error)
    dim, n, values = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.cdl")
        torus.dump_slices(path, dim, n, values[None])
        flag = "--field" if command == "maximal" else "--weight"
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, flag, path])
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and path in lines[0]
        return
    assert code == 0 and err.getvalue() == ""
    report = json.loads(out.getvalue())
    assert all(math.isfinite(v) for v in report.values())
    if command == "maximal":   # the largest ball mean is max|f|, rounded
        top = np.abs(values).max()
        assert top <= report["sup"] <= top * (1 + 1e-12)
        assert 0.0 <= report["mean"] <= report["sup"] * (1 + 1e-12)
    else:
        assert report["a2_constant"] >= 1.0
        assert (report["n"], report["dim"]) == (n, dim)
