"""Property tests of the exact discrete guarantees over random grids,
coefficients and data.  Derandomized, so every run draws the same cases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdifflab.dual import duality_residual
from crossdifflab.kolmo import KolmogorovProblem, solve_forward, steps_for
from crossdifflab.torus import (Field, Trajectory, grad_sq_stack, lap_array,
                                lap_stack, make_grid)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def problems(draw):
    """A grid (dim 1 or 2, n in 8/16/32) stepped for a random sup mu, with
    a random generator for the data on it."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((8, 16, 32)))
    mu_lo = draw(st.floats(0.1, 1.0))
    mu_hi = mu_lo + draw(st.floats(0.0, 3.0))
    t_final = draw(st.floats(0.001, 0.01))
    grid = make_grid(dim, n, t_final, steps_for(dim, n, t_final, mu_hi))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mu = Trajectory(grid, rng.uniform(mu_lo, mu_hi,
                                      (grid.steps + 1, grid.size)))
    return grid, mu, rng


@PROPERTY
@given(problems())
def test_stencil_on_stack_is_slice_by_slice(case):
    grid, mu, rng = case
    data = rng.standard_normal((5, grid.size))
    lap = lap_stack(data, grid)
    grad = grad_sq_stack(data, grid)
    for k in range(len(data)):
        assert np.array_equal(lap[k], lap_array(data[k], grid))
        assert grad[k] == grad_sq_stack(data[k], grid)


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
