"""Forward solver: CFL, positivity, mass ledger, comparison principle."""

import itertools
import sys

import numpy as np
import pytest

from crossdifflab.dual import DualProblem
from crossdifflab.kolmo import (CflViolation, KolmogorovProblem,
                                NumericalBlowUp, cfl_timestep,
                                comparison_check, march, solve_forward,
                                steps_for)
from crossdifflab.torus import Field, Trajectory, make_grid, norm


def _grid(n=32, t_final=0.02, mu_sup=1.0, dim=1):
    return make_grid(dim, n, t_final, steps_for(dim, n, t_final, mu_sup))


def test_cfl_timestep_formula():
    # the bits of 0.9 h^2 / (2 dim mu) for a mu of any size: h^2 and 2 dim
    # are powers of two, so dividing by them first rounds nothing
    rng = np.random.default_rng(0)
    for dim, n in itertools.product((1, 2), (8, 64, 1024)):
        g = make_grid(dim, n, 1.0, 1)
        for mu in [2.0, *10.0 ** rng.uniform(-300.0, 300.0, 100)]:
            assert cfl_timestep(g, mu) == 0.9 * g.h ** 2 / (2.0 * dim * mu)
    with pytest.raises(ValueError):
        cfl_timestep(g, 0.0)


@pytest.mark.parametrize("sup", [
    np.nan, np.inf, -np.inf, -1.0, True, pytest.param("1", id="str"),
    pytest.param(10 ** 400, id="int-beyond-float")])
def test_cfl_refuses_a_sup_that_is_not_finite_and_positive(sup):
    # a NaN sup once gave a NaN bound, and a march under it passed its
    # CFL check (tau > NaN is false) and ran; True was taken as 1, and an
    # int beyond the float range raised an OverflowError
    g = make_grid(1, 16, 0.01, 100)
    with pytest.raises(ValueError, match="finite and positive"):
        cfl_timestep(g, sup)
    calls = []
    with pytest.raises(ValueError, match="finite and positive"):
        march(g, sup, np.zeros(g.size),
              lambda a, b, window: calls.append((a, b)),
              lambda first, rows: calls.append(first))
    assert calls == []


def test_cfl_takes_numpy_numbers():
    g = make_grid(1, 16, 0.01, 100)
    assert cfl_timestep(g, np.float32(2.0)) == cfl_timestep(g, 2.0) \
        == cfl_timestep(g, np.int64(2))


@pytest.mark.parametrize("mu_sup", [1e308, sys.float_info.max])
def test_cfl_of_a_sup_near_the_float_range(mu_sup):
    # 2 dim mu_sup overflowed to inf, the bound was 0, and steps_for raised
    # a ZeroDivisionError that no config error caught
    g = make_grid(2, 32, 0.01, 1)
    assert 0.0 < cfl_timestep(g, mu_sup) < 1e-300
    with pytest.raises(ValueError, match="beyond the float range"):
        steps_for(2, 32, 0.01, mu_sup)


def test_steps_for_is_sufficient():
    for n, t, mu in [(32, 0.1, 1.0), (64, 0.25, 3.0), (16, 1.0, 0.5)]:
        g = make_grid(1, n, t, steps_for(1, n, t, mu))
        assert g.tau <= cfl_timestep(g, mu) * (1 + 1e-12)


def test_cfl_violation_raised():
    g = make_grid(1, 32, 1.0, 10)  # tau = 0.1, way past the bound
    p = KolmogorovProblem(grid=g, mu=Trajectory.constant(g, 1.0),
                          z0=Field.constant(g, 1.0),
                          source=Trajectory.constant(g, 0.0))
    with pytest.raises(CflViolation):
        solve_forward(p)


def test_problem_validation():
    g = _grid()
    mu = Trajectory.constant(g, 1.0)
    z0 = Field.constant(g, 1.0)
    with pytest.raises(ValueError, match="exactly one"):
        KolmogorovProblem(grid=g, mu=mu, z0=z0)
    with pytest.raises(ValueError, match="exactly one"):
        KolmogorovProblem(grid=g, mu=mu, z0=z0,
                          source=Trajectory.constant(g, 0.0),
                          reaction=Trajectory.constant(g, 0.0))
    with pytest.raises(ValueError, match="lower-bounded"):
        KolmogorovProblem(grid=g, mu=Trajectory.constant(g, 0.0), z0=z0,
                          source=Trajectory.constant(g, 0.0))
    with pytest.raises(ValueError, match="z0 >= 0"):
        KolmogorovProblem(grid=g, mu=mu, z0=Field.constant(g, -1.0),
                          reaction=Trajectory.constant(g, 0.0))


@pytest.mark.parametrize("name", ["mu", "source", "reaction"])
def test_problem_refuses_data_on_another_grid(name):
    # a source with twice the steps used to march every step and then die
    # in the mass ledger with a numpy broadcast error
    g = _grid()
    other = make_grid(g.dim, g.n, g.t_final, 2 * g.steps)
    mode = "reaction" if name == "reaction" else "source"
    data = {"mu": Trajectory.constant(g, 1.0),
            mode: Trajectory.constant(g, 0.0)}
    data[name] = Trajectory.constant(other, 1.0)
    with pytest.raises(ValueError, match=f"{name} lives on grid"):
        KolmogorovProblem(grid=g, z0=Field.constant(g, 1.0), **data)


def test_positivity_exact_under_cfl():
    rng = np.random.default_rng(0)
    g = _grid(mu_sup=3.0)
    for _ in range(5):
        mu = Trajectory.constant_in_time(
            g, Field(g, rng.uniform(0.3, 3.0, g.size)))
        z0 = Field(g, rng.uniform(0.0, 2.0, g.size))
        src = Trajectory.constant_in_time(
            g, Field(g, rng.uniform(0.0, 1.0, g.size)))
        rep = solve_forward(KolmogorovProblem(grid=g, mu=mu, z0=z0,
                                              source=src))
        assert rep.min_value >= 0.0


def test_mass_ledger_with_source():
    rng = np.random.default_rng(1)
    g = _grid()
    mu = Trajectory.constant_in_time(
        g, Field(g, rng.uniform(0.5, 1.0, g.size)))
    z0 = Field(g, rng.standard_normal(g.size))
    src = Trajectory.constant_in_time(g, Field(g, rng.standard_normal(g.size)))
    p = KolmogorovProblem(grid=g, mu=mu, z0=z0, source=src)
    rep = solve_forward(p)
    assert rep.mass_drift < 1e-13
    # the ledger taken here: int z^k - int z^0 = sum_{j<k} tau int G^j
    vol = g.cell_volume()
    mass = vol * rep.trajectory.data.sum(axis=1)
    inflow = g.tau * vol * np.cumsum(src.data.sum(axis=1))
    assert np.abs(mass[1:] - mass[0] - inflow[:-1]).max() < 1e-13


def test_mass_conserved_without_source():
    rng = np.random.default_rng(2)
    g = _grid(dim=2, n=16)
    mu = Trajectory.constant_in_time(
        g, Field(g, rng.uniform(0.5, 1.0, g.size)))
    z0 = Field(g, rng.uniform(0.5, 2.0, g.size))
    p = KolmogorovProblem(grid=g, mu=mu, z0=z0,
                          source=Trajectory.constant(g, 0.0))
    rep = solve_forward(p)
    assert rep.mass_drift < 1e-13 * norm(z0, "L1")


def test_heat_mode_decay():
    # mu = 1: each Fourier mode decays by (1 - tau*lambda_h) per step
    g = _grid(n=64, t_final=0.01)
    z0 = Field.from_function(g, lambda x: np.cos(2 * np.pi * 3 * x))
    p = KolmogorovProblem(grid=g, mu=Trajectory.constant(g, 1.0), z0=z0,
                          source=Trajectory.constant(g, 0.0))
    rep = solve_forward(p)
    lam = 4 * np.sin(3 * np.pi * g.h) ** 2 / g.h ** 2
    factors = (1 - g.tau * lam) ** np.arange(g.steps + 1)
    assert np.abs(rep.trajectory.data - factors[:, None]
                  * z0.values[None, :]).max() < 1e-11


def test_comparison_equality_constant_reaction():
    rng = np.random.default_rng(3)
    g = _grid()
    mu = Trajectory.constant_in_time(
        g, Field(g, rng.uniform(0.5, 1.0, g.size)))
    z0 = Field(g, rng.uniform(0.1, 1.0, g.size))
    r_bar = 0.7
    p = KolmogorovProblem(grid=g, mu=mu, z0=z0,
                          reaction=Trajectory.constant(g, r_bar))
    rep = comparison_check(p, r_bar)
    assert abs(rep.rel_defect) < 1e-13


def test_comparison_inequality_varying_reaction():
    rng = np.random.default_rng(4)
    g = _grid()
    mu = Trajectory.constant_in_time(
        g, Field(g, rng.uniform(0.5, 1.0, g.size)))
    z0 = Field(g, rng.uniform(0.1, 1.0, g.size))
    r_bar = 1.0
    rea = Trajectory.constant_in_time(
        g, Field(g, rng.uniform(-1.0, r_bar, g.size)))
    p = KolmogorovProblem(grid=g, mu=mu, z0=z0, reaction=rea)
    rep = comparison_check(p, r_bar)
    assert rep.max_defect <= 1e-13  # z never exceeds ztilde * e^{r t}
    with pytest.raises(ValueError, match="exceeds r_bar"):
        comparison_check(p, -2.0)
    with pytest.raises(ValueError, match="reaction mode"):
        comparison_check(KolmogorovProblem(
            grid=g, mu=mu, z0=z0, source=Trajectory.constant(g, 0.0)), 0.0)


@pytest.mark.parametrize("r_bar", [
    np.nan, np.inf, -np.inf, "x", True, None,
    pytest.param(10 ** 400, id="int-beyond-float")])
def test_comparison_refuses_an_r_bar_that_is_no_finite_real(r_bar):
    g = _grid()
    p = KolmogorovProblem(grid=g, mu=Trajectory.constant(g, 1.0),
                          z0=Field.constant(g, 1.0),
                          reaction=Trajectory.constant(g, 0.5))
    with pytest.raises(ValueError, match=f"^r_bar must be a finite real "
                                         f"number, got {r_bar!r}$"):
        comparison_check(p, r_bar)
    # numpy reals are real numbers
    assert comparison_check(p, np.float32(0.5)).r_bar == 0.5


def test_blowup_detected():
    g = _grid()
    p = KolmogorovProblem(grid=g, mu=Trajectory.constant(g, 1.0),
                          z0=Field.constant(g, 1.0),
                          source=Trajectory.constant(g, 1e20))
    with pytest.raises(NumericalBlowUp) as exc:
        solve_forward(p)
    assert exc.value.step == 1


def test_report_metadata():
    g = _grid()
    p = KolmogorovProblem(grid=g, mu=Trajectory.constant(g, 1.0),
                          z0=Field.constant(g, 1.0),
                          source=Trajectory.constant(g, 0.0))
    rep = solve_forward(p)
    assert rep.trajectory.data.shape == (g.steps + 1, g.size)
    assert 0.0 < rep.cfl_used <= 0.9 + 1e-12


@pytest.mark.parametrize("lo, hi", [(0.5, 2.0), (-1.0, 2.0), (0.0, 0.0)])
def test_constant_in_time_data_are_scanned_as_one_row(lo, hi):
    # the broadcast view of one field and K+1 materialized copies of it
    # give the same sup mu bits and the same refusals; the view is read
    # as its one distinct row
    g = _grid()
    rng = np.random.default_rng(3)
    f = Field(g, rng.uniform(lo, hi, g.size))
    view = Trajectory.constant_in_time(g, f)
    copy = Trajectory(g, np.tile(f.values, (g.steps + 1, 1)))
    assert view.distinct_rows().shape == (1, g.size)
    assert copy.distinct_rows() is copy.data
    z0 = Field.constant(g, 1.0)
    outcomes = []
    for traj in (view, copy):
        seen = []
        for make in (
                lambda: KolmogorovProblem(grid=g, mu=traj, z0=z0,
                                          source=traj).mu_sup(),
                lambda: DualProblem(grid=g, mu=traj, s=traj).mu_sup(),
                lambda: comparison_check(KolmogorovProblem(
                    grid=g, mu=Trajectory.constant(g, 1.0), z0=z0,
                    reaction=traj), 1.0).r_bar):
            try:
                seen.append(make())
            except ValueError as exc:
                seen.append(str(exc))
        outcomes.append(seen)
    assert outcomes[0] == outcomes[1]
    if lo > 0.0:
        assert outcomes[0][0] == float(f.values.max())
