"""Backward solver, duality identity, a-priori estimates, stability."""

import numpy as np
import pytest

from crossdifflab import dual as dual_mod
from crossdifflab.dual import (DualProblem, duality_pairings,
                               duality_residual, smooth_mu, solve_dual,
                               stability_study, verify_apriori)
from crossdifflab.kolmo import (CflViolation, KolmogorovProblem,
                                NumericalBlowUp, solve_forward, steps_for)
from crossdifflab.mollify import convolve_array, make_kernel
from crossdifflab.torus import Field, Trajectory, make_grid, spacetime_norm


def _grid(n=32, t_final=0.02, mu_sup=3.0, dim=1):
    return make_grid(dim, n, t_final, steps_for(dim, n, t_final, mu_sup))


def _random_problem(g, rng):
    mu = Trajectory.constant_in_time(
        g, Field(g, rng.uniform(0.3, 3.0, g.size)))
    z0 = Field(g, rng.standard_normal(g.size))
    src = Trajectory.constant_in_time(g, Field(g, rng.standard_normal(g.size)))
    s = Trajectory.constant_in_time(g, Field(g, rng.standard_normal(g.size)))
    return mu, z0, src, s


def test_dual_final_condition_and_zero_source():
    g = _grid()
    p = DualProblem(grid=g, mu=Trajectory.constant(g, 1.0),
                    s=Trajectory.constant(g, 0.0))
    phi = solve_dual(p)
    assert np.abs(phi.data).max() == 0.0


def test_dual_cfl_and_validation():
    g = make_grid(1, 32, 1.0, 10)
    with pytest.raises(CflViolation):
        solve_dual(DualProblem(grid=g, mu=Trajectory.constant(g, 1.0),
                               s=Trajectory.constant(g, 0.0)))
    with pytest.raises(ValueError, match="lower-bounded"):
        DualProblem(grid=g, mu=Trajectory.constant(g, -1.0),
                    s=Trajectory.constant(g, 0.0))


def test_dual_blowup_detected():
    g = _grid()
    p = DualProblem(grid=g, mu=Trajectory.constant(g, 1.0),
                    s=Trajectory.constant(g, 1e20))
    with pytest.raises(NumericalBlowUp) as exc:
        solve_dual(p)
    assert exc.value.step == g.steps - 1


def test_dual_sign_property():
    # S >= 0 forces Phi <= 0, exactly under the CFL bound
    rng = np.random.default_rng(0)
    g = _grid()
    for _ in range(5):
        mu = Trajectory.constant_in_time(
            g, Field(g, rng.uniform(0.3, 3.0, g.size)))
        s = Trajectory.constant_in_time(
            g, Field(g, rng.uniform(0.0, 1.0, g.size)))
        phi = solve_dual(DualProblem(grid=g, mu=mu, s=s))
        assert phi.data.max() <= 0.0


def test_duality_identity_random_problems():
    rng = np.random.default_rng(1)
    g = _grid()
    for _ in range(5):
        mu, z0, src, s = _random_problem(g, rng)
        p = KolmogorovProblem(grid=g, mu=mu, z0=z0, source=src)
        z = solve_forward(p).trajectory
        assert duality_residual(z, p, s) < 1e-12


def test_duality_identity_2d():
    rng = np.random.default_rng(2)
    g = _grid(n=16, dim=2, t_final=0.01)
    mu, z0, src, s = _random_problem(g, rng)
    p = KolmogorovProblem(grid=g, mu=mu, z0=z0, source=src)
    z = solve_forward(p).trajectory
    assert duality_residual(z, p, s) < 1e-12


def test_duality_pairings_reuse_phi():
    rng = np.random.default_rng(3)
    g = _grid()
    mu, z0, src, s = _random_problem(g, rng)
    p = KolmogorovProblem(grid=g, mu=mu, z0=z0, source=src)
    z = solve_forward(p).trajectory
    phi = solve_dual(DualProblem(grid=g, mu=mu, s=s))
    t1, t2, t3, phi_out = duality_pairings(z, p, s, phi)
    assert phi_out is phi
    assert abs(t1 + t2 + t3) < 1e-12 * (abs(t1) + abs(t2) + abs(t3))


def test_duality_pairings_refuse_another_grid():
    rng = np.random.default_rng(3)
    g = _grid()
    mu, z0, src, s = _random_problem(g, rng)
    p = KolmogorovProblem(grid=g, mu=mu, z0=z0, source=src)
    z = solve_forward(p).trajectory
    other = make_grid(1, 32, 0.02, g.steps + 1)
    with pytest.raises(ValueError, match="^grid mismatch$"):
        duality_pairings(z, p, Trajectory.constant(other, 1.0))
    q = KolmogorovProblem(grid=other, mu=Trajectory.constant(other, 1.0),
                          z0=Field.constant(other, 1.0),
                          source=Trajectory.constant(other, 0.0))
    with pytest.raises(ValueError, match="^grid mismatch$"):
        duality_pairings(z, q, s)


def _residuals(p, s):
    """The residual over the kept trajectories and the streamed one."""
    kept = duality_residual(solve_forward(p).trajectory, p, s)
    return kept, dual_mod.streamed_duality_residual(p, s)


def _scaled_problem(g, rng, z0_g, s_scale):
    """_random_problem with z0 and G times z0_g and S times s_scale."""
    mu, z0, src, s = _random_problem(g, rng)

    def scaled(t, c):
        return Trajectory.constant_in_time(g, Field(g, t.data[0] * c))
    p = KolmogorovProblem(grid=g, mu=mu, z0=Field(g, z0.values * z0_g),
                          source=scaled(src, z0_g))
    return p, scaled(s, s_scale)


def test_duality_residual_of_underflowed_pairings_is_nan():
    # data near 1e-320: every product underflows, all three terms are 0,
    # and 0/0 read as a residual of 0.0, a perfect identity
    g = _grid()
    p, s = _scaled_problem(g, np.random.default_rng(5), 1e-320, 1e-320)
    assert all(t == 0.0 for t in duality_pairings(
        solve_forward(p).trajectory, p, s)[:3])
    kept, streamed = _residuals(p, s)
    assert np.isnan(kept) and np.isnan(streamed)


@pytest.mark.parametrize("z0_g, s_scale", [(0.0, 1.0), (1.0, 0.0)])
def test_duality_residual_of_exactly_vanishing_pairings_is_zero(z0_g,
                                                                s_scale):
    # z0 = G = 0 makes z = 0, and S = 0 makes Phi = 0: every term is 0
    g = _grid()
    p, s = _scaled_problem(g, np.random.default_rng(6), z0_g, s_scale)
    assert _residuals(p, s) == (0.0, 0.0)


def test_duality_requires_source_mode():
    g = _grid()
    p = KolmogorovProblem(grid=g, mu=Trajectory.constant(g, 1.0),
                          z0=Field.constant(g, 1.0),
                          reaction=Trajectory.constant(g, 0.0))
    z = solve_forward(p).trajectory
    with pytest.raises(ValueError, match="source-mode"):
        duality_residual(z, p, Trajectory.constant(g, 1.0))


def test_apriori_estimate_random_mu():
    rng = np.random.default_rng(4)
    g = _grid()
    for _ in range(10):
        mu = Trajectory.constant_in_time(
            g, Field(g, rng.uniform(0.3, 3.0, g.size)))
        s = Trajectory.constant_in_time(
            g, Field(g, rng.standard_normal(g.size)))
        p = DualProblem(grid=g, mu=mu, s=s)
        phi = solve_dual(p)
        rep1, rep2 = verify_apriori(p, phi)
        assert rep1.passed, rep1
        assert rep1.lhs <= rep1.rhs * 1.05
        assert np.isfinite(rep2.ratio)


def test_apriori_estimate_refuses_phi_of_another_grid():
    # the same n and twice as many steps: its rows were read as p's, and
    # the report passed with another ratio
    rng = np.random.default_rng(5)
    g = _grid(n=16)
    mu, _, _, s = _random_problem(g, rng)
    p = DualProblem(grid=g, mu=mu, s=s)
    g2 = make_grid(1, 16, 2 * g.t_final, 2 * g.steps)
    phi2 = solve_dual(DualProblem(
        grid=g2, mu=Trajectory.constant_in_time(g2, Field(g2, mu.data[0])),
        s=Trajectory.constant_in_time(g2, Field(g2, s.data[0]))))
    with pytest.raises(ValueError, match="^grid mismatch$"):
        verify_apriori(p, phi2)


def test_smooth_mu_preserves_constants():
    g = _grid()
    k = make_kernel(g, 0.1)
    mu = Trajectory.constant(g, 2.0)
    sm = smooth_mu(mu, k)
    assert np.abs(sm.data - 2.0).max() < 1e-12


def test_smooth_mu_of_a_mu_spanning_300_decades_stays_positive():
    # the FFT convolution leaves values at or below 0 where mu is 1e-300,
    # which KolmogorovProblem refuses; they are raised to min mu, every
    # value above it is kept
    g = make_grid(2, 128, 1e-4, 3)
    line = np.where(np.arange(128) < 64, 1e-300, 1.5)
    mu = Trajectory.constant_in_time(
        g, Field(g, np.repeat(line, 128)))
    k = make_kernel(g, 0.02)
    conv = convolve_array(mu.data[0], k)
    assert conv.min() <= 0.0
    sm = smooth_mu(mu, k)
    kept = conv > 1e-300
    assert np.array_equal(sm.data[:, kept], np.broadcast_to(
        conv[kept], (g.steps + 1, kept.sum())))
    assert np.all(sm.data[:, ~kept] == 1e-300)


def test_stability_study_distances_shrink():
    g = _grid(n=64, t_final=0.02, mu_sup=1.5)
    x = np.arange(64) / 64
    mu = Trajectory.constant_in_time(
        g, Field(g, 1.0 + 0.5 * np.sign(np.cos(2 * np.pi * x))))
    z0 = Field(g, 1.0 + 0.5 * np.cos(2 * np.pi * x))
    rows = stability_study(mu, [0.2, 0.1], z0, Trajectory.constant(g, 0.0))
    assert [r.eps for r in rows] == [0.2, 0.1]
    assert rows[1].mu_distance < rows[0].mu_distance
    assert rows[1].z_distance < rows[0].z_distance
    ref = solve_forward(KolmogorovProblem(
        grid=g, mu=mu, z0=z0,
        source=Trajectory.constant(g, 0.0))).trajectory
    assert rows[-1].z_distance < 0.5 * spacetime_norm(ref, "L2Q")


def test_stability_study_eps_order():
    g = _grid()
    mu = Trajectory.constant(g, 1.0)
    with pytest.raises(ValueError, match="strictly decreasing"):
        stability_study(mu, [0.1, 0.2], Field.constant(g, 1.0),
                        Trajectory.constant(g, 0.0))


@pytest.mark.parametrize("name", ["mu", "s"])
def test_dual_problem_refuses_data_on_another_grid(name):
    g = _grid()
    other = make_grid(g.dim, g.n, g.t_final, 2 * g.steps)
    data = {"mu": Trajectory.constant(g, 1.0),
            "s": Trajectory.constant(g, 0.0)}
    data[name] = Trajectory.constant(other, 1.0)
    with pytest.raises(ValueError, match=f"{name} lives on grid"):
        DualProblem(grid=g, **data)


@pytest.mark.parametrize("eps", [[0.1, 0.2], [0.2, 0.01]],
                         ids=["increasing", "under-resolved-last"])
def test_stability_study_checks_every_eps_before_solving(monkeypatch, eps):
    solves = []

    def counted(p):
        solves.append(p)
        return solve_forward(p)
    monkeypatch.setattr(dual_mod, "solve_forward", counted)
    g = _grid()
    with pytest.raises(ValueError):
        stability_study(Trajectory.constant(g, 1.0), eps,
                        Field.constant(g, 1.0), Trajectory.constant(g, 0.0))
    assert solves == []
