"""Acceptance gate: one test per headline guarantee, one printed line each.

Run with plain pytest; each test prints its verdict to the terminal even
under output capture.
"""

import json
import time

import numpy as np
import pytest

from crossdifflab.dual import (DualProblem, duality_residual, solve_dual,
                               stability_study, verify_apriori)
from crossdifflab.kolmo import (KolmogorovProblem, comparison_check,
                                solve_forward, steps_for)
from crossdifflab.lab import parse_config, philox_rng, random_duality_problem, \
    run
from crossdifflab.skt import CoeffFamily, ReactionFamily, SktSpec, \
    converge_study, solve_system
from crossdifflab.torus import Field, Trajectory, make_grid, norm, \
    spacetime_norm
from crossdifflab.weights import (Weight, a2_constant, a2_ratio_correlation,
                                  maximal_function)


@pytest.fixture
def verdict(capsys):
    def _verdict(num, name, ok, detail):
        with capsys.disabled():
            print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] "
                  f"{name}: {detail}")
        assert ok, f"criterion {num} ({name}): {detail}"
    return _verdict


def _cfl_grid(dim, n, t_final, mu_sup):
    return make_grid(dim, n, t_final, steps_for(dim, n, t_final, mu_sup))


def test_criterion_1_duality_identity(verdict):
    # 100 randomized (mu, z0, G, S) problems, n=64, CFL steps for T=0.25:
    # the summation-by-parts identity holds to relative 1e-11, under 60 s.
    g = _cfl_grid(1, 64, 0.25, 3.0)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        mu, z0, src, s = random_duality_problem(g, seed=11, index=i)
        p = KolmogorovProblem(grid=g, mu=mu, z0=z0, source=src)
        z = solve_forward(p).trajectory
        worst = max(worst, duality_residual(z, p, s))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed <= 60.0
    verdict(1, "discrete duality identity", ok,
            f"max residual {worst:.3e} (<= 1e-11), {elapsed:.1f} s (<= 60)")


def test_criterion_2_heat_oracle(verdict):
    # mu = 1, G = 0, single mode at n=128 with tau far below the CFL bound:
    # the trajectory matches exp(-lambda_h t) with
    # lambda_h = 4 sin^2(pi h)/h^2 to relative 1e-8 at every slice, and the
    # measured decay rate matches the continuum rate (2 pi)^2 within 1%.
    n, steps, t_final = 128, 200000, 1.2e-3
    g = make_grid(1, n, t_final, steps)
    z0 = Field.from_function(g, lambda x: np.cos(2 * np.pi * x))
    p = KolmogorovProblem(grid=g, mu=Trajectory.constant(g, 1.0), z0=z0,
                          source=Trajectory.constant(g, 0.0))
    traj = solve_forward(p).trajectory
    lam = 4 * np.sin(np.pi * g.h) ** 2 / g.h ** 2
    amps = traj.data[:, 0]  # mode amplitude, read off at x = 0
    exact = np.exp(-lam * g.times())
    rel = float(np.abs(amps - exact).max() / exact.min())
    rate = float(-np.log(amps[-1]) / t_final)
    rate_err = abs(rate - (2 * np.pi) ** 2) / (2 * np.pi) ** 2
    ok = rel <= 1e-8 and rate_err <= 0.01
    verdict(2, "heat decay oracle", ok,
            f"semi-discrete mismatch {rel:.3e} (<= 1e-8), continuum rate "
            f"off by {100 * rate_err:.4f}% (<= 1%)")


def test_criterion_3_sign_properties(verdict):
    # non-negative data keep z >= 0; non-negative S keeps Phi <= 0,
    # both to -1e-13 over 50 randomized problems each.
    g = _cfl_grid(1, 32, 0.02, 3.0)
    worst_z, worst_phi = 0.0, 0.0
    for i in range(50):
        rng = philox_rng(23, i)
        mu = Trajectory.constant_in_time(
            g, Field(g, rng.uniform(0.3, 3.0, g.size)))
        z0 = Field(g, rng.uniform(0.0, 2.0, g.size))
        src = Trajectory.constant_in_time(
            g, Field(g, rng.uniform(0.0, 1.0, g.size)))
        rep = solve_forward(KolmogorovProblem(grid=g, mu=mu, z0=z0,
                                              source=src))
        worst_z = min(worst_z, rep.min_value)
        s = Trajectory.constant_in_time(
            g, Field(g, rng.uniform(0.0, 1.0, g.size)))
        phi = solve_dual(DualProblem(grid=g, mu=mu, s=s))
        worst_phi = max(worst_phi, float(phi.data.max()))
    ok = worst_z >= -1e-13 and worst_phi <= 1e-13
    verdict(3, "exact sign properties", ok,
            f"min z = {worst_z:.1e} (>= -1e-13), "
            f"max Phi = {worst_phi:.1e} (<= 1e-13)")


def test_criterion_4_comparison_principle(verdict):
    # z <= ztilde * exp(rbar t) to relative 1e-10 for varying reactions,
    # with equality to 1e-12 when the reaction is the constant rbar.
    g = _cfl_grid(1, 32, 0.02, 3.0)
    r_bar = 0.8
    worst_defect = 0.0
    for i in range(20):
        rng = philox_rng(29, i)
        mu = Trajectory.constant_in_time(
            g, Field(g, rng.uniform(0.3, 3.0, g.size)))
        z0 = Field(g, rng.uniform(0.1, 1.0, g.size))
        rea = Trajectory.constant_in_time(
            g, Field(g, rng.uniform(-1.0, r_bar, g.size)))
        rep = comparison_check(
            KolmogorovProblem(grid=g, mu=mu, z0=z0, reaction=rea), r_bar)
        worst_defect = max(worst_defect, rep.rel_defect)

    rng = philox_rng(29, 999)
    mu = Trajectory.constant_in_time(
        g, Field(g, rng.uniform(0.3, 3.0, g.size)))
    z0 = Field(g, rng.uniform(0.1, 1.0, g.size))
    z = solve_forward(KolmogorovProblem(
        grid=g, mu=mu, z0=z0,
        reaction=Trajectory.constant(g, r_bar))).trajectory
    z_free = solve_forward(KolmogorovProblem(
        grid=g, mu=mu, z0=z0,
        reaction=Trajectory.constant(g, 0.0))).trajectory
    growth = np.exp(r_bar * g.times())[:, None]
    eq_defect = float(np.abs(z.data - z_free.data * growth).max()
                      / np.abs(z_free.data).max())
    ok = worst_defect <= 1e-10 and eq_defect <= 1e-12
    verdict(4, "comparison principle", ok,
            f"max defect {worst_defect:.1e} (<= 1e-10), constant-reaction "
            f"equality defect {eq_defect:.1e} (<= 1e-12)")


def test_criterion_5_apriori_estimate(verdict):
    # gradient + laplacian energy of the dual solve is controlled by the
    # weighted source norm, within 5% slack, over 100 rough-mu problems.
    g = _cfl_grid(1, 64, 0.1, 3.0)
    worst = 0.0
    for i in range(100):
        rng = philox_rng(31, i)
        mu = Trajectory.constant_in_time(
            g, Field(g, rng.uniform(0.3, 3.0, g.size)))
        s = Trajectory.constant_in_time(
            g, Field(g, rng.standard_normal(g.size)))
        p = DualProblem(grid=g, mu=mu, s=s)
        rep1, _ = verify_apriori(p, solve_dual(p))
        worst = max(worst, rep1.ratio)
        if not rep1.passed:
            break
    ok = worst <= 1.05
    verdict(5, "a-priori energy estimate", ok,
            f"max lhs/rhs ratio {worst:.4f} (<= 1.05)")


def _smooth_random_field(grid, rng, modes=6):
    # fixed low-frequency content: the same continuum function at any n
    x = np.arange(grid.n) / grid.n
    v = np.full(grid.n, rng.standard_normal())
    for k in range(1, modes + 1):
        a, b = rng.standard_normal(2)
        v += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
    return Field(grid, v)


def _block_rough_mu(grid, rng, blocks=8):
    # piecewise-constant on fixed physical blocks: rough but grid-stable
    vals = rng.uniform(0.3, 3.0, size=blocks)
    idx = (np.arange(grid.n) * blocks) // grid.n
    return Field(grid, vals[idx])


def _duality_constant(n, count, seed):
    g = _cfl_grid(1, n, 0.1, 3.0)
    best = 0.0
    for i in range(count):
        rng = philox_rng(seed, i)
        mu = Trajectory.constant_in_time(g, _block_rough_mu(g, rng))
        z0 = _smooth_random_field(g, rng)
        src = Trajectory.constant_in_time(g, _smooth_random_field(g, rng))
        z = solve_forward(KolmogorovProblem(
            grid=g, mu=mu, z0=z0, source=src)).trajectory
        num = float(np.sqrt(g.tau * g.cell_volume()
                            * np.sum(mu.data[:-1] * z.data[:-1] ** 2)))
        den = ((np.sqrt(spacetime_norm(mu, "L1Q")) + 1.0)
               * (norm(z0, "L2") + spacetime_norm(src, "L1Hminus1")))
        best = max(best, num / den)
    return best


def test_criterion_6_duality_constant_stable(verdict):
    # the measured constant in the mu-independent solution bound is finite
    # and moves less than 20% when the grid is refined from 64 to 128,
    # over 100 problems that represent the same continuum data at both n.
    c64 = _duality_constant(64, 100, seed=37)
    c128 = _duality_constant(128, 100, seed=37)
    drift = abs(c128 / c64 - 1.0)
    ok = np.isfinite(c64) and np.isfinite(c128) and drift <= 0.2
    verdict(6, "duality-estimate constant", ok,
            f"C*(64) = {c64:.4f}, C*(128) = {c128:.4f}, "
            f"drift {100 * drift:.2f}% (<= 20%)")


def test_criterion_7_stability_transfer(verdict):
    # mollifying a discontinuous mu perturbs the solution less and less:
    # distances non-increasing (10% slack) across eps = [0.2, 0.1, 0.05]
    # at n=128, and the finest distance is below 5% of the solution norm.
    n, t_final = 128, 0.1
    g = _cfl_grid(1, n, t_final, 1.1)
    x = np.arange(n) / n
    mu = Trajectory.constant_in_time(
        g, Field(g, 1.0 + 0.1 * np.sign(np.cos(2 * np.pi * x))))
    z0 = Field(g, 1.0 + 0.5 * np.cos(2 * np.pi * x))
    src = Trajectory.constant(g, 0.0)
    rows = stability_study(mu, [0.2, 0.1, 0.05], z0, src)
    dists = [r.z_distance for r in rows]
    z_norm = spacetime_norm(solve_forward(KolmogorovProblem(
        grid=g, mu=mu, z0=z0, source=src)).trajectory, "L2Q")
    monotone = all(b <= a * 1.10 for a, b in zip(dists, dists[1:]))
    final_rel = dists[-1] / z_norm
    ok = monotone and final_rel <= 0.05
    verdict(7, "stability under mollified mu", ok,
            f"distances {[f'{d:.4f}' for d in dists]} non-increasing: "
            f"{monotone}, final {100 * final_rel:.2f}% of ||z|| (<= 5%)")


def _reference_skt_spec(grid):
    x = np.arange(grid.n) / grid.n
    return SktSpec(
        grid=grid,
        coeffs=(CoeffFamily(kind="clamped_affine", d=1.0, c=(1.0,),
                            lo=0.5, hi=2.0),
                CoeffFamily(kind="constant", d=1.0)),
        reactions=(ReactionFamily(rho=1.0, s=(1.0, 1.0)),
                   ReactionFamily(rho=1.0, s=(0.0, 1.0))),
        kernels=(None, None),
        init=(Field(grid, 1.0 + 0.3 * np.cos(2 * np.pi * x)),
              Field(grid, 1.0 + 0.3 * np.sin(2 * np.pi * x))))


def test_criterion_8_skt_convergence(verdict):
    # the non-local system approaches the local one as the kernels shrink:
    # per-species distances non-increasing (10% slack) across
    # eps = [0.4, 0.2, 0.1, 0.05] at n=128, T=0.25, in under 10 minutes.
    g = _cfl_grid(1, 128, 0.25, 2.0)
    start = time.perf_counter()
    rows = converge_study(_reference_skt_spec(g), [0.4, 0.2, 0.1, 0.05])
    elapsed = time.perf_counter() - start
    d = np.array([r.distances for r in rows])
    monotone = bool(np.all(d[1:] <= d[:-1] * 1.10))
    ok = monotone and elapsed <= 600.0
    verdict(8, "kernel-to-Dirac convergence", ok,
            f"final distances {[f'{v:.2e}' for v in d[-1]]}, "
            f"non-increasing: {monotone}, {elapsed:.1f} s (<= 600)")


def test_criterion_9_triangular_decoupling(verdict):
    # r_2 reads species 2 only, so species 2 must be bit-identical when
    # species 1's initial data changes.
    g = _cfl_grid(1, 64, 0.02, 2.0)
    spec = _reference_skt_spec(g)
    x = np.arange(g.n) / g.n
    bumped = SktSpec(
        grid=g, coeffs=spec.coeffs, reactions=spec.reactions,
        kernels=spec.kernels,
        init=(Field(g, spec.init[0].values + 0.4 * np.cos(6 * np.pi * x)),
              spec.init[1]))
    u2_a = solve_system(spec)[1]
    u2_b = solve_system(bumped)[1]
    ok = np.array_equal(u2_a.data, u2_b.data)
    verdict(9, "triangular decoupling", ok,
            "last species bit-identical under first-species perturbation: "
            f"{ok}")


def test_criterion_10_mass_conservation(verdict):
    # without sources or reactions every solver conserves total mass to
    # relative 1e-11.
    drifts = {}
    rng = philox_rng(41, 0)

    g1 = _cfl_grid(1, 64, 0.05, 3.0)
    mu = Trajectory.constant_in_time(
        g1, Field(g1, rng.uniform(0.3, 3.0, g1.size)))
    z0 = Field(g1, rng.uniform(0.5, 2.0, g1.size))
    rep = solve_forward(KolmogorovProblem(
        grid=g1, mu=mu, z0=z0, source=Trajectory.constant(g1, 0.0)))
    drifts["forward_1d"] = rep.mass_drift / norm(z0, "L1")

    g2 = _cfl_grid(2, 16, 0.02, 3.0)
    mu2 = Trajectory.constant_in_time(
        g2, Field(g2, rng.uniform(0.3, 3.0, g2.size)))
    z02 = Field(g2, rng.uniform(0.5, 2.0, g2.size))
    rep2 = solve_forward(KolmogorovProblem(
        grid=g2, mu=mu2, z0=z02, source=Trajectory.constant(g2, 0.0)))
    drifts["forward_2d"] = rep2.mass_drift / norm(z02, "L1")

    gs = _cfl_grid(1, 64, 0.05, 2.0)
    base = _reference_skt_spec(gs)
    no_reaction = SktSpec(
        grid=gs, coeffs=base.coeffs,
        reactions=(ReactionFamily(rho=0.0, s=(0.0, 0.0)),
                   ReactionFamily(rho=0.0, s=(0.0, 0.0))),
        kernels=base.kernels, init=base.init)
    for i, traj in enumerate(solve_system(no_reaction)):
        mass = gs.cell_volume() * traj.data.sum(axis=1)
        drifts[f"skt_u{i + 1}"] = float(
            np.abs(mass - mass[0]).max() / mass[0])

    worst = max(drifts.values())
    ok = worst <= 1e-11
    verdict(10, "mass conservation", ok,
            f"max relative drift {worst:.1e} (<= 1e-11) over {drifts}")


def test_criterion_11_weights_toolkit(verdict):
    g = make_grid(1, 64, 1.0, 1)
    a2_const = a2_constant(Weight(Field.constant(g, 1.0)))

    dominated = True
    for i in range(50):
        rng = philox_rng(43, i)
        f = Field(g, rng.standard_normal(g.size))
        mf = maximal_function(f)
        dominated = dominated and bool(np.all(mf.values
                                              >= np.abs(f.values)))

    x = np.arange(64) / 64
    bump = np.exp(-(np.minimum(x, 1 - x) / 0.08) ** 2)
    family = [Weight(Field(g, (1.0 + 8.0 * bump) ** p))
              for p in (0.0, 0.5, 1.0, 1.5, 2.0)]
    rho = a2_ratio_correlation(family, trials=20, seed=0)
    ok = a2_const == 1.0 and dominated and rho > 0.8
    verdict(11, "weights toolkit", ok,
            f"A2(const) = {a2_const}, Mf >= |f|: {dominated}, "
            f"Spearman {rho:.3f} (> 0.8)")


def test_criterion_12_determinism(verdict, tmp_path):
    # the same config and seed produce byte-identical artifacts.
    cfg_text = json.dumps({
        "kind": "converge", "seed": 5,
        "grid": {"dim": 1, "n": 32, "t_final": 0.01},
        "eps": [0.2, 0.1],
        "species": [
            {"coeff": {"kind": "clamped_affine", "d": 1.0, "c": [1.0],
                       "lo": 0.5, "hi": 2.0},
             "reaction": {"rho": 1.0, "s": [1.0, 1.0]},
             "init": {"family": "random", "seed": 1, "lo": 0.5, "hi": 1.5}},
            {"coeff": {"kind": "constant", "d": 1.0},
             "reaction": {"rho": 1.0, "s": [0.0, 1.0]},
             "init": {"family": "random", "seed": 2, "lo": 0.5, "hi": 1.5}},
        ]})
    for d in ("a", "b"):
        run(parse_config(cfg_text), str(tmp_path / d))
    csv_same = (tmp_path / "a" / "converge.csv").read_bytes() \
        == (tmp_path / "b" / "converge.csv").read_bytes()

    kcfg = json.dumps({
        "kind": "kolmogorov", "seed": 5,
        "grid": {"dim": 1, "n": 32, "t_final": 0.01},
        "mu": {"family": "random", "seed": 3, "lo": 0.3, "hi": 3.0},
        "z0": {"family": "random", "seed": 4, "lo": 0.0, "hi": 1.0},
        "source": {"family": "constant", "value": 0.0}})
    for d in ("ka", "kb"):
        run(parse_config(kcfg), str(tmp_path / d))
    dump_same = (tmp_path / "ka" / "trajectory.cdl").read_bytes() \
        == (tmp_path / "kb" / "trajectory.cdl").read_bytes()
    ok = csv_same and dump_same
    verdict(12, "determinism", ok,
            f"CSV byte-identical: {csv_same}, "
            f"trajectory dump byte-identical: {dump_same}")
