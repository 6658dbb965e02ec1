"""Memory ceilings: whole-trajectory reductions and .cdl dumps hold no
second trajectory-size array.  Measured with tracemalloc, which sees
numpy's data buffers."""

import tracemalloc

import numpy as np
import pytest

from crossdifflab.dual import DualProblem, stability_study, verify_apriori
from crossdifflab.kolmo import (KolmogorovProblem, comparison_check,
                                solve_forward, steps_for)
from crossdifflab.lab import build_field
from crossdifflab.skt import (CoeffFamily, ReactionFamily, SktSpec,
                              converge_study)
from crossdifflab.torus import (Field, Trajectory, dump_slices, load_field,
                                load_slices, make_grid, spacetime_norm)

MB = 2 ** 20


@pytest.fixture(scope="module")
def traj():
    """A 2-D trajectory of about 30 MB: 229 slices of 128^2 values."""
    grid = make_grid(2, 128, 1e-4, 228)
    rng = np.random.default_rng(8)
    return Trajectory(grid, rng.standard_normal((grid.steps + 1, grid.size)))


def _peak(fn) -> int:
    """Peak traced bytes allocated while fn runs, above what it starts with."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["L2Q", "L1Q", "LinfL2", "L1Hminus1"])
def test_spacetime_norm_peak(traj, kind):
    assert _peak(lambda: spacetime_norm(traj, kind)) < traj.data.nbytes / 8
    assert _peak(lambda: spacetime_norm(traj, kind, minus=traj)) \
        < traj.data.nbytes / 8


@pytest.mark.parametrize("kind", ["L2Q", "L1Q", "LinfL2", "L1Hminus1"])
def test_constant_in_time_norm_reads_one_row(kind):
    # a broadcast view of one 1-D row over 10^4 steps: a streamed block
    # would hold 256 of its rows, the whole trajectory 10^4 + 1
    grid = make_grid(1, 128, 0.1, 10 ** 4)
    f = Field(grid, np.random.default_rng(11).standard_normal(grid.size))
    const = Trajectory.constant_in_time(grid, f)
    spacetime_norm(const, kind)   # a first FFT call imports numpy.fft
    few_rows = 16 * f.values.nbytes
    assert _peak(lambda: spacetime_norm(const, kind)) < few_rows
    assert _peak(lambda: spacetime_norm(const, kind, minus=const)) < few_rows


def test_verify_apriori_peak(traj):
    g = traj.grid
    p = DualProblem(grid=g,
                    mu=Trajectory.constant_in_time(
                        g, Field(g, np.linspace(0.5, 2.0, g.size))),
                    s=Trajectory.constant(g, 1.0))
    assert _peak(lambda: verify_apriori(p, traj)) < traj.data.nbytes / 8


def test_dump_and_load_peak(traj, tmp_path):
    path = tmp_path / "traj.cdl"
    g = traj.grid
    assert (_peak(lambda: dump_slices(path, g.dim, g.n, traj.data))
            < traj.data.nbytes / 8)
    loaded = []
    peak = _peak(lambda: loaded.append(load_slices(path)))
    assert peak <= traj.data.nbytes + MB
    assert np.array_equal(loaded[0][2], traj.data)


def test_load_field_reads_one_slice(tmp_path):
    # a field is slice 0 of a dump: a 200-slice 64^2 dump (6.6 MB) was read
    # whole for a 32 KB field
    grid = make_grid(2, 64, 1.0, 1)
    slices = np.random.default_rng(10).standard_normal((200, grid.size))
    path = tmp_path / "many.cdl"
    dump_slices(path, 2, 64, slices)
    one = slices[0].nbytes
    loaded = []
    assert _peak(lambda: loaded.append(load_field(path))) < 2 * one
    assert np.array_equal(loaded[0].values, slices[0])
    spec = {"family": "dump", "path": str(path)}
    assert _peak(lambda: build_field(grid, spec, "p")) < 2 * one


def test_comparison_check_peak(traj):
    # the two solves are the only trajectory-size arrays it holds, and its
    # blocked maxima are the whole-array ones
    g = traj.grid
    rng = np.random.default_rng(9)
    p = KolmogorovProblem(
        grid=g, mu=Trajectory.constant(g, 1.0),
        z0=Field(g, rng.uniform(0.5, 1.5, g.size)),
        reaction=Trajectory.constant_in_time(
            g, Field(g, rng.uniform(-1.0, 1.0, g.size))))
    reports = []
    peak = _peak(lambda: reports.append(comparison_check(p, 1.0)))
    assert peak < (2 + 1 / 8) * traj.data.nbytes
    z = solve_forward(p).trajectory.data
    p0 = KolmogorovProblem(grid=g, mu=p.mu, z0=p.z0,
                           reaction=Trajectory.constant(g, 0.0))
    z0 = solve_forward(p0).trajectory.data
    defect = z - z0 * np.exp(g.times())[:, None]
    assert reports[0].max_defect == defect.max()
    assert reports[0].rel_defect == defect.max() / np.abs(z0).max()


# the studies keep their reference run and stream every other run into its
# distances.  A 2-D n = 64 grid of 601 steps (sup mu = 2): a trajectory is
# 19.7 MB, and the rest of a study (a march's block buffer of 9 rows, its
# per-step buffers, the kernels) takes about 1.7 MB
STUDY_GRID = make_grid(2, 64, 0.0165, steps_for(2, 64, 0.0165, 2.0))


def _trajectory_bytes(g):
    return (g.steps + 1) * g.size * 8


def test_converge_study_keeps_only_its_reference_run():
    g = STUDY_GRID
    spec = SktSpec(
        grid=g,
        coeffs=(CoeffFamily(kind="clamped_affine", d=1.0, c=(1.0,),
                            lo=0.5, hi=2.0),
                CoeffFamily(kind="constant", d=1.0)),
        reactions=(ReactionFamily(rho=1.0, s=(1.0, 1.0)),
                   ReactionFamily(rho=1.0, s=(0.0, 1.0))),
        kernels=(None, None),
        init=(Field.from_function(g, lambda x, y: 1.0 + 0.3 * np.cos(
                  2 * np.pi * x)),
              Field.from_function(g, lambda x, y: 1.0 + 0.2 * np.sin(
                  2 * np.pi * (x + y)))))
    one = _trajectory_bytes(g)
    # the local run's two trajectories; each relaxed run held two more
    assert _peak(lambda: converge_study(spec, [0.4, 0.2])) < (2 + 1 / 8) * one


def test_stability_study_keeps_only_its_reference_run():
    g = STUDY_GRID
    rng = np.random.default_rng(12)
    mu = Trajectory.constant_in_time(g, Field(g, rng.uniform(0.5, 2.0,
                                                             g.size)))
    z0 = Field(g, rng.uniform(0.0, 1.0, g.size))
    one = _trajectory_bytes(g)
    # the rough run and the one buffer that holds each width's smoothed
    # mu; each smoothed run, and the previous width's mu, were held too
    assert _peak(lambda: stability_study(
        mu, [0.4, 0.2], z0, Trajectory.constant(g, 0.0))) < (2 + 1 / 8) * one
