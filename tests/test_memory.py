"""Memory ceilings: whole-trajectory reductions and .cdl dumps hold no
second trajectory-size array.  Measured with tracemalloc, which sees
numpy's data buffers."""

import tracemalloc

import numpy as np
import pytest

from crossdifflab.dual import DualProblem, verify_apriori
from crossdifflab.kolmo import (KolmogorovProblem, comparison_check,
                                solve_forward)
from crossdifflab.lab import build_field
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
