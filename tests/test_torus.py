"""Grids, fields, discrete operators, norms and binary dumps."""

import numpy as np
import pytest

from crossdifflab.torus import (Field, Grid, Trajectory, dump_field,
                                dump_trajectory, fourier_coefficients,
                                grad_sq_stack, gradient_norm_sq, integrate,
                                lap_array, lap_stack, laplacian, load_slices,
                                make_grid, norm, spacetime_norm)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(3, 64, 1.0, 10)        # dim out of range
    with pytest.raises(ValueError):
        make_grid(1, 48, 1.0, 10)        # not a power of two
    with pytest.raises(ValueError):
        make_grid(1, 4, 1.0, 10)         # too coarse
    with pytest.raises(ValueError):
        make_grid(1, 64, -1.0, 10)       # negative horizon
    with pytest.raises(ValueError):
        make_grid(1, 64, 1.0, 0)         # no steps


def test_grid_derived_quantities():
    g = make_grid(2, 16, 0.5, 25)
    assert g.h == 1.0 / 16
    assert g.tau == 0.02
    assert g.shape == (16, 16)
    assert g.size == 256
    assert g.cell_volume() == (1.0 / 16) ** 2
    t = g.times()
    assert t.shape == (26,)
    assert t[0] == 0.0 and abs(t[-1] - 0.5) < 1e-15


def test_field_validation():
    g = make_grid(1, 8, 1.0, 1)
    with pytest.raises(ValueError):
        Field(g, np.zeros(7))
    with pytest.raises(ValueError):
        Field(g, np.full(8, np.nan))
    f = Field(g, np.arange(8.0))
    assert f.values.shape == (8,)


def test_field_from_function_2d():
    g = make_grid(2, 8, 1.0, 1)
    f = Field.from_function(g, lambda x, y: np.cos(2 * np.pi * x)
                            + 0 * y)
    # row-major: first axis varies slowest
    v = f.reshaped()
    assert np.allclose(v[:, 0], v[:, 3])


def test_trajectory_shape_and_slices():
    g = make_grid(1, 8, 1.0, 3)
    with pytest.raises(ValueError):
        Trajectory(g, np.zeros((3, 8)))
    tr = Trajectory.constant(g, 2.5)
    assert tr.data.shape == (4, 8)
    assert tr.slice(2).values[0] == 2.5
    assert tr.slice(3).values[0] == 2.5     # slices 0..steps, no more
    with pytest.raises(IndexError):
        tr.slice(4)


def test_laplacian_eigenfunction_exact():
    # cos(2 pi k x) is an exact eigenfunction of the centered stencil
    # with eigenvalue -4 sin^2(pi k h) / h^2
    g = make_grid(1, 64, 1.0, 1)
    for k in (1, 3, 7):
        f = Field.from_function(g, lambda x: np.cos(2 * np.pi * k * x))
        lam = 4.0 * np.sin(np.pi * k * g.h) ** 2 / g.h ** 2
        assert np.allclose(laplacian(f).values, -lam * f.values,
                           atol=1e-9 * lam)


def test_laplacian_brute_force_oracle():
    rng = np.random.default_rng(3)
    g = make_grid(1, 8, 1.0, 1)
    v = rng.standard_normal(8)
    lap = lap_array(v, g)
    for i in range(8):
        expect = (v[(i + 1) % 8] - 2 * v[i] + v[(i - 1) % 8]) / g.h ** 2
        assert abs(lap[i] - expect) < 1e-9 * abs(expect) + 1e-9


def test_laplacian_2d_brute_force():
    rng = np.random.default_rng(4)
    g = make_grid(2, 8, 1.0, 1)
    v = rng.standard_normal(g.size)
    lap = lap_array(v, g).reshape(8, 8)
    w = v.reshape(8, 8)
    i, j = 5, 2
    expect = (w[(i + 1) % 8, j] + w[(i - 1) % 8, j]
              + w[i, (j + 1) % 8] + w[i, (j - 1) % 8] - 4 * w[i, j]) / g.h ** 2
    assert abs(lap[i, j] - expect) < 1e-8


def test_laplacian_annihilates_constants():
    g = make_grid(2, 16, 1.0, 1)
    f = Field.constant(g, 4.2)
    assert np.abs(laplacian(f).values).max() < 1e-11


def test_laplacian_taylor_accuracy():
    # second-order accuracy: error <= (2 pi)^4 h^2 / 12 for cos(2 pi x)
    g = make_grid(1, 128, 1.0, 1)
    f = Field.from_function(g, lambda x: np.cos(2 * np.pi * x))
    exact = -(2 * np.pi) ** 2 * f.values
    err = np.abs(laplacian(f).values - exact).max()
    assert err <= (2 * np.pi) ** 4 * g.h ** 2 / 12 * 1.01


def test_integrate_and_mean_zero_laplacian():
    rng = np.random.default_rng(0)
    g = make_grid(1, 32, 1.0, 1)
    f = Field(g, rng.standard_normal(32))
    assert abs(integrate(laplacian(f))) < 1e-11
    assert abs(integrate(Field.constant(g, 3.0)) - 3.0) < 1e-14


def test_gradient_sawtooth_brute_force():
    # forward differences of a two-value sawtooth: |d| = 1/h at every cell
    g = make_grid(1, 16, 1.0, 1)
    v = np.tile([0.0, 1.0], 8)
    expect = 16 * (1.0 / g.h) ** 2 * g.cell_volume()
    assert abs(grad_sq_stack(v, g) - expect) < 1e-9
    assert abs(gradient_norm_sq(Field(g, v)) - expect) < 1e-9


def test_norms_cosine_closed_forms():
    g = make_grid(1, 64, 1.0, 1)
    f = Field.from_function(g, lambda x: np.cos(2 * np.pi * x))
    # the uniform grid sums cos^2 exactly to n/2
    assert abs(norm(f, "L2") - np.sqrt(0.5)) < 1e-13
    assert abs(norm(f, "Linf") - 1.0) < 1e-13
    # H^-1: single mode k=1 with normalized coefficient 1/2 each at +-1
    expect = np.sqrt(0.5 / (1.0 + 4.0 * np.pi ** 2))
    assert abs(norm(f, "Hminus1") - expect) < 1e-13


def test_hminus1_smaller_than_l2():
    rng = np.random.default_rng(1)
    g = make_grid(2, 16, 1.0, 1)
    f = Field(g, rng.standard_normal(g.size))
    assert norm(f, "Hminus1") <= norm(f, "L2") + 1e-14
    assert norm(f, "L2") <= norm(f, "H1") + 1e-14


def test_norm_unknown_kind():
    g = make_grid(1, 8, 1.0, 1)
    with pytest.raises(ValueError):
        norm(Field.constant(g, 1.0), "L7")


def test_fourier_parseval():
    rng = np.random.default_rng(2)
    g = make_grid(1, 32, 1.0, 1)
    f = Field(g, rng.standard_normal(32))
    fhat = fourier_coefficients(f)
    assert abs(np.sum(np.abs(fhat) ** 2) - norm(f, "L2") ** 2) < 1e-12


def test_spacetime_norms_left_endpoint():
    # constant-in-time trajectory: L2Q = sqrt(T)*L2 regardless of slices
    g = make_grid(1, 16, 0.7, 5)
    f = Field.constant(g, 2.0)
    tr = Trajectory.constant_in_time(g, f)
    assert abs(spacetime_norm(tr, "L2Q") - np.sqrt(0.7) * 2.0) < 1e-13
    assert abs(spacetime_norm(tr, "L1Q") - 0.7 * 2.0) < 1e-13
    assert abs(spacetime_norm(tr, "LinfL2") - 2.0) < 1e-13
    # left endpoint: the last slice never enters the time integrals
    data = np.zeros((6, 16))
    data[5] = 100.0
    spiky = Trajectory(g, data)
    assert spacetime_norm(spiky, "L2Q") == 0.0
    assert spacetime_norm(spiky, "L1Q") == 0.0
    assert spacetime_norm(spiky, "LinfL2") > 0.0


def test_spacetime_l1hminus1_constant_in_time():
    g = make_grid(1, 32, 0.5, 8)
    f = Field.from_function(g, lambda x: np.cos(2 * np.pi * x))
    tr = Trajectory.constant_in_time(g, f)
    assert abs(spacetime_norm(tr, "L1Hminus1")
               - 0.5 * norm(f, "Hminus1")) < 1e-13


def test_lap_out_must_be_contiguous_in_2d():
    # a strided out could only be reshaped by a copy, losing the result
    g = make_grid(2, 8, 1.0, 1)
    out = np.empty((g.size, 2))[:, 0]
    with pytest.raises(ValueError, match="C-contiguous"):
        lap_stack(np.ones(g.size), g, out)


def test_traj_helpers_match_per_slice():
    rng = np.random.default_rng(5)
    g = make_grid(2, 8, 1.0, 3)
    data = rng.standard_normal((4, g.size))
    tl = lap_stack(data, g)
    tg = grad_sq_stack(data, g)
    for k in range(4):
        assert np.allclose(tl[k], lap_array(data[k], g))
        assert abs(tg[k] - grad_sq_stack(data[k], g)) < 1e-10


def test_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    g = make_grid(2, 8, 1.0, 2)
    tr = Trajectory(g, rng.standard_normal((3, g.size)))
    path = tmp_path / "traj.cdl"
    dump_trajectory(path, tr)
    dim, n, data = load_slices(path)
    assert (dim, n) == (2, 8)
    assert np.array_equal(data, tr.data)

    f = Field(g, rng.standard_normal(g.size))
    fpath = tmp_path / "field.cdl"
    dump_field(fpath, f)
    dim, n, data = load_slices(fpath)
    assert data.shape == (1, 64)
    assert np.array_equal(data[0], f.values)


def test_dump_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.cdl"
    path.write_bytes(b"NOPE" + bytes(9))
    with pytest.raises(ValueError, match="magic"):
        load_slices(path)
    g = make_grid(1, 8, 1.0, 1)
    good = tmp_path / "good.cdl"
    dump_field(good, Field.constant(g, 1.0))
    clipped = tmp_path / "clipped.cdl"
    clipped.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_slices(clipped)
    clipped.write_bytes(good.read_bytes()[:12])     # header is 13 bytes
    with pytest.raises(ValueError, match="truncated field dump"):
        load_slices(clipped)
