"""Wrapped-Gaussian kernels, circulant and FFT convolution, and Dirac
sequences."""

import dataclasses

import numpy as np
import pytest

from crossdifflab.mollify import (DIRECT_MAX, Kernel, check_width,
                                  check_widths, convolve, convolve_array,
                                  dirac_defect, kernel_sequence, make_kernel,
                                  make_kernels)
from crossdifflab.torus import Field, integrate, make_grid


def test_kernel_nonnegative_unit_mass():
    for dim in (1, 2):
        g = make_grid(dim, 32, 1.0, 1)
        for eps in (0.08, 0.2, 0.5):
            k = make_kernel(g, eps)
            assert k.values.values.min() >= 0.0
            assert abs(integrate(k.values) - 1.0) < 1e-13


def test_kernel_resolution_limits():
    g = make_grid(1, 64, 1.0, 1)
    with pytest.raises(ValueError, match="under-resolved"):
        make_kernel(g, 0.03)   # 2h = 0.03125
    with pytest.raises(ValueError, match="too wide"):
        make_kernel(g, 0.6)
    make_kernel(g, 2.0 * g.h)  # boundary width is allowed


@pytest.mark.parametrize("eps", [True, "0.1", None, 10 ** 400])
def test_check_width_refuses_what_is_no_real_number(eps):
    # true was read as 1.0 and "0.1" as 0.1; None died in float(), and
    # 10**400 with an OverflowError
    g = make_grid(1, 64, 1.0, 1)
    with pytest.raises(ValueError, match="must be a real number"):
        check_width(g, eps)
    assert check_width(g, np.float32(0.25)) == 0.25


def test_convolution_constant_exact():
    g = make_grid(2, 16, 1.0, 1)
    k = make_kernel(g, 0.15)
    f = Field.constant(g, 3.25)
    out = convolve(f, k)
    assert np.abs(out.values - 3.25).max() < 1e-12


def test_convolution_mass_conservation():
    rng = np.random.default_rng(0)
    g = make_grid(1, 64, 1.0, 1)
    k = make_kernel(g, 0.1)
    f = Field(g, rng.standard_normal(64))
    assert abs(integrate(convolve(f, k)) - integrate(f)) < 1e-13


def test_convolution_direct_sum_oracle():
    # both paths against the O(n^2) definition: the circulant product at
    # n=16 and n=256, the FFT at n=512
    rng = np.random.default_rng(1)
    for n in (16, 256, 512):
        g = make_grid(1, n, 1.0, 1)
        k = make_kernel(g, 0.2)
        v = rng.standard_normal(n)
        fast = convolve_array(v, k)
        kv = k.values.values.tolist()
        slow = np.array([sum(kv[(i - j) % n] * v[j] for j in range(n))
                         for i in range(n)]) * g.cell_volume()
        assert np.abs(fast - slow).max() < 1e-12


def test_convolution_of_delta_recovers_kernel():
    g = make_grid(1, 32, 1.0, 1)
    k = make_kernel(g, 0.12)
    delta = np.zeros(32)
    delta[0] = 1.0 / g.cell_volume()  # unit-mass discrete Dirac
    out = convolve_array(delta, k)
    assert np.abs(out - k.values.values).max() < 1e-9


def test_convolution_grid_mismatch():
    k = make_kernel(make_grid(1, 32, 1.0, 1), 0.1)
    f = Field.constant(make_grid(1, 64, 1.0, 1), 1.0)
    with pytest.raises(ValueError, match="different grids"):
        convolve(f, k)


def test_convolution_smooths():
    rng = np.random.default_rng(2)
    g = make_grid(1, 64, 1.0, 1)
    k = make_kernel(g, 0.1)
    v = rng.standard_normal(64)
    smoothed = convolve_array(v, k)
    assert np.std(smoothed) < np.std(v)


def test_dirac_defect_tracks_eps():
    # second moment of a narrow wrapped Gaussian is eps^2 per axis
    g = make_grid(1, 256, 1.0, 1)
    for eps in (0.02, 0.04, 0.08):
        assert abs(dirac_defect(make_kernel(g, eps)) - eps ** 2) \
            < 0.02 * eps ** 2
    g2 = make_grid(2, 128, 1.0, 1)
    assert abs(dirac_defect(make_kernel(g2, 0.05)) - 2 * 0.05 ** 2) \
        < 0.04 * 0.05 ** 2


def test_kernel_sequence_validation():
    g = make_grid(1, 64, 1.0, 1)
    ks = kernel_sequence(g, 0.4, 0.5, 3)
    assert [k.eps for k in ks] == [0.4, 0.2, 0.1]
    with pytest.raises(ValueError, match="strictly decreasing"):
        make_kernels(g, [0.1, 0.2])
    with pytest.raises(ValueError, match="empty"):
        make_kernels(g, [])
    with pytest.raises(ValueError, match="factor"):
        kernel_sequence(g, 0.4, 1.5, 3)
    # finest member 0.1*0.5^2 = 0.025 < 2/64 must be rejected up front
    with pytest.raises(ValueError, match="under-resolved"):
        kernel_sequence(g, 0.1, 0.5, 3)


@pytest.mark.parametrize("args, name", [
    ((0.4, 0.5, True), "count"), ((0.4, 0.5, 2.5), "count"),
    ((0.4, 0.5, "3"), "count"), ((0.4, "0.5", 3), "factor"),
    ((True, 0.5, 3), "eps0"), (("0.4", 0.5, 3), "eps0")], ids=repr)
def test_kernel_sequence_refuses_loose_scalars(args, name):
    # count=True was one kernel, count=2.5 and the strings a bare TypeError,
    # and eps0=True a width of 1.0
    with pytest.raises(ValueError, match=f"^{name} must be"):
        kernel_sequence(make_grid(1, 64, 1.0, 1), *args)


def test_kernel_values_must_live_on_its_grid():
    # values of a 64-point grid on a 32-point kernel were read as its first
    # 32 entries by the circulant
    k = make_kernel(make_grid(1, 64, 1.0, 1), 0.1)
    with pytest.raises(ValueError, match="different grid"):
        Kernel(make_grid(1, 32, 1.0, 1), 0.1, k.values)


def test_convolution_paths_by_grid():
    # 1-D grids up to 256 points multiply by the circulant, every other
    # grid takes the rfftn/irfftn path
    assert DIRECT_MAX == 256
    rng = np.random.default_rng(4)
    for dim, n in ((1, 8), (1, 256), (1, 512), (2, 16)):
        g = make_grid(dim, n, 1.0, 1)
        k = make_kernel(g, 0.25)
        v = rng.random(g.size)
        if dim == 1 and n <= 256:
            i = np.arange(n)
            expect = np.dot(k.values.values[(i[:, None] - i) % n] * g.h, v)
        else:
            expect = np.fft.irfftn(
                np.fft.rfftn(v.reshape(g.shape)) * k.fft(), s=g.shape,
                axes=tuple(range(dim))).reshape(-1) * g.cell_volume()
        assert np.array_equal(convolve_array(v, k), expect)


def test_kernel_fft_cached():
    g = make_grid(1, 32, 1.0, 1)
    k = make_kernel(g, 0.1)
    assert k.fft() is k.fft()
    assert np.array_equal(k.fft(), np.fft.rfftn(k.values.reshaped()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.eps = 0.2
    assert type(Kernel(g, np.float64(0.1), k.values).eps) is float
    # the width goes through check_width: "0.9" was read as 0.9, true and 1
    # as 1.0, each for values of width 0.1
    for eps, why in (("0.9", "real number"), (True, "real number"),
                     (1, "too wide")):
        with pytest.raises(ValueError, match=why):
            Kernel(g, eps, k.values)
