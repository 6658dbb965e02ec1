"""Grids, fields, discrete operators, norms and binary dumps."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdifflab.torus import (Field, GhostCells, Grid, Trajectory,
                                atomic_write, dump_field, dump_slices,
                                dump_trajectory, grad_sq_stack,
                                gradient_norm_sq, integrate, lap_array,
                                lap_stack, laplacian, load_field,
                                load_slices, make_grid, norm, spacetime_norm)


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


def test_grid_refuses_more_values_than_an_array_holds():
    # a grid with that many steps gave numpy's "Maximum allowed dimension
    # exceeded" when its first constant-in-time trajectory was made
    g = make_grid(1, 8, 1.0, 2 ** 40)
    assert Trajectory.constant(g, 1.0).data.shape == (2 ** 40 + 1, 8)
    with pytest.raises(ValueError, match="more values than an array"):
        make_grid(1, 8, 1.0, 2 ** 60)


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


@pytest.mark.parametrize("args", [
    (1, 64, 0.1, 2.9), (1, 64.0, 0.1, 10), (2.0, 64, 0.1, 10),
    (True, 64, 0.1, 10), (1, 64, 0.1, True)],
    ids=["steps-2.9", "n-64.0", "dim-2.0", "dim-true", "steps-true"])
def test_grid_sizes_must_be_integers(args):
    # 2.9 steps used to run as 2, and a float n died in `&` with a bare
    # TypeError
    with pytest.raises(ValueError, match="must be an integer"):
        make_grid(*args)


@pytest.mark.parametrize("t_final", [
    float("inf"), float("nan"), 0.0, -1.0, True, "0.1", None, 10 ** 400])
def test_grid_t_final_must_be_a_finite_positive_number(t_final):
    # an infinite horizon made tau infinite, and a solve then aborted with a
    # CflViolation; "0.1" was parsed and true read as 1.0; 10**400 died in
    # float() with an OverflowError
    with pytest.raises(ValueError, match="t_final must be a finite positive "
                                         "number"):
        make_grid(1, 64, t_final, 10)


def test_grid_accepts_numpy_integers():
    g = make_grid(np.int64(2), np.int32(16), 0.5, np.int64(3))
    assert g == make_grid(2, 16, 0.5, 3)
    assert all(type(x) is int for x in (g.dim, g.n, g.steps))
    assert type(make_grid(1, 16, np.float32(0.5), 3).t_final) is float


def test_laplacian_brute_force_oracle():
    rng = np.random.default_rng(3)
    g = make_grid(1, 8, 1.0, 1)
    v = rng.standard_normal(8)
    lap = lap_stack(v, g)
    for i in range(8):
        expect = (v[(i + 1) % 8] - 2 * v[i] + v[(i - 1) % 8]) / g.h ** 2
        assert abs(lap[i] - expect) < 1e-9 * abs(expect) + 1e-9


def test_laplacian_2d_brute_force():
    rng = np.random.default_rng(4)
    g = make_grid(2, 8, 1.0, 1)
    v = rng.standard_normal(g.size)
    lap = lap_stack(v, g).reshape(8, 8)
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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from((1, 2)), st.sampled_from((8, 16, 32)),
       st.integers(-400, 1023), st.integers(0, 2 ** 32 - 1))
def test_norms_hold_across_the_float_range(dim, n, e, seed):
    # 1e200*cos gave inf in L2, H1 and Hminus1 (1-D, n = 64), 1e306*cos
    # inf in L1 and NaN in Hminus1 (2-D, n = 32): a square or a sum
    # overflowed.  Every kind is 1-homogeneous, so the norm of 2^e u is
    # 2^e times the norm of u, finite unless that is beyond the float
    # range (H1 only, whose gradient term grows with n)
    g = make_grid(dim, n, 1.0, 1)
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, g.size)
    f = Field(g, np.ldexp(u, e))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kind in ("L1", "L2", "Linf", "H1", "Hminus1"):
            got = norm(f, kind)
            try:
                want = math.ldexp(norm(Field(g, u), kind), e)
            except OverflowError:
                assert kind == "H1" and got == math.inf
                continue
            assert math.isfinite(got)
            assert abs(got - want) <= 1e-12 * want


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


SPACETIME_KINDS = ("L2Q", "L1Q", "LinfL2", "L1Hminus1")


def test_spacetime_norms_of_data_near_the_float_range_are_finite():
    # 1e200*cos(2 pi x) on n = 64 over 5 rows gave inf in L2Q, LinfL2 and
    # L1Hminus1 (an overflow warning under -W error), though each true
    # value is about 1e199 to 1e200
    g = make_grid(1, 64, 1.0, 4)
    f = Field.from_function(g, lambda x: np.cos(2 * np.pi * x))
    big = Trajectory.constant_in_time(g, Field(g, 1e200 * f.values))
    unit = Trajectory.constant_in_time(g, f)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kind in SPACETIME_KINDS:
            got, want = spacetime_norm(big, kind), spacetime_norm(unit, kind)
            assert abs(got - 1e200 * want) <= 1e-12 * got


def _trajectory(g, rows, constant):
    """rows[0] as a broadcast view when `constant`, all rows otherwise."""
    if constant:
        return Trajectory.constant_in_time(g, Field(g, rows[0]))
    return Trajectory(g, rows)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from((1, 2)), st.sampled_from((8, 16, 32)),
       st.integers(1, 5), st.integers(-400, 1023),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_spacetime_norms_hold_across_the_float_range(dim, n, steps, e, seed,
                                                     constant):
    # every kind is 1-homogeneous, also of a difference: the norm of 2^e u
    # (minus 2^e v) is 2^e times the norm of u (minus v), which is finite
    # on a time axis of length 1
    g = make_grid(dim, n, 1.0, steps)
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(-1.0, 1.0, (2, steps + 1, g.size))
    unit = [_trajectory(g, w, constant) for w in (u, v)]
    big = [_trajectory(g, np.ldexp(w, e), constant) for w in (u, v)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kind in SPACETIME_KINDS:
            for minus in (0, 1):
                got = spacetime_norm(big[0], kind, *big[1:1 + minus])
                want = math.ldexp(
                    spacetime_norm(unit[0], kind, *unit[1:1 + minus]), e)
                assert math.isfinite(got)
                assert abs(got - want) <= 1e-12 * want


def test_spacetime_norm_refuses_another_grid_and_an_unknown_kind():
    g = make_grid(1, 16, 0.7, 5)
    tr = Trajectory.constant(g, 1.0)
    other = Trajectory.constant(make_grid(1, 16, 0.7, 6), 1.0)
    with pytest.raises(ValueError, match="^grid mismatch$"):
        spacetime_norm(tr, "L2Q", minus=other)
    with pytest.raises(ValueError, match="^unknown spacetime norm kind 'L7'"):
        spacetime_norm(tr, "L7")


def test_spacetime_l1hminus1_constant_in_time():
    g = make_grid(1, 32, 0.5, 8)
    f = Field.from_function(g, lambda x: np.cos(2 * np.pi * x))
    tr = Trajectory.constant_in_time(g, f)
    assert abs(spacetime_norm(tr, "L1Hminus1")
               - 0.5 * norm(f, "Hminus1")) < 1e-13


@pytest.mark.parametrize("dim", [1, 2])
def test_spacetime_l1hminus1_one_step_is_tau_times_hminus1(dim):
    # one helper computes both: the one slice's H^-1 norm, bit for bit
    rng = np.random.default_rng(dim)
    g = make_grid(dim, 16, 0.25, 1)
    tr = Trajectory(g, rng.standard_normal((2, g.size)))
    assert (spacetime_norm(tr, "L1Hminus1")
            == g.tau * norm(tr.slice(0), "Hminus1"))


# H^-1 norms on the real FFT's half spectrum: a mode that is its own mirror
# image (every index 0 or n/2) weighs once, any other mode twice

EPS = np.finfo(np.float64).eps


def _cos_mode(grid, k):
    """cos(2 pi k.x) on the grid, for one integer k per axis."""
    return Field.from_function(grid, lambda *x: np.cos(
        2 * np.pi * sum(kk * xx for kk, xx in zip(k, x))))


def _cos_mode_hminus1(k, n):
    """The closed form sqrt(sum |c_k|^2 w_k) over the mode k and its mirror
    image -k: one coefficient 1 when they are one mode, 1/2 each else."""
    c_sq = [1.0] if all(2 * kk % n == 0 for kk in k) else [0.25, 0.25]
    w = 1.0 / (1.0 + 4.0 * np.pi ** 2 * sum(kk ** 2 for kk in k))
    return math.sqrt(sum(c * w for c in c_sq))


def _edge_modes(dim, n):
    """The constant mode, the Nyquist mode of each axis, doubled modes on
    the last axis and, in 2-D, the Nyquist index of the last axis paired
    with an inner index of the first (its mirror image sits in the half
    spectrum too).  The inner indices stay small: cos(2 pi k x) at a large
    k is sampled several ulps away from the pure mode."""
    if dim == 1:
        return [(0,), (n // 2,), (1,), (3,)]
    return [(0, 0), (n // 2, 0), (0, n // 2), (n // 2, n // 2), (0, 3),
            (n // 2, 1), (3, n // 2)]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [8, 256])
def test_hminus1_edge_modes_closed_form(dim, n):
    g = make_grid(dim, n, 1.0, 1)
    for k in _edge_modes(dim, n):
        expect = _cos_mode_hminus1(k, n)
        got = norm(_cos_mode(g, k), "Hminus1")
        assert abs(got - expect) <= 8 * EPS * expect, k


def _hminus1_by_fftn(v, grid):
    """The H^-1 norm over the full complex spectrum of np.fft.fftn."""
    fhat = np.fft.fftn(v.reshape(grid.shape)) / grid.size
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    k2 = k ** 2 if grid.dim == 1 else k[:, None] ** 2 + k[None, :] ** 2
    return np.sqrt(np.sum(np.abs(fhat) ** 2 / (1.0 + 4.0 * np.pi ** 2 * k2)))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [8, 256])
def test_hminus1_matches_the_complex_transform(dim, n):
    g = make_grid(dim, n, 0.5, 5)
    rng = np.random.default_rng(dim * n)
    tr = Trajectory(g, rng.standard_normal((g.steps + 1, g.size))
                    * 10.0 ** rng.uniform(-5, 5, (g.steps + 1, 1)))
    ref = [_hminus1_by_fftn(row, g) for row in tr.data]
    for k, expect in enumerate(ref):
        got = norm(tr.slice(k), "Hminus1")
        assert abs(got - expect) <= 8 * EPS * expect
    expect = g.tau * math.fsum(ref[:-1])
    assert (abs(spacetime_norm(tr, "L1Hminus1") - expect)
            <= 8 * EPS * expect)


def _stencil_writes(ghost, g, w, scale, expect):
    """lap_array of `ghost` holding w, into a view framed by sentinels and
    with NaN in the buffer's corners: it returns `expect`, and only `out`
    and the buffer's rim change, the rim to its periodic sources."""
    dim = len(g.shape)
    ghost.pad[...] = np.nan
    ghost.inner[...] = w
    want = np.pad(w, [(0, 0)] * (w.ndim - dim) + [(1, 1)] * dim, mode="wrap")
    if dim == 2:
        want[..., ::g.n + 1, ::g.n + 1] = np.nan     # no stencil writes them
    frame = np.full(w.shape[:-dim] + tuple(m + 2 for m in g.shape), np.inf)
    out = frame[(...,) + (slice(1, -1),) * dim]
    assert lap_array(ghost, g, out, scale) is out
    assert np.array_equal(out, expect)
    out[...] = np.inf
    assert (frame == np.inf).all()
    assert np.array_equal(ghost.pad, want, equal_nan=True)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3), (0,)])
def test_lap_is_the_rolled_stencil_bit_for_bit(dim, lead):
    # -2N w, plus w[i-1], plus w[i+1], axis by axis: the flat neighbour
    # ranges of the ghost-cell buffer add the same values in the same
    # order for every slice and stack, an empty one too, on the buffer and
    # on its rows views, scaled by a float, a 0-d array or not at all; at
    # n = 8 and at n = 2 (a stand-in grid, as Grid takes n >= 8), where
    # the shifted ranges reach the buffer's ends
    rng = np.random.default_rng(dim)
    for g in (make_grid(dim, 8, 1.0, 1),
              SimpleNamespace(dim=dim, n=2, shape=(2,) * dim, size=2 ** dim)):
        v = rng.standard_normal(lead + (g.size,)) * 10.0 ** rng.uniform(
            -6, 6, lead + (g.size,))
        w = v.reshape(lead + g.shape)
        sums = -2.0 * dim * w
        for ax in range(-dim, 0):
            sums = sums + np.roll(w, 1, axis=ax)
            sums = sums + np.roll(w, -1, axis=ax)
        ref = sums * g.n ** 2        # n^2 = 1/h^2 exactly
        assert np.array_equal(lap_stack(v, g), ref.reshape(v.shape))
        for scale in (None, np.array(2.0 ** -9), 3.0):
            expect = sums if scale is None else sums * scale
            ghost = GhostCells(g, lead)
            _stencil_writes(ghost, g, w, scale, expect)
            for i, row in enumerate(ghost.rows if lead else ()):
                before = ghost.pad.copy()
                _stencil_writes(row, g, w[i], scale, expect[i])
                before[i] = row.pad
                assert np.array_equal(ghost.pad, before, equal_nan=True)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


# finite values over the whole float range: signed zeros, subnormals and
# normals up to 1e300, so that no term of the stencil overflows
FINITE = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, 1e300,
                     -1e300)),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from((8, 16, 32, 64, 128, 256)), st.data())
def test_1d_stencil_is_the_rolled_stencil_over_the_float_range(n, data):
    # a single 1-D slice fills its rim by scalar copies, which must keep
    # every bit of every value: -0.0, subnormals and NaN-free extremes
    g = make_grid(1, n, 1.0, 1)
    w = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
    sums = (-2.0 * w + np.roll(w, 1)) + np.roll(w, -1)
    for scale in (None, np.array(data.draw(st.floats(-1.0, 1.0)))):
        ghost = GhostCells(g)
        ghost.inner[...] = w
        out = np.full(n, np.nan)
        assert lap_array(ghost, g, out, scale) is out
        expect = sums if scale is None else sums * scale
        assert np.array_equal(_bits(out), _bits(expect))
        assert np.array_equal(_bits(ghost.pad), _bits(np.pad(w, 1, "wrap")))


@pytest.mark.parametrize("scale", [None, np.array(2.0 ** -9)])
def test_rows_of_a_stack_fill_only_their_own_rim(scale):
    # each GhostCells.rows view of a (3, n+2) buffer fills its own row's
    # rim and writes no other cell of the stack: every other byte, the
    # sentinel bits in the other rows' rims included, stays as it was; the
    # results are those of three buffers of one slice each
    n = 16
    g = make_grid(1, n, 1.0, 1)
    rng = np.random.default_rng(29)
    w = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-6, 6, (3, n))
    stack = GhostCells(g, (3,))
    stack.pad.view(np.uint64)[...] = rng.integers(
        0, 2 ** 64, stack.pad.shape, dtype=np.uint64)
    stack.inner[...] = w
    for i, row in enumerate(stack.rows):
        before = stack.pad.copy()
        out = lap_array(row, g, np.empty(n), scale)
        after = stack.pad.copy()
        after[i, [0, n + 1]] = before[i, [0, n + 1]]
        assert np.array_equal(_bits(after), _bits(before))
        assert np.array_equal(_bits(stack.pad[i]), _bits(np.pad(w[i], 1,
                                                                "wrap")))
        single = GhostCells(g)
        single.inner[...] = w[i]
        assert np.array_equal(_bits(out), _bits(lap_array(
            single, g, np.empty(n), scale)))


def test_ghost_cells_refuse_a_strided_buffer():
    # the stencil's flat ranges must be views of the buffer: of a strided
    # one, reshape(-1) would be a copy, and the stencil would read values
    # the march never wrote
    g = make_grid(2, 8, 1.0, 1)
    stack = np.zeros((4, 10, 10))
    for pad in (stack[::2], stack[0].T, stack[:, 1:-1, 1:-1]):
        with pytest.raises(ValueError, match="C-contiguous"):
            GhostCells(g, pad=pad)
    for pad in (stack, stack[1], stack[:0]):
        assert GhostCells(g, pad=pad).pad is pad


def test_traj_helpers_match_per_slice():
    rng = np.random.default_rng(5)
    g = make_grid(2, 8, 1.0, 3)
    data = rng.standard_normal((4, g.size))
    tl = lap_stack(data, g)
    tg = grad_sq_stack(data, g)
    for k in range(4):
        assert np.allclose(tl[k], lap_stack(data[k], g))
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


def test_dump_roundtrip_1d_and_2d_owns_its_data(tmp_path):
    rng = np.random.default_rng(16)
    for dim, n, count in ((1, 64, 300), (2, 32, 40)):
        slices = rng.standard_normal((count, n ** dim))
        path = tmp_path / f"d{dim}_{count}.cdl"
        dump_slices(path, dim, n, slices)
        assert path.stat().st_size == 13 + slices.nbytes
        got_dim, got_n, data = load_slices(path)
        assert (got_dim, got_n) == (dim, n)
        assert data.dtype == np.float64 and data.flags.c_contiguous
        assert data.flags.writeable and data.flags.owndata
        assert np.array_equal(data, slices)


def test_dump_zero_slices(tmp_path):
    # an empty dump is a 13-byte header that loads back as no slices
    for dim, n in ((1, 8), (2, 8)):
        path = tmp_path / f"empty{dim}.cdl"
        dump_slices(path, dim, n, np.empty((0, n ** dim)))
        assert path.stat().st_size == 13
        got_dim, got_n, data = load_slices(path)
        assert (got_dim, got_n, data.shape) == (dim, n, (0, n ** dim))
    with pytest.raises(ValueError, match="slice length does not match"):
        dump_slices(tmp_path / "bad.cdl", 1, 8, np.empty((2, 5)))


def test_load_field_is_slice_zero_of_a_checked_dump(tmp_path):
    rng = np.random.default_rng(17)
    slices = rng.standard_normal((5, 8 ** 2))
    path = tmp_path / "five.cdl"
    dump_slices(path, 2, 8, slices)
    f = load_field(path)
    assert f.grid == make_grid(2, 8, 1.0, 1)
    assert np.array_equal(f.values, slices[0])
    # the whole file is checked against its header, as load_slices does
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match="truncated field dump"):
        load_field(path)
    dump_slices(path, 1, 8, np.empty((0, 8)))
    with pytest.raises(ValueError, match="holds 0 slices"):
        load_field(path)


def test_dump_with_trailing_bytes_rejected(tmp_path):
    g = make_grid(1, 8, 1.0, 1)
    good = tmp_path / "good.cdl"
    dump_field(good, Field.constant(g, 1.0))
    longer = tmp_path / "longer.cdl"
    longer.write_bytes(good.read_bytes() + bytes(1))
    with pytest.raises(ValueError, match="truncated field dump"):
        load_slices(longer)
    longer.write_bytes(good.read_bytes() + bytes(8))  # one value too many
    with pytest.raises(ValueError, match="truncated field dump"):
        load_slices(longer)


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


def test_atomic_write_that_fails_keeps_the_old_file(tmp_path):
    # a reader sees the old file or the new one, never a partial one, and
    # a failed write leaves no temporary file behind
    path = tmp_path / "out.cdl"
    path.write_bytes(b"old")

    def write(fh):
        fh.write(b"partial")
        raise OSError("disk full")
    with pytest.raises(OSError, match="disk full"):
        atomic_write(path, write)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.cdl"]
