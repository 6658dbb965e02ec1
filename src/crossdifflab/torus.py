"""Periodic grids on the unit torus, discrete operators and norms.

Everything lives on [0,1)^dim with n points per axis (h = 1/n) and a
uniform time axis of `steps` intervals covering [0, t_final].  The
Laplacian is the 2N+1 point centered stencil, chosen over a spectral one
so that explicit updates keep an M-matrix structure (exact positivity
under the CFL bound).  The FFT is used only for H^-1 norms and, in the
mollify module, for convolutions.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def is_real(x) -> bool:
    """Whether x is a real number that float() takes, NaN and +-inf too:
    not a bool, not a non-number such as a string, and not an int beyond
    the float range, which float() refuses.  Only such ints are compared
    with the float range, so a numpy float never overflows here."""
    return (not isinstance(x, bool) and isinstance(x, numbers.Real)
            and not (isinstance(x, numbers.Rational)
                     and abs(x) > sys.float_info.max))


@dataclass(frozen=True)
class Grid:
    """Space-time discretization of [0, t_final] x torus^dim."""

    dim: int
    n: int
    t_final: float
    steps: int

    def __post_init__(self):
        for name in ("dim", "n", "steps"):  # numpy integers too, not bools
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not _is_power_of_two(self.n) or self.n < 8:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        t_final = self.t_final
        if not is_real(t_final) or not 0 < t_final < math.inf:
            raise ValueError(
                f"t_final must be a finite positive number, got {t_final!r}")
        object.__setattr__(self, "t_final", float(t_final))
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def tau(self) -> float:
        return self.t_final / self.steps

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n ** self.dim

    def cell_volume(self) -> float:
        return self.h ** self.dim

    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.steps + 1)

    def coordinates(self) -> list:
        """Per-axis coordinate arrays broadcastable to `shape`."""
        x = np.arange(self.n) * self.h
        if self.dim == 1:
            return [x]
        return [x[:, None], x[None, :]]


def make_grid(dim: int, n: int, t_final: float, steps: int) -> Grid:
    return Grid(dim=dim, n=n, t_final=t_final, steps=steps)


@dataclass(frozen=True)
class Field:
    """Scalar grid function at one time slice, stored flat row-major."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.size != self.grid.size:
            raise ValueError(
                f"field has {v.size} values, grid wants {self.grid.size}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    @staticmethod
    def from_function(grid: Grid, fn) -> "Field":
        coords = grid.coordinates()
        vals = np.broadcast_to(fn(*coords), grid.shape).astype(np.float64)
        return Field(grid, vals.reshape(-1))

    @staticmethod
    def constant(grid: Grid, c: float) -> "Field":
        return Field(grid, np.full(grid.size, float(c)))


@dataclass(frozen=True)
class Trajectory:
    """K+1 time slices of a scalar field; slice 0 is t=0, slice K is t=T."""

    grid: Grid
    data: np.ndarray  # shape (steps+1, grid.size)

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.shape != (self.grid.steps + 1, self.grid.size):
            raise ValueError(
                f"trajectory shape {d.shape} does not match grid "
                f"({self.grid.steps + 1}, {self.grid.size})")
        object.__setattr__(self, "data", d)

    def slice(self, k: int) -> Field:
        return Field(self.grid, self.data[k])

    def distinct_rows(self) -> np.ndarray:
        """The rows that can differ: the one row of a constant-in-time
        trajectory (a broadcast view, whose rows share memory), all K+1
        rows otherwise.  A scan for a minimum or maximum reads these."""
        return self.data[:1] if self.data.strides[0] == 0 else self.data

    @staticmethod
    def constant_in_time(grid: Grid, f: Field) -> "Trajectory":
        # broadcast view; read-only, never mutated by the solvers
        data = np.broadcast_to(f.values, (grid.steps + 1, grid.size))
        return Trajectory(grid, data)

    @staticmethod
    def constant(grid: Grid, c: float) -> "Trajectory":
        return Trajectory.constant_in_time(grid, Field.constant(grid, c))


# ---------------------------------------------------------------------------
# space-time sums over blocks of slices, without a second trajectory-size
# array

STREAM_BLOCK = 2 ** 15  # values per block of slices


def row_blocks(count: int, width: int) -> list:
    """(r0, r1) ranges of about STREAM_BLOCK values over `count` rows of
    `width` values each."""
    per = max(1, STREAM_BLOCK // width)
    return [(r, min(r + per, count)) for r in range(0, count, per)]


def per_slice(values, count: int, grid: Grid) -> np.ndarray:
    """The one block-wise rule for per-slice quantities: `values(a, b)`
    gives one value for each of slices a..b-1, taken over row_blocks of
    `count` slices of grid.size values; returns all `count` of them."""
    out = np.empty(count)
    for a, b in row_blocks(count, grid.size):
        out[a:b] = values(a, b)
    return out


def quadrature(rows, grid: Grid) -> float:
    """The left-endpoint space-time quadrature tau h^dim sum_{k<K} of the
    values whose rows k0..k1-1 `rows(k0, k1)` computes, over per_slice.

    Each row is summed with np.sum and the row sums are added with
    math.fsum.  A row's np.sum inside a block of contiguous rows is np.sum
    of that row alone, and fsum is exactly rounded, so the result depends
    on the row values only: not on the blocking, a stacked layout or the
    order in which rows are summed."""
    sums = per_slice(lambda a, b: np.sum(rows(a, b), axis=1), grid.steps,
                     grid)
    return float(grid.tau * grid.cell_volume() * math.fsum(sums.tolist()))


# ---------------------------------------------------------------------------
# discrete operators: each acts on a (..., grid.size) array, that is one
# flat slice or a stack of them, and treats every slice alike

def on_grid(v: np.ndarray, grid: Grid) -> np.ndarray:
    """The (..., *grid.shape) view of a (..., grid.size) array.  Splitting
    the last axis never needs a copy, whatever the strides."""
    return v.reshape(v.shape[:-1] + grid.shape)


class GhostCells:
    """A ghost-cell buffer for the stencil: slices of shape `lead` +
    grid.shape padded by one cell per side and axis, with the views the
    stencil reads made once.  `inner` holds the slices; per axis, `rims`
    pairs the two rim cells (0 and n+1) with their periodic sources (n and
    1), and `neighbours` holds the views shifted by -1 and +1.  A march
    makes one and writes each step's slice into `inner`."""

    def __init__(self, grid: Grid, lead: tuple = ()):
        n, dim = grid.n, grid.dim
        pad = np.empty(lead + (n + 2,) * dim)
        mid = slice(1, -1)

        def view(axis, cut):
            cuts = [mid] * dim
            cuts[axis] = cut
            return pad[(...,) + tuple(cuts)]

        self.inner = pad[(...,) + (mid,) * dim]
        self.rims = [(view(ax, slice(None, None, n + 1)),
                      view(ax, slice(n, 0, 1 - n))) for ax in range(dim)]
        self.neighbours = [view(ax, cut) for ax in range(dim)
                           for cut in (slice(None, -2), slice(2, None))]


def _stencil(ghost: GhostCells, grid: Grid, out: np.ndarray,
             scale: float) -> np.ndarray:
    """Fill the rim from `inner`, then out = scale * (-2 dim w, plus
    w[i-1], plus w[i+1], axis by axis); no multiply when scale is 1.
    The per-step calls pass `out` positionally: in a 1-D march at n = 64
    the `out=` keywords cost about a tenth of a step."""
    for rim, source in ghost.rims:
        rim[...] = source
    np.multiply(ghost.inner, -2.0 * grid.dim, out)
    for nb in ghost.neighbours:
        np.add(out, nb, out)
    if scale != 1.0:
        np.multiply(out, scale, out)
    return out


def lap_stack(v: np.ndarray, grid: Grid, out: np.ndarray | None = None
              ) -> np.ndarray:
    """Centered periodic Laplacian of every slice of a (..., grid.size)
    array, through a ghost-cell buffer of its own.

    Each value is -2 dim w, plus w[i-1], plus w[i+1], axis by axis, times
    n^2: h = 1/n with n a power of two, so that is 1/h^2 exactly.  The
    neighbours are read as shifted views of a copy padded by one cell of
    periodic neighbours per axis.  Written into `out` (any array of v's
    shape, strided too, not overlapping v) when one is given; that array
    is returned."""
    if out is None:
        out = np.empty(v.shape)
    ghost = GhostCells(grid, v.shape[:-1])
    ghost.inner[...] = on_grid(v, grid)
    _stencil(ghost, grid, on_grid(out, grid), grid.n ** 2)
    return out


def lap_array(ghost: GhostCells, grid: Grid, out: np.ndarray,
              scale: float) -> np.ndarray:
    """The marches' per-step stencil: `scale` times the neighbour sum of
    `lap_stack`, of the march's own GhostCells with the step's slice
    already in `inner`.  The rim is filled in place and the result, of
    the shape of `inner`, goes to `out`.  A name of its own, so that a
    tracer counts stencil applications per time step apart from the
    whole-trajectory uses of `lap_stack`.

    n^2 = 1/h^2 is a power of two, so scale = tau*n^2 gives the bits of
    Lap(v)*tau in one multiply, and scale = 1 leaves the sum for a product
    that takes the n^2 itself (the dual's tau*mu): the same real number,
    rounded once either way, as long as the sum times n^2 stays finite.
    With the states below the blow-up guard's 1e12, only a mu beyond about
    1e280 could break that."""
    return _stencil(ghost, grid, out, scale)


def grad_sq_stack(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Squared L2 norm of the forward-difference gradient of every slice,
    over per_slice (each slice's sum is its own, so the blocking does not
    change a bit)."""
    flat = v.reshape(-1, grid.size)
    axes = tuple(range(-grid.dim, 0))

    def values(a, b):
        w = on_grid(flat[a:b], grid)
        total = 0.0
        for ax in axes:
            d = np.roll(w, -1, axis=ax)
            d -= w
            d /= grid.h
            d *= d
            total = total + d.sum(axis=axes)
        return total
    out = per_slice(values, len(flat), grid) * grid.cell_volume()
    return out.reshape(v.shape[:-1])[()]


def laplacian(f: Field) -> Field:
    return Field(f.grid, lap_stack(f.values, f.grid))


def integrate(f: Field) -> float:
    return float(f.grid.cell_volume() * f.values.sum())


def gradient_norm_sq(f: Field) -> float:
    return float(grad_sq_stack(f.values, f.grid))


def fourier_coefficients(f: Field) -> np.ndarray:
    """Normalized DFT: sum_k |f_hat_k|^2 equals the squared L2 norm."""
    return np.fft.fftn(f.reshaped()) / f.grid.size


def _hminus1(rows, count: int, grid: Grid) -> np.ndarray:
    """The H^-1 norms of the `count` slices whose rows a..b-1 `rows(a, b)`
    gives, over per_slice: the root of sum_k |f_hat_k|^2 w_k, w = 1/(1 +
    4 pi^2 |k|^2) on the discrete Fourier lattice, made once per call."""
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    k2 = k ** 2 if grid.dim == 1 else k[:, None] ** 2 + k[None, :] ** 2
    w = 1.0 / (1.0 + 4.0 * np.pi ** 2 * k2)

    def values(a, b):
        # contiguous: the FFT of a broadcast row can differ in the last bits
        block = on_grid(np.ascontiguousarray(rows(a, b)), grid)
        fhat = np.fft.fftn(block, axes=tuple(range(1, grid.dim + 1)))
        fhat /= grid.size
        energy = np.abs(fhat) ** 2 * w
        return np.sqrt(np.sum(energy.reshape(b - a, -1), axis=1))
    return per_slice(values, count, grid)


def norm(f: Field, kind: str) -> float:
    v = f.values
    vol = f.grid.cell_volume()
    if kind == "L1":
        return float(vol * np.abs(v).sum())
    if kind == "L2":
        return float(np.sqrt(vol * np.dot(v, v)))
    if kind == "Linf":
        return float(np.abs(v).max())
    if kind == "H1":
        return float(np.sqrt(vol * np.dot(v, v) + grad_sq_stack(v, f.grid)))
    if kind == "Hminus1":
        return float(_hminus1(lambda a, b: v[None], 1, f.grid)[0])
    raise ValueError(f"unknown norm kind {kind!r}")


def spacetime_norm(traj: Trajectory, kind: str,
                   minus: Trajectory | None = None) -> float:
    """Left-endpoint time quadrature over the K intervals of the trajectory,
    or of traj - minus when `minus` is given.  Streamed over blocks of
    slices: neither the difference nor any other trajectory-size array is
    formed.  Every time sum follows the quadrature rule: np.sum per slice,
    math.fsum across slices."""
    g = traj.grid
    data = traj.data
    if minus is None:
        def rows(a, b):
            return data[a:b]
    elif minus.grid != g:
        raise ValueError("grid mismatch")
    else:
        def rows(a, b):
            return data[a:b] - minus.data[a:b]

    def squares(a, b):
        x = rows(a, b)
        return x * x
    if kind == "L2Q":
        return float(np.sqrt(quadrature(squares, g)))
    if kind == "L1Q":
        return quadrature(lambda a, b: np.abs(rows(a, b)), g)
    if kind == "LinfL2":
        sums = per_slice(lambda a, b: np.sum(squares(a, b), axis=1),
                         g.steps + 1, g)
        return float(np.sqrt(g.cell_volume() * sums).max())
    if kind == "L1Hminus1":
        return float(g.tau * math.fsum(_hminus1(rows, g.steps, g).tolist()))
    raise ValueError(f"unknown spacetime norm kind {kind!r}")


# ---------------------------------------------------------------------------
# artifacts

def atomic_write(path, write) -> None:
    """Write-temp-rename: `write(fh)` fills a temporary binary file next to
    `path`, which then replaces `path` in one step, so a reader never sees
    a partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def atomic_write_text(path, text: str) -> None:
    atomic_write(path, lambda fh: fh.write(text.encode()))


# binary field dumps: magic "CDL1", u8 dim, u32 n, u32 slice_count,
# little-endian float64, row-major within a slice, slice-major overall.
MAGIC = b"CDL1"
HEADER = struct.Struct("<4sBII")


def dump_slices(path, dim: int, n: int, slices: np.ndarray) -> None:
    slices = np.ascontiguousarray(slices, dtype="<f8")
    if np.prod(slices.shape[1:]) != n ** dim:
        raise ValueError("slice length does not match dim/n")
    slices = slices.reshape(len(slices), n ** dim)

    def write(fh):
        fh.write(HEADER.pack(MAGIC, dim, n, slices.shape[0]))
        fh.write(slices)  # the array's own buffer, not a bytes copy

    atomic_write(path, write)


def load_slices(path, rows=None):
    """Returns (dim, n, array of shape (rows, n**dim)): the first `rows`
    slices of the dump, or all of them, read straight into the array it
    returns.  The file size is checked against the header before anything
    is allocated."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise ValueError("truncated field dump")
        magic, dim, n, count = HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
        size = HEADER.size + 8 * count * n ** dim
        if os.fstat(fh.fileno()).st_size != size:
            raise ValueError("truncated field dump")
        rows = count if rows is None else rows
        if rows > count:
            raise ValueError(f"field dump holds {count} slices, not {rows}")
        data = np.empty((rows, n ** dim), dtype="<f8")
        raw = data.view(np.uint8).reshape(-1)
        if fh.readinto(raw) != raw.size:  # the file shrank since fstat
            raise ValueError("truncated field dump")
    return dim, n, data


def load_field(path) -> Field:
    """Slice 0 of a dump, on a one-step grid of the dump's dim and n; the
    dump is checked as by load_slices, and only that slice is read."""
    dim, n, data = load_slices(path, rows=1)
    return Field(make_grid(dim, n, 1.0, 1), data[0])


def dump_field(path, f: Field) -> None:
    dump_slices(path, f.grid.dim, f.grid.n, f.values[None, :])


def dump_trajectory(path, traj: Trajectory) -> None:
    dump_slices(path, traj.grid.dim, traj.grid.n, traj.data)
