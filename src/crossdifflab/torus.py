"""Periodic grids on the unit torus, discrete operators and norms.

Everything lives on [0,1)^dim with n points per axis (h = 1/n) and a
uniform time axis of `steps` intervals covering [0, t_final].  The
Laplacian is the 2N+1 point centered stencil, chosen over a spectral one
so that explicit updates keep an M-matrix structure (exact positivity
under the CFL bound).  The FFT is used only for H^-1 norms and, in the
mollify module, for convolutions.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Space-time discretization of [0, t_final] x torus^dim."""

    dim: int
    n: int
    t_final: float
    steps: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not _is_power_of_two(self.n) or self.n < 8:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
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
    return Grid(dim=dim, n=n, t_final=float(t_final), steps=int(steps))


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


def quadrature(rows, grid: Grid) -> float:
    """The left-endpoint space-time quadrature tau h^dim sum_{k<K} of the
    values whose rows k0..k1-1 `rows(k0, k1)` computes, over row_blocks.

    Each row is summed with np.sum and the row sums are added with
    math.fsum.  A row's np.sum inside a block of contiguous rows is np.sum
    of that row alone, and fsum is exactly rounded, so the result depends
    on the row values only: not on the blocking, a stacked layout or the
    order in which rows are summed."""
    sums = np.empty(grid.steps)
    for a, b in row_blocks(grid.steps, grid.size):
        sums[a:b] = np.sum(rows(a, b), axis=1)
    return float(grid.tau * grid.cell_volume() * math.fsum(sums.tolist()))


# ---------------------------------------------------------------------------
# discrete operators: each acts on a (..., grid.size) array, that is one
# flat slice or a stack of them, and treats every slice alike

@functools.cache
def _shifts(ndim: int, dim: int) -> tuple:
    """(destination, source) index pairs that add the two neighbours along
    each of the last `dim` axes of an `ndim`-dimensional array: per axis,
    w[i-1] into the body and then across the wrap, then w[i+1] likewise."""
    pairs = []
    for ax in range(ndim - dim, ndim):
        lead = (slice(None),) * ax
        tail, head = lead + (slice(1, None),), lead + (slice(None, -1),)
        first, last = lead + (slice(0, 1),), lead + (slice(-1, None),)
        pairs += [(tail, head), (first, last), (head, tail), (last, first)]
    return tuple(pairs)


def lap_stack(v: np.ndarray, grid: Grid, out: np.ndarray | None = None
              ) -> np.ndarray:
    """Centered periodic Laplacian of every slice, by slice-adds.

    Each value is -2 dim w, plus w[i-1], plus w[i+1], axis by axis, over
    h^2.  Written into `out` (C-contiguous, of v's shape, not overlapping
    v) when one is given; that array is returned.  A single 1-D slice goes
    through a ghost-cell copy, which adds in the same order with fewer
    calls; stacks and 2-D slices are faster by slice-adds."""
    if out is None:
        out = np.empty(v.shape)
    if grid.dim == 1 and v.ndim == 1:
        pad = np.empty(v.shape[0] + 2)
        pad[1:-1] = v
        pad[0], pad[-1] = v[-1], v[0]
        np.multiply(v, -2.0, out=out)
        np.add(out, pad[:-2], out=out)
        np.add(out, pad[2:], out=out)
        return np.divide(out, grid.h ** 2, out=out)
    if grid.dim == 1:
        w, o = v, out
    elif out.flags.c_contiguous:
        w = v.reshape(v.shape[:-1] + grid.shape)
        o = out.reshape(w.shape)
    else:
        raise ValueError("out must be C-contiguous")
    np.multiply(w, -2.0 * grid.dim, out=o)
    for dst, src in _shifts(w.ndim, grid.dim):
        d = o[dst]
        np.add(d, w[src], out=d)
    np.divide(o, grid.h ** 2, out=o)
    return out


def lap_array(v: np.ndarray, grid: Grid, out: np.ndarray | None = None
              ) -> np.ndarray:
    """The solvers' per-step Laplacian of one flat slice.  A name of its
    own, so that a tracer counts stencil applications per time step apart
    from the whole-trajectory uses of `lap_stack`."""
    return lap_stack(v, grid, out)


def grad_sq_stack(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Squared L2 norm of the forward-difference gradient of every slice,
    computed over blocks of slices (each slice's sum is its own, so the
    blocking does not change a bit)."""
    flat = v.reshape(-1, grid.size)
    axes = tuple(range(-grid.dim, 0))
    out = np.empty(len(flat))
    for a, b in row_blocks(len(flat), grid.size):
        w = flat[a:b].reshape((b - a,) + grid.shape)
        total = 0.0
        for ax in axes:
            d = np.roll(w, -1, axis=ax)
            d -= w
            d /= grid.h
            d *= d
            total = total + d.sum(axis=axes)
        out[a:b] = total
    return (out * grid.cell_volume()).reshape(v.shape[:-1])[()]


def laplacian(f: Field) -> Field:
    return Field(f.grid, lap_stack(f.values, f.grid))


def integrate(f: Field) -> float:
    return float(f.grid.cell_volume() * f.values.sum())


def gradient_norm_sq(f: Field) -> float:
    return float(grad_sq_stack(f.values, f.grid))


def _fourier_weights(grid: Grid) -> np.ndarray:
    """1/(1 + 4 pi^2 |k|^2) on the discrete Fourier lattice."""
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    if grid.dim == 1:
        k2 = k ** 2
    else:
        k2 = k[:, None] ** 2 + k[None, :] ** 2
    return 1.0 / (1.0 + 4.0 * np.pi ** 2 * k2)


def fourier_coefficients(f: Field) -> np.ndarray:
    """Normalized DFT: sum_k |f_hat_k|^2 equals the squared L2 norm."""
    return np.fft.fftn(f.reshaped()) / f.grid.size


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
        fhat = fourier_coefficients(f)
        w = _fourier_weights(f.grid)
        return float(np.sqrt(np.sum(np.abs(fhat) ** 2 * w)))
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
    if kind == "L2Q":
        def squares(a, b):
            x = rows(a, b)
            return x * x
        return float(np.sqrt(quadrature(squares, g)))
    if kind == "L1Q":
        return quadrature(lambda a, b: np.abs(rows(a, b)), g)
    if kind == "LinfL2":
        sums = np.empty(g.steps + 1)
        for a, b in row_blocks(g.steps + 1, g.size):
            x = rows(a, b)
            sums[a:b] = np.sum(x * x, axis=1)
        return float(np.sqrt(g.cell_volume() * sums).max())
    if kind == "L1Hminus1":
        # per-slice H^-1 norms; a C-contiguous block sums each slice as
        # np.sum of that slice alone
        w = _fourier_weights(g)
        axes = tuple(range(1, g.dim + 1))
        per_slice = np.empty(g.steps)
        for a, b in row_blocks(g.steps, g.size):
            block = np.ascontiguousarray(rows(a, b)).reshape(
                (-1,) + g.shape)
            fhat = np.fft.fftn(block, axes=axes) / g.size
            energy = (np.abs(fhat) ** 2 * w).reshape(len(block), -1)
            per_slice[a:b] = np.sqrt(np.sum(energy, axis=1))
        return float(g.tau * math.fsum(per_slice.tolist()))
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


def load_slices(path):
    """Returns (dim, n, array of shape (slice_count, n**dim)), read straight
    into the array it returns.  The file size is checked against the header
    before anything is allocated."""
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
        data = np.empty((count, n ** dim), dtype="<f8")
        raw = data.view(np.uint8).reshape(-1)
        if fh.readinto(raw) != raw.size:  # the file shrank since fstat
            raise ValueError("truncated field dump")
    return dim, n, data


def dump_field(path, f: Field) -> None:
    dump_slices(path, f.grid.dim, f.grid.n, f.values[None, :])


def dump_trajectory(path, traj: Trajectory) -> None:
    dump_slices(path, traj.grid.dim, traj.grid.n, traj.data)
