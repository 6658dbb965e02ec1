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

    @staticmethod
    def constant_in_time(grid: Grid, f: Field) -> "Trajectory":
        # broadcast view; read-only, never mutated by the solvers
        data = np.broadcast_to(f.values, (grid.steps + 1, grid.size))
        return Trajectory(grid, data)

    @staticmethod
    def constant(grid: Grid, c: float) -> "Trajectory":
        return Trajectory.constant_in_time(grid, Field.constant(grid, c))


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
    v) when one is given; that array is returned."""
    if out is None:
        out = np.empty(v.shape)
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
    """Squared L2 norm of the forward-difference gradient of every slice."""
    w = v.reshape(v.shape[:-1] + grid.shape)
    axes = tuple(range(-grid.dim, 0))
    total = 0.0
    for ax in axes:
        d = np.roll(w, -1, axis=ax)
        d -= w
        d /= grid.h
        d *= d
        total = total + d.sum(axis=axes)
    return total * grid.cell_volume()


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


def spacetime_norm(traj: Trajectory, kind: str) -> float:
    """Left-endpoint time quadrature over the K intervals of the trajectory."""
    g = traj.grid
    tau = g.tau
    body = traj.data[:-1]  # slices 0..K-1
    vol = g.cell_volume()
    if kind == "L2Q":
        return float(np.sqrt(tau * vol * np.sum(body * body)))
    if kind == "L1Q":
        return float(tau * vol * np.sum(np.abs(body)))
    if kind == "LinfL2":
        per_slice = np.sqrt(vol * np.sum(traj.data * traj.data, axis=1))
        return float(per_slice.max())
    if kind == "L1Hminus1":
        # per-slice H^-1 norms, in blocks of about 2^15 values so that no
        # trajectory-size spectrum is ever held; a C-contiguous block keeps
        # each slice's sum pairwise, as for one slice, and the slices are
        # summed in order
        w = _fourier_weights(g)
        axes = tuple(range(1, g.dim + 1))
        per = max(1, 2 ** 15 // g.size)
        per_slice = np.empty(g.steps)
        for k in range(0, g.steps, per):
            block = np.ascontiguousarray(body[k:k + per]).reshape(
                (-1,) + g.shape)
            fhat = np.fft.fftn(block, axes=axes) / g.size
            energy = (np.abs(fhat) ** 2 * w).reshape(len(block), -1)
            per_slice[k:k + per] = np.sqrt(np.sum(energy, axis=1))
        return float(tau * np.cumsum(per_slice)[-1])
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


# binary field dumps: magic "CDL1", u8 dim, u32 n, u32 slice_count,
# little-endian float64, row-major within a slice, slice-major overall.
MAGIC = b"CDL1"
HEADER = struct.Struct("<4sBII")


def dump_slices(path, dim: int, n: int, slices: np.ndarray) -> None:
    slices = np.ascontiguousarray(slices, dtype="<f8").reshape(len(slices), -1)
    if slices.shape[1] != n ** dim:
        raise ValueError("slice length does not match dim/n")

    def write(fh):
        fh.write(HEADER.pack(MAGIC, dim, n, slices.shape[0]))
        fh.write(slices.tobytes())

    atomic_write(path, write)


def load_slices(path):
    """Returns (dim, n, array of shape (slice_count, n**dim))."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise ValueError("truncated field dump")
        magic, dim, n, count = HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != count * n ** dim:
        raise ValueError("truncated field dump")
    return dim, n, data.reshape(count, n ** dim).copy()


def dump_field(path, f: Field) -> None:
    dump_slices(path, f.grid.dim, f.grid.n, f.values[None, :])


def dump_trajectory(path, traj: Trajectory) -> None:
    dump_slices(path, traj.grid.dim, traj.grid.n, traj.data)
