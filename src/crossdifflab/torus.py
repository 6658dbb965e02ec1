"""Periodic grids on the unit torus, discrete operators and norms.

Everything lives on [0,1)^dim with n points per axis (h = 1/n) and a
uniform time axis of `steps` intervals covering [0, t_final].  The
Laplacian is the 2N+1 point centered stencil, chosen over a spectral one
so that explicit updates keep an M-matrix structure (exact positivity
under the CFL bound).  The FFT is used only for H^-1 norms, as the real
transform rfftn over the space axes, and, in the mollify module, for
convolutions on 2-D grids and on 1-D grids of more than
mollify.DIRECT_MAX points; smaller 1-D grids convolve by a product with
the kernel's circulant matrix, exactly non-negative on non-negative data.

A space-time reduction reads only the rows that can differ: when all the
trajectories it reads are constant in time (broadcast views of one row),
it reads one row and multiplies by the number of slices, with the same
bits (distinct_count).

The marches' stencil works in a ghost-cell buffer made once per march
(GhostCells), of one slice or of a stack of slices whose rows it also
views.  Every constant of a march's hot loop, here the stencil's centre
weight, is a float64 0-d array made once: numpy takes a 0-d array
operand faster than a Python float, with the same bits.
"""

from __future__ import annotations

import functools
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


def is_integer(x) -> bool:
    """Whether x is an integer, a numpy one too, and not a bool."""
    return not isinstance(x, bool) and isinstance(x, numbers.Integral)


@dataclass(frozen=True)
class Grid:
    """Space-time discretization of [0, t_final] x torus^dim."""

    dim: int
    n: int
    t_final: float
    steps: int

    def __post_init__(self):
        for name in ("dim", "n", "steps"):
            value = getattr(self, name)
            if not is_integer(value):
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
        if (self.steps + 1) * self.size > np.iinfo(np.intp).max // 8:
            raise ValueError(f"steps={self.steps}: a trajectory would have "
                             "more values than an array can hold")

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
        d = self.data
        return d[:1] if distinct_count(len(d), d) == 1 else d

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


def distinct_count(count: int, *arrays) -> int:
    """The one rule for constant-in-time data: how many of `count` rows,
    read alike from each of `arrays`, can differ.  1 when every array is a
    broadcast view (row stride 0: all its rows are one row in memory),
    `count` otherwise and when no array is given."""
    if arrays and all(a.strides[0] == 0 for a in arrays):
        return 1
    return count


def fsum_slices(sums: np.ndarray, count: int) -> float:
    """math.fsum of `count` per-slice values: `sums` holds all of them, or
    the one value of rows that distinct_count made one, which is then
    taken count times.  The bits are the same: fsum of count equal values
    v is the correctly rounded count*v, and count * fsum([v]) is one
    rounding of that same real number.  Only a total beyond the float
    range differs: inf here, where fsum of all the values raises
    OverflowError."""
    return count // len(sums) * math.fsum(sums.tolist())


def row_sums(block: np.ndarray) -> np.ndarray:
    """np.sum of each row of a (m, width) block, pairwise as numpy sums a
    contiguous row: a block that is not C-contiguous (a Fortran-ordered one,
    as np.array of a broadcast view) is copied to C order first."""
    return np.sum(np.ascontiguousarray(block), axis=1)


def quadrature(rows, grid: Grid, *reads) -> float:
    """The left-endpoint space-time quadrature tau h^dim sum_{k<K} of the
    values whose rows k0..k1-1 `rows(k0, k1)` computes, over per_slice;
    when `reads` are given, they are all the arrays whose rows `rows` reads,
    and when distinct_count makes those rows one, rows(0, 1) is the only
    one taken (fsum_slices).

    Each row is summed by row_sums and the row sums are added with
    math.fsum.  A row's sum inside a block is the sum of that row alone,
    and fsum is exactly rounded, so the result depends on the row values
    only: not on the blocking, the layout, the order in which rows are
    summed or whether constant-in-time reads are read once."""
    sums = per_slice(lambda a, b: row_sums(rows(a, b)),
                     distinct_count(grid.steps, *reads), grid)
    return quadrature_of_sums(sums, grid)


def quadrature_of_sums(sums: np.ndarray, grid: Grid) -> float:
    """quadrature's end, on row sums its caller gathered: tau h^dim times
    the fsum_slices of the row sums of rows 0..K-1 (or of the one row that
    stands for all of them).  A march consumer that keeps each row's sum
    (SpacetimeNorm, a RowValues of row_sums) gets the bits of the
    quadrature taken afterwards."""
    return float(grid.tau * grid.cell_volume()
                 * fsum_slices(sums, grid.steps))


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
    makes one and writes each step's slice, or stack of slices, into
    `inner`.  `pad`, when given, is the padded buffer to view instead of a
    new one (see `rows`).  `centre` is the stencil's -2 dim, a 0-d array."""

    def __init__(self, grid: Grid, lead: tuple = (),
                 pad: np.ndarray | None = None):
        n, dim = grid.n, grid.dim
        if pad is None:
            pad = np.empty(lead + (n + 2,) * dim)
        mid = slice(1, -1)

        def view(axis, cut):
            cuts = [mid] * dim
            cuts[axis] = cut
            return pad[(...,) + tuple(cuts)]

        self.grid, self.pad = grid, pad
        self.centre = np.array(-2.0 * dim)
        self.inner = pad[(...,) + (mid,) * dim]
        self.rims = [(view(ax, slice(None, None, n + 1)),
                      view(ax, slice(n, 0, 1 - n))) for ax in range(dim)]
        self.neighbours = [view(ax, cut) for ax in range(dim)
                           for cut in (slice(None, -2), slice(2, None))]

    @functools.cached_property
    def rows(self) -> list:
        """One GhostCells per index of the first lead axis, each a view of
        that row of this buffer: a stack of species shares one buffer and
        still takes the stencil one slice at a time.  Made at the first
        use, once."""
        return [GhostCells(self.grid, pad=row) for row in self.pad]


def _stencil(ghost: GhostCells, grid: Grid, out: np.ndarray,
             scale) -> np.ndarray:
    """Fill the rim from `inner`, then out = scale * (-2 dim w, plus
    w[i-1], plus w[i+1], axis by axis); no multiply when scale is None.
    The per-step calls pass `out` positionally: in a 1-D march at n = 64
    the `out=` keywords cost about a tenth of a step."""
    for rim, source in ghost.rims:
        rim[...] = source
    np.multiply(ghost.inner, ghost.centre, out)
    for nb in ghost.neighbours:
        np.add(out, nb, out)
    if scale is not None:
        np.multiply(out, scale, out)
    return out


def lap_stack(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Centered periodic Laplacian of every slice of a (..., grid.size)
    array, through a ghost-cell buffer of its own.

    Each value is -2 dim w, plus w[i-1], plus w[i+1], axis by axis, times
    n^2: h = 1/n with n a power of two, so that is 1/h^2 exactly.  The
    neighbours are read as shifted views of a copy padded by one cell of
    periodic neighbours per axis."""
    out = np.empty(v.shape)
    ghost = GhostCells(grid, v.shape[:-1])
    ghost.inner[...] = on_grid(v, grid)
    _stencil(ghost, grid, on_grid(out, grid), grid.n ** 2)
    return out


def lap_array(ghost: GhostCells, grid: Grid, out: np.ndarray,
              scale) -> np.ndarray:
    """The marches' per-step stencil: `scale` times the neighbour sum of
    `lap_stack`, of the march's own GhostCells with the step's slice
    already in `inner`.  The rim is filled in place and the result, of
    the shape of `inner`, goes to `out`.  A name of its own, so that a
    tracer counts stencil applications per time step apart from the
    whole-trajectory uses of `lap_stack`.

    n^2 = 1/h^2 is a power of two, so scale = tau*n^2 (a march passes it
    as a 0-d array) gives the bits of Lap(v)*tau in one multiply, and
    scale = None leaves the sum for a product that takes the n^2 itself
    (the dual's tau*mu): the same real number,
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


def _hminus1(grid: Grid):
    """The function that gives the H^-1 norms of each slice of a (m,
    grid.size) block: the root of sum_k |F_k|^2 w_k / N^2, with F the DFT
    of the slice, w = 1/(1 + 4 pi^2 |k|^2) on the discrete Fourier lattice
    and N = grid.size.  The real FFT keeps the half k_last = 0..n/2 of the
    last axis: each of the modes 1..n/2-1 stands for itself and its mirror
    image and weighs twice, 0 and the Nyquist mode n/2 are their own
    images and weigh once.  The weights, with the 1/N^2 folded in, are made
    once per returned function."""
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    half = np.arange(grid.n // 2 + 1.0)
    k2 = half ** 2 if grid.dim == 1 else k[:, None] ** 2 + half[None, :] ** 2
    twice = np.full(half.size, 2.0)
    twice[0] = twice[-1] = 1.0
    w = 1.0 / (1.0 + 4.0 * np.pi ** 2 * k2) * twice / grid.size ** 2
    axes = tuple(range(1, grid.dim + 1))

    def norms(block):
        # contiguous, so that the bits do not depend on the block's layout
        fhat = np.fft.rfftn(on_grid(np.ascontiguousarray(block), grid),
                            axes=axes)
        parts = fhat.view(np.float64)       # re, im interleaved
        np.multiply(parts, parts, out=parts)
        energy = parts[..., 0::2] + parts[..., 1::2]
        energy *= w
        return np.sqrt(np.sum(energy.reshape(len(block), -1), axis=1))
    return norms


def norm(f: Field, kind: str) -> float:
    """The norm of the given kind.  Every kind is 1-homogeneous: when the
    value overflows (a square or a sum beyond the float range), f is
    scaled by the power of two 2^-e that brings max|f| into [1/2, 1)
    (ldexp, exact but for values that fall below the normal range) and
    the norm scaled back by 2^e.  In-range values take no scaling.  The
    result is inf only when the norm itself is beyond the float range, as
    the H1 norm of a field near it can be."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = _norm(f.values, f.grid, kind)
        if np.isfinite(value):
            return value
        _, e = np.frexp(np.abs(f.values).max())
        return float(np.ldexp(_norm(np.ldexp(f.values, -e), f.grid, kind),
                              e))


def _norm(v: np.ndarray, grid: Grid, kind: str) -> float:
    vol = grid.cell_volume()
    if kind == "L1":
        return float(vol * np.abs(v).sum())
    if kind == "L2":
        return float(np.sqrt(vol * np.dot(v, v)))
    if kind == "Linf":
        return float(np.abs(v).max())
    if kind == "H1":
        return float(np.sqrt(vol * np.dot(v, v) + grad_sq_stack(v, grid)))
    if kind == "Hminus1":
        return float(_hminus1(grid)(v[None])[0])
    raise ValueError(f"unknown norm kind {kind!r}")


def feed(consume, data: np.ndarray, grid: Grid) -> None:
    """Hand the rows of a kept (count, grid.size) array to a march consumer,
    in row_blocks: the reductions of a kept run are a streamed one's."""
    for a, b in row_blocks(len(data), grid.size):
        consume(a, data[a:b])


class RowValues:
    """A march consumer that keeps one value per row in the `count` slots of
    `values`: of a block handed at `first`, `values(k0, k1, rows)` fills
    slots k0..k1-1 from their rows, and rows outside the slots are dropped.
    A caller that pairs row k+1 with step k hands the block at first - 1."""

    def __init__(self, count: int, values):
        self.rule, self.values = values, np.empty(count)

    def __call__(self, first: int, rows: np.ndarray) -> None:
        k0, k1 = max(first, 0), min(first + len(rows), len(self.values))
        if k0 < k1:
            self.values[k0:k1] = self.rule(k0, k1,
                                           rows[k0 - first:k1 - first])


class SpacetimeNorm:
    """A march consumer (kolmo.march's `consume`): the space-time norm of
    the given kind of the rows it is handed, or of their difference to the
    Trajectory `minus`.  Of each row k < K (all K+1 for LinfL2) it keeps
    one value, the row_sums of x^2 (L2Q, LinfL2) or |x| (L1Q) or the H^-1
    norm (L1Hminus1), taking blocks in any order, each row once; row 0
    handed alone stands for every row (distinct_count).  value() ends by
    the kind's rule (quadrature_of_sums; tau fsum_slices; the largest
    (h^dim s_k)^(1/2)), and each value is its row's own, so neither the
    blocking nor the order moves a bit.  Every row read, of minus too, is
    scaled by 2^e first (ldexp, none when e is 0); value() scales back."""

    def __init__(self, grid: Grid, kind: str,
                 minus: Trajectory | None = None, e: int = 0):
        if kind not in ("L2Q", "L1Q", "LinfL2", "L1Hminus1"):
            raise ValueError(f"unknown spacetime norm kind {kind!r}")
        if minus is not None and minus.grid != grid:
            raise ValueError("grid mismatch")
        self.grid, self.kind, self.e = grid, kind, e
        self.minus = None if minus is None else minus.data
        self.hminus1 = _hminus1(grid) if kind == "L1Hminus1" else None
        self.count = grid.steps + (kind == "LinfL2")
        self.values = []    # one vector per block: O(K) values in all

    def __call__(self, first: int, rows: np.ndarray) -> None:
        x = rows[:self.count - first]
        if len(x) == 0:
            return
        if self.e:
            x = np.ldexp(x, self.e)
        if self.minus is not None:
            m = self.minus[first:first + len(x)]
            x = x - (np.ldexp(m, self.e) if self.e else m)
        self.values.append(row_sums(np.abs(x)) if self.kind == "L1Q"
                           else self.hminus1(x) if self.hminus1
                           else row_sums(x * x))

    def value(self) -> float:
        g, values = self.grid, np.concatenate(self.values)
        if self.kind == "LinfL2":
            value = np.sqrt(g.cell_volume() * values).max()
        elif self.kind == "L1Hminus1":
            value = g.tau * fsum_slices(values, g.steps)
        else:
            value = quadrature_of_sums(values, g)
            if self.kind == "L2Q":
                value = np.sqrt(value)
        return float(np.ldexp(value, -self.e) if self.e else value)


def spacetime_norm(traj: Trajectory, kind: str,
                   minus: Trajectory | None = None) -> float:
    """Left-endpoint time quadrature over the K intervals of the trajectory,
    or of traj - minus when `minus` is given: a SpacetimeNorm fed the rows,
    so no trajectory-size array is formed; row 0 alone when every read is
    constant in time (distinct_count), with the same bits.  Every kind is
    1-homogeneous: when the value overflows (a square or a sum beyond the
    float range), the data are scaled by the power of two 2^-e that brings
    their largest magnitude into [1/2, 1), as by norm, and the norm scaled
    back by 2^e.  In-range values take no scaling."""
    reads = (traj.data,) if minus is None else (traj.data, minus.data)
    rows = traj.data[:distinct_count(len(traj.data), *reads)]

    def measure(e):
        acc = SpacetimeNorm(traj.grid, kind, minus, e)
        feed(acc, rows, traj.grid)
        return acc.value()
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = measure(0)
        except OverflowError:       # math.fsum of finite sums beyond range
            value = math.inf
        if np.isfinite(value):
            return value
        distinct = [r[:distinct_count(len(r), r)] for r in reads]
        _, e = np.frexp(max(max(-d.min(), d.max()) for d in distinct))
        return measure(-e)


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


class BlockSource:
    """A sized block source of `count` slices for dump_slices: calling it
    with a march consumer runs `march(consume)`, which hands the consumer
    (first, rows) blocks that hold every slice once, in any order (a
    backward march hands its last block first).  `march(None)` runs with
    no writer, for the march's own consumers."""

    def __init__(self, count: int, march):
        self.count, self.march = count, march

    def __len__(self) -> int:
        return self.count

    def __call__(self, consume) -> None:
        self.march(consume)


def dump_slices(path, dim: int, n: int, slices) -> None:
    """Write a .cdl dump of `slices` atomically (atomic_write): an array
    of slices of n**dim values, written from its own buffer as one block,
    or a BlockSource of len(slices) slices, written as its march runs.  The
    file is sized first and each block written at its own offset, 13 +
    8*first*n**dim, so a backward march fills it from its end; a march that
    raises (NumericalBlowUp) leaves no file, and one that hands fewer rows
    than it counts is a ValueError."""
    size = n ** dim
    if not callable(slices):
        data = np.ascontiguousarray(slices, dtype="<f8")
        if np.prod(data.shape[1:]) != size:
            raise ValueError("slice length does not match dim/n")
        data = data.reshape(len(data), size)
        slices = BlockSource(len(data), lambda consume: consume(0, data))
    count = len(slices)

    def write(fh):
        fh.write(HEADER.pack(MAGIC, dim, n, count))
        fh.truncate(HEADER.size + 8 * count * size)
        written = 0

        def block(first, rows):
            nonlocal written
            if rows.shape[-1] != size or not 0 <= first <= count - len(rows):
                raise ValueError(f"a block of {rows.shape} at slice "
                                 f"{first} does not fit the dump")
            fh.seek(HEADER.size + 8 * first * size)
            # the block's own buffer, not a bytes copy
            fh.write(np.ascontiguousarray(rows, dtype="<f8"))
            written += len(rows)
        slices(block)
        if written != count:
            raise ValueError(f"the source handed {written} slices, "
                             f"not {count}")

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
