"""Periodic mollifiers: wrapped Gaussians, circular convolution, Dirac
sequences.

Kernels are sampled on the grid and renormalized so the discrete integral
is exactly 1; circular convolution then conserves mass to round-off.  On a
1-D grid of at most DIRECT_MAX points a kernel convolves by one product
with its circulant matrix, built once, whose entries are non-negative, so
a non-negative density stays exactly non-negative.  Every other grid
convolves by FFT (rfftn/irfftn), non-negative only to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .torus import Field, Grid, is_integer, is_real

N_IMAGES = 3  # wrap images per axis; enough for eps <= 0.5 to 1e-12
# largest 1-D n convolved by the circulant matrix: up to here one
# matrix-vector product beats the call overhead of two FFTs; above, its n^2
# work loses
DIRECT_MAX = 256


@dataclass(frozen=True, eq=False)
class Kernel:
    """Non-negative unit-mass kernel of width `eps` sampled on `grid`, with
    its FFT computed once, and on a 1-D grid of at most DIRECT_MAX points
    its circulant matrix h * K[(i - j) mod n] too (h is a power of two,
    so the scaling is exact on normal numbers); `values` must live on
    `grid`, and `eps` goes through check_width."""

    grid: Grid
    eps: float
    values: Field
    _fft: np.ndarray = field(init=False, repr=False)
    _circulant: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.values.grid != self.grid:
            raise ValueError("kernel values live on a different grid")
        object.__setattr__(self, "eps", check_width(self.grid, self.eps))
        object.__setattr__(self, "_fft",
                           np.fft.rfftn(self.values.reshaped()))
        g = self.grid
        circulant = None
        if g.dim == 1 and g.n <= DIRECT_MAX:
            i = np.arange(g.n)
            circulant = self.values.values[(i[:, None] - i) % g.n] * g.h
        object.__setattr__(self, "_circulant", circulant)

    def fft(self) -> np.ndarray:
        return self._fft


def check_width(grid: Grid, eps: float) -> float:
    """eps as a float if a kernel of that width fits the grid, 2h <= eps
    <= 0.5 (resolved, and wrapped by N_IMAGES); a ValueError otherwise,
    also for NaN, which no comparison admits, and for what is_real
    refuses."""
    if not is_real(eps):
        raise ValueError(f"kernel width must be a real number, got {eps!r}")
    eps = float(eps)
    if np.isnan(eps):
        raise ValueError("kernel width is not a number: eps=nan")
    if eps < 2.0 * grid.h:
        raise ValueError(
            f"under-resolved kernel: eps={eps} < 2h={2.0 * grid.h}")
    if eps > 0.5:
        raise ValueError(f"kernel too wide: eps={eps} exceeds 0.5")
    return eps


def check_widths(grid: Grid, widths) -> list:
    """The rule of every width list, toward the Dirac mass: non-empty,
    each width by check_width, strictly decreasing.  Returns the floats."""
    widths = [check_width(grid, eps) for eps in widths]
    if not widths:
        raise ValueError("kernel width list is empty")
    if any(b >= a for a, b in zip(widths, widths[1:])):
        raise ValueError(f"eps must be strictly decreasing, got {widths}")
    return widths


def make_kernel(grid: Grid, eps: float) -> Kernel:
    eps = check_width(grid, eps)
    x = np.arange(grid.n) * grid.h
    # wrapped Gaussian along one axis; the dim-d kernel is the tensor product
    g1 = np.zeros(grid.n)
    for m in range(-N_IMAGES, N_IMAGES + 1):
        g1 += np.exp(-((x + m) ** 2) / (2.0 * eps ** 2))
    if grid.dim == 1:
        vals = g1
    else:
        vals = g1[:, None] * g1[None, :]
    vals = vals / (vals.sum() * grid.cell_volume())
    return Kernel(grid, eps, Field(grid, vals.reshape(-1)))


def convolve(f: Field, k: Kernel) -> Field:
    if f.grid != k.grid:
        raise ValueError("field and kernel live on different grids")
    out = convolve_array(f.values, k)
    return Field(f.grid, out)


def convolve_array(v: np.ndarray, k: Kernel, out=None) -> np.ndarray:
    """Circular convolution of a flat or grid-shaped array with the kernel
    (times h^dim): one product with the kernel's circulant matrix where it
    has one, else an rfftn, a product with the kernel FFT and an irfftn.
    The result is written into `out`, a C-contiguous float64 array of v's
    shape that does not overlap v, when one is given, and returned."""
    if k._circulant is not None:
        return np.dot(k._circulant, v, out)
    g = k.grid
    fv = np.fft.rfftn(v.reshape(g.shape))
    fv *= k.fft()
    conv = np.fft.irfftn(fv, s=g.shape, axes=tuple(range(g.dim)))
    conv = conv.reshape(v.shape)
    return np.multiply(conv, g.cell_volume(),
                       out=conv if out is None else out)


def make_kernels(grid: Grid, widths) -> list:
    """One kernel per width, the whole list checked before any is made."""
    return [make_kernel(grid, eps) for eps in check_widths(grid, widths)]


def kernel_sequence(grid: Grid, eps0: float, factor: float,
                    count: int) -> list:
    """The kernels of widths eps0 * factor^j, j < count."""
    if not is_real(eps0):
        raise ValueError(f"eps0 must be a real number, got {eps0!r}")
    if not (is_real(factor) and 0.0 < factor < 1.0):
        raise ValueError(f"factor must be in (0,1), got {factor!r}")
    if not is_integer(count):
        raise ValueError(f"count must be an integer, got {count!r}")
    return make_kernels(grid, [eps0 * factor ** j for j in range(count)])


def dirac_defect(k: Kernel) -> float:
    """Second moment of the kernel w.r.t. squared torus distance to 0."""
    g = k.grid
    x = np.arange(g.n) * g.h
    d1 = np.minimum(x, 1.0 - x) ** 2
    if g.dim == 1:
        dist2 = d1
    else:
        dist2 = d1[:, None] + d1[None, :]
    return float(np.sum(dist2.reshape(-1) * k.values.values)
                 * g.cell_volume())
