"""Periodic mollifiers: wrapped Gaussians, FFT convolution, Dirac sequences.

Kernels are sampled on the grid and renormalized so the discrete integral
is exactly 1; circular convolution then conserves mass to round-off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .torus import Field, Grid, atomic_write_text, dump_field, is_real

N_IMAGES = 3  # wrap images per axis; enough for eps <= 0.5 to 1e-12


@dataclass(frozen=True, eq=False)
class Kernel:
    """Non-negative unit-mass kernel of width `eps` sampled on `grid`, with
    its FFT computed once; `eps` goes through check_width."""

    grid: Grid
    eps: float
    values: Field
    _fft: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eps", check_width(self.grid, self.eps))
        object.__setattr__(self, "_fft",
                           np.fft.rfftn(self.values.reshaped()))

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


def convolve_array(v: np.ndarray, k: Kernel) -> np.ndarray:
    """Circular convolution of a flat array with the kernel (times h^dim).
    In 1-D rfftn and irfftn reduce to exactly rfft and irfft, so those are
    called directly."""
    g = k.grid
    if g.dim == 1:
        fv = np.fft.rfft(v)
        fv *= k.fft()
        out = np.fft.irfft(fv, g.n)
    else:
        fv = np.fft.rfftn(v.reshape(g.shape))
        fv *= k.fft()
        out = np.fft.irfftn(fv, s=g.shape, axes=(0, 1))
    out *= g.cell_volume()
    return out.reshape(v.shape)


def make_kernels(grid: Grid, widths) -> list:
    """One kernel per width, the whole list checked before any is made."""
    return [make_kernel(grid, eps) for eps in check_widths(grid, widths)]


def kernel_sequence(grid: Grid, eps0: float, factor: float,
                    count: int) -> list:
    """The kernels of widths eps0 * factor^j, j < count."""
    if not 0.0 < factor < 1.0:
        raise ValueError(f"factor must be in (0,1), got {factor}")
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


def dump_kernel(path, k: Kernel) -> None:
    """Binary dump plus a JSON sidecar describing the kernel."""
    dump_field(path, k.values)
    sidecar = {"eps": k.eps, "n": k.grid.n, "dim": k.grid.dim,
               "family": "wrapped_gaussian"}
    atomic_write_text(f"{path}.json", json.dumps(sidecar, indent=2) + "\n")
