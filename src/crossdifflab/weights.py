"""Discrete maximal function, A2 weight constants and the convolution
domination constant: the harmonic-analysis toolkit of the weighted
estimates.

Discrete "balls" are centered cubes (l-infinity neighborhoods) of odd side
2w+1 cells, w = 0 .. n/2 - 1, so the smallest ball is the center cell alone
and Mf >= |f| pointwise.  Ball sums wrap around the torus and are built as
ring sums: each ball adds the ring of cells around the previous one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .dual import EstimateReport
from .mollify import convolve_array
from .torus import Field, Grid


@dataclass(frozen=True)
class Weight:
    values: Field

    def __post_init__(self):
        lo, hi = self.values.values.min(), self.values.values.max()
        if lo <= 0.0:
            raise ValueError("weight must be strictly positive")
        # a2_constant takes 1/nu of nu = w / max w: finite only while
        # max/min is within the float range
        with np.errstate(under="ignore", divide="ignore", over="ignore"):
            spread = 1.0 / (lo / hi)
        if not np.isfinite(spread):
            raise ValueError(f"weight max/min = {hi:g}/{lo:g} is beyond the "
                             "float range: its A2 constant is not finite")


def _add_rolls(acc: np.ndarray, a: np.ndarray, w: int) -> None:
    """acc += roll(a, w) + roll(a, -w) along the second-to-last axis, as
    four slice adds of whole rows."""
    e = a.shape[-2] - w
    for dst, src in ((slice(w, None), slice(None, e)),
                     (slice(None, w), slice(e, None)),
                     (slice(None, e), slice(w, None)),
                     (slice(e, None), slice(None, w))):
        acc[..., dst, :] += a[..., src, :]


def _wrap_pad(v: np.ndarray, p: int, axis: int) -> np.ndarray:
    """v with p wrapped cells added at both ends of `axis`."""
    width = [(0, 0)] * v.ndim
    width[axis] = (p, p)
    return np.pad(v, width, mode="wrap")


def _ball_sums(v: np.ndarray, grid: Grid):
    """Yield (size, sums) for the ball sizes 3, 5, ..., n - 1, where
    sums[..., x] is the sum of v over the ball of that side centered at x.
    v holds one or more fields (shape (..., grid.size)); `sums` has its
    shape and is one buffer, updated in place from one size to the next.

    Each size adds the ring around the previous ball.  In 1-D that is the
    two cells at offsets +-w.  In 2-D the ring is the rows +-w of the row
    sums over 2w+1 cells (corners included) and the columns +-w of the
    column sums over 2w-1 cells; both line sums grow by two cells a size.
    The column sums are kept wrap-padded along the rows, grown from a copy
    of v wrap-padded along both axes, so that their columns +-w are two
    shifted reads; each sum adds the same values in the same order as
    rolled copies would.  Added values are never subtracted, so data of
    one sign loses nothing to cancellation."""
    n, p = grid.n, grid.n // 2
    v = v.reshape(v.shape[:-1] + grid.shape)
    flat = v.shape[:-grid.dim] + (grid.size,)
    row_pad = _wrap_pad(v, p, -1)
    row = v.copy()
    if grid.dim == 2:
        col_pad = _wrap_pad(row_pad, p, -2)
        col = row_pad.copy()
        ball = v.copy()
    for w in range(1, p):
        row += row_pad[..., p - w:p - w + n]
        row += row_pad[..., p + w:p + w + n]
        if grid.dim == 1:
            yield 2 * w + 1, row.reshape(flat)
            continue
        _add_rolls(ball, row, w)
        ball += col[..., p - w:p - w + n]
        ball += col[..., p + w:p + w + n]
        col += col_pad[..., p - w:p - w + n, :]
        col += col_pad[..., p + w:p + w + n, :]
        yield 2 * w + 1, ball.reshape(flat)


def maximal_function(f: Field) -> Field:
    """Mf, the largest mean of |f| over the balls centered at each cell.
    A ball holds fewer than n^dim cells, a power of two: when n^dim
    max|f| would overflow, |f| is scaled by 2^-k = 1/n^dim (ldexp, exact
    but for values that fall below the normal range) and Mf scaled back,
    so its ball sums stay finite.  Other fields take no scaling."""
    g = f.grid
    a = np.abs(f.values)
    shift = 0 if a.max() <= sys.float_info.max / g.size \
        else g.size.bit_length() - 1
    if shift:
        a = np.ldexp(a, -shift)
    out = a.copy()  # the size-1 ball is the center cell itself
    mean = np.empty_like(a)
    for size, sums in _ball_sums(a, g):
        np.maximum(out, np.divide(sums, size ** g.dim, out=mean), out=out)
    return Field(g, np.ldexp(out, shift) if shift else out)


def a2_constant(w: Weight) -> float:
    g = w.values.grid
    # A2 does not change when nu is scaled; scaled to a largest value of 1,
    # a constant weight has integer ball sums and gives exactly 1
    nu = w.values.values / w.values.values.max()
    # 1/nu, scaled by 2^-exp (exact) below 1, keeps finite ball sums; ldexp
    # takes the scale back out of each mean product
    inv = 1.0 / nu
    _, exp = np.frexp(inv.max())
    best = 1.0  # size-1 balls give exactly 1
    for size, sums in _ball_sums(np.stack((nu, np.ldexp(inv, -exp))), g):
        cells = size ** g.dim
        best = max(best, float(np.ldexp(
            (sums[0] * sums[1]).max() / cells ** 2, exp)))
    return best


def domination_check(f: Field, ks) -> EstimateReport:
    """Measured constant A* in |f * rho_eps| <= A* M|f|, over the kernels
    `ks`; 1e-300 added to M|f| keeps a zero field from dividing by 0.
    A* does not change when f is scaled: when max|f| is beyond float max
    / n^(2 dim), f is scaled by 2^-k = 1/n^(2 dim) (ldexp, exact but for
    values that fall below the normal range), so that its FFT
    convolutions stay finite.  Other fields take no scaling."""
    g = f.grid
    if np.abs(f.values).max() > sys.float_info.max / g.size ** 2:
        f = Field(g, np.ldexp(f.values, -2 * (g.size.bit_length() - 1)))
    mf = maximal_function(f).values + 1e-300
    a_star = 0.0
    for kern in ks:
        conv = np.abs(convolve_array(f.values, kern))
        a_star = max(a_star, float((conv / mf).max()))
    return EstimateReport(lhs=a_star, rhs=np.inf, ratio=a_star,
                          passed=np.isfinite(a_star),
                          label="convolution domination constant A*")


def _nu_l2(v: np.ndarray, nu: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(grid.cell_volume() * np.sum(nu * v * v)))


def maximal_boundedness(w: Weight, trials: int = 20,
                        seed: int = 0) -> EstimateReport:
    """Measured operator ratio sup ||Mf||_{L2_nu} / ||f||_{L2_nu} over
    random fields.  nu is scaled by an even power of two to a largest value
    near 1: exact, also under the root, so the ratio keeps its bits and
    nu*f^2 cannot overflow."""
    g = w.values.grid
    _, exp = np.frexp(w.values.values.max())
    nu = np.ldexp(w.values.values, -2 * (exp // 2))
    rng = np.random.default_rng(seed)
    ratio = 0.0
    for _ in range(trials):
        v = rng.standard_normal(g.size)
        mf = maximal_function(Field(g, v)).values
        ratio = max(ratio, _nu_l2(mf, nu, g) / _nu_l2(v, nu, g))
    return EstimateReport(lhs=ratio, rhs=np.inf, ratio=ratio,
                          passed=np.isfinite(ratio) and ratio >= 1.0,
                          label=f"maximal operator ratio, {trials} trials")


def a2_ratio_correlation(weights, trials: int = 20, seed: int = 0) -> float:
    """Spearman rank correlation between A2 constants and measured maximal
    operator ratios across a family of weights."""
    from scipy.stats import spearmanr  # costs ~0.5 s to import; only here
    a2 = [a2_constant(w) for w in weights]
    ratios = [maximal_boundedness(w, trials=trials, seed=seed).lhs
              for w in weights]
    rho, _ = spearmanr(a2, ratios)
    return float(rho)
