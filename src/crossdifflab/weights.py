"""Discrete maximal function, A2 weight constants and the convolution
domination constant: the harmonic-analysis toolkit of the weighted
estimates.

Discrete "balls" are centered cubes (l-infinity neighborhoods) of odd side
2w+1 cells, w = 0 .. n/2 - 1, so the smallest ball is the center cell alone
and Mf >= |f| pointwise.  Ball sums wrap around the torus and are built as
ring sums: each ball adds the ring of cells around the previous one.  On
a 2-D grid the scan of the ball sums runs as STRIPES row stripes, one per
core, each on its own thread; every cell adds the same values in the same
order in any stripe, so the results do not depend on the stripes, bit for
bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .dual import EstimateReport
from .mollify import convolve_array
from .torus import Field, Grid, on_grid

# the row stripes of a 2-D ball scan: one per core of a two-core machine
STRIPES = 2


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


def _add_rows(acc: np.ndarray, a: np.ndarray, first: int) -> None:
    """acc[..., i, :] += a[..., (first + i) % n, :] for each row i of acc,
    n the row count of a: the wrapped rows as at most two slice adds."""
    n, m = a.shape[-2], acc.shape[-2]
    first %= n
    k = min(m, n - first)   # the rows before the wrap
    acc[..., :k, :] += a[..., first:first + k, :]
    if k < m:
        acc[..., k:, :] += a[..., :m - k, :]


def _wrap_pad(v: np.ndarray, p: int, axis: int) -> np.ndarray:
    """v with p wrapped cells added at both ends of `axis`."""
    width = [(0, 0)] * v.ndim
    width[axis] = (p, p)
    return np.pad(v, width, mode="wrap")


def _scan_pads(v: np.ndarray, grid: Grid) -> tuple:
    """The read-only inputs of a ball scan of v (shape (..., grid.size)),
    made once and shared by the scans of its row stripes: v in the grid's
    shape, its copy wrap-padded by n/2 cells along the last axis (row_pad)
    and, in 2-D, that copy wrap-padded along the rows too (col_pad; None
    in 1-D)."""
    v, p = on_grid(v, grid), grid.n // 2
    row_pad = _wrap_pad(v, p, -1)
    return v, row_pad, _wrap_pad(row_pad, p, -2) if grid.dim == 2 else None


def _ball_sums(pads: tuple, grid: Grid, rows: tuple | None = None):
    """An iterator of (size, sums) for the ball sizes 3, 5, ..., n - 1,
    where sums[..., x] is the sum of v over the ball of that side centered
    at cell x, for the cells x of the output rows lo..hi-1 (`rows`, the
    whole grid by default; rows run along the first space axis, so in 1-D
    they are cells).  `pads` is _scan_pads(v, grid); `sums` has shape
    (..., cells of the rows) and is one buffer, updated in place from one
    size to the next.  Every buffer is made here, in the calling thread,
    before the first size is taken.

    Each size adds the ring around the previous ball.  In 1-D that is the
    two cells at offsets +-w.  In 2-D the ring is the rows +-w of the row
    sums over 2w+1 cells (corners included) and the columns +-w of the
    column sums over 2w-1 cells; both line sums grow by two cells a size.
    A ball reads the row sums of rows from anywhere on the torus, so a
    scan keeps them for every row; the column sums only for its own rows.
    The column sums are kept wrap-padded along the rows, grown from
    col_pad, so that their columns +-w are two shifted reads.  Each cell
    adds the same values in the same order, whatever its rows: as rolled
    copies would, and so with the bits of the whole-grid scan.  Added
    values are never subtracted, so data of one sign loses nothing to
    cancellation."""
    n, p = grid.n, grid.n // 2
    lo, hi = rows or (0, n)
    v, row_pad, col_pad = pads
    # the cells of the row sums: in 1-D those of the rows (the row sums are
    # the ball sums), in 2-D every row
    r0, r1 = (lo, hi) if grid.dim == 1 else (0, n)

    def scan(row, col, ball):
        for w in range(1, p):
            row += row_pad[..., r0 + p - w:r1 + p - w]
            row += row_pad[..., r0 + p + w:r1 + p + w]
            if grid.dim == 1:
                yield 2 * w + 1, row
                continue
            _add_rows(ball, row, lo - w)
            _add_rows(ball, row, lo + w)
            ball += col[..., p - w:p - w + n]
            ball += col[..., p + w:p + w + n]
            col += col_pad[..., lo + p - w:hi + p - w, :]
            col += col_pad[..., lo + p + w:hi + p + w, :]
            yield 2 * w + 1, ball.reshape(ball.shape[:-2] + (-1,))
    if grid.dim == 1:
        return scan(v[..., lo:hi].copy(), None, None)
    return scan(v.copy(), row_pad[..., lo:hi, :].copy(),
                v[..., lo:hi, :].copy())


def _striped_scan(v: np.ndarray, grid: Grid, stripe) -> None:
    """The ball scan of v (_ball_sums), split in 2-D over STRIPES ranges
    of output rows, one per core: the first here, each other on a helper
    thread of its own; 1-D grids take one scan here.  For each range,
    stripe(cells), called here before any helper starts, takes the range's
    slice of the flat cells and gives the function that takes its (size,
    sums) on the stripe's thread.  So every buffer is made in this thread,
    and off it run only numpy calls on slabs large enough to release the
    GIL.  Once every stripe is done, the first error a helper raised is
    raised here; no helper outlives the call."""
    import threading  # loaded with numpy: no import cost
    pads = _scan_pads(v, grid)
    count = STRIPES if grid.dim == 2 else 1
    per = grid.size // grid.n       # the cells of a row
    bounds = [i * grid.n // count for i in range(count + 1)]
    scans = [(_ball_sums(pads, grid, (lo, hi)),
              stripe(slice(lo * per, hi * per)))
             for lo, hi in zip(bounds, bounds[1:])]
    errors = []

    def run(sums_of, take):
        for size, sums in sums_of:
            take(size, sums)

    def guarded(*scan):
        try:
            run(*scan)
        except BaseException as exc:  # raised in the caller below
            errors.append(exc)
    helpers = [threading.Thread(target=guarded, args=scan)
               for scan in scans[1:]]
    for t in helpers:
        t.start()
    try:
        run(*scans[0])
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]


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

    def stripe(cells):    # each stripe takes its maximum into its own cells
        mine = out[cells]
        mean = np.empty_like(mine)
        return lambda size, sums: np.maximum(
            mine, np.divide(sums, size ** g.dim, out=mean), out=mine)
    _striped_scan(a, g, stripe)
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
    tops = []   # per stripe: the largest S_nu * S_{1/nu} of each size

    def stripe(cells):
        prod, top = np.empty(cells.stop - cells.start), []
        tops.append(top)
        return lambda size, sums: top.append(
            np.multiply(sums[0], sums[1], out=prod).max())
    _striped_scan(np.stack((nu, np.ldexp(inv, -exp))), g, stripe)
    best = 1.0  # size-1 balls give exactly 1
    # the largest over the stripes is exact: the whole grid's bits
    for k, top in enumerate(map(max, zip(*tops)), 1):
        cells = (2 * k + 1) ** g.dim
        best = max(best, float(np.ldexp(top / cells ** 2, exp)))
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
