"""Maximal function, A2 constants and weighted-estimate checks."""

import itertools
import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from crossdifflab import dual, torus, weights
from crossdifflab.dual import (AprioriSums, DualProblem,
                               energy_identity_case_ii,
                               energy_identity_case_iii, solve_dual)
from crossdifflab.kolmo import steps_for
from crossdifflab.mollify import kernel_sequence, make_kernels
from crossdifflab.torus import Field, Trajectory, make_grid
from crossdifflab.weights import (Weight, a2_constant, a2_ratio_correlation,
                                  domination_check, maximal_boundedness,
                                  maximal_function)


def test_weight_must_be_positive():
    g = make_grid(1, 8, 1.0, 1)
    with pytest.raises(ValueError, match="strictly positive"):
        Weight(Field.constant(g, 0.0))


@pytest.mark.parametrize("lo, hi", [(1e-300, 1e308), (1e-10, 1e300),
                                    (2.0 ** -1074, 1.0)])
def test_weight_beyond_the_float_range_is_refused(lo, hi):
    # max/min overflowed, and a2_constant returned inf with two
    # RuntimeWarnings; a max/min just inside the range keeps a finite A2
    g = make_grid(1, 8, 1.0, 1)
    with pytest.raises(ValueError, match="beyond the float range"):
        Weight(Field(g, np.where(np.arange(8) % 2, hi, lo)))
    inside = Weight(Field(g, np.where(np.arange(8) % 2, 1.7e308, 1.0)))
    assert np.isfinite(a2_constant(inside))


def test_maximal_dominates_f():
    rng = np.random.default_rng(0)
    for dim in (1, 2):
        g = make_grid(dim, 16, 1.0, 1)
        f = Field(g, rng.standard_normal(g.size))
        mf = maximal_function(f)
        assert np.all(mf.values >= np.abs(f.values) - 1e-15)


def test_maximal_spike_oracle():
    # a single unit spike: the best window centered at distance d has
    # size 2d+1, so Mf = 1/(2d+1); the antipode (d=8) is out of reach of
    # every window (the largest size is 15) and gets 0
    g = make_grid(1, 16, 1.0, 1)
    v = np.zeros(16)
    v[0] = 1.0
    mf = maximal_function(Field(g, v)).values
    for j in range(16):
        d = min(j, 16 - j)
        expect = 1.0 / (2 * d + 1) if d <= 7 else 0.0
        assert abs(mf[j] - expect) < 1e-12, j


def test_maximal_constant_fixed_point():
    g = make_grid(2, 16, 1.0, 1)
    mf = maximal_function(Field.constant(g, 2.0))
    assert np.abs(mf.values - 2.0).max() < 1e-13


@pytest.mark.parametrize("dim", [1, 2])
def test_maximal_function_near_the_float_range(dim):
    # the ball sums of a constant 1e308 field overflowed, and Field refused
    # the result as non-finite.  A field beyond float max / n^dim is scaled
    # by 1/n^dim (exact) and back; an in-range field is not scaled
    g = make_grid(dim, 16, 1.0, 1)
    v = np.random.default_rng(dim).standard_normal(g.size)
    mf = maximal_function(Field(g, v)).values
    big = np.ldexp(v, 1020)
    assert np.abs(big).max() > sys.float_info.max / g.size
    assert np.array_equal(maximal_function(Field(g, big)).values,
                          np.ldexp(mf, 1020))
    top = maximal_function(Field.constant(g, 1e308)).values
    assert np.all(np.abs(top - 1e308) <= 1e-15 * 1e308)
    # the prescaled scan keeps its bits on any number of row stripes
    for stripes in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "STRIPES", stripes)
            assert np.array_equal(maximal_function(Field(g, big)).values,
                                  np.ldexp(mf, 1020))


@pytest.mark.parametrize("scan", ["maximal_function", "a2_constant"])
def test_an_error_in_a_helper_stripe_is_raised_in_the_caller(monkeypatch,
                                                             scan):
    # the second row stripe runs on a helper thread: its error reaches the
    # caller once every stripe is done, and no thread outlives the call
    g = make_grid(2, 16, 1.0, 1)
    v = np.exp(np.random.default_rng(5).standard_normal(g.size))
    whole = weights._ball_sums
    raised_on = []

    class StripeFailed(Exception):
        pass

    def failing(pads, grid, rows=None):
        sums = whole(pads, grid, rows)
        if rows[0] == 0:
            return sums

        def fail():
            yield next(sums)
            raised_on.append(threading.current_thread())
            raise StripeFailed(rows)
        return fail()
    monkeypatch.setattr(weights, "_ball_sums", failing)
    before = threading.active_count()
    call = {"maximal_function": lambda: maximal_function(Field(g, v)),
            "a2_constant": lambda: a2_constant(Weight(Field(g, v)))}[scan]
    with pytest.raises(StripeFailed, match=r"\(8, 16\)"):
        call()
    assert threading.active_count() == before
    assert raised_on and raised_on[0] is not threading.main_thread()


def test_domination_check_near_the_float_range():
    # the FFT convolutions of a constant 1e308 field overflowed to NaN, and
    # max(0.0, nan) kept A* = 0.0 with the check passed.  A field beyond
    # float max / n^(2 dim) is scaled by 1/n^(2 dim) (exact), which leaves
    # A* as it is
    g = make_grid(2, 32, 1.0, 1)
    ks = make_kernels(g, [0.4, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = domination_check(Field.constant(g, 1e308), ks).lhs
        v = np.random.default_rng(3).standard_normal(g.size)
        big = domination_check(Field(g, np.ldexp(v, 1015)), ks).lhs
        assert big == domination_check(Field(g, np.ldexp(v, 995)), ks).lhs
    assert math.isfinite(top) and abs(top - 1.0) <= 1e-12


def test_a2_constant_one_for_constant_weight():
    for dim in (1, 2):
        g = make_grid(dim, 16, 1.0, 1)
        assert a2_constant(Weight(Field.constant(g, 1.0))) == 1.0
        assert abs(a2_constant(Weight(Field.constant(g, 7.0))) - 1.0) < 1e-12


def test_a2_two_level_brute_force():
    # n=8 line with a two-valued weight: enumerate every centered window
    g = make_grid(1, 8, 1.0, 1)
    nu = np.array([1.0, 1.0, 9.0, 9.0, 1.0, 1.0, 9.0, 1.0])
    best = 1.0
    for w, c in itertools.product(range(4), range(8)):
        idx = [(c + o) % 8 for o in range(-w, w + 1)]
        best = max(best, nu[idx].mean() * (1.0 / nu[idx]).mean())
    assert abs(a2_constant(Weight(Field(g, nu))) - best) < 1e-12


def test_a2_and_maximal_ratio_of_a_weight_near_the_float_range():
    # the ball sums of 1/nu and nu*f^2 overflowed: a RuntimeWarning, and a
    # NaN ratio that max() read as 0.  Both constants are exact under a
    # power-of-two scaling of the weight
    g = make_grid(1, 8, 1.0, 1)
    nu = np.array([1.0, 1.0, 9.0, 9.0, 1.0, 1.0, 9.0, 1.0])
    w = Weight(Field(g, nu))
    big = Weight(Field(g, nu * 2.0 ** 1020))
    assert a2_constant(big) == a2_constant(w)
    rep = maximal_boundedness(w, trials=3, seed=1)
    big_rep = maximal_boundedness(big, trials=3, seed=1)
    assert big_rep.passed and big_rep.ratio == rep.ratio

    wide = np.where(nu > 1.0, 1e308, 1.0)
    exact = max(
        sum(map(Fraction, wide[idx])) * sum(1 / Fraction(v) for v in wide[idx])
        / len(idx) ** 2
        for w_, c in itertools.product(range(4), range(8))
        for idx in [[(c + o) % 8 for o in range(-w_, w_ + 1)]])
    a2 = a2_constant(Weight(Field(g, wide)))
    assert abs(a2 - float(exact)) <= 1e-12 * float(exact)


def test_a2_monotone_in_contrast():
    g = make_grid(1, 32, 1.0, 1)
    x = np.arange(32) / 32
    prev = 0.0
    for contrast in (2.0, 4.0, 8.0):
        nu = 1.0 + (contrast - 1.0) * (np.cos(2 * np.pi * x) > 0)
        cur = a2_constant(Weight(Field(g, nu)))
        assert cur > prev
        prev = cur


def test_maximal_boundedness_at_least_one():
    g = make_grid(1, 32, 1.0, 1)
    rep = maximal_boundedness(Weight(Field.constant(g, 1.0)), trials=5)
    assert rep.passed and rep.lhs >= 1.0


def test_domination_constant_finite():
    rng = np.random.default_rng(1)
    g = make_grid(1, 64, 1.0, 1)
    f = Field(g, rng.standard_normal(64))
    ks = kernel_sequence(g, 0.4, 0.5, 3)
    rep = domination_check(f, ks)
    assert rep.passed and np.isfinite(rep.lhs) and rep.lhs > 0.0


def test_a2_ratio_correlation_positive():
    g = make_grid(1, 32, 1.0, 1)
    x = np.arange(32) / 32
    bump = np.exp(-(np.minimum(x, 1 - x) / 0.08) ** 2)
    fam = [Weight(Field(g, (1.0 + 8.0 * bump) ** p))
           for p in (0.0, 1.0, 2.0)]
    assert a2_ratio_correlation(fam, trials=10, seed=0) > 0.8


def _source(g, rng):
    return Trajectory.constant_in_time(
        g, Field(g, rng.standard_normal(g.size)))


def test_energy_identity_x_only():
    rng = np.random.default_rng(2)
    n, T = 32, 0.02
    g = make_grid(1, n, T, steps_for(1, n, T, 3.0))
    mu_x = Field(g, rng.uniform(0.3, 3.0, g.size))
    rep = energy_identity_case_ii(mu_x, _source(g, rng))
    assert rep.passed, rep
    assert rep.ratio < 1e-3


def test_energy_identity_t_only():
    rng = np.random.default_rng(3)
    n, T = 32, 0.02
    g = make_grid(1, n, T, steps_for(1, n, T, 2.0))
    mu_t = 1.0 + 0.5 * np.sin(np.linspace(0.0, 3.0, g.steps + 1))
    rep = energy_identity_case_iii(mu_t, _source(g, rng))
    assert rep.passed, rep
    assert rep.ratio < 1e-2
    with pytest.raises(ValueError, match="entries"):
        energy_identity_case_iii(mu_t[:-1], _source(g, rng))


@pytest.mark.parametrize("dim, per", [(1, 3), (2, 2), (2, None)])
def test_energy_identity_t_only_takes_the_apriori_sums_bits(monkeypatch,
                                                            dim, per):
    # case iii reduces only Phi^0's gradient and the Laplacian energy rows,
    # with the bits of a dual.AprioriSums fed the whole of Phi; `per`
    # steps a block cross the block boundaries, None keeps one block
    rng = np.random.default_rng(30 + dim)
    n, T = 16, 0.004
    g = make_grid(dim, n, T, steps_for(dim, n, T, 2.0))
    if per is not None:
        monkeypatch.setattr(torus, "STREAM_BLOCK", per * g.size)
    mu_t = 1.0 + 0.5 * np.cos(np.linspace(0.0, 2.0, g.steps + 1))
    s = Trajectory(g, rng.standard_normal((g.steps + 1, g.size)))
    rep = energy_identity_case_iii(mu_t, s)

    mu = Trajectory(g, np.broadcast_to(mu_t[:, None],
                                       (g.steps + 1, g.size)))
    p = DualProblem(grid=g, mu=mu, s=s)
    phi = solve_dual(p).data
    sums = AprioriSums(p)
    torus.feed(sums, phi, g)
    dual.feed_laplacians(sums.energy, phi, g)
    lhs = 0.5 * float(sums.grad.values[0]) + torus.quadrature_of_sums(
        sums.energy.values, g)
    rhs = torus.quadrature(
        lambda a, b: torus.lap_stack(phi[a:b], g) * s.data[a:b], g)
    assert (rep.lhs, rep.rhs) == (lhs, rhs)


@pytest.mark.parametrize("dim, per", [(1, 3), (2, 2), (2, None)])
def test_energy_identity_x_only_takes_the_kept_phis_bits(monkeypatch, dim,
                                                         per):
    # case ii streams its dual march in blocks of `per` steps (None keeps
    # one block); its terms have the bits of the kept Phi's reductions,
    # taken here in the default blocks, with S white in time
    rng = np.random.default_rng(20 + dim)
    n, T = 16, 0.004
    g = make_grid(dim, n, T, steps_for(dim, n, T, 3.0))
    mu_x = Field(g, rng.uniform(0.3, 3.0, g.size))
    s = Trajectory(g, rng.standard_normal((g.steps + 1, g.size)))
    with monkeypatch.context() as mp:
        if per is not None:
            mp.setattr(torus, "STREAM_BLOCK", per * g.size)
        rep = energy_identity_case_ii(mu_x, s)

    mu = Trajectory.constant_in_time(g, mu_x)
    phi = solve_dual(DualProblem(grid=g, mu=mu, s=s)).data
    inv_mu = 1.0 / mu_x.values
    lhs = 0.5 * g.cell_volume() * float(np.sum(inv_mu * phi[0] ** 2))
    lhs += g.tau * math.fsum(torus.grad_sq_stack(phi[:-1], g).tolist())
    rhs = -torus.quadrature(
        lambda a, b: phi[a:b] * inv_mu[None, :] * s.data[a:b], g)
    assert (rep.lhs, rep.rhs) == (lhs, rhs)


def test_energy_identities_stream_their_dual_march(monkeypatch):
    # neither identity keeps Phi: each hands solve_dual a consumer
    consumers = []

    def recorded(p, consume=None, laplacians=None):
        consumers.append(consume)
        return solve_dual(p, consume, laplacians)
    monkeypatch.setattr(dual, "solve_dual", recorded)
    rng = np.random.default_rng(4)
    g = make_grid(1, 16, 0.004, steps_for(1, 16, 0.004, 2.0))
    energy_identity_case_ii(Field(g, rng.uniform(0.5, 2.0, g.size)),
                            _source(g, rng))
    energy_identity_case_iii(np.full(g.steps + 1, 1.5), _source(g, rng))
    assert len(consumers) == 2 and None not in consumers
