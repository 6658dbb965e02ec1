"""The explicit marches write in place: one stencil call per species per
step, and the problem's own arrays are never written."""

import numpy as np
import pytest

from crossdifflab import dual, kolmo, skt, torus
from crossdifflab.dual import DualProblem, solve_dual
from crossdifflab.kolmo import KolmogorovProblem, solve_forward, steps_for
from crossdifflab.mollify import make_kernel
from crossdifflab.skt import (CoeffFamily, ReactionFamily, SktSpec,
                              solve_system)
from crossdifflab.torus import Field, Trajectory, make_grid


def _grid(dim):
    return make_grid(dim, 16, 0.002, steps_for(dim, 16, 0.002, 2.0))


def _traj(g, rng, lo, hi):
    return Trajectory(g, rng.uniform(lo, hi, (g.steps + 1, g.size)))


def _forward(g, rng, mode):
    return KolmogorovProblem(grid=g, mu=_traj(g, rng, 0.5, 2.0),
                             z0=Field(g, rng.uniform(0.0, 1.0, g.size)),
                             **{mode: _traj(g, rng, -1.0, 1.0)})


def _skt_spec(g, rng, eps):
    kern = make_kernel(g, eps) if eps else None
    return SktSpec(
        grid=g,
        coeffs=(CoeffFamily(kind="clamped_affine", d=1.0, c=(1.0,),
                            lo=0.5, hi=2.0),
                CoeffFamily(kind="constant", d=1.0)),
        reactions=(ReactionFamily(rho=1.0, s=(1.0, 1.0)),
                   ReactionFamily(rho=1.0, s=(0.0, 1.0))),
        kernels=(kern, kern),
        init=tuple(Field(g, rng.uniform(0.5, 1.5, g.size))
                   for _ in range(2)))


def _count_stencil_calls(monkeypatch, module):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return torus.lap_array(*args, **kwargs)

    monkeypatch.setattr(module, "lap_array", counted)
    return calls


@pytest.mark.parametrize("dim", [1, 2])
def test_one_stencil_call_per_species_per_step(monkeypatch, dim):
    g = _grid(dim)
    rng = np.random.default_rng(dim)
    calls = _count_stencil_calls(monkeypatch, kolmo)
    for mode in ("source", "reaction"):
        solve_forward(_forward(g, rng, mode))
    assert len(calls) == 2 * g.steps

    calls = _count_stencil_calls(monkeypatch, dual)
    solve_dual(DualProblem(grid=g, mu=_traj(g, rng, 0.5, 2.0),
                           s=_traj(g, rng, -1.0, 1.0)))
    assert len(calls) == g.steps

    calls = _count_stencil_calls(monkeypatch, skt)
    for eps in (None, 0.25):
        solve_system(_skt_spec(g, rng, eps))
    assert len(calls) == 2 * 2 * g.steps


def _snapshot(*arrays):
    return [a.copy() for a in arrays]


def _unchanged(before, arrays):
    return all(np.array_equal(b, a) for b, a in zip(before, arrays))


@pytest.mark.parametrize("dim", [1, 2])
def test_marches_leave_their_inputs_unchanged(dim):
    g = _grid(dim)
    rng = np.random.default_rng(10 + dim)
    for mode in ("source", "reaction"):
        p = _forward(g, rng, mode)
        rhs = p.source if mode == "source" else p.reaction
        inputs = (p.z0.values, p.mu.data, rhs.data)
        before = _snapshot(*inputs)
        z = solve_forward(p).trajectory.data
        assert _unchanged(before, inputs)
        assert np.array_equal(z[0], p.z0.values)

    p = DualProblem(grid=g, mu=_traj(g, rng, 0.5, 2.0),
                    s=_traj(g, rng, -1.0, 1.0))
    inputs = (p.mu.data, p.s.data)
    before = _snapshot(*inputs)
    solve_dual(p)
    assert _unchanged(before, inputs)

    for eps in (None, 0.25):
        spec = _skt_spec(g, rng, eps)
        inputs = [f.values for f in spec.init]
        before = _snapshot(*inputs)
        sol = solve_system(spec)
        assert _unchanged(before, inputs)
        assert all(np.array_equal(t.data[0], f.values)
                   for t, f in zip(sol, spec.init))
