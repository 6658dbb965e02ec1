"""Config parsing, run orchestration, sweeps, artifacts and the CLI."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossdifflab import cli
from crossdifflab.cli import main
from crossdifflab.dual import (DualProblem, duality_residual, solve_dual,
                               verify_apriori)
from crossdifflab.kolmo import (KolmogorovProblem, NumericalBlowUp,
                                solve_forward)
from crossdifflab.lab import (_KINDS, ConfigError, RunManifest,
                              atomic_write_text, build_field, parse_config,
                              philox_rng, random_duality_problem, run, sweep,
                              write_csv)
from crossdifflab.torus import (Field, Trajectory, dump_field, dump_slices,
                                dump_trajectory, load_slices, make_grid, norm)

GRID = {"dim": 1, "n": 32, "t_final": 0.01}


def _cfg(**extra):
    base = {"kind": "kolmogorov", "grid": dict(GRID), "seed": 1,
            "mu": {"family": "constant", "value": 1.0},
            "z0": {"family": "fourier_mode", "k": 1, "amp": 0.5,
                   "offset": 1.0},
            "source": {"family": "constant", "value": 0.0}}
    base.update(extra)
    return parse_config(json.dumps(base))


# ---------------------------------------------------------------------------
# config parsing

def test_unknown_key_suggestion():
    with pytest.raises(ConfigError, match="did you mean 'seed'"):
        parse_config(json.dumps({"kind": "kolmogorov", "grid": GRID,
                                 "sead": 1}))


def test_unknown_kind_suggestion():
    with pytest.raises(ConfigError, match="did you mean 'kolmogorov'"):
        parse_config(json.dumps({"kind": "kolmogorv", "grid": GRID}))


def test_missing_grid_and_bad_json():
    with pytest.raises(ConfigError, match="config.grid"):
        parse_config(json.dumps({"kind": "kolmogorov"}))
    with pytest.raises(ConfigError, match=r"^missing key config\.kind$"):
        parse_config(json.dumps({"grid": GRID}))
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("[1,2]")


def test_readme_config_parses_and_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```json\n(.*?)^```$", readme, re.M | re.S)
    man = run(parse_config(block))
    assert man.passed and man.config["kind"] == "kolmogorov"


def test_under_resolved_eps_rejected():
    cfg = {"kind": "stability", "grid": dict(GRID), "eps": [0.2, 0.01],
           "mu": {"family": "constant", "value": 1.0},
           "z0": {"family": "constant", "value": 1.0}}
    with pytest.raises(ConfigError, match="under-resolved"):
        parse_config(json.dumps(cfg))
    cfg["eps"] = [0.7]
    with pytest.raises(ConfigError, match="exceeds 0.5"):
        parse_config(json.dumps(cfg))


@pytest.mark.parametrize("kind, key, value", [
    ("kolmogorov", "output", "out/"),
    ("kolmogorov", "sweep_axis", "grid.n"),
    ("kolmogorov", "s", {"family": "constant", "value": 1.0}),
    ("kolmogorov", "trials", 5),
    ("kolmogorov", "eps", [0.01]),
    ("weights", "mu", {"family": "constant", "value": 1.0}),
])
def test_key_of_another_kind_is_unknown(kind, key, value):
    # each kind takes kind, grid, seed and the keys its plan reads
    raw = (_kolmo_raw() if kind == "kolmogorov" else
           {"kind": "weights", "grid": dict(GRID), "weight": CONST})
    raw[key] = value
    with pytest.raises(ConfigError, match=rf"^unknown key config\.{key}"):
        parse_config(json.dumps(raw))


def test_bad_grid_reported_as_config_error(tmp_path):
    with pytest.raises(ConfigError, match="power of two"):
        _cfg(grid={"dim": 1, "n": 48, "t_final": 0.01})


# ---------------------------------------------------------------------------
# field families

def test_build_field_families(tmp_path):
    g = make_grid(1, 32, 1.0, 1)
    c = build_field(g, {"family": "constant", "value": 2.0}, "p")
    assert np.all(c.values == 2.0)

    fm = build_field(g, {"family": "fourier_mode", "k": 2, "amp": 0.5,
                         "offset": 1.0}, "p")
    x = np.arange(32) / 32
    assert np.allclose(fm.values, 1.0 + 0.5 * np.cos(4 * np.pi * x))

    pw = build_field(g, {"family": "piecewise", "levels": [1.0, 3.0]}, "p")
    assert np.all(pw.values[:16] == 1.0) and np.all(pw.values[16:] == 3.0)

    r1 = build_field(g, {"family": "random", "seed": 5, "lo": 0.3,
                         "hi": 3.0}, "p", seed=9)
    r2 = build_field(g, {"family": "random", "seed": 5, "lo": 0.3,
                         "hi": 3.0}, "p", seed=9)
    assert np.array_equal(r1.values, r2.values)
    assert 0.3 <= r1.values.min() and r1.values.max() <= 3.0

    path = tmp_path / "f.cdl"
    dump_field(path, fm)
    loaded = build_field(g, {"family": "dump", "path": str(path)}, "p")
    assert np.array_equal(loaded.values, fm.values)


def test_build_field_errors(tmp_path):
    g = make_grid(1, 32, 1.0, 1)
    with pytest.raises(ConfigError, match="family"):
        build_field(g, {"value": 1.0}, "p")
    with pytest.raises(ConfigError, match="unknown family"):
        build_field(g, {"family": "sawtooth"}, "p")
    with pytest.raises(ConfigError, match="lo < hi"):
        build_field(g, {"family": "random", "lo": 2.0, "hi": 1.0}, "p")
    path = tmp_path / "g.cdl"
    dump_field(path, Field.constant(make_grid(1, 16, 1.0, 1), 1.0))
    with pytest.raises(ConfigError, match="grid wants"):
        build_field(g, {"family": "dump", "path": str(path)}, "p")


def test_piecewise_2d_levels_vary_along_the_first_axis():
    g = make_grid(2, 8, 1.0, 1)
    v = build_field(g, {"family": "piecewise", "levels": [1.0, 3.0]},
                    "p").reshaped()
    assert np.all(v[:4] == 1.0) and np.all(v[4:] == 3.0)


@pytest.mark.parametrize("levels, why", [([], "must be a non-empty list"),
                                         (3, "must be a list")])
def test_piecewise_levels_must_be_a_non_empty_list(levels, why):
    with pytest.raises(ConfigError, match=rf"^p\.levels {why}$"):
        build_field(make_grid(1, 32, 1.0, 1),
                    {"family": "piecewise", "levels": levels}, "p")


def test_non_finite_field_value_is_config_error(tmp_path, capsys):
    g = make_grid(1, 32, 1.0, 1)
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError,
                           match="p.value must be a finite number"):
            build_field(g, {"family": "constant", "value": value}, "p")
    # json writes NaN, which Python's json reads back: the config parses
    cfgp = _write(tmp_path, "nan.json", {
        "kind": "kolmogorov", "grid": dict(GRID),
        "mu": {"family": "constant", "value": float("nan")},
        "z0": {"family": "constant", "value": 1.0},
        "source": {"family": "constant", "value": 0.0}})
    assert main(["solve-kolmogorov", "--config", cfgp]) == 2
    assert "config error: config.mu" in capsys.readouterr().err


@pytest.mark.parametrize("mu, least", [
    ({"family": "constant", "value": -1.0}, "-1.0"),
    ({"family": "fourier_mode", "k": 1, "amp": 2.0, "offset": 1.0}, "-1.0"),
], ids=["constant", "fourier_mode"])
def test_mu_not_positive_is_config_error_naming_mu(tmp_path, capsys, mu,
                                                   least):
    # the constant was reported as "config.grid: mu_sup must be finite and
    # positive" while the grid was sized, the mode as "mu must be
    # positively lower-bounded" with no path
    raw = _kolmo_raw(mu=mu)
    with pytest.raises(ConfigError, match=r"^config\.mu must be positively "
                                          rf"lower-bounded, got minimum {least}"):
        parse_config(json.dumps(raw))
    assert main(["solve-kolmogorov", "--config",
                 _write(tmp_path, "mu.json", raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.mu") and err.count("\n") == 1


def test_philox_rng_properties():
    a = philox_rng(1, 3).standard_normal(4)
    b = philox_rng(1, 3).standard_normal(4)
    c = philox_rng(1, 4).standard_normal(4)
    d = philox_rng(2, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# runs

def test_run_kolmogorov_manifest(tmp_path):
    man = run(_cfg(), str(tmp_path))
    assert isinstance(man, RunManifest)
    assert man.passed
    assert man.checks["mass_ledger"] and man.checks["non_negative"]
    assert man.grid["steps"] >= 1 and man.tau > 0
    dumped = json.loads((tmp_path / "manifest.json").read_text())
    assert dumped["passed"] is True
    dim, n, data = load_slices(tmp_path / "trajectory.cdl")
    assert (dim, n) == (1, 32) and data.shape[0] == man.grid["steps"] + 1


def test_run_dual_manifest():
    cfg = parse_config(json.dumps({
        "kind": "dual", "grid": dict(GRID), "seed": 2,
        "mu": {"family": "random", "lo": 0.3, "hi": 3.0},
        "s": {"family": "constant", "value": 1.0}}))
    man = run(cfg)
    assert man.passed
    assert man.checks["apriori_energy"] and man.checks["sign_non_positive"]
    assert np.isfinite(man.constants["supnorm_constant"])


def test_run_verify_duality():
    cfg = parse_config(json.dumps({
        "kind": "verify_duality", "grid": dict(GRID), "seed": 3,
        "count": 3, "threshold": 1e-11}))
    man = run(cfg)
    assert man.passed
    assert man.constants["max_residual"] <= 1e-11


def test_run_verify_duality_is_the_kept_runs_worst_residual():
    # each problem streams both marches into its pairings
    cfg = parse_config(json.dumps({
        "kind": "verify_duality", "grid": dict(GRID), "seed": 3,
        "count": 3}))
    kept = []
    for i in range(3):
        mu, z0, g, s = random_duality_problem(cfg.grid, 3, i)
        p = KolmogorovProblem(grid=cfg.grid, mu=mu, z0=z0, source=g)
        kept.append(duality_residual(solve_forward(p).trajectory, p, s))
    assert run(cfg).constants["max_residual"].hex() == max(kept).hex()


GRID_2D = {"dim": 2, "n": 16, "t_final": 0.004}
RANDOM_MU = {"family": "random", "seed": 1, "lo": 0.3, "hi": 3.0}


def _fields(cfg, *keys):
    """The config's fields as the plan builds them, constant in time."""
    return [Trajectory.constant_in_time(cfg.grid, build_field(
        cfg.grid, cfg.raw[key], f"config.{key}", cfg.seed)) for key in keys]


def _kept_dump(tmp_path, traj):
    dump_trajectory(tmp_path / "kept.cdl", traj)
    return (tmp_path / "kept.cdl").read_bytes()


def test_streamed_kolmogorov_run_is_the_kept_run(tmp_path):
    cfg = parse_config(json.dumps({
        "kind": "kolmogorov", "grid": GRID_2D, "seed": 5, "mu": RANDOM_MU,
        "z0": {"family": "fourier_mode", "k": 2, "amp": 0.5, "offset": 1.0},
        "source": {"family": "random", "lo": -0.5, "hi": 1.0}}))
    mu, source = _fields(cfg, "mu", "source")
    z0 = build_field(cfg.grid, cfg.raw["z0"], "config.z0", cfg.seed)
    rep = solve_forward(KolmogorovProblem(grid=cfg.grid, mu=mu, z0=z0,
                                          source=source))
    man = run(cfg, str(tmp_path / "out"))
    assert man.constants == {
        "min_value": rep.min_value, "cfl_used": rep.cfl_used,
        "mass_drift": rep.mass_drift,
        "final_l2": norm(rep.trajectory.slice(cfg.grid.steps), "L2")}
    assert run(cfg).constants == man.constants
    assert (tmp_path / "out" / "trajectory.cdl").read_bytes() \
        == _kept_dump(tmp_path, rep.trajectory)


def test_streamed_dual_run_is_the_kept_run(tmp_path):
    cfg = parse_config(json.dumps({
        "kind": "dual", "grid": GRID_2D, "seed": 6, "mu": RANDOM_MU,
        "s": {"family": "random", "lo": 0.1, "hi": 1.0}}))
    mu, s = _fields(cfg, "mu", "s")
    p = DualProblem(grid=cfg.grid, mu=mu, s=s)
    phi = solve_dual(p)
    reps = verify_apriori(p, phi)
    man = run(cfg, str(tmp_path / "out"))
    assert man.constants == {"apriori_ratio": reps[0].ratio,
                             "supnorm_constant": reps[1].ratio,
                             "phi0_l2": norm(phi.slice(0), "L2")}
    assert man.checks == {"apriori_energy": reps[0].passed,
                          "sign_non_positive": phi.data.max() <= 1e-13}
    assert run(cfg).constants == man.constants
    assert (tmp_path / "out" / "phi.cdl").read_bytes() \
        == _kept_dump(tmp_path, phi)


def test_blowup_in_a_streamed_run_leaves_no_dump(tmp_path):
    # exp(tau R) with R = 1e4 passes the guard near t = 0.0028, about step
    # 50 of 73, after six blocks of 8 rows were written
    raw = {"kind": "kolmogorov",
           "grid": {"dim": 2, "n": 64, "t_final": 0.004},
           "mu": CONST, "z0": CONST,
           "reaction": {"family": "constant", "value": 1e4}}
    with pytest.raises(NumericalBlowUp):
        run(parse_config(json.dumps(raw)), str(tmp_path / "out"))
    assert os.listdir(tmp_path / "out") == []


def test_run_stability_csv(tmp_path):
    cfg = parse_config(json.dumps({
        "kind": "stability", "grid": dict(GRID), "seed": 4,
        "eps": [0.2, 0.1],
        "mu": {"family": "piecewise", "levels": [0.5, 1.5]},
        "z0": {"family": "fourier_mode", "k": 1, "offset": 1.0}}))
    man = run(cfg, str(tmp_path))
    assert man.checks["z_distance_non_increasing"]
    lines = (tmp_path / "stability.csv").read_text().splitlines()
    assert lines[0] == "eps,mu_distance,z_distance"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.2


def test_run_stability_reads_its_source_g():
    raw = {"kind": "stability", "grid": dict(GRID), "eps": [0.2, 0.1],
           "mu": {"family": "piecewise", "levels": [0.5, 1.5]},
           "z0": {"family": "fourier_mode", "k": 1, "offset": 1.0}}

    def distances(**g):
        man = run(parse_config(json.dumps(dict(raw, **g))))
        assert man.passed
        return man.constants["final_z_distance"]
    # no g is g = 0; another g gives other distances
    assert distances(g={"family": "constant", "value": 0.0}) == distances()
    assert distances(g={"family": "fourier_mode", "k": 2}) != distances()
    with pytest.raises(ConfigError, match=r"^config\.g\.family: unknown"):
        parse_config(json.dumps(dict(raw, g={"family": "nope"})))


SKT_SPECIES = [
    {"coeff": {"kind": "clamped_affine", "d": 1.0, "c": [1.0],
               "lo": 0.5, "hi": 2.0},
     "reaction": {"rho": 1.0, "s": [1.0, 1.0]},
     "kernel_eps": 0.2,
     "init": {"family": "fourier_mode", "k": 1, "amp": 0.3, "offset": 1.0}},
    {"coeff": {"kind": "constant", "d": 1.0},
     "reaction": {"rho": 1.0, "s": [0.0, 1.0]},
     "init": {"family": "fourier_mode", "k": 2, "amp": 0.3, "offset": 1.0}},
]


def test_run_skt_and_converge(tmp_path):
    cfg = parse_config(json.dumps({
        "kind": "skt", "grid": dict(GRID), "species": SKT_SPECIES}))
    man = run(cfg, str(tmp_path / "run"))
    assert man.checks["non_negative"]
    assert (tmp_path / "run" / "species_1.cdl").exists()
    assert (tmp_path / "run" / "species_2.cdl").exists()

    conv = parse_config(json.dumps({
        "kind": "converge", "grid": dict(GRID), "species": SKT_SPECIES,
        "eps": [0.2, 0.1]}))
    man = run(conv, str(tmp_path / "conv"))
    assert man.checks["distances_non_increasing"]
    lines = (tmp_path / "conv" / "converge.csv").read_text().splitlines()
    assert lines[0] == "eps,defect,dist_u1,dist_u2"
    assert len(lines) == 3


def test_skt_coeff_without_hi_is_config_error(tmp_path, capsys):
    # without hi a clamped_affine coefficient has no CFL step: it must be
    # refused as a config error, not abort the solve
    species = json.loads(json.dumps(SKT_SPECIES))
    del species[0]["coeff"]["hi"]
    raw = {"kind": "skt", "grid": dict(GRID), "species": species}
    with pytest.raises(ConfigError, match="finite hi"):
        parse_config(json.dumps(raw))
    cfgp = _write(tmp_path, "skt.json", raw)
    assert main(["skt-run", "--config", cfgp]) == 2
    assert "config error" in capsys.readouterr().err


def _species_with(index, key, value):
    species = json.loads(json.dumps(SKT_SPECIES))
    if key is None:
        species[index] = value
    else:
        species[index][key] = value
    return species


@pytest.mark.parametrize("species, where", [
    (["abc"], r"config\.species\[0\]"),
    ([5], r"config\.species\[0\]"),
    (_species_with(1, None, [1, 2]), r"config\.species\[1\]"),
    (_species_with(0, "coeff", "ab"), r"config\.species\[0\]\.coeff"),
    (_species_with(1, "coeff", 3.0), r"config\.species\[1\]\.coeff"),
    (_species_with(0, "reaction", [1.0]),
     r"config\.species\[0\]\.reaction"),
], ids=["str", "int", "list", "coeff-str", "coeff-float", "reaction-list"])
def test_skt_species_entries_must_be_objects(species, where):
    raw = {"kind": "skt", "grid": dict(GRID), "species": species}
    with pytest.raises(ConfigError, match=where + " must be an object$"):
        parse_config(json.dumps(raw))


NAN = float("nan")


@pytest.mark.parametrize("command, raw, where", [
    ("stability-study",
     {"kind": "stability", "grid": dict(GRID), "eps": [0.2, NAN],
      "mu": {"family": "constant", "value": 1.0},
      "z0": {"family": "constant", "value": 1.0}}, "config.eps"),
    ("skt-run",
     {"kind": "skt", "grid": dict(GRID),
      "species": _species_with(0, "kernel_eps", NAN)},
     "config.species[0].kernel_eps"),
], ids=["eps", "kernel_eps"])
def test_nan_kernel_width_is_config_error(tmp_path, capsys, command, raw,
                                          where):
    # NaN passes both `eps < 2h` and `eps > 0.5` as false: it must still be
    # refused when the config is parsed, under the key it came from
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(raw))
    assert str(exc.value).startswith(where + ": ")
    assert "not a number" in str(exc.value)
    assert main([command, "--config", _write(tmp_path, "nan.json", raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1, err
    assert where in err


def test_skt_kernel_eps_too_wide_is_config_error(tmp_path, capsys):
    # a species kernel wider than 0.5 is refused like config.eps, not
    # left to fail in make_kernel during the run
    species = json.loads(json.dumps(SKT_SPECIES))
    species[0]["kernel_eps"] = 0.7
    raw = {"kind": "skt", "grid": dict(GRID), "species": species}
    with pytest.raises(ConfigError, match=r"species\[0\].kernel_eps.*0.5"):
        parse_config(json.dumps(raw))
    cfgp = _write(tmp_path, "skt.json", raw)
    assert main(["skt-run", "--config", cfgp]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_weights():
    cfg = parse_config(json.dumps({
        "kind": "weights", "grid": {"dim": 1, "n": 32, "t_final": 1.0},
        "weight": {"family": "piecewise", "levels": [1.0, 9.0]},
        "trials": 5}))
    man = run(cfg)
    assert man.passed
    assert man.constants["a2_constant"] > 1.0


def test_missing_required_section():
    with pytest.raises(ConfigError, match="missing key config.mu"):
        parse_config(json.dumps({"kind": "dual", "grid": dict(GRID),
                                 "s": {"family": "constant", "value": 1.0}}))


def _kolmo_raw(**extra):
    raw = {"kind": "kolmogorov", "grid": dict(GRID),
           "mu": {"family": "constant", "value": 1.0},
           "z0": {"family": "constant", "value": 1.0},
           "source": {"family": "constant", "value": 0.0}}
    raw.update(extra)
    return raw


STEPPED = dict(GRID, steps=100)
CONST = {"family": "constant", "value": 1.0}
STABILITY = {"kind": "stability", "grid": dict(GRID), "eps": [0.2, 0.1],
             "mu": CONST, "z0": CONST}
MALFORMED = [
    pytest.param({"kind": 5, "grid": dict(GRID)}, id="kind-not-a-string"),
    pytest.param(_kolmo_raw(grid=dict(GRID, n="abc")), id="n-not-a-number"),
    pytest.param(_kolmo_raw(grid=dict(GRID, n=0)), id="n-zero"),
    pytest.param(dict(STABILITY, grid=dict(GRID, n="abc")),
                 id="n-not-a-number-with-eps"),
    pytest.param(dict(STABILITY, grid=dict(GRID, n=0)), id="n-zero-with-eps"),
    pytest.param(_kolmo_raw(grid=[32]), id="grid-not-an-object"),
    pytest.param(_kolmo_raw(seed="abc"), id="seed-not-a-number"),
    pytest.param(dict(STABILITY, eps=0.2), id="eps-not-a-list"),
    pytest.param({"kind": "verify_duality", "grid": dict(GRID),
                  "count": "x"}, id="count-not-a-number"),
    pytest.param({"kind": "kolmogorov", "grid": dict(GRID), "mu": CONST,
                  "z0": {"family": "constant", "value": -1.0},
                  "reaction": CONST}, id="reaction-mode-negative-z0"),
    pytest.param(_kolmo_raw(grid=STEPPED,
                            mu={"family": "constant", "value": 0.0}),
                 id="kolmogorov-mu-zero-with-steps"),
    pytest.param({"kind": "dual", "grid": STEPPED, "s": CONST,
                  "mu": {"family": "constant", "value": -1.0}},
                 id="dual-mu-negative-with-steps"),
    pytest.param(dict(STABILITY, eps=[0.1, 0.2]), id="eps-increasing"),
    pytest.param(dict(STABILITY, eps=[]), id="eps-empty"),
    pytest.param({"kind": "weights", "grid": dict(GRID),
                  "weight": {"family": "piecewise", "levels": [1.0, 0.0]}},
                 id="weight-not-positive"),
    pytest.param({"kind": "weights", "grid": dict(GRID), "seed": -1,
                  "weight": CONST}, id="weights-seed-negative"),
]
SUBCOMMANDS = {"kolmogorov": "solve-kolmogorov", "dual": "solve-dual",
               "verify_duality": "verify-duality",
               "stability": "stability-study"}


@pytest.mark.parametrize("raw", MALFORMED)
def test_malformed_values_are_config_errors(tmp_path, capsys, raw):
    with pytest.raises(ConfigError):
        parse_config(json.dumps(raw))
    if raw["kind"] in SUBCOMMANDS:
        cfgp = _write(tmp_path, "bad.json", raw)
        assert main([SUBCOMMANDS[raw["kind"]], "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1


# a value for every required key of every kind
REQUIRED = {"mu": CONST, "z0": CONST, "s": CONST, "eps": [0.2, 0.1],
            "species": SKT_SPECIES, "weight": CONST}


def _cli_argv(kind, path):
    command = dict(SUBCOMMANDS, skt="skt-run",
                   converge="skt-converge").get(kind)
    if command is None:  # weights has no subcommand; sweep parses any kind
        return ["sweep", "--config", path, "--axis", "seed", "--values", "1"]
    return [command, "--config", path]


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind, (_, required, _) in _KINDS.items()
    for key in required])
def test_missing_required_key_is_refused_at_parse_time(tmp_path, capsys,
                                                       kind, key):
    # a config that parses can be run: run checks no keys of its own
    raw = {"kind": kind, "grid": dict(GRID),
           **{k: REQUIRED[k] for k in _KINDS[kind][1] if k != key}}
    with pytest.raises(ConfigError, match=rf"^missing key config\.{key}$"):
        parse_config(json.dumps(raw))
    assert main(_cli_argv(kind, _write(tmp_path, "bad.json", raw))) == 2
    err = capsys.readouterr().err
    assert err == f"config error: missing key config.{key}\n"


@pytest.mark.parametrize("kind, key", [
    ("stability", "eps"), ("converge", "eps"), ("skt", "species"),
    ("converge", "species")])
def test_empty_lists_are_refused_at_parse_time(tmp_path, capsys, kind, key):
    raw = {"kind": kind, "grid": dict(GRID),
           **{k: REQUIRED[k] for k in _KINDS[kind][1]}, key: []}
    with pytest.raises(ConfigError, match=rf"^config\.{key} must not be "
                                          "empty$"):
        parse_config(json.dumps(raw))
    assert main(_cli_argv(kind, _write(tmp_path, "bad.json", raw))) == 2
    assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("modes", [("source", "reaction"), ()],
                         ids=["both", "neither"])
def test_kolmogorov_needs_one_right_hand_side_at_parse_time(tmp_path, capsys,
                                                           modes):
    raw = {"kind": "kolmogorov", "grid": dict(GRID), "mu": CONST,
           "z0": CONST, **{mode: CONST for mode in modes}}
    msg = "exactly one of config.source/config.reaction must be present"
    with pytest.raises(ConfigError, match=rf"^{re.escape(msg)}$"):
        parse_config(json.dumps(raw))
    assert main(_cli_argv("kolmogorov", _write(tmp_path, "k.json", raw))) == 2
    assert capsys.readouterr().err == f"config error: {msg}\n"


@pytest.mark.parametrize("kind", ["stability", "converge"])
@pytest.mark.parametrize("eps", [[0.1, 0.2], [0.2, 0.2]],
                         ids=["increasing", "repeated"])
def test_unordered_eps_is_refused_at_parse_time(tmp_path, capsys, kind, eps):
    # parse_config checked each width alone, so only run refused the order
    raw = {"kind": kind, "grid": dict(GRID),
           **{k: REQUIRED[k] for k in _KINDS[kind][1]}, "eps": eps}
    with pytest.raises(ConfigError, match=r"^config\.eps: eps must be "
                                          "strictly decreasing"):
        parse_config(json.dumps(raw))
    assert main(_cli_argv(kind, _write(tmp_path, "bad.json", raw))) == 2
    assert capsys.readouterr().err.startswith("config error: config.eps: ")


@pytest.mark.parametrize("raw, where", [
    (dict(STABILITY, eps=[True]), "config.eps"),
    ({"kind": "skt", "grid": dict(GRID),
      "species": _species_with(0, "kernel_eps", True)},
     "config.species[0].kernel_eps"),
], ids=["eps", "kernel_eps"])
def test_bool_kernel_width_is_no_number(raw, where):
    # true was read as 1.0 and refused as "kernel too wide: eps=1.0"
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(raw))
    assert str(exc.value).startswith(where + ": ")
    assert "real number" in str(exc.value)
    assert "too wide" not in str(exc.value)


COUNTED = {
    "count": {"kind": "verify_duality", "grid": dict(GRID)},
    "trials": {"kind": "weights", "grid": dict(GRID), "weight": CONST},
}


@pytest.mark.parametrize("key", sorted(COUNTED))
@pytest.mark.parametrize("value", [0, -2, 2.9, 1.0, True, False, "3", None])
def test_counts_must_be_positive_integers(tmp_path, capsys, key, value):
    # a count of 0 or below checks nothing, and 2.9 or true would be
    # rounded to another count: each is refused, naming its key
    raw = dict(COUNTED[key], **{key: value})
    with pytest.raises(ConfigError, match=f"^config.{key} must be a "
                                          "positive integer"):
        parse_config(json.dumps(raw))
    if key == "count":
        cfgp = _write(tmp_path, "bad.json", raw)
        assert main(["verify-duality", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config.count")
        assert err.count("\n") == 1


RANDOM = {"family": "random", "lo": 0.5, "hi": 1.5}


@pytest.mark.parametrize("raw, path", [
    (_kolmo_raw(grid=dict(GRID, dim=True)), "config.grid.dim"),
    (_kolmo_raw(grid=dict(GRID, n=32.9)), "config.grid.n"),
    (_kolmo_raw(grid=dict(GRID, n=32.0)), "config.grid.n"),
    (_kolmo_raw(grid=dict(GRID, steps=200.7)), "config.grid.steps"),
    (_kolmo_raw(grid=dict(GRID, n="32")), "config.grid.n"),
    (_kolmo_raw(seed=True), "config.seed"),
    (_kolmo_raw(seed="7"), "config.seed"),
    (_kolmo_raw(seed=7.0), "config.seed"),
    (_kolmo_raw(z0={"family": "fourier_mode", "k": 1.7, "offset": 2.0}),
     "config.z0.k"),
    (_kolmo_raw(z0=dict(RANDOM, seed=2.5)), "config.z0.seed"),
    (_kolmo_raw(z0=dict(RANDOM, seed=False)), "config.z0.seed"),
], ids=lambda v: None if isinstance(v, dict) else v)
def test_integer_values_are_refused_not_truncated(tmp_path, capsys, raw,
                                                  path):
    # 32.9 would run as 32, true as 1 and "7" as 7: each is refused,
    # naming the value's path
    with pytest.raises(ConfigError, match=f"^{path} must be an integer"):
        parse_config(json.dumps(raw))
    cfgp = _write(tmp_path, "bad.json", raw)
    assert main(["solve-kolmogorov", "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}") and err.count("\n") == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0,
                                   True, "1e-11", None])
def test_duality_threshold_must_be_finite_and_positive(tmp_path, capsys,
                                                       value):
    # NaN or -1 would fail every check and true (1.0) pass every one
    raw = {"kind": "verify_duality", "grid": dict(GRID), "count": 1,
           "threshold": value}
    with pytest.raises(ConfigError, match="^config.threshold must be a "
                                          "finite positive number"):
        parse_config(json.dumps(raw))
    cfgp = _write(tmp_path, "bad.json", raw)
    assert main(["verify-duality", "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.threshold")
    assert err.count("\n") == 1


def test_duality_threshold_accepts_an_integer():
    man = run(parse_config(json.dumps({
        "kind": "verify_duality", "grid": dict(GRID), "count": 1,
        "threshold": 1})))
    assert man.passed and man.constants["threshold"] == 1.0


SKT = {"kind": "skt", "grid": dict(GRID), "species": SKT_SPECIES}
SPIKE = {"family": "spike", "base": 1.0, "peak": 2.0, "width": 0.1}
FOURIER = {"family": "fourier_mode", "k": 1, "amp": 0.5, "offset": 1.0}
# (config, the keys down to the float value, the path its error names)
FLOAT_KEYS = {
    "t_final": (_kolmo_raw(), ("grid", "t_final"), "config.grid.t_final"),
    "constant": (_kolmo_raw(), ("mu", "value"), "config.mu"),
    "amp": (_kolmo_raw(z0=FOURIER), ("z0", "amp"), "config.z0.amp"),
    "offset": (_kolmo_raw(z0=FOURIER), ("z0", "offset"), "config.z0.offset"),
    "levels": (_kolmo_raw(mu={"family": "piecewise", "levels": [1.0, 2.0]}),
               ("mu", "levels", 1), "config.mu.levels[1]"),
    "random-lo": (_kolmo_raw(z0=RANDOM), ("z0", "lo"), "config.z0.lo"),
    "random-hi": (_kolmo_raw(z0=RANDOM), ("z0", "hi"), "config.z0.hi"),
    "base": (_kolmo_raw(mu=SPIKE), ("mu", "base"), "config.mu.base"),
    "peak": (_kolmo_raw(mu=SPIKE), ("mu", "peak"), "config.mu.peak"),
    "width": (_kolmo_raw(mu=SPIKE), ("mu", "width"), "config.mu.width"),
    **{key: (SKT, ("species", 0, "coeff", key),
             f"config.species[0].coeff.{key}")
       for key in ("d", "lo", "hi", "kink", "pivot")},
    "c": (SKT, ("species", 0, "coeff", "c", 0),
          "config.species[0].coeff.c[0]"),
    "rho": (SKT, ("species", 0, "reaction", "rho"),
            "config.species[0].reaction.rho"),
    "s": (SKT, ("species", 0, "reaction", "s", 1),
          "config.species[0].reaction.s[1]"),
    # n = 256 resolves a width of 0.01, so "0.01" is refused as a string
    "kernel_eps": (dict(SKT, grid=dict(GRID, n=256)),
                   ("species", 0, "kernel_eps"),
                   "config.species[0].kernel_eps"),
    "eps": (dict(STABILITY, grid=dict(GRID, n=256)), ("eps", 1),
            "config.eps"),
    "threshold": ({"kind": "verify_duality", "grid": dict(GRID), "count": 1},
                  ("threshold",), "config.threshold"),
}


@pytest.mark.parametrize("key", sorted(FLOAT_KEYS))
@pytest.mark.parametrize("value", [True, "0.01", float("nan"),
                                   float("inf")],
                         ids=["true", "string", "NaN", "Infinity"])
def test_float_values_are_finite_numbers(key, value):
    # true would run as 1.0 and "0.01" as 0.01; NaN and Infinity are no
    # numbers to run with: each is refused, naming the value's path
    raw, keys, where = FLOAT_KEYS[key]
    raw = json.loads(json.dumps(raw))
    cur = raw
    for k in keys[:-1]:
        cur = cur[k]
    cur[keys[-1]] = value
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(raw))
    assert where in str(exc.value)


@pytest.mark.parametrize("width", [0, 0.0, -0.1])
def test_spike_width_must_be_positive(width):
    # a zero width divided by zero, with a RuntimeWarning, before the
    # field's own non-finite check refused it
    with pytest.raises(ConfigError, match=r"^p\.width must be a finite "
                                          "positive number"):
        build_field(make_grid(1, 32, 1.0, 1), dict(SPIKE, width=width), "p")


@pytest.mark.parametrize("width", [1e-300, 5e-324])
def test_spike_narrower_than_a_cell_is_exact_and_silent(width):
    # (d/width)^2 overflowed with a RuntimeWarning; exp(-inf) = 0 gives the
    # bits the formula gives, the peak at the origin and the base elsewhere
    line = np.full(16, SPIKE["base"])
    line[0] = SPIKE["peak"]
    for dim, expect in ((1, line), (2, np.sqrt(np.outer(line, line)))):
        f = build_field(make_grid(dim, 16, 1.0, 1), dict(SPIKE, width=width),
                        "p")
        assert np.array_equal(f.values, expect.reshape(-1))


@pytest.mark.parametrize("value", [0, 1, True, None, []],
                         ids=["0", "1", "true", "null", "list"])
def test_dump_path_must_be_a_string(value):
    # open() takes an int as a file descriptor: 0 read stdin, and 1 or true
    # was read and then closed stdout
    with pytest.raises(ConfigError, match=r"^p\.path must be a string"):
        build_field(make_grid(1, 32, 1.0, 1),
                    {"family": "dump", "path": value}, "p")


def test_dump_path_descriptor_is_left_open():
    r, w = os.pipe()
    try:
        with pytest.raises(ConfigError, match=r"^p\.path must be a string"):
            build_field(make_grid(1, 32, 1.0, 1),
                        {"family": "dump", "path": r}, "p")
        os.write(w, b"x")
        assert os.read(r, 1) == b"x"
    finally:
        os.close(r)
        os.close(w)


@pytest.mark.parametrize("raw", [
    _kolmo_raw(mu={"family": "constant", "value": 1e308}),
    _kolmo_raw(grid=dict(GRID, n=16, t_final=0.001),
               mu={"family": "piecewise", "levels": [0.5, 1e308]}),
    {"kind": "skt", "grid": dict(GRID), "species": _species_with(
        0, "coeff", dict(SKT_SPECIES[0]["coeff"], hi=1e308))},
], ids=["mu-step-count-beyond-floats", "mu-step-count-beyond-arrays",
        "skt-hi"])
def test_cfl_step_count_out_of_reach_is_a_grid_error(tmp_path, capsys, raw):
    # a mu or hi near 1e308 gave a ZeroDivisionError traceback (exit 1) or
    # numpy's "Maximum allowed dimension exceeded"
    with pytest.raises(ConfigError, match=r"^config\.grid: "):
        parse_config(json.dumps(raw))
    assert main(_cli_argv(raw["kind"], _write(tmp_path, "c.json", raw))) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.grid: ")
    assert err.count("\n") == 1


def test_stability_with_a_mu_spanning_300_decades_runs():
    # the mollified mu lost its positivity to FFT round-off, and run
    # refused the config after parse_config had accepted it
    raw = {"kind": "stability",
           "grid": {"dim": 2, "n": 128, "t_final": 1e-4},
           "mu": {"family": "piecewise", "levels": [1e-300, 1.5]},
           "z0": CONST, "eps": [0.02]}
    assert run(parse_config(json.dumps(raw))).passed


@pytest.mark.parametrize("base, peak, key", [
    (-2.0, -1.0, "base"), (-1.0, 2.0, "base"), (1.0, -0.5, "peak")])
def test_2d_spike_refuses_a_negative_level(tmp_path, capsys, base, peak,
                                           key):
    # the 2-D spike is the root of the product of two lines, which keeps no
    # sign: base -2, peak -1 gave a field in [1, 2], and base -1, peak 2 a
    # RuntimeWarning; 1-D keeps negative levels
    spike = dict(SPIKE, base=base, peak=peak)
    with pytest.raises(ConfigError, match=rf"^p\.{key} must be >= 0 on a "
                                          "2-D grid"):
        build_field(make_grid(2, 16, 1.0, 1), spike, "p")
    assert build_field(make_grid(1, 16, 1.0, 1), spike, "p").values[0] \
        == peak

    raw = _kolmo_raw(grid={"dim": 2, "n": 8, "t_final": 0.001}, z0=spike)
    assert main(_cli_argv("kolmogorov", _write(tmp_path, "k.json", raw))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.z0.{key} must be >= 0")
    assert err.count("\n") == 1
    argv = ["a2-check", "--weight", f"spike:{base},{peak},0.1", "--dim", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --weight.{key} must be >= 0")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# determinism and artifacts

@pytest.mark.parametrize("raw, names", [
    (_kolmo_raw(), ["trajectory.cdl"]),
    ({"kind": "dual", "grid": dict(GRID), "mu": CONST, "s": CONST},
     ["phi.cdl"]),
    ({"kind": "verify_duality", "grid": dict(GRID), "count": 1}, []),
    (STABILITY, ["stability.csv"]),
    ({"kind": "skt", "grid": dict(GRID), "species": SKT_SPECIES},
     ["species_1.cdl", "species_2.cdl"]),
    ({"kind": "converge", "grid": dict(GRID), "species": SKT_SPECIES,
      "eps": [0.2, 0.1]}, ["converge.csv"]),
    ({"kind": "weights", "grid": dict(GRID), "weight": CONST, "trials": 1},
     []),
], ids=lambda v: v["kind"] if isinstance(v, dict) else None)
def test_run_writes_manifest_and_its_artifacts(tmp_path, raw, names):
    # every kind writes its artifacts, in order, then manifest.json, and
    # nothing else: no temporary file is left behind
    out = tmp_path / "out"
    man = run(parse_config(json.dumps(raw)), str(out))
    assert man.artifacts == [str(out / name) for name in names]
    assert sorted(os.listdir(out)) == sorted(["manifest.json", *names])
    assert json.loads((out / "manifest.json").read_text()) \
        == json.loads(man.to_json())
    assert run(parse_config(json.dumps(raw))).artifacts == []

def test_same_seed_byte_identical_artifacts(tmp_path):
    conv = {"kind": "converge", "grid": dict(GRID), "seed": 7,
            "species": SKT_SPECIES, "eps": [0.2, 0.1]}
    for d in ("a", "b"):
        run(parse_config(json.dumps(conv)), str(tmp_path / d))
    csv_a = (tmp_path / "a" / "converge.csv").read_bytes()
    csv_b = (tmp_path / "b" / "converge.csv").read_bytes()
    assert csv_a == csv_b

    for d in ("ka", "kb"):
        run(_cfg(z0={"family": "random", "seed": 2, "lo": 0.1, "hi": 1.0}),
            str(tmp_path / d))
    assert (tmp_path / "ka" / "trajectory.cdl").read_bytes() \
        == (tmp_path / "kb" / "trajectory.cdl").read_bytes()


def test_write_csv_roundtrip_exact(tmp_path):
    path = tmp_path / "t.csv"
    vals = [np.pi, 1.0 / 3.0, 1e-17]
    write_csv(str(path), ["a", "b", "c"], [vals])
    back = [float(x) for x in path.read_text().splitlines()[1].split(",")]
    assert back == vals


def test_atomic_write_no_temp_left(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "hello")
    assert path.read_text() == "hello"
    assert os.listdir(tmp_path) == ["out.txt"]


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_axis_and_errors(tmp_path):
    cfg = _cfg()
    res = sweep(cfg, "grid.n", [32, 64], str(tmp_path))
    assert len(res) == 2
    assert all(isinstance(m, RunManifest) for m in res)
    assert [m.grid["n"] for m in res] == [32, 64]
    assert (tmp_path / "point_000" / "manifest.json").exists()

    assert sweep(cfg, "grid.n", []) == []

    # a failing point is recorded, the sweep continues
    res = sweep(cfg, "grid.n", [48, 32])
    assert isinstance(res[0], ConfigError)
    assert isinstance(res[1], RunManifest)

    for axis in ("grid.missing", "nope.n", "grid.n.deeper"):
        with pytest.raises(ConfigError, match=rf"^sweep axis '{axis}' not "
                                              "found in config$"):
            sweep(cfg, axis, [1])


def test_sweep_over_seed_uses_each_seed():
    z0 = {"family": "random", "lo": 0.1, "hi": 1.0}
    res = sweep(_cfg(z0=z0), "seed", [1, 2])
    assert res[0].constants["final_l2"] != res[1].constants["final_l2"]
    for seed, m in zip([1, 2], res):
        assert m.config["seed"] == seed
        assert m.constants == run(_cfg(seed=seed, z0=z0)).constants


# ---------------------------------------------------------------------------
# CLI

def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_cli_solve_kolmogorov(tmp_path, capsys):
    cfgp = _write(tmp_path, "k.json", {
        "kind": "kolmogorov", "grid": dict(GRID),
        "mu": {"family": "constant", "value": 1.0},
        "z0": {"family": "constant", "value": 1.0},
        "source": {"family": "constant", "value": 0.0}})
    code = main(["solve-kolmogorov", "--config", cfgp,
                 "--out", str(tmp_path / "out")])
    assert code == 0
    man = json.loads(capsys.readouterr().out)
    assert man["passed"] is True


def test_cli_kind_mismatch(tmp_path, capsys):
    cfgp = _write(tmp_path, "k.json", {
        "kind": "kolmogorov", "grid": dict(GRID),
        "mu": {"family": "constant", "value": 1.0},
        "z0": {"family": "constant", "value": 1.0},
        "source": {"family": "constant", "value": 0.0}})
    assert main(["solve-dual", "--config", cfgp]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_numerical_abort(tmp_path, capsys):
    cfgp = _write(tmp_path, "bad.json", {
        "kind": "kolmogorov",
        "grid": {"dim": 1, "n": 32, "t_final": 0.01, "steps": 2},
        "mu": {"family": "constant", "value": 1.0},
        "z0": {"family": "constant", "value": 1.0},
        "source": {"family": "constant", "value": 0.0}})
    assert main(["solve-kolmogorov", "--config", cfgp]) == 3
    assert "numerical abort" in capsys.readouterr().err


def test_cli_verify_duality(tmp_path):
    cfgp = _write(tmp_path, "v.json", {
        "kind": "verify_duality", "grid": dict(GRID), "count": 2})
    assert main(["verify-duality", "--config", cfgp]) == 0


def test_cli_skt_converge_eps_override(tmp_path, capsys, monkeypatch):
    # --eps replaces the config's eps before the one parse: the config's
    # own eps, increasing here, is never read
    parses = []

    def counted(text):
        parses.append(text)
        return parse_config(text)
    monkeypatch.setattr(cli, "parse_config", counted)
    cfgp = _write(tmp_path, "c.json", {
        "kind": "converge", "grid": dict(GRID), "species": SKT_SPECIES,
        "eps": [0.1, 0.2]})
    code = main(["skt-converge", "--config", cfgp, "--eps", "0.2,0.1",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(parses) == 1
    lines = (tmp_path / "out" / "converge.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in lines[1:]] == [0.2, 0.1]


def test_cli_a2_check_families(capsys):
    assert main(["a2-check", "--weight", "constant:3", "--n", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["a2_constant"] == 1.0
    assert main(["a2-check", "--weight", "twolevel:1,9", "--n", "16"]) == 0
    assert json.loads(capsys.readouterr().out)["a2_constant"] > 1.0
    assert main(["a2-check", "--weight", "spike:1,10,0.1", "--n", "32",
                 "--dim", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 2
    assert main(["a2-check", "--weight", "wiggle:1"]) == 2


def test_cli_a2_check_bad_weight_is_config_error(tmp_path, capsys):
    for arg in ("constant:-1", "twolevel:0,1", "constant:abc"):
        assert main(["a2-check", "--weight", arg, "--n", "16"]) == 2
        assert "config error" in capsys.readouterr().err
    path = tmp_path / "w.cdl"
    dump_field(path, Field.constant(make_grid(1, 16, 1.0, 1), -2.0))
    assert main(["a2-check", "--weight", str(path)]) == 2
    assert "strictly positive" in capsys.readouterr().err


def test_cli_unreadable_inputs_are_one_line_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    bad = tmp_path / "bad.cdl"
    bad.write_bytes(b"NOPE" + bytes(17))
    clipped = tmp_path / "clipped.cdl"
    dump_field(clipped, Field.constant(make_grid(1, 16, 1.0, 1), 1.0))
    clipped.write_bytes(clipped.read_bytes()[:-8])
    cases = [
        (["solve-kolmogorov", "--config", missing], "No such file"),
        (["sweep", "--config", missing, "--axis", "seed", "--values", "1"],
         "No such file"),
        (["a2-check", "--weight", missing], "No such file"),
        (["maximal", "--field", missing], "No such file"),
        (["a2-check", "--weight", str(bad)], "bad magic"),
        (["maximal", "--field", str(bad)], "bad magic"),
        (["a2-check", "--weight", str(clipped)], "truncated field dump"),
        (["maximal", "--field", str(clipped)], "truncated field dump"),
    ]
    for argv, why in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert why in err and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("argv, named", [
    (["skt-converge", "--config", "{converge}", "--eps", "abc"], "--eps"),
    (["skt-converge", "--config", "{converge}", "--eps", ""], "--eps"),
    (["skt-converge", "--config", "{converge}", "--eps", "0.2,nan"],
     "config.eps"),
    (["skt-converge", "--config", "{converge}", "--eps", "0.1,0.2"],
     "config.eps: eps must be strictly decreasing"),
    (["sweep", "--config", "{kolmogorov}", "--axis", "seed",
      "--values", "1,abc"], "--values"),
    (["a2-check", "--weight", "constant:2", "--n", "48"], "--n 48"),
    (["a2-check", "--weight", "constant:2", "--dim", "3"], "--dim 3"),
    (["maximal", "--field", "{n48}"], "{n48}"),
    (["a2-check", "--weight", "{n48}"], "{n48}"),
], ids=["eps", "eps-empty", "eps-nan", "eps-increasing", "values", "n",
        "dim", "maximal-dump", "a2-dump"])
def test_cli_bad_input_is_one_line_config_error(tmp_path, capsys, argv,
                                                named):
    paths = {
        "converge": _write(tmp_path, "c.json", {
            "kind": "converge", "grid": dict(GRID), "species": SKT_SPECIES,
            "eps": [0.2]}),
        "kolmogorov": _write(tmp_path, "k.json", _kolmo_raw()),
        "n48": str(tmp_path / "n48.cdl"),
    }
    dump_slices(paths["n48"], 1, 48, np.ones((1, 48)))
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1, err
    assert named.format(**paths) in err


def test_config_refused_at_parse_creates_no_out_directory(tmp_path, capsys):
    raw = _kolmo_raw(mu={"family": "constant", "value": -1.0})
    cfgp, out = _write(tmp_path, "k.json", raw), tmp_path / "out"
    assert main(["solve-kolmogorov", "--config", cfgp, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: config.mu")
    assert not out.exists()


def test_cli_a2_check_dump(tmp_path, capsys):
    g = make_grid(1, 16, 1.0, 1)
    path = tmp_path / "w.cdl"
    dump_field(path, Field.constant(g, 2.0))
    assert main(["a2-check", "--weight", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["a2_constant"] == 1.0


def test_cli_maximal(tmp_path, capsys):
    g = make_grid(1, 16, 1.0, 1)
    v = np.zeros(16)
    v[0] = 1.0
    path = tmp_path / "f.cdl"
    dump_field(path, Field(g, v))
    out = tmp_path / "mf.cdl"
    assert main(["maximal", "--field", str(path), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["sup"] == 1.0
    _, _, data = load_slices(out)
    assert abs(data[0][1] - 1.0 / 3.0) < 1e-12


def test_cli_maximal_of_a_field_near_the_float_range(tmp_path, capsys):
    # the ball sums overflowed: a traceback and exit 1
    g = make_grid(2, 16, 1.0, 1)
    path = tmp_path / "big.cdl"
    dump_field(path, Field.constant(g, 1e308))
    assert main(["maximal", "--field", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["sup"] - 1e308) <= 1e-15 * 1e308
    assert abs(out["mean"] - 1e308) <= 1e-15 * 1e308


def test_weights_config_beyond_the_float_range_is_refused_at_parse():
    # it parsed, and run reported a2_constant: inf and passed
    # a2_at_least_one
    with pytest.raises(ConfigError, match=r"^config\.weight: .*beyond "
                                          "the float range"):
        parse_config(json.dumps({
            "kind": "weights", "grid": {"dim": 1, "n": 32},
            "weight": {"family": "piecewise", "levels": [1e-300, 1e308]}}))


def test_cli_sweep(tmp_path, capsys):
    cfgp = _write(tmp_path, "s.json", {
        "kind": "kolmogorov", "grid": dict(GRID),
        "mu": {"family": "constant", "value": 1.0},
        "z0": {"family": "constant", "value": 1.0},
        "source": {"family": "constant", "value": 0.0}})
    code = main(["sweep", "--config", cfgp, "--axis", "grid.n",
                 "--values", "32,48", "--out", str(tmp_path / "sw")])
    out = capsys.readouterr().out
    assert code == 2           # the n=48 point is a config error
    assert "grid.n=32: pass" in out
    assert "grid.n=48: ERROR" in out


def test_converge_csv_does_not_depend_on_blas_threads(tmp_path):
    # the benchmark runs with one BLAS thread, the tests with the default;
    # n=256 is the largest 1-D grid that convolves by a matrix-vector
    # product, the one a threaded BLAS is likeliest to split
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kind": "converge", "grid": {"dim": 1, "n": 256, "t_final": 0.0005},
        "species": SKT_SPECIES, "eps": [0.2, 0.1, 0.05]}))
    root = Path(__file__).resolve().parent.parent
    csv = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        out = tmp_path / threads
        code = ("import sys; from crossdifflab.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, "skt-converge", "--config",
             str(cfg), "--out", str(out)],
            cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        csv.append((out / "converge.csv").read_bytes())
    assert csv[0] == csv[1]
