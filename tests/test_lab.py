"""Config parsing, run orchestration, sweeps, artifacts and the CLI."""

import json
import os

import numpy as np
import pytest

from crossdifflab.cli import main
from crossdifflab.lab import (ConfigError, RunManifest, atomic_write_text,
                              build_field, parse_config, philox_rng, run,
                              sweep, write_csv)
from crossdifflab.torus import (Field, dump_field, dump_slices, load_slices,
                                make_grid)

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
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("[1,2]")


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
    # each kind takes kind, grid, seed and the keys its runner reads
    raw = (_kolmo_raw() if kind == "kolmogorov" else
           {"kind": "weights", "grid": dict(GRID), "weight": CONST})
    raw[key] = value
    with pytest.raises(ConfigError, match=rf"^unknown key config\.{key}"):
        parse_config(json.dumps(raw))


def test_bad_grid_reported_as_config_error(tmp_path):
    cfg = _cfg(grid={"dim": 1, "n": 48, "t_final": 0.01})
    with pytest.raises(ConfigError, match="power of two"):
        run(cfg)


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


def test_non_finite_field_value_is_config_error(tmp_path, capsys):
    g = make_grid(1, 32, 1.0, 1)
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="p: field contains non-finite"):
            build_field(g, {"family": "constant", "value": value}, "p")
    # json writes NaN, which Python's json reads back: the config parses
    cfgp = _write(tmp_path, "nan.json", {
        "kind": "kolmogorov", "grid": dict(GRID),
        "mu": {"family": "constant", "value": float("nan")},
        "z0": {"family": "constant", "value": 1.0},
        "source": {"family": "constant", "value": 0.0}})
    assert main(["solve-kolmogorov", "--config", cfgp]) == 2
    assert "config error: config.mu" in capsys.readouterr().err


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
        run(parse_config(json.dumps(raw)))
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
        run(parse_config(json.dumps(raw)))


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
    cfg = parse_config(json.dumps({"kind": "dual", "grid": dict(GRID),
                                   "s": {"family": "constant", "value": 1.0}}))
    with pytest.raises(ConfigError, match="config.mu"):
        run(cfg)


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
]
SUBCOMMANDS = {"kolmogorov": "solve-kolmogorov", "dual": "solve-dual",
               "verify_duality": "verify-duality",
               "stability": "stability-study"}


@pytest.mark.parametrize("raw", MALFORMED)
def test_malformed_values_are_config_errors(tmp_path, capsys, raw):
    with pytest.raises(ConfigError):
        run(parse_config(json.dumps(raw)))
    if raw["kind"] in SUBCOMMANDS:
        cfgp = _write(tmp_path, "bad.json", raw)
        assert main([SUBCOMMANDS[raw["kind"]], "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1


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

    with pytest.raises(ConfigError, match="not found"):
        sweep(cfg, "grid.missing", [1])


def test_sweep_over_seed_uses_each_seed():
    z0 = {"family": "random", "lo": 0.1, "hi": 1.0}
    res = sweep(_cfg(z0=z0), "seed", [1, 2])
    assert res[0].constants["final_l2"] != res[1].constants["final_l2"]
    for seed, m in zip([1, 2], res):
        assert m.config["seed"] == seed
        assert m.constants == run(_cfg(seed=seed, z0=z0)).constants


def test_sweep_respects_thread_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("CDL_THREADS", "1")
    res = sweep(_cfg(), "seed", [1, 2])
    assert len(res) == 2


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


def test_cli_skt_converge_eps_override(tmp_path, capsys):
    cfgp = _write(tmp_path, "c.json", {
        "kind": "converge", "grid": dict(GRID), "species": SKT_SPECIES,
        "eps": [0.4, 0.2]})
    code = main(["skt-converge", "--config", cfgp, "--eps", "0.2,0.1",
                 "--out", str(tmp_path / "out")])
    assert code == 0
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


@pytest.mark.parametrize("argv, env, named", [
    (["skt-converge", "--config", "{converge}", "--eps", "abc"], None,
     "--eps"),
    (["skt-converge", "--config", "{converge}", "--eps", "0.2,nan"], None,
     "config.eps"),
    (["sweep", "--config", "{kolmogorov}", "--axis", "seed",
      "--values", "1,abc"], None, "--values"),
    (["sweep", "--config", "{kolmogorov}", "--axis", "seed",
      "--values", "1"], "abc", "CDL_THREADS"),
    (["sweep", "--config", "{kolmogorov}", "--axis", "seed",
      "--values", "1"], "-1", "CDL_THREADS"),
    (["a2-check", "--weight", "constant:2", "--n", "48"], None, "--n 48"),
    (["a2-check", "--weight", "constant:2", "--dim", "3"], None, "--dim 3"),
    (["maximal", "--field", "{n48}"], None, "{n48}"),
    (["a2-check", "--weight", "{n48}"], None, "{n48}"),
], ids=["eps", "eps-nan", "values", "threads-abc", "threads-negative", "n",
        "dim", "maximal-dump", "a2-dump"])
def test_cli_bad_input_is_one_line_config_error(tmp_path, capsys,
                                                monkeypatch, argv, env,
                                                named):
    paths = {
        "converge": _write(tmp_path, "c.json", {
            "kind": "converge", "grid": dict(GRID), "species": SKT_SPECIES,
            "eps": [0.2]}),
        "kolmogorov": _write(tmp_path, "k.json", _kolmo_raw()),
        "n48": str(tmp_path / "n48.cdl"),
    }
    dump_slices(paths["n48"], 1, 48, np.ones((1, 48)))
    if env is not None:
        monkeypatch.setenv("CDL_THREADS", env)
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1, err
    assert named.format(**paths) in err


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
