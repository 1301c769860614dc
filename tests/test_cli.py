"""End-to-end tests for the command line interface."""

import json
import os
import pathlib
from dataclasses import asdict

import numpy as np
import pytest

from weylcount import cli
from weylcount.cli import main
from weylcount.lb_spectrum import SOLVER_TOL
from weylcount.semiclassical_count import (
    CUT_FACTOR,
    ZERO_TOL,
    CountReport,
    _fit_powers,
)
from weylcount.spectral_regions import RegionParams
from weylcount.symbol_algebra import DEFAULT_SAMPLES, SAMPLE_SEED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

def test_spectrum_exact(capsys):
    code, out, _ = run(capsys, "spectrum", "--surface", "unit-sphere",
                       "--exact", "--max-degree", "10")
    assert code == 0
    assert "121 modes, top lambda = 110" in out


def test_spectrum_mesh_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ("spectrum", "--mesh", "icosphere:2", "--count", "20",
            "--cache-dir", cache)
    first_code, first_out, _ = run(capsys, *argv)
    assert first_code == 0
    assert "cache hit" not in first_out
    second_code, second_out, _ = run(capsys, *argv)
    assert second_code == 0
    assert "cache hit" in second_out
    assert first_out.splitlines()[1] == second_out.splitlines()[1]


def test_spectrum_mesh_cache_is_per_solver_seed(tmp_path, capsys):
    # solver seeds split near-degenerate clusters differently, so a basis
    # solved under one seed must not answer a run under another
    cache = str(tmp_path / "cache")
    argv = ("spectrum", "--mesh", "icosphere:2", "--count", "20",
            "--cache-dir", cache, "--seed")
    hits = []
    for seed in ("1", "2", "1", "2"):
        code, out, _ = run(capsys, *argv, seed)
        assert code == 0
        hits.append("cache hit" in out)
    assert hits == [False, False, True, True]


def test_spectrum_warms_the_scan_cache(tmp_path, capsys):
    # spectrum and scan default to the same solver seed, which is part of
    # the cache key
    cache = str(tmp_path / "cache")
    code, _, _ = run(capsys, "spectrum", "--mesh", "icosphere:2",
                     "--count", "60", "--cache-dir", cache)
    assert code == 0
    code, out, _ = run(capsys, "scan", "--gamma", "2.0", "--mesh",
                       "icosphere:2", "--modes", "60", "--cache-dir", cache,
                       "--r-min", "1.2", "--r-max", "1.5", "--steps", "2",
                       "--output", str(tmp_path / "out"))
    assert code == 0
    assert "spectrum cache hit" in out


@pytest.mark.parametrize("argv, expected, message", [
    (("--surface", "ellipsoid:2,1,1", "--max-degree", "3"), 64,
     "surface 'ellipsoid:2,1,1' needs a --mesh basis"),
    (("--surface", "torus"), 64, "unknown surface 'torus'"),
    (("--surface", "ellipsoid:2,1,1", "--mesh", "icosphere:1", "--count",
      "6"), 0, ""),
])
def test_spectrum_surface(capsys, argv, expected, message):
    # the exact spectrum is the unit sphere's; a --mesh basis is whatever
    # the mesh is
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == expected
    assert message in err
    assert (out == "") == (expected == 64)


def test_spectrum_exact_refuses_mesh(capsys):
    code, out, err = run(capsys, "spectrum", "--mesh", "icosphere:2",
                         "--count", "20", "--exact")
    assert code == 64
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "--exact" in err


@pytest.mark.parametrize("argv, flag", [
    (("spectrum", "--count", "20"), "--count"),
    (("spectrum", "--cache-dir", "zz"), "--cache-dir"),
    (("scan", "--max-degree", "40", "--modes", "400"), "--modes"),
    (("scan", "--max-degree", "40", "--cache-dir", "zz"), "--cache-dir"),
    (("count", "--r", "5", "--max-degree", "40", "--modes", "400"),
     "--modes"),
    (("count", "--r", "5", "--max-degree", "40", "--cache-dir", "zz"),
     "--cache-dir"),
])
def test_mesh_only_flags_need_mesh(capsys, tmp_path, monkeypatch, argv,
                                   flag):
    # they shape only a FEM basis, so on the exact one they would be ignored
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert flag in err
    assert list(tmp_path.iterdir()) == []


def test_spectrum_mesh_needs_count(capsys):
    code, _, err = run(capsys, "spectrum", "--mesh", "icosphere:2")
    assert code == 64
    assert "count" in err


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

def test_scan_frozen_rows(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code, out, _ = run(capsys, "scan", "--gamma", "2.0", "--r-min", "5",
                       "--r-max", "20", "--steps", "4",
                       "--output", out_dir)
    assert code == 0
    text = pathlib.Path(out_dir, "report.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "r,N_scalar,N_system,W,borderline"
    assert lines[1].startswith("5,81,162,75.0000000")
    assert lines[2].startswith("10,289,578,300.0000000")
    assert lines[4].startswith("20,1225,2450,1200.0000000")
    payload = json.loads(pathlib.Path(out_dir, "report.json").read_text(
        encoding="utf-8"))
    assert payload["version"]
    assert payload["config"]["gamma"] == "2.0"
    assert payload["gates"]["monotone"] is True


def test_scan_byte_identical_reruns(tmp_path, capsys):
    argv = ("scan", "--gamma", "2.0", "--r-min", "5", "--r-max", "10",
            "--steps", "2", "--max-degree", "40")
    first = str(tmp_path / "a")
    second = str(tmp_path / "b")
    assert run(capsys, *argv, "--output", first)[0] == 0
    assert run(capsys, *argv, "--output", second)[0] == 0
    first_bytes = pathlib.Path(first, "report.csv").read_bytes()
    second_bytes = pathlib.Path(second, "report.csv").read_bytes()
    assert first_bytes == second_bytes
    assert b"\r" not in first_bytes


def test_scan_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("gamma = 2.0\nr-min = 5\nr-max = 10\nsteps = 2\n"
                   "max-degree = 40\n# comment\n", encoding="utf-8")
    from_cfg = str(tmp_path / "cfg")
    code, _, _ = run(capsys, "scan", "--config", str(cfg),
                     "--output", from_cfg)
    assert code == 0
    rows = pathlib.Path(from_cfg, "report.csv").read_text(
        encoding="utf-8").splitlines()
    assert len(rows) == 3  # header + 2 grid points

    overridden = str(tmp_path / "cfg3")
    code, _, _ = run(capsys, "scan", "--config", str(cfg), "--steps", "3",
                     "--output", overridden)
    assert code == 0
    rows = pathlib.Path(overridden, "report.csv").read_text(
        encoding="utf-8").splitlines()
    assert len(rows) == 4  # flag beats the config value


def test_scan_config_booleans_match_flags(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("gamma = 2.0\ninvert = yes\nlog = true\nr-min = 5\n"
                   "r-max = 10\nsteps = 3\nmax-degree = 40\n",
                   encoding="utf-8")
    from_cfg = str(tmp_path / "cfg")
    from_flags = str(tmp_path / "flags")
    assert run(capsys, "scan", "--config", str(cfg), "--output",
               from_cfg)[0] == 0
    assert run(capsys, "scan", "--gamma", "2.0", "--invert", "--log",
               "--r-min", "5", "--r-max", "10", "--steps", "3",
               "--max-degree", "40", "--output", from_flags)[0] == 0
    for name in ("report.csv", "report.json"):
        assert pathlib.Path(from_cfg, name).read_bytes() == \
            pathlib.Path(from_flags, name).read_bytes()
    payload = json.loads(pathlib.Path(from_cfg, "report.json").read_text(
        encoding="utf-8"))
    assert payload["config"]["invert"] is True
    assert payload["config"]["log"] is True


@pytest.mark.parametrize("argv, text, expected_code, expected", [
    (("spectrum",), "mesh = icosphere:1\ncount = 6\n", 0, "6 modes"),
    (("regions", "--bound", "2"), "c0 = 3\n", 0, '"c0": 3.0'),
    (("scan",), "steps = x\n", 64, "config key 'steps'"),
    (("weyl",), "seed = 1\n", 64, "unknown config key 'seed'"),
    (("scan",), "zero-tol = nan\n", 64,
     "config key 'zero_tol': expected a finite number >= 0"),
])
def test_config_keys(tmp_path, capsys, argv, text, expected_code, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == expected_code
    assert expected in out + err


def test_scan_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    code, _, err = run(capsys, "scan", "--config", str(cfg))
    assert code == 64
    assert "bogus" in err


def test_scan_degenerate_grid(capsys):
    code, _, err = run(capsys, "scan", "--steps", "1")
    assert code == 64
    assert "steps" in err


def test_scan_auto_degree_follows_cut_factor(tmp_path, capsys):
    # the automatic sphere degree must leave room for the 1.5x truncation
    # recount at any cut factor, not only at the default 2
    for cut_factor in ("2.5", "4"):
        code, out, _ = run(capsys, "scan", "--gamma", "affine:2,0.5,z",
                           "--r-min", "6", "--r-max", "12", "--steps", "4",
                           "--cut-factor", cut_factor,
                           "--output", str(tmp_path / cut_factor))
        assert code == 0
        assert "truncation_stable=pass" in out


def test_scan_prints_why_gates_did_not_run(tmp_path, capsys):
    # r_max / r_min = 2, and degree 60 cannot hold the recount at r = 16
    out_dir = str(tmp_path / "out")
    code, out, _ = run(capsys, "scan", "--gamma", "affine:2,0.5,z",
                       "--r-min", "8", "--r-max", "16", "--steps", "3",
                       "--max-degree", "60", "--output", out_dir)
    assert code == 0
    assert ("gates: exponent_in_window=n/a (r_max/r_min < 3), "
            "monotone=pass, truncation_stable=n/a (basis cannot support "
            "the 1.5x recount)") in out.splitlines()
    payload = json.loads(pathlib.Path(out_dir, "report.json").read_text(
        encoding="utf-8"))
    assert payload["gates"]["exponent_in_window"] is None
    assert payload["gates"]["truncation_stable"] is None
    # a wide enough grid without two positive counts in its top half; every
    # exact-sphere scan counts the mode of eigenvalue 0, so none gets here
    assert _fit_powers([1.0, 2.0, 4.0], [0, 0, 1])[1:] == (
        None, "fewer than 2 positive counts in the top half")


def test_only_mesh_reports_echo_the_solver_tolerance(tmp_path, capsys):
    # --tol is part of the FEM cache key, so a --mesh report names it; an
    # exact-sphere report does not, as no tolerance shaped its basis
    mesh = ("--mesh", "icosphere:2", "--modes", "60", "--tol", "1e-7",
            "--cache-dir", str(tmp_path / "cache"))
    exact = ("--max-degree", "20")
    for name, basis in (("mesh", mesh), ("exact", exact)):
        out_dir = str(tmp_path / name)
        code, _, _ = run(capsys, "scan", "--gamma", "2.0", "--r-min", "1.2",
                         "--r-max", "1.5", "--steps", "2", "--output",
                         out_dir, *basis)
        assert code == 0
        config = json.loads(pathlib.Path(out_dir, "report.json").read_text(
            encoding="utf-8"))["config"]
        code, out, _ = run(capsys, "count", "--gamma", "2.0", "--r", "1.5",
                           *basis)
        assert code == 0
        for echoed in (config, json.loads(out)["config"]):
            if name == "mesh":
                assert echoed["tol"] == 1e-7
            else:
                assert "tol" not in echoed


def test_scan_gate_failure_exit_code(tmp_path, monkeypatch, capsys):
    broken = CountReport(
        r_grid=np.array([5.0, 10.0]),
        n_scalar=np.array([100, 50]),  # non-monotone on purpose
        n_system=np.array([200, 100]),
        borderline=np.array([0, 0]),
        coefficient=3.0,
        mode_cuts=np.array([10, 10]),
        stability_delta=0,
    )
    monkeypatch.setattr(cli, "scan", lambda *a, **k: broken)
    out_dir = str(tmp_path / "gate")
    code, _, err = run(capsys, "scan", "--gamma", "2.0", "--max-degree",
                       "40", "--r-min", "5", "--r-max", "10", "--steps",
                       "2", "--output", out_dir)
    assert code == 3
    assert "monotone" in err
    # report is still written on gate failure
    assert os.path.exists(os.path.join(out_dir, "report.csv"))
    assert os.path.exists(os.path.join(out_dir, "report.json"))


def test_scan_insufficient_basis_exit_code(capsys):
    code, _, err = run(capsys, "scan", "--gamma", "2.0", "--max-degree",
                       "10", "--r-min", "5", "--r-max", "20",
                       "--steps", "2")
    assert code == 2
    assert "1296" in err


@pytest.mark.parametrize("argv", [
    ("scan", "--gamma", "2.0", "--r-min", "5", "--r-max", "8"),
    ("count", "--gamma", "2.0", "--r", "5"),
])
def test_exact_basis_refuses_other_surfaces(tmp_path, capsys, argv):
    # the exact spectrum is the sphere's: counting it and reporting the
    # ellipsoid's Weyl coefficient would pass every gate on wrong numbers
    out_dir = str(tmp_path / "out")
    code, out, err = run(capsys, *argv, "--surface", "ellipsoid:2,1,1",
                         *(("--output", out_dir) if argv[0] == "scan" else ()))
    assert code == 64
    assert "ellipsoid:2,1,1" in err
    assert out == ""
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("surface, expected", [
    ("ellipsoid:2,1,1", 64),
    ("unit-sphere", 0),
])
def test_mesh_must_lie_on_surface(capsys, surface, expected):
    # the Weyl prediction is the analytic surface's, so a sphere mesh
    # reported as an ellipsoid would pass its gates on wrong numbers
    code, out, err = run(capsys, "count", "--gamma", "2.0", "--r", "1.5",
                         "--mesh", "icosphere:2", "--modes", "60",
                         "--surface", surface)
    assert code == expected
    if expected == 64:
        assert "does not lie on surface 'ellipsoid:2,1,1'" in err
        assert out == ""
    else:
        assert json.loads(out)["N_scalar"] == 9


def test_linalg_error_is_resource_failure(monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "count_negative", singular)
    code, out, err = run(capsys, "count", "--gamma", "2.0", "--r", "5",
                         "--max-degree", "40")
    assert code == 2
    assert out == ""
    assert err == "error: Singular matrix\n"


# ----------------------------------------------------------------------
# count / weyl
# ----------------------------------------------------------------------

def test_count_single_radius(capsys):
    code, out, _ = run(capsys, "count", "--gamma", "2.0", "--r", "5",
                       "--max-degree", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["N_scalar"] == 81
    assert payload["N_system"] == 162
    assert payload["borderline"] == 0
    assert payload["W"] == pytest.approx(75.0, abs=1e-6)


def test_count_requires_radius(capsys):
    code, _, err = run(capsys, "count", "--gamma", "2.0")
    assert code == 64
    assert "--r" in err


SCAN = ("scan", "--gamma", "2.0", "--r-min", "5", "--r-max", "10",
        "--steps", "2")


@pytest.mark.parametrize("argv, flag", [
    (SCAN + ("--zero-tol", "-0.5"), "--zero-tol"),
    (SCAN + ("--zero-tol", "nan"), "--zero-tol"),
    (("count", "--gamma", "affine:2,0.5,z", "--r", "6", "--zero-tol",
      "-0.5"), "--zero-tol"),
    (("count", "--r", "nan"), "--r"),
    (("count", "--r", "inf"), "--r"),
    (("count", "--r", "0"), "--r"),
    (("scan", "--cut-factor", "nan"), "--cut-factor"),
    (("count", "--r", "5", "--cut-factor", "-inf"), "--cut-factor"),
    (("scan", "--r-min", "-1"), "--r-min"),
    (("scan", "--r-max", "inf"), "--r-max"),
    (("weyl", "--r", "nan"), "--r"),
])
def test_numeric_options_must_be_finite_and_in_range(capsys, tmp_path,
                                                     monkeypatch, argv, flag):
    # a negative or NaN tolerance, radius or cut factor would count silently
    # wrong, or crash, further in
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("usage error: argument %s: " % flag)
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_weyl_affine(capsys):
    code, out, _ = run(capsys, "weyl", "--gamma", "affine:2,0.5,z",
                       "--r", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficient"] == pytest.approx(37.0 / 12.0, abs=1e-8)
    assert payload["W"] == pytest.approx(256.0 * 37.0 / 12.0, abs=1e-5)


def test_bad_field_spec(capsys):
    code, _, err = run(capsys, "weyl", "--gamma", "nonsense")
    assert code == 64
    assert "field" in err


def test_bad_surface_spec(capsys):
    code, _, err = run(capsys, "weyl", "--surface", "torus")
    assert code == 64
    assert "surface" in err


def test_field_touching_one_is_precondition_failure(capsys):
    code, _, err = run(capsys, "weyl", "--gamma", "1.0")
    assert code == 2
    assert "1" in err


# ----------------------------------------------------------------------
# verify-symbols
# ----------------------------------------------------------------------

def test_verify_symbols_passes(capsys):
    code, out, _ = run(capsys, "verify-symbols", "--samples", "100",
                       "--seed", "42")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    assert max(payload["residuals"].values()) < 1e-8


def test_verify_symbols_zero_samples(capsys):
    code, _, err = run(capsys, "verify-symbols", "--samples", "0")
    assert code == 64


def test_verify_symbols_breach(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "identity_suite",
        lambda surface, samples, seed: {
            "surface": "unit-sphere", "samples": samples, "seed": seed,
            "residuals": {"m-symmetric": 1.0, "rho-square": 1e-12}})
    code, out, err = run(capsys, "verify-symbols", "--samples", "10")
    assert code == 3
    assert "m-symmetric" in err
    payload = json.loads(out)
    assert payload["failures"] == ["m-symmetric"]


# ----------------------------------------------------------------------
# regions
# ----------------------------------------------------------------------

def test_regions_check_and_bound(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("-3 0\n-2 1\n# comment\n4 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "regions", "--check", str(points),
                       "--bound", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"]["value"] == 1.0
    flags = [(row["counting_region"], row["spectral_strip"],
              row["axis_neighborhood"]) for row in payload["points"]]
    assert flags == [(True, False, True), (False, True, False),
                     (False, False, False)]


def test_regions_requires_input(capsys):
    code, _, err = run(capsys, "regions")
    assert code == 64


def test_regions_bad_point_line(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("-3\n", encoding="utf-8")
    code, _, err = run(capsys, "regions", "--check", str(points))
    assert code == 64
    assert "re im" in err


def test_regions_bound_domain_error(capsys):
    code, _, err = run(capsys, "regions", "--bound", "0.9")
    assert code == 2


def test_regions_param_validation(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("-3 0\n", encoding="utf-8")
    code, _, err = run(capsys, "regions", "--check", str(points),
                       "--c0", "0.5")
    assert code == 2


# ----------------------------------------------------------------------
# top level
# ----------------------------------------------------------------------

def parsed_defaults(command):
    return vars(cli.build_parser().parse_args([command]))


def test_parsed_defaults_are_the_library_constants():
    for command in ("scan", "count"):
        args = parsed_defaults(command)
        assert args["cut_factor"] == CUT_FACTOR
        assert args["zero_tol"] == ZERO_TOL
    for command in ("spectrum", "scan", "count"):
        assert parsed_defaults(command)["tol"] == SOLVER_TOL
    verify = parsed_defaults("verify-symbols")
    assert verify["samples"] == DEFAULT_SAMPLES
    assert verify["seed"] == SAMPLE_SEED
    regions = parsed_defaults("regions")
    assert {name: regions[name] for name in asdict(RegionParams())} == \
        asdict(RegionParams())


def test_spectrum_scan_and_count_share_one_seed():
    # the solver seed is part of the spectrum cache key
    seeds = {parsed_defaults(command)["seed"]
             for command in ("spectrum", "scan", "count")}
    assert seeds == {cli.DEFAULT_SEED}


@pytest.mark.parametrize("argv", [
    ("weyl", "--seed", "1"),
    ("regions", "--bound", "2", "--seed", "1"),
])
def test_seed_is_refused_where_nothing_is_random(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "--seed" in err


def test_no_command(capsys):
    code, _, err = run(capsys)
    assert code == 64


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "scan", "--frobnicate")
    assert code == 64


def test_missing_mesh_file(capsys):
    code, _, err = run(capsys, "spectrum", "--mesh", "no-such-file.off",
                       "--count", "10")
    assert code == 2


def test_bad_icosphere_level(capsys):
    code, _, err = run(capsys, "spectrum", "--mesh", "icosphere:x",
                       "--count", "10")
    assert code == 64
