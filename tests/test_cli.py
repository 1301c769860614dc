"""End-to-end tests for the command line interface."""

import argparse
import json
import os
import pathlib
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from weylcount import cli, lb_spectrum
from weylcount.cli import main
from weylcount.errors import UsageError
from weylcount.lb_spectrum import MAX_EXACT_DEGREE, SOLVER_SEED, SOLVER_TOL
from weylcount.semiclassical_count import (
    CUT_FACTOR,
    ZERO_TOL,
    CountReport,
    _fit_powers,
)
from weylcount.spectral_regions import RegionParams
from weylcount.surface import AnalyticSurface
from weylcount.surface import mesh as mesh_module
from weylcount.surface.mesh import (
    MAX_ICOSPHERE_LEVEL,
    SurfaceMesh,
    icosphere,
    write_off,
)
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


def test_spectrum_degree_defaults_to_ten(capsys):
    # --max-degree parses to None when not given, so that a --mesh run can
    # refuse it; an exact run without it still takes degree 10
    outputs = [run(capsys, "spectrum", *degree)
               for degree in ((), ("--max-degree", "10"))]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert "121 modes, top lambda = 110" in outputs[0][1]


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


@pytest.mark.parametrize("argv", [
    ("scan", "--r-min", "1", "--r-max", "2", "--output", "out", "--modes",
     "10"),
    ("count", "--r", "1", "--modes", "10"),
    ("spectrum", "--count", "10"),
])
def test_max_degree_is_refused_on_mesh_runs(capsys, tmp_path, monkeypatch,
                                            argv):
    # the degree shapes only the exact basis, so a mesh run would ignore it;
    # it is refused before any mesh is built or the cache is read
    def forbidden(*args, **kwargs):
        raise AssertionError("the spectrum cache was read")

    _forbid_mesh_builds(monkeypatch)
    monkeypatch.setattr(cli, "cached_mesh_spectrum", forbidden)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--mesh", "icosphere:1",
                         "--max-degree", "10", "--cache-dir", "cache")
    assert code == 64
    assert out == ""
    assert err == "usage error: --max-degree applies only to exact-sphere " \
                  "runs\n"
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
    assert lines[1].startswith("5,81,162,")
    assert lines[2].startswith("10,289,578,")
    assert lines[4].startswith("20,1225,2450,")
    # W = 3 r^2 to roundoff
    for line in lines[1:]:
        r, _, _, w, _ = line.split(",")
        assert float(w) == pytest.approx(3.0 * float(r) ** 2, rel=1e-13)
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


def test_config_defaults_stay_with_their_call(tmp_path, capsys, monkeypatch):
    # calls share one parser; a --config call parses with one of its own,
    # so the next plain call sees the built-in defaults
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("steps = 2\ncut-factor = 2.5\n", encoding="utf-8")
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(capsys, "scan", "--config", str(cfg), "--output",
               str(first))[0] == 0
    assert run(capsys, "scan", "--output", str(second))[0] == 0
    assert run(capsys, "weyl")[0] == 0
    assert len(builds) == 2
    config = json.loads((second / "report.json").read_text(
        encoding="utf-8"))["config"]
    assert (config["steps"], config["cut-factor"]) == (4, CUT_FACTOR)
    assert len((second / "report.csv").read_text(
        encoding="utf-8").splitlines()) == 1 + 4
    cli._shared_parser.cache_clear()


@pytest.mark.parametrize("argv, text, expected_code, expected", [
    (("spectrum",), "mesh = icosphere:1\ncount = 6\n", 0, "6 modes"),
    (("regions", "--bound", "2"), "c0 = 3\n", 0, '"c0": 3.0'),
    (("scan",), "steps = x\n", 64, "config key 'steps'"),
    (("weyl",), "seed = 1\n", 64, "unknown config key 'seed'"),
    (("scan",), "zero-tol = nan\n", 64,
     "config key 'zero_tol': expected a finite number >= 0"),
    (("verify-symbols",), "seed = -1\n", 64,
     "config key 'seed': expected an integer >= 0"),
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


@pytest.mark.parametrize("argv", [
    ("count", "--r", "1e8"), ("count", "--r", "1e150"),
    ("count", "--gamma", "1e200", "--r", "1"),
    ("scan", "--r-min", "1", "--r-max", "1e8"),
    ("count", "--r", "2", "--max-degree", str(MAX_EXACT_DEGREE + 1)),
    ("spectrum", "--exact", "--max-degree", str(MAX_EXACT_DEGREE + 1))],
    ids=["auto", "auto-huge", "auto-overflow", "scan", "count-flag",
         "spectrum-flag"])
def test_exact_degree_above_the_cap_is_refused(capsys, tmp_path,
                                               monkeypatch, argv):
    # the degree is judged before the basis is built, so nothing the size
    # of the degree is ever allocated
    def forbidden(*args, **kwargs):
        raise AssertionError("an exact basis above the cap was built")

    monkeypatch.setattr(cli, "exact_sphere_spectrum", forbidden)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: exact sphere degree ")
    assert "above the cap of %d" % MAX_EXACT_DEGREE in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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


MESH_BASIS = ("--mesh", "icosphere:2", "--modes", "60", "--cache-dir",
              "cache")


@pytest.mark.parametrize("argv", [
    ("scan", "--gamma", "affine:2,0.5,z", "--r-min", "5", "--r-max", "8",
     "--steps", "2", "--output", "out"),
    ("scan", "--r-min", "1.2", "--r-max", "1.5", "--steps", "2", "--output",
     "out") + MESH_BASIS,
    ("count", "--gamma", "0.4", "--r", "5", "--max-degree", "20"),
    ("count", "--r", "1.5") + MESH_BASIS,
    ("weyl", "--gamma", "affine:2,0.5,x", "--r", "16"),
    ("verify-symbols", "--surface", "ellipsoid:2,1,1", "--samples", "20"),
], ids=["scan", "scan-mesh", "count", "count-mesh", "weyl",
        "verify-symbols"])
def test_config_echoes_every_declared_option(tmp_path, capsys, monkeypatch,
                                             argv):
    # a report's config is read off the command's parser: every option it
    # declares is echoed with its value, bar the locations (--config,
    # --output, --cache-dir), --tol on exact runs and options left None
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    echoed = json.loads(pathlib.Path("out", "report.json").read_text(
        encoding="utf-8") if argv[0] == "scan" else out)["config"]
    args = cli.build_parser().parse_args(argv)
    skipped = {"help", "config", "output", "cache_dir"}
    if "--mesh" not in argv:
        skipped.add("tol")
    declared = {action.dest for action in args._parser._actions} - skipped
    assert echoed == {dest.replace("_", "-"): getattr(args, dest)
                      for dest in declared
                      if getattr(args, dest) is not None}
    assert ("max-degree" in echoed) == (argv[0] == "count"
                                        and "--mesh" not in argv)


def test_scan_gate_failure_exit_code(tmp_path, monkeypatch, capsys):
    broken = CountReport(
        r_grid=np.array([5.0, 10.0]),
        n_scalar=np.array([100, 50]),  # non-monotone on purpose
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


def _forbid_mesh_builds(monkeypatch):
    """Make every mesh build, validation and FEM solve fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a mesh was built or solved")

    for owner, name in ((mesh_module, "icosphere"),
                        (mesh_module, "read_off"),
                        (mesh_module, "_parse_off"),
                        (SurfaceMesh, "__init__"), (SurfaceMesh, "validate"),
                        (lb_spectrum, "assemble_fem"),
                        (lb_spectrum, "solve_lowest")):
        monkeypatch.setattr(owner, name, forbidden)


@pytest.mark.parametrize("surface, expected", [
    ("ellipsoid:2,1,1", 64),
    ("unit-sphere", 0),
])
def test_mesh_must_lie_on_surface(capsys, tmp_path, monkeypatch, surface,
                                  expected):
    # the Weyl prediction is the analytic surface's, so a sphere mesh
    # reported as an ellipsoid would pass its gates on wrong numbers.  A
    # cold run checks the built mesh before it is solved; a cache hit
    # checks the cached nodes, which are bitwise the mesh's vertices
    cache = tmp_path / "cache"
    argv = ("count", "--gamma", "2.0", "--r", "1.5", "--mesh", "icosphere:2",
            "--modes", "60", "--cache-dir", str(cache))
    solves = []
    solve = lb_spectrum.solve_lowest
    monkeypatch.setattr(lb_spectrum, "solve_lowest",
                        lambda *a, **k: solves.append(1) or solve(*a, **k))
    code, out, err = run(capsys, *argv, "--surface", surface)
    assert code == expected
    if expected == 64:
        assert "does not lie on surface 'ellipsoid:2,1,1'" in err
        assert out == ""
        assert solves == [] and not list(cache.glob("*.wlb"))
        assert run(capsys, *argv)[0] == 0  # warms the cache on the sphere
    else:
        assert json.loads(out)["N_scalar"] == 9
        assert solves == [1]
    _forbid_mesh_builds(monkeypatch)
    assert run(capsys, *argv, "--surface", surface) == (code, out, err)


def test_on_surface_check_refuses_a_nan_node():
    # NaN compares False with any tolerance, so the check asks whether the
    # distance is within it, not whether it exceeds it
    nodes = icosphere(1).vertices.copy()
    nodes[3, 1] = np.nan
    args = argparse.Namespace(mesh="icosphere:1", surface="unit-sphere")
    with pytest.raises(UsageError, match="does not lie on surface"):
        cli._require_on_surface(args, AnalyticSurface.unit_sphere(), nodes)


@pytest.mark.parametrize("argv", [("scan",), ("count", "--r", "2"),
                                  ("weyl",)])
def test_vertex_table_needs_a_mesh(capsys, tmp_path, monkeypatch, argv):
    # a table holds one value per mesh vertex: without a mesh there are no
    # points to read it at, so it is refused before anything is counted
    # or integrated
    def forbidden(*args, **kwargs):
        raise AssertionError("a vertex table was counted without a mesh")

    for name in ("scan", "build_operator", "weyl_coefficient",
                 "weyl_prediction"):
        monkeypatch.setattr(cli, name, forbidden)
    (tmp_path / "table.txt").write_text("3.0\n" * 12, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--gamma", "table:table.txt")
    assert code == 64
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "--mesh" in err
    assert [path.name for path in tmp_path.iterdir()] == ["table.txt"]


def test_vertex_table_is_counted_on_its_mesh(capsys, tmp_path):
    # a table is read at the mesh's vertices, so its range and its Weyl
    # integral come from the mesh too: a constant 3.0 table counts as
    # --gamma 3.0 on the same basis, with coefficient 8 * mesh area / 4 pi,
    # integral of the cached basis's mesh; the table is counted on a cache
    # hit too, and a table of another length is refused there as well
    (tmp_path / "table.txt").write_text("3.0\n" * 642, encoding="utf-8")
    basis = ("--mesh", "icosphere:3", "--modes", "100",
             "--cache-dir", str(tmp_path / "cache"))
    code, _, _ = run(capsys, "spectrum", "--count", "100", *basis[:2],
                     *basis[4:])
    assert code == 0
    reports = {}
    for gamma in ("table:%s" % (tmp_path / "table.txt"), "3.0"):
        output = tmp_path / gamma[:5]
        code, out, err = run(capsys, "scan", "--gamma", gamma, *basis,
                             "--r-min", "1", "--r-max", "1.5",
                             "--output", str(output))
        assert code == 0, err
        assert "spectrum cache hit" in out.splitlines()
        rows = [line.split(",") for line in (output / "report.csv")
                .read_text(encoding="utf-8").splitlines()[1:]]
        report = json.loads((output / "report.json").read_text(
            encoding="utf-8"))
        code, out, err = run(capsys, "count", "--gamma", gamma, "--r", "1.3",
                             *basis)
        assert code == 0, err
        reports[gamma[:5]] = rows, report, json.loads(out)
    (rows, report, count), (same_rows, same, same_count) = reports.values()
    assert [(row[1], row[2], row[4]) for row in rows] \
        == [(row[1], row[2], row[4]) for row in same_rows]
    assert report["truncation"] == same["truncation"]
    assert [count[key] for key in ("N_scalar", "borderline", "mode_cut")] \
        == [same_count[key] for key in ("N_scalar", "borderline", "mode_cut")]
    coefficient = 8.0 * icosphere(3).area / (4.0 * np.pi)
    assert report["coefficient"] == pytest.approx(coefficient, rel=1e-12)
    assert count["W"] == pytest.approx(coefficient * 1.3 ** 2, rel=1e-12)
    (tmp_path / "short.txt").write_text("3.0\n" * 641, encoding="utf-8")
    for argv in (("scan", "--output", str(tmp_path / "short")),
                 ("count", "--r", "1.3")):
        code, out, err = run(capsys, *argv, "--gamma",
                             "table:%s" % (tmp_path / "short.txt"), *basis)
        assert (code, out) == (2, "")
        assert err == ("error: vertex table has 641 entries but the mesh "
                       "has 642 vertices\n")


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


def test_count_at_the_smallest_radii(capsys):
    # mode 0 has D - gamma0 = 1 - 2 = -1 at every r, so it counts down to
    # the smallest radius whose 1 / r^2 is finite
    code, out, _ = run(capsys, "count", "--gamma", "2.0", "--r", "1e-150")
    assert code == 0
    payload = json.loads(out)
    assert (payload["N_scalar"], payload["borderline"]) == (1, 0)
    # the cut ends at the first cluster at or above twice the threshold
    assert payload["mode_cut"] == 4


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
    (("weyl", "--gamma", "nan"), "--gamma"),
    (("weyl", "--gamma", "affine:2,nan,z"), "--gamma"),
    (("weyl", "--gamma", "affine:2,0.5,nan/0/1"), "--gamma"),
    (("weyl", "--surface", "ellipsoid:inf,1,1"), "--surface"),
    (("weyl", "--gamma", "inf"), "--gamma"),
    (("count", "--gamma", "inf", "--r", "2", "--max-degree", "20"),
     "--gamma"),
    (("verify-symbols", "--surface", "ellipsoid:nan,1,1"), "--surface"),
    (("regions", "--bound", "inf"), "--bound"),
    (("regions", "--bound", "2", "--c0", "inf"), "--c0"),
    (("spectrum", "--max-degree", "-1"), "--max-degree"),
    (("scan", "--max-degree", "-3"), "--max-degree"),
    (("count", "--r", "3", "--max-degree", "-2"), "--max-degree"),
    (("spectrum", "--tol", "nan"), "--tol"),
    (("spectrum", "--mesh", "icosphere:1", "--count", "-3"), "--count"),
    (("scan", "--mesh", "icosphere:1", "--modes", "0"), "--modes"),
    (("verify-symbols", "--samples", "10", "--seed", "-1"), "--seed"),
    (("scan", "--seed", "-1", "--mesh", "icosphere:3", "--modes", "40",
      "--r-min", "1", "--r-max", "2"), "--seed"),
    (("scan", "--seed", "-1"), "--seed"),
    # r^2 or 1/r^2 overflows or underflows: a section squares r and 1 / r
    (("count", "--r", "1e-155"), "--r"),
    (("count", "--r", "1e200"), "--r"),
    (("scan", "--r-max", "1e160"), "--r-max"),
    (("weyl", "--r", "1e200"), "--r"),
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


# ----------------------------------------------------------------------
# the exact sphere at large radii
# ----------------------------------------------------------------------

def cluster_enumeration(gamma0, r):
    """(n* + 1)^2: degrees n with n(n+1) < (gamma0^2 - 1) r^2 all count."""
    threshold = (gamma0 * gamma0 - 1.0) * r * r
    top = int(np.sqrt(threshold))
    while top * (top + 1) >= threshold:
        top -= 1
    return (top + 1) ** 2


@pytest.mark.parametrize("argv", [
    ("scan", "--gamma", "2.0", "--r-min", "800", "--r-max", "4000"),
    ("scan", "--gamma", "affine:2,0.5,z", "--r-min", "200", "--r-max",
     "1000"),
])
def test_exact_sphere_scan_memory_is_linear_in_r(tmp_path, capsys, argv):
    # a section through degree L holds (L + 1)^2 modes, 96 020 401 at the
    # constant scan's top radius, and L^2 / 2 couplings, about 7.9 million
    # at the z scan's widest recount; the scans read clusters and ask for
    # the squared couplings row by row
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, *argv, "--output", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 20 * 2 ** 20
    rows = [line.split(",") for line in (tmp_path / "report.csv").read_text(
        encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 4
    if argv[2] == "2.0":
        assert [int(row[1]) for row in rows] == [
            cluster_enumeration(2.0, float(row[0])) for row in rows]


def test_below_one_exact_sphere_scan_memory_is_bounded(tmp_path, capsys):
    # the effective coefficient 1 / (0.4 - 0.2 <axis, x>) is not affine, so
    # its sections are the dual tridiagonal families of the base, counted
    # by one sweep per scan in memory linear in the widest cut degree, 59
    # here: no Gram matrix and never a harmonic at every node of a 2-D grid
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "scan", "--gamma", "affine:0.4,-0.2,1/2/2",
                           "--r-min", "2", "--r-max", "7",
                           "--output", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak < 32 * 2 ** 20


def test_exact_sphere_counts_never_expand_the_spectrum(tmp_path, capsys,
                                                      monkeypatch):
    def expanded(self, cut):
        raise AssertionError("per-mode eigenvalues expanded")

    monkeypatch.setattr(lb_spectrum.SpectralBasis, "leading", expanded)
    for argv in (("scan", "--gamma", "2.0"),
                 ("scan", "--gamma", "affine:2,0.5,z", "--invert"),
                 ("count", "--gamma", "0.5", "--r", "48"),
                 ("count", "--gamma", "affine:2,-0.5,-z", "--r", "48"),
                 ("spectrum", "--max-degree", "2000")):
        code, _, err = run(capsys, *argv, "--output", str(tmp_path)) \
            if argv[0] == "scan" else run(capsys, *argv)
        assert code == 0, err


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


@pytest.mark.parametrize("gamma", ["1.0", "affine:1.2,0.5,z",
                                   "affine:0.2,0.2,z", "affine:0.5,1,z"])
def test_weyl_refuses_the_fields_count_refuses(capsys, gamma):
    # weyl passes the same range gate as count, so a field touching 1 or 0
    # somewhere gets no coefficient, even where the rule has no node there
    weyl = run(capsys, "weyl", "--gamma", gamma)
    count = run(capsys, "count", "--gamma", gamma, "--r", "5")
    assert weyl == count
    assert weyl[0] == 2 and weyl[1] == ""


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


def test_verify_symbols_reruns_are_byte_identical(capsys):
    argv = ("verify-symbols", "--surface", "ellipsoid:3,2,1", "--samples",
            "200", "--seed", "5")
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv) == first


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


@pytest.mark.parametrize("line, message", [
    ("-3", "expected 're im'"), ("nan 0", "bad number"),
    ("-3 inf", "bad number")], ids=["no-im", "nan", "inf"])
def test_regions_bad_point_line(tmp_path, capsys, line, message):
    # a non-finite point has no place in any region, and NaN is not JSON
    points = tmp_path / "points.txt"
    points.write_text("0 1\n" + line + "\n", encoding="utf-8")
    code, out, err = run(capsys, "regions", "--check", str(points))
    assert code == 64
    assert out == ""
    assert "%s:2: %s" % (points, message) in err


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
    assert seeds == {SOLVER_SEED}


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


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv", [("scan", "--modes", "40"),
                                  ("spectrum", "--count", "40")])
def test_nonfinite_mesh_vertex_is_mesh_failure(capsys, tmp_path, value,
                                               argv):
    # a NaN vertex compares False, so it passed validation and the
    # on-surface check and crashed the FEM solve; an inf one passed
    # validation too.  Both are malformed meshes, which exit 2
    path = tmp_path / "bad.off"
    write_off(icosphere(2), path)
    lines = path.read_text().splitlines()
    lines[7] = " ".join([value] + lines[7].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    # validation exits 2 before any solve, so with a cache nothing is stored
    for cache in ((), ("--cache-dir", str(tmp_path / "cache"))):
        code, out, err = run(capsys, argv[0], "--mesh", str(path), *argv[1:],
                             *cache)
        assert code == 2
        assert "vertex 5 has a non-finite coordinate" in err
        assert out == ""
    assert not (tmp_path / "cache").exists()


def _strict_json(text):
    """``text`` parsed as JSON proper, which has no NaN nor +-Infinity."""
    def refuse(constant):
        raise ValueError("not JSON: %s" % constant)
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, expected", [
    # a threshold or cut target that overflows, which no basis resolves
    (("count", "--gamma", "2", "--r", "1e154", "--max-degree", "5"), 2),
    (("count", "--gamma", "2", "--r", "1e154", "--mesh", "icosphere:1",
      "--modes", "10"), 2),
    (("count", "--gamma", "1e200", "--r", "1", "--mesh", "icosphere:1",
      "--modes", "10"), 2),
    (("scan", "--gamma", "affine:1e200,1,z", "--r-min", "1", "--r-max", "2",
      "--steps", "2", "--max-degree", "5"), 2),
    # a Weyl coefficient or prediction that is not finite
    (("weyl", "--gamma", "2", "--r", "1e154"), 2),
    (("weyl", "--gamma", "affine:1e160,1,z"), 2),
    (("weyl", "--surface", "ellipsoid:1e-300,1,1"), 2),
    (("weyl", "--surface", "ellipsoid:1e-200,1e-200,1e-200"), 2),
    # a malformed OFF file, a table of the wrong size, more modes than
    # vertices, a degree-0 basis, and runs that succeed
    (("spectrum", "--mesh", "bad.off", "--count", "10"), 2),
    (("count", "--gamma", "table:short.txt", "--r", "1", "--mesh",
      "icosphere:1", "--modes", "10"), 2),
    (("spectrum", "--mesh", "icosphere:1", "--count", "100"), 2),
    (("count", "--gamma", "2", "--r", "1", "--max-degree", "0"), 2),
    (("scan", "--gamma", "2", "--max-degree", "0", "--r-min", "1",
      "--r-max", "2"), 2),
    (("count", "--gamma", "2", "--r", "3", "--max-degree", "20"), 0),
    (("weyl", "--gamma", "affine:2,0.5,x", "--r", "1e150"), 0),
    # mesh nodes whose scaled squares overflow lie off the surface
    (("scan", "--surface", "ellipsoid:1e-300,1,1", "--mesh", "icosphere:1",
      "--modes", "10", "--r-min", "1", "--r-max", "2"), 64),
    # a field touching 1, or reaching 0 where the rule has no node
    (("weyl", "--gamma", "affine:1.2,0.5,z"), 2),
    (("weyl", "--gamma", "affine:0.2,0.2,z"), 2),
    # an exact-sphere degree on a mesh run, which it would not shape
    (("scan", "--mesh", "icosphere:1", "--modes", "10", "--max-degree", "10",
      "--r-min", "1", "--r-max", "2"), 64),
    (("count", "--mesh", "icosphere:1", "--modes", "10", "--max-degree", "10",
      "--r", "1"), 64),
    (("spectrum", "--mesh", "icosphere:2", "--count", "20", "--max-degree",
      "40"), 64),
    # a symbol suite whose one sample cannot test chart invariance
    (("verify-symbols", "--samples", "1", "--seed", "17"), 64),
])
def test_every_exit_keeps_the_contract(capsys, tmp_path, monkeypatch, argv,
                                       expected):
    # an exception escaping main fails this test itself, and so does a
    # warning; a refusal is one "error:" or "usage error:" line and an
    # empty stdout, and the runs that exit 0 (count, weyl) print strict JSON
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.off").write_text("OFF\n3 1 0\n0 0 x\n",
                                      encoding="utf-8")
    (tmp_path / "short.txt").write_text("3.0\n" * 41, encoding="utf-8")
    code, out, err = run(capsys, *argv)
    assert code == expected, err
    if code in (2, 64):
        assert out == ""
        assert err.startswith("error: " if code == 2 else "usage error: ")
        assert err.count("\n") == 1
    else:
        _strict_json(out)


def _fresh_python(code, **env):
    """stdout of ``code`` run by a new interpreter that imports this
    package's source, with ``env`` added to its environment."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_scipy_optimize_out():
    # the command line needs no optimizer, and importing scipy.optimize
    # costs every process time and memory
    assert _fresh_python("import sys, weylcount.cli; "
                         "print('scipy.optimize' in sys.modules)") == "False\n"


def test_cli_import_leaves_scipy_sparse_out(tmp_path):
    # only a cold FEM solve uses scipy.sparse, and it imports it itself:
    # the command line does not import it, and a cold solve in the same
    # process still runs
    argv = ["spectrum", "--mesh", "icosphere:1", "--count", "10",
            "--cache-dir", str(tmp_path)]
    out = _fresh_python(
        "import sys, weylcount.cli; "
        "print('scipy.sparse' in sys.modules); "
        f"code = weylcount.cli.main({argv!r}); "
        "print(code, 'scipy.sparse' in sys.modules)")
    lines = out.splitlines()
    assert lines[0] == "False"
    assert lines[1].startswith("10 modes, top lambda = ")
    assert lines[-1] == "0 True"


def test_lb_spectrum_import_leaves_the_surface_out():
    # lb_spectrum names mesh specs by duck typing, and semiclassical_count
    # takes its vertex orbits from lb_spectrum: both are handed surfaces
    # and fields, so importing the surface package there would only load
    # modules neither calls
    assert _fresh_python(
        "import sys, weylcount.lb_spectrum, weylcount.semiclassical_count; "
        "print(sorted(name for name in sys.modules "
        "if name.startswith('weylcount.')))") == (
        "['weylcount.errors', 'weylcount.lb_spectrum', "
        "'weylcount.semiclassical_count']\n")


def _scipy_after(runs, cwd):
    """Lines from a new interpreter: the scipy modules it holds after
    importing the command line, then after each ``main(argv)`` of ``runs``
    in turn, that run's exit code and the scipy modules held, each list
    as 'name name ...'.  Each run's stdout is dropped."""
    out = _fresh_python(
        "import contextlib, io, os, sys, weylcount.cli\n"
        f"os.chdir({str(cwd)!r})\n"
        "def held():\n"
        "    return ' '.join(sorted(name for name in sys.modules\n"
        "                           if name.split('.')[0] == 'scipy'))\n"
        "print(held())\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = weylcount.cli.main(argv)\n"
        "    print(code, held())\n")
    return out.splitlines()


def test_numpy_only_commands_load_no_scipy(tmp_path):
    # integrals read a stored Gauss-Legendre rule, and scipy.linalg is
    # imported only where a dense count, an eigenvalue listing or a solve
    # runs: importing the command line, symbol checks, Weyl coefficients,
    # regions, the exact spectrum and exact-sphere scans and counts,
    # constant and affine, load no scipy module at all
    runs = [["verify-symbols", "--samples", "20"],
            ["weyl", "--gamma", "affine:2,0.5,x"],
            ["scan", "--gamma", "2.0", "--output", "constant"],
            ["scan", "--gamma", "affine:2,0.5,z", "--r-min", "12",
             "--r-max", "48", "--output", "affine"],
            ["count", "--gamma", "affine:2,0.5,x", "--r", "10"],
            ["regions", "--bound", "2.0"],
            ["spectrum", "--exact", "--max-degree", "10"]]
    assert _scipy_after(runs, tmp_path) == [""] + ["0 "] * len(runs)
    assert (tmp_path / "affine" / "report.csv").exists()


def test_warm_mesh_scan_loads_scipy_linalg_only(tmp_path):
    # a cache hit solves nothing, so it needs neither scipy.sparse nor,
    # since integrals read a stored rule, scipy.special; its dense class
    # blocks are factored by LAPACK from scipy.linalg
    argv = ["scan", "--gamma", "affine:2,0.5,x", "--mesh", "icosphere:1",
            "--modes", "30", "--r-min", "0.3", "--r-max", "0.6", "--steps",
            "3", "--cache-dir", "cache", "--output", "out"]
    cold, warm = (_scipy_after([argv], tmp_path)[1].split()
                  for _ in range(2))
    assert cold[0] == warm[0] == "0"
    assert "scipy.sparse" in cold and "scipy.linalg" in warm
    assert not any(name.startswith(("scipy.special", "scipy.sparse"))
                   for name in warm)


def test_cold_scan_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    # a cold solve's last bits, its .wlb bytes and its residual may change
    # with the BLAS thread count, which the cache key does not name; the
    # counts of a cold mesh scan must not
    reports = []
    for threads in ("1", "2"):
        output = tmp_path / threads
        argv = ["scan", "--gamma", "affine:2,0.5,x", "--mesh", "icosphere:4",
                "--modes", "400", "--r-min", "1", "--r-max", "4.9",
                "--steps", "40", "--output", str(output)]
        _fresh_python("import sys; from weylcount.cli import main; "
                      f"sys.exit(main({argv!r}))",
                      OPENBLAS_NUM_THREADS=threads)
        reports.append((output / "report.csv").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("level", [MAX_ICOSPHERE_LEVEL + 1, 20])
@pytest.mark.parametrize("argv", [
    ("spectrum", "--count", "10"), ("scan", "--modes", "10"),
    ("count", "--modes", "10", "--r", "2")],
    ids=["spectrum", "scan", "count"])
def test_icosphere_level_above_the_cap_is_refused(capsys, tmp_path,
                                                  monkeypatch, argv, level):
    # the level is judged before the mesh is named or the cache is read,
    # so nothing the size of the level is ever allocated
    def forbidden(*args, **kwargs):
        raise AssertionError("an icosphere above the cap was looked up")

    monkeypatch.setattr(mesh_module, "icosphere", forbidden)
    # the command line looks the generator up through the mesh module; any
    # binding of its own is barred too
    monkeypatch.setattr(cli, "icosphere", forbidden, raising=False)
    monkeypatch.setattr(cli, "cached_mesh_spectrum", forbidden)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--mesh", "icosphere:%d" % level,
                         "--cache-dir", "cache")
    assert code == 2
    assert out == ""
    assert err == "error: icosphere level %d is above the cap of %d\n" % (
        level, MAX_ICOSPHERE_LEVEL)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mesh", ["icosphere:3", "ico3.off"])
@pytest.mark.parametrize("argv", [
    ("scan", "--gamma", "affine:2,0.5,x", "--modes", "100", "--r-min", "1",
     "--r-max", "1.5", "--output", "out"),
    ("count", "--gamma", "affine:2,0.5,x", "--modes", "100", "--r", "1.3"),
    ("spectrum", "--count", "100")], ids=["scan", "count", "spectrum"])
def test_warm_mesh_hit_builds_nothing(capsys, tmp_path, monkeypatch, argv,
                                      mesh):
    # the cache is keyed by the mesh spec's identity, so a hit needs no
    # mesh, and it reports what the cold run reported
    monkeypatch.chdir(tmp_path)
    write_off(icosphere(3), "ico3.off")
    runs = []
    for warm in (False, True):
        if warm:
            _forbid_mesh_builds(monkeypatch)
        code, out, err = run(capsys, *argv, "--mesh", mesh,
                             "--cache-dir", "cache")
        assert (code, err) == (0, "")
        reports = [(tmp_path / "out" / name).read_bytes()
                   for name in ("report.csv", "report.json")
                   if argv[0] == "scan"]
        runs.append((out, reports))
    (cold, cold_reports), (warm, warm_reports) = runs
    assert "cache hit" not in cold
    assert warm_reports == cold_reports
    unmarked = warm.replace("spectrum cache hit\n", "").replace(
        " (cache hit)", "")
    assert unmarked == cold
    assert (unmarked != warm) == (argv[0] != "count")
    assert len(list((tmp_path / "cache").iterdir())) == 1


def test_icosphere_specs_of_one_level_share_an_entry(capsys, tmp_path):
    cache = tmp_path / "cache"
    hits = []
    for spec in ("icosphere:2", "icosphere:02", " icosphere:2 "):
        code, out, _ = run(capsys, "spectrum", "--mesh", spec, "--count",
                           "20", "--cache-dir", str(cache))
        assert code == 0
        hits.append("(cache hit)" in out)
    assert hits == [False, True, True]
    assert [path.suffix for path in cache.iterdir()] == [".wlb"]


def test_off_file_of_other_bytes_is_a_miss(capsys, tmp_path):
    # an OFF file is named by the sha256 of its bytes, so one changed digit
    # is another entry, even where it parses to the same coordinates
    path = tmp_path / "ico2.off"
    write_off(icosphere(2), path)
    argv = ("spectrum", "--mesh", str(path), "--count", "20",
            "--cache-dir", str(tmp_path / "cache"))
    hits = []
    for edit in (False, False, True, False):
        if edit:
            lines = path.read_text().splitlines()
            first = lines[2].split()
            first[0] = first[0][:-1] + ("1" if first[0][-1] != "1" else "2")
            lines[2] = " ".join(first)
            path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        hits.append("(cache hit)" in out)
    assert hits == [False, True, False, True]
    assert len(list((tmp_path / "cache").iterdir())) == 2


def test_bad_icosphere_level(capsys):
    for spec in ("icosphere:x", "icosphere:-1"):
        code, _, err = run(capsys, "spectrum", "--mesh", spec, "--count", "10")
        assert code == 64
        assert repr(spec) in err


@pytest.fixture(scope="module")
def icosphere3_entry(tmp_path_factory):
    """(name, bytes) of the cache entry of icosphere:3 with 100 modes."""
    cache = tmp_path_factory.mktemp("icosphere3") / "cache"
    assert main(["spectrum", "--mesh", "icosphere:3", "--count", "100",
                 "--cache-dir", str(cache)]) == 0
    path, = cache.iterdir()
    return path.name, path.read_bytes()


def _damaged(blob, damage):
    """The WLB1 version 3 container ``blob`` with one damage done to it."""
    buf = bytearray(blob)
    k, p, q = struct.unpack_from("<QQQ", buf, 8)
    nodes = np.frombuffer(buf, "<f8", 3 * p, 88 + 8 * (k + p))
    reflections = np.frombuffer(buf, "<i8", q * p,
                                len(buf) - 8 * q * p).reshape(q, p)
    if damage == "vertex-less":  # the eigenvalues alone, p = q = 0
        return (bytes(buf[:16]) + struct.pack("<QQ", 0, 0)
                + bytes(buf[32:88 + 8 * k]))
    if damage == "identity-row":
        reflections[0] = np.arange(p)
    elif damage == "far-index":
        reflections[0, 5] = 10 ** 6
    elif damage == "nan-node":
        nodes[0] = np.nan
    return bytes(buf)


@pytest.mark.parametrize("damage", [
    "untouched", "vertex-less", "identity-row", "far-index", "nan-node"])
@pytest.mark.parametrize("argv", [
    ("scan", "--r-min", "1", "--r-max", "2", "--steps", "3", "--output",
     "out"),
    ("count", "--r", "2")], ids=["scan", "count"])
def test_damaged_mesh_cache_hit_is_a_resource_failure(
        capsys, tmp_path, monkeypatch, icosphere3_entry, argv, damage):
    # at the parent a vertex-less entry raised a TypeError, an identity
    # reflection row counted N(2) = 16 instead of 15 and exited 0, a far
    # index raised an IndexError and a NaN node wrote all-zero counts and
    # exited 3; a hit now checks its tables and refuses each with exit 2
    monkeypatch.chdir(tmp_path)
    name, blob = icosphere3_entry
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / name).write_bytes(_damaged(blob, damage))
    code, out, err = run(capsys, *argv, "--gamma", "affine:2,0.5,x",
                         "--mesh", "icosphere:3", "--modes", "100",
                         "--cache-dir", "cache")
    if damage == "untouched":
        assert (code, err) == (0, "")
        assert "cache hit" in out or argv[0] == "count"
        return
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cache container" in err
    assert not (tmp_path / "out").exists()
