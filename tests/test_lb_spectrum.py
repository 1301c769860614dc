"""Tests for the Laplace-Beltrami spectrum sources and the disk cache."""

import copy
import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest
from scipy.linalg import eigvalsh
from scipy.special import roots_legendre

from weylcount import lb_spectrum
from weylcount.errors import (
    CacheError,
    InsufficientSpectrumError,
    UsageError,
)
from weylcount.lb_spectrum import (
    SOLVER_SEED,
    assemble_fem,
    cache_key,
    cache_load,
    cache_store,
    cached_mesh_spectrum,
    exact_sphere_spectrum,
    normalized_legendre_block,
    solve_lowest,
    sphere_degree_for,
)
from weylcount.semiclassical_count import build_operator, scan
from weylcount.surface import (
    AnalyticSurface,
    DampingField,
    SurfaceMesh,
    icosphere,
)


@pytest.fixture(scope="module")
def level4_basis():
    return solve_lowest(assemble_fem(icosphere(4)), 140, tol=1e-8)


# ----------------------------------------------------------------------
# exact sphere spectrum
# ----------------------------------------------------------------------

def test_exact_sphere_small_degrees():
    assert exact_sphere_spectrum(0).eigenvalues.tolist() == [0.0]
    assert exact_sphere_spectrum(1).eigenvalues.tolist() == [0.0, 2.0, 2.0, 2.0]
    two = exact_sphere_spectrum(2).eigenvalues
    assert len(two) == 9
    assert two[-5:].tolist() == [6.0] * 5


def test_exact_sphere_degrees_and_orders():
    # closed-form layout: degree n holds columns n^2..n^2+2n, order m sits
    # at column n^2+n+m, and a column's degree follows from its eigenvalue
    basis = exact_sphere_spectrum(5)
    assert basis.mode_count == 36
    for n in range(6):
        for m in range(-n, n + 1):
            assert basis.eigenvalues[n * n + n + m] == n * (n + 1)
    # degree-major, 2n + 1 orders per degree
    for top in range(5):
        basis = exact_sphere_spectrum(top)
        layout = [n for n in range(top + 1) for m in range(-n, n + 1)]
        assert [sphere_degree_for(lam) for lam in basis.eigenvalues] == layout
    # the degree is recovered exactly far beyond the degrees counted
    each = np.arange(2001)
    assert [sphere_degree_for(lam) for lam in each * (each + 1.0)] \
        == each.tolist()


def test_sphere_degree_for():
    assert sphere_degree_for(0.0) == 0
    assert sphere_degree_for(2.0) == 1
    assert sphere_degree_for(108.0) == 10
    assert sphere_degree_for(110.0) == 10
    assert sphere_degree_for(110.1) == 11


def test_tabulated_modes_orthonormal():
    basis = exact_sphere_spectrum(12)
    assert abs(basis.mass.sum() - 4.0 * np.pi) < 1e-12
    gram = (basis.modes * basis.mass[:, None]).T @ basis.modes
    assert np.max(np.abs(gram - np.eye(basis.mode_count))) < 1e-12
    # nodes live on the unit sphere
    assert np.max(np.abs(np.linalg.norm(basis.nodes, axis=-1) - 1.0)) < 1e-12


def test_tabulated_axis_moments_match_closed_form():
    # <Y_{n,m}, z Y_{n+1,m}> has a closed form; the tabulated grid must
    # reproduce it since the integrand is polynomial within quadrature reach.
    basis = exact_sphere_spectrum(6)
    z = basis.nodes[:, 2]
    moments = (basis.modes * (basis.mass * z)[:, None]).T @ basis.modes
    for n in range(6):
        for m in range(-n, n + 1):
            i, j = n * n + n + m, (n + 1) * (n + 2) + m
            assert sphere_degree_for(basis.eigenvalues[j]) == n + 1
            c = np.sqrt(((n + 1.0) ** 2 - m * m)
                        / ((2.0 * n + 1.0) * (2.0 * n + 3.0)))
            assert abs(moments[i, j] - c) < 1e-12
    # all diagonal entries vanish: z is odd
    assert np.max(np.abs(np.diag(moments))) < 1e-12


def reference_tabulation(max_degree):
    """The tabulation formula, one harmonic column at a time: Gauss-Legendre
    in z on max_degree + 3 nodes times 2 max_degree + 3 longitudes."""
    nt, nphi = max_degree + 3, 2 * max_degree + 3
    t, wt = roots_legendre(nt)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    nodes = np.stack([np.outer(sin_theta, np.cos(phi)).ravel(),
                      np.outer(sin_theta, np.sin(phi)).ravel(),
                      np.outer(t, np.ones_like(phi)).ravel()], axis=-1)
    mass = np.outer(wt, np.full(nphi, 2.0 * np.pi / nphi)).ravel()
    modes = np.empty((nt * nphi, (max_degree + 1) ** 2))
    for m in range(max_degree + 1):
        block = normalized_legendre_block(m, max_degree, t)
        for row, n in enumerate(range(m, max_degree + 1)):
            if m == 0:
                modes[:, n * n + n] = np.outer(
                    block[row] / np.sqrt(2.0 * np.pi),
                    np.ones_like(phi)).ravel()
            else:
                modes[:, n * n + n - m] = np.outer(
                    block[row] / np.sqrt(np.pi), np.sin(m * phi)).ravel()
                modes[:, n * n + n + m] = np.outer(
                    block[row] / np.sqrt(np.pi), np.cos(m * phi)).ravel()
    return nodes, mass, modes


def test_exact_sphere_tabulates_once_and_counting_only_reads_it(monkeypatch):
    for degree in (6, 12, 20):
        basis = exact_sphere_spectrum(degree)
        for name, frozen in zip(("nodes", "mass", "modes"),
                                reference_tabulation(degree)):
            assert np.array_equal(getattr(basis, name), frozen)

    calls = []
    tabulate = lb_spectrum._tabulate_sphere_modes

    def counted(max_degree):
        calls.append(max_degree)
        return tabulate(max_degree)

    monkeypatch.setattr(lb_spectrum, "_tabulate_sphere_modes", counted)
    sphere = AnalyticSurface.unit_sphere()
    field = DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0))
    basis = exact_sphere_spectrum(20)
    held = {item.name: getattr(basis, item.name)
            for item in dataclasses.fields(basis) if item.name != "quadrature"}
    frozen = copy.deepcopy(held)
    scan(sphere, field, [3.0, 4.0, 5.0], basis)
    for r in (3.0, 4.5, 5.0):
        build_operator(basis, field, 1.0 / r, surface=sphere)
    assert calls == [20]
    for name, value in held.items():
        assert getattr(basis, name) is value
        assert np.array_equal(value, frozen[name])


# ----------------------------------------------------------------------
# normalized Legendre recurrence
# ----------------------------------------------------------------------

def test_normalized_legendre_orthonormal():
    t, w = roots_legendre(40)
    for m in (0, 1, 3, 7):
        q = normalized_legendre_block(m, 15, t)
        gram = (q * w) @ q.T
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-13


# ----------------------------------------------------------------------
# finite element assembly
# ----------------------------------------------------------------------

def test_fem_constants_in_kernel():
    pencil = assemble_fem(icosphere(2))
    ones = np.ones(pencil.stiffness.shape[0])
    assert np.max(np.abs(pencil.stiffness @ ones)) < 1e-10
    rows = np.abs(np.asarray(pencil.stiffness.sum(axis=1))).max()
    assert rows < 1e-10


def test_fem_stiffness_psd_and_symmetric():
    pencil = assemble_fem(icosphere(1))
    dense = pencil.stiffness.toarray()
    assert np.max(np.abs(dense - dense.T)) < 1e-13
    assert eigvalsh(dense)[0] > -1e-10


def test_fem_mass_trace_is_area():
    mesh = icosphere(4)
    pencil = assemble_fem(mesh)
    assert abs(pencil.mass.sum() - mesh.area) < 1e-12
    assert abs(pencil.mass.sum() - 4.0 * np.pi) < 0.005 * 4.0 * np.pi
    assert np.all(pencil.mass > 0.0)


def test_fem_degree_one_eigenvalues(level4_basis):
    assert np.max(np.abs(level4_basis.eigenvalues[1:4] - 2.0)) < 0.01 * 2.0


# ----------------------------------------------------------------------
# eigensolver
# ----------------------------------------------------------------------

def test_solve_lowest_level3_head():
    basis = solve_lowest(assemble_fem(icosphere(3)), 4, tol=1e-8)
    assert basis.eigenvalues[0] <= 1e-8
    assert np.max(np.abs(basis.eigenvalues[1:] - 2.0)) < 0.01 * 2.0


def test_solve_single_mode():
    basis = solve_lowest(assemble_fem(icosphere(1)), 1, tol=1e-8)
    assert basis.eigenvalues.shape == (1,)
    assert basis.eigenvalues[0] <= 1e-8


def test_solver_invariants(level4_basis):
    lam = level4_basis.eigenvalues
    assert lam[0] <= 1e-8
    assert np.all(np.diff(lam) >= 0.0)
    gram = (level4_basis.modes * level4_basis.mass[:, None]).T @ level4_basis.modes
    assert np.max(np.abs(gram - np.eye(level4_basis.mode_count))) < 1e-8
    assert level4_basis.residual <= 1e-8


def test_solver_deterministic():
    pencil = assemble_fem(icosphere(2))
    a = solve_lowest(pencil, 20, tol=1e-8)
    b = solve_lowest(pencil, 20, tol=1e-8)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.modes, b.modes)


def test_dense_and_sparse_paths_agree():
    pencil = assemble_fem(icosphere(2))  # 162 vertices
    sparse_path = solve_lowest(pencil, 20, tol=1e-8)   # 20 <= 162 // 4
    dense_path = solve_lowest(pencil, 60, tol=1e-8)    # 60 > 162 // 4
    assert np.max(np.abs(sparse_path.eigenvalues
                         - dense_path.eigenvalues[:20])) < 1e-9


def test_solver_rejects_bad_requests():
    pencil = assemble_fem(icosphere(0))
    with pytest.raises(InsufficientSpectrumError):
        solve_lowest(pencil, 13, tol=1e-8)
    with pytest.raises(InsufficientSpectrumError):
        solve_lowest(pencil, 0, tol=1e-8)
    with pytest.raises(UsageError):
        solve_lowest(pencil, 4, tol=1e-3)
    with pytest.raises(UsageError):
        solve_lowest(pencil, 4, tol=0.0)


def test_level4_frequencies_match_exact_sphere(level4_basis):
    # Degrees up to 10 (121 modes): sqrt-eigenvalue agreement within 2%.
    # On the raw eigenvalue scale the level-4 discretization error reaches
    # about 3.9% at degree 10, so frequencies are the meaningful comparison.
    exact = exact_sphere_spectrum(10).eigenvalues
    fem = level4_basis.eigenvalues[1:121]
    rel = np.abs(np.sqrt(fem) - np.sqrt(exact[1:])) / np.sqrt(exact[1:])
    assert np.max(rel) < 0.02


def test_fem_second_order_convergence():
    exact = exact_sphere_spectrum(5).eigenvalues
    errs = []
    for level in (3, 4):
        lam = solve_lowest(assemble_fem(icosphere(level)), 36, tol=1e-8).eigenvalues
        errs.append(np.max(np.abs(lam[1:] - exact[1:]) / exact[1:]))
    assert errs[0] / errs[1] > 3.0


def test_weyl_density_sanity(level4_basis):
    L = level4_basis.trusted_horizon / 2.0
    ratio = np.sum(level4_basis.eigenvalues <= L) / L \
        * 4.0 * np.pi / level4_basis.area
    assert abs(ratio - 1.0) < 0.10


def test_trusted_horizon_formula(level4_basis):
    expected = 0.05 * icosphere(4).vertex_count * 4.0 * np.pi / level4_basis.area
    assert level4_basis.trusted_horizon == pytest.approx(
        min(expected, level4_basis.top))


def test_require_top_names_mode_count():
    basis = exact_sphere_spectrum(5)
    basis.require_top(29.99)  # resolved: top is 30
    with pytest.raises(InsufficientSpectrumError) as err:
        basis.require_top(108.0, context="count at r=6")
    assert "121" in str(err.value)


# ----------------------------------------------------------------------
# disk cache
# ----------------------------------------------------------------------

def test_cache_round_trip_bit_exact(tmp_path):
    directory = str(tmp_path)
    mesh = icosphere(2)
    basis, hit = cached_mesh_spectrum(mesh, 20, tol=1e-8, directory=directory)
    assert not hit
    again, hit2 = cached_mesh_spectrum(mesh, 20, tol=1e-8, directory=directory)
    assert hit2
    assert np.array_equal(basis.eigenvalues, again.eigenvalues)
    assert np.array_equal(basis.modes, again.modes)
    assert np.array_equal(basis.mass, again.mass)
    assert again.source == "mesh-fem"
    assert again.trusted_horizon == basis.trusted_horizon


def test_cache_miss_on_perturbed_mesh(tmp_path):
    directory = str(tmp_path)
    mesh = icosphere(2)
    cached_mesh_spectrum(mesh, 12, tol=1e-8, directory=directory)
    vertices = mesh.vertices.copy()
    vertices[0] += 1e-3
    perturbed = SurfaceMesh(vertices, mesh.triangles)
    _, hit = cached_mesh_spectrum(perturbed, 12, tol=1e-8, directory=directory)
    assert not hit


def test_cache_absent_key_is_miss(tmp_path):
    assert cache_load(str(tmp_path), "0" * 32) is None


def test_cache_version_mismatch_is_miss(tmp_path):
    directory = str(tmp_path)
    mesh = icosphere(1)
    basis, _ = cached_mesh_spectrum(mesh, 6, tol=1e-8, directory=directory)
    key = cache_key(mesh.content_hash(), 6, 1e-8, SOLVER_SEED)
    sidecar_path = os.path.join(directory, key + ".json")
    with open(sidecar_path, encoding="utf-8") as handle:
        sidecar = json.load(handle)
    sidecar["version"] = 99
    with open(sidecar_path, "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle)
    assert cache_load(directory, key) is None


def test_cache_corrupt_container_raises(tmp_path):
    directory = str(tmp_path)
    mesh = icosphere(1)
    cached_mesh_spectrum(mesh, 6, tol=1e-8, directory=directory)
    key = cache_key(mesh.content_hash(), 6, 1e-8, SOLVER_SEED)
    bin_path = os.path.join(directory, key + ".wlb")
    blob = pathlib.Path(bin_path).read_bytes()
    with open(bin_path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
    with pytest.raises(CacheError):
        cache_load(directory, key)
    with open(bin_path, "wb") as handle:
        handle.write(b"NOPE" + blob[4:])
    with pytest.raises(CacheError):
        cache_load(directory, key)


def test_cache_key_depends_on_inputs():
    keys = {
        cache_key("abc", 10, 1e-8, 1),
        cache_key("abd", 10, 1e-8, 1),
        cache_key("abc", 11, 1e-8, 1),
        cache_key("abc", 10, 1e-7, 1),
        cache_key("abc", 10, 1e-8, 2),
    }
    assert len(keys) == 5


def test_cache_hit_needs_the_same_solver_seed(tmp_path):
    directory = str(tmp_path)
    mesh = icosphere(1)
    first, hit = cached_mesh_spectrum(mesh, 6, directory=directory, seed=1)
    assert not hit
    _, hit = cached_mesh_spectrum(mesh, 6, directory=directory, seed=2)
    assert not hit
    again, hit = cached_mesh_spectrum(mesh, 6, directory=directory, seed=1)
    assert hit
    assert np.array_equal(again.eigenvalues, first.eigenvalues)
