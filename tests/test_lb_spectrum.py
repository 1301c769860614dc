"""Tests for the Laplace-Beltrami spectrum sources and the disk cache."""

import dataclasses
import errno
import hashlib
import os
import pathlib
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh
from scipy.special import roots_legendre

from weylcount.errors import (
    CacheError,
    InsufficientSpectrumError,
    SolverError,
    UsageError,
)
from weylcount.lb_spectrum import (
    CACHE_MAGIC,
    CACHE_VERSION,
    SOLVER_SEED,
    SOLVER_TOL,
    Quadrature,
    SpectralBasis,
    assemble_fem,
    cache_key,
    cache_load,
    cache_store,
    cached_mesh_spectrum,
    clusters_of,
    exact_sphere_spectrum,
    solve_lowest,
    sphere_degree_for,
)
from weylcount import lb_spectrum
from weylcount.lb_spectrum import _class_bases, _column_blocks, _reflections
from weylcount.semiclassical_count import _damping_gram, build_operator
from weylcount.surface import (
    AnalyticSurface,
    DampingField,
    SurfaceMesh,
    icosphere,
)
from weylcount.surface.mesh import MeshSpec

from sphere_reference import per_order_legendre

DATA = pathlib.Path(__file__).parent / "data"


def rotated(mesh):
    """The mesh turned by a rotation that maps no coordinate axis onto
    another, so no coordinate reflection maps it onto itself."""
    c, s = np.cos(0.3), np.sin(0.3)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    c, s = np.cos(0.7), np.sin(0.7)
    turn = turn @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return SurfaceMesh(mesh.vertices @ turn.T, mesh.triangles)


def counted_eigsh(monkeypatch):
    """Patch the Lanczos solver to record each call's size; returns the
    list of (rows, k)."""
    calls = []
    eigsh = spla.eigsh

    def counted(matrix, k, **kwargs):
        calls.append((matrix.shape[0], k))
        return eigsh(matrix, k=k, **kwargs)

    # the solver imports scipy.sparse.linalg where it solves, and looks the
    # function up there on each call
    monkeypatch.setattr(spla, "eigsh", counted)
    return calls


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
    # cluster n is degree n
    each = np.arange(6)
    assert basis.values.tolist() == (each * (each + 1)).tolist()
    assert basis.multiplicities.tolist() == (2 * each + 1).tolist()
    assert basis.ends.tolist() == ((each + 1) ** 2).tolist()
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


def test_exact_sphere_is_stored_in_linear_memory():
    degree = 10 ** 5
    basis = exact_sphere_spectrum(degree)
    assert basis.mode_count == (degree + 1) ** 2
    assert basis.top == basis.trusted_horizon == degree * (degree + 1.0)
    stored = [value for value in vars(basis).values()
              if isinstance(value, np.ndarray)]
    assert sum(array.nbytes for array in stored) <= 24 * (degree + 1)
    assert basis.quadrature is None  # nothing tabulated either
    assert basis.leading(10).tolist() == [0.0] + [2.0] * 3 + [6.0] * 5 \
        + [12.0]


def test_clusters_must_ascend_with_positive_multiplicities():
    for values, multiplicities in (([0.0, 2.0, 2.0], [1, 3, 5]),
                                   ([0.0, 6.0, 2.0], [1, 3, 5]),
                                   ([0.0, 2.0], [1, 0]),
                                   ([0.0, 2.0], [1, 3, 5]),
                                   ([], [])):
        with pytest.raises(SolverError):
            SpectralBasis(values, multiplicities, source="test", area=1.0,
                          trusted_horizon=1.0)
    # out-of-order modes give out-of-order clusters, which the basis refuses
    with pytest.raises(SolverError):
        SpectralBasis(*clusters_of([0.0, 2.0, 2.0, 1.0]), source="test",
                      area=1.0, trusted_horizon=1.0)


def test_sphere_degree_for():
    assert sphere_degree_for(0.0) == 0
    assert sphere_degree_for(2.0) == 1
    assert sphere_degree_for(108.0) == 10
    assert sphere_degree_for(110.0) == 10
    assert sphere_degree_for(110.1) == 11


# ----------------------------------------------------------------------
# normalized Legendre recurrence
# ----------------------------------------------------------------------

def test_normalized_legendre_orthonormal():
    # the test reference's recurrence, one order at a time
    t, w = roots_legendre(40)
    for m in (0, 1, 3, 7):
        q = per_order_legendre(m, 15, t)
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


def test_fem_clusters_keep_the_per_mode_cuts(level4_basis):
    # plant exact repeats: each sphere degree's FEM eigenvalues take the
    # value of its lowest, so the basis has the exact sphere's multiplicities
    lam = level4_basis.eigenvalues
    each = np.arange(11)
    starts = each * each
    planted = np.repeat(lam[starts], 2 * each + 1)
    values, multiplicities = clusters_of(planted)
    assert multiplicities.tolist() == (2 * each + 1).tolist()
    basis = SpectralBasis(values, multiplicities, source="mesh-fem",
                          area=level4_basis.area,
                          trusted_horizon=level4_basis.trusted_horizon,
                          quadrature=level4_basis.quadrature)
    assert np.array_equal(basis.eigenvalues, planted)
    # the cut of the per-mode eigenvalues: the first mode at or above twice
    # the ellipticity threshold, extended to the end of its cluster
    sphere = AnalyticSurface.unit_sphere()
    for field in (DampingField.constant(2.0),
                  DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0))):
        c1 = field.effective_range(sphere)[1]
        for r in np.linspace(1.0, 2.4, 15):
            need = 2.0 * (c1 * c1 - 1.0) * r * r
            first = np.searchsorted(planted, min(need, planted[-1]))
            cut = np.searchsorted(planted, planted[first], side="right")
            op = build_operator(basis, field, 1.0 / r, surface=sphere)
            assert op.mode_cut == cut
            if field.kind == "constant":
                assert np.array_equal(
                    op.eigenvalues(),
                    np.sqrt(1.0 + (1.0 / r) ** 2 * planted[:cut]) - 2.0)


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


def test_dense_and_sparse_paths_agree_without_reflections(monkeypatch):
    # every class of icosphere(2) is small enough for the dense solve, so a
    # rotated copy, one class, keeps the Lanczos branch covered
    calls = counted_eigsh(monkeypatch)
    solve_lowest(assemble_fem(icosphere(2)), 20, tol=1e-8)
    assert calls == []
    pencil = assemble_fem(rotated(icosphere(2)))  # 162 vertices
    assert _reflections(*pencil) == []
    sparse_path = solve_lowest(pencil, 20, tol=1e-8)   # 20 <= 162 // 4
    assert calls == [(162, 20)]
    dense_path = solve_lowest(pencil, 60, tol=1e-8)    # 60 > 162 // 4
    assert calls == [(162, 20)]
    assert np.max(np.abs(sparse_path.eigenvalues
                         - dense_path.eigenvalues[:20])) < 1e-9


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_icosphere_splits_into_reflection_classes(level):
    # x -> -x, y -> -y and z -> -z each map an icosphere onto itself bit for
    # bit, so its pencil splits into the 8 characters of the group they
    # generate; no icosahedron vertex lies off all three coordinate planes,
    # so at level 0 the character odd under all three has no column
    mesh = icosphere(level)
    pencil = assemble_fem(mesh)
    n = mesh.vertex_count
    reflections = _reflections(*pencil)
    assert len(reflections) == 3
    for axis, perm in enumerate(reflections):
        mirrored = mesh.vertices[perm].copy()
        mirrored[:, axis] *= -1.0
        assert np.array_equal(mirrored, mesh.vertices)
    # vertices are matched by value: -0.0 has other bytes than 0.0 but
    # is the same point
    signed = np.where(mesh.vertices == 0.0, -0.0, mesh.vertices)
    assert np.signbit(signed[mesh.vertices == 0.0]).all()
    assert all(np.array_equal(p, q) for p, q in zip(
        _reflections(pencil.stiffness, pencil.mass, signed), reflections))
    characters, bases = zip(*_class_bases(reflections, n))
    # bit b of a character: its basis is odd under reflection b
    assert characters == tuple(range(7 if level == 0 else 8))
    for character, basis in zip(characters, bases):
        for bit, perm in enumerate(reflections):
            sign = -1.0 if character >> bit & 1 else 1.0
            assert (basis[perm] - sign * basis).count_nonzero() == 0
    assert sum(basis.shape[1] for basis in bases) == n
    if level > 2:
        return
    # together the classes are an orthonormal basis of vertex space in
    # which the stiffness is block diagonal and the mass diagonal
    whole = np.hstack([basis.toarray() for basis in bases])
    assert np.max(np.abs(whole.T @ whole - np.eye(n))) < 1e-15
    ends = np.cumsum([basis.shape[1] for basis in bases])
    block = np.searchsorted(ends, np.arange(n), side="right")
    stiffness = whole.T @ pencil.stiffness.toarray() @ whole
    scale = np.max(np.abs(stiffness))
    assert np.max(np.abs(stiffness[block[:, None] != block[None, :]])) \
        < 1e-14 * scale
    # within a class exactly: its columns have disjoint supports; between
    # classes to the mass's invariance under the reflections
    mass = whole.T @ (pencil.mass[:, None] * whole)
    assert np.max(np.abs(mass - np.diag(np.diag(mass)))) \
        < 1e-15 * np.max(pencil.mass)
    for basis in bases:
        product = (basis.T @ sp.diags(pencil.mass) @ basis).tocoo()
        assert np.array_equal(product.row, product.col)


def test_mesh_without_exact_reflections_is_one_class():
    mesh = icosphere(2)
    assert _reflections(*assemble_fem(rotated(mesh))) == []
    vertices = mesh.vertices.copy()
    vertices[0] += 1e-3
    nudged = SurfaceMesh(vertices, mesh.triangles)
    assert _reflections(*assemble_fem(nudged)) == []
    # two coincident copies: a repeated vertex has no unique mirror image
    n = mesh.vertex_count
    doubled = SurfaceMesh(np.vstack([mesh.vertices, mesh.vertices]),
                          np.vstack([mesh.triangles, mesh.triangles + n]))
    assert _reflections(*assemble_fem(doubled)) == []
    # mirror-symmetric vertices but one edge flipped: every reflection maps
    # the vertices onto themselves, and the pencil gates refuse each, since
    # the flipped edge joins two vertices off every coordinate plane
    triangles = mesh.triangles.copy()
    generic = np.all(mesh.vertices != 0.0, axis=1)
    for t, (a, b, c) in enumerate(triangles):
        if generic[b] and generic[c]:
            break
    rows, slots = np.nonzero((triangles == c) & np.isin(
        np.roll(triangles, -1, axis=1), [b]))
    other, slot = rows[0], slots[0]
    d = triangles[other, (slot + 2) % 3]
    triangles[t], triangles[other] = (a, b, d), (a, d, c)
    flipped = assemble_fem(SurfaceMesh(mesh.vertices, triangles))
    pencil = assemble_fem(mesh)
    assert abs(flipped.stiffness - pencil.stiffness).max() > 0.1
    assert _reflections(*flipped) == []
    # each gate on its own: the flipped stiffness with the symmetric mass,
    # and the symmetric stiffness with the flipped mass
    assert _reflections(flipped.stiffness, pencil.mass, mesh.vertices) == []
    assert _reflections(pencil.stiffness, flipped.mass, mesh.vertices) == []


def test_solved_modes_keep_their_reflections_and_parities():
    # bit b of a mode's parity says whether it is odd under reflection b,
    # bit for bit: the classes are solved apart, each mode is mapped back
    # from its own class's basis, and no step mixes the classes.  A mesh
    # without reflections keeps none, and every mode has parity 0
    mesh = icosphere(3)
    basis = solve_lowest(assemble_fem(mesh), 100, tol=1e-8)
    reflections = basis.quadrature.reflections
    parity = basis.quadrature.parity
    assert reflections.dtype == parity.dtype == np.int64
    assert np.array_equal(reflections, _reflections(*assemble_fem(mesh)))
    assert np.array_equal(np.unique(parity), np.arange(8))
    for bit, perm in enumerate(reflections):
        sign = np.where(parity >> bit & 1, -1.0, 1.0)
        assert np.array_equal(basis.modes[perm], sign * basis.modes)
    turned = solve_lowest(assemble_fem(rotated(mesh)), 20, tol=1e-8)
    assert turned.quadrature.reflections.shape == (0, mesh.vertex_count)
    assert np.array_equal(turned.quadrature.parity, np.zeros(20))


@pytest.mark.parametrize("level, count", [
    (2, 20), (2, 60), (3, 20), (3, 60), (3, 200), (4, 20), (4, 200)])
def test_mesh_without_reflections_is_the_whole_pencil_bit_for_bit(
        monkeypatch, level, count):
    # a mesh without reflections is the one trivial class, whose identity
    # basis gives the whole-pencil solve bit for bit: dense where count >
    # n // 4 (162, 642 and 2562 vertices), Lanczos otherwise
    calls = counted_eigsh(monkeypatch)
    pencil = assemble_fem(rotated(icosphere(level)))
    n = pencil.stiffness.shape[0]
    (character, identity), = _class_bases([], n)
    assert character == 0 and (identity != sp.identity(n)).nnz == 0
    solved = solve_lowest(pencil, count, tol=1e-8)
    assert len(calls) == (count <= n // 4)

    def whole_pencil(stiffness, mass, count, seed, classes):
        values, vectors = lb_spectrum._lowest_pairs(stiffness, mass, count,
                                                    seed)
        return values, vectors, np.zeros(count, dtype=np.int64)

    monkeypatch.setattr(lb_spectrum, "_lowest_by_class", whole_pencil)
    reference = solve_lowest(pencil, count, tol=1e-8)
    assert solved.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
    assert solved.modes.tobytes() == reference.modes.tobytes()
    assert solved.residual == reference.residual
    assert solved.quadrature.reflections.shape == (0, n)
    assert solved.quadrature.parity.dtype == np.int64
    assert not solved.quadrature.parity.any()


def test_reflected_and_rotated_solves_agree():
    # the icosphere is solved as 8 dense classes, its rotated copy as one
    # Lanczos pencil: the same spectrum, both mass-orthonormal and resolved
    mesh = icosphere(3)
    split = solve_lowest(assemble_fem(mesh), 100, tol=1e-8)
    whole = solve_lowest(assemble_fem(rotated(mesh)), 100, tol=1e-8)
    assert np.all(np.abs(split.eigenvalues - whole.eigenvalues)
                  <= 1e-9 * (1.0 + whole.eigenvalues))
    for basis in (split, whole):
        gram = (basis.modes * basis.mass[:, None]).T @ basis.modes
        assert np.max(np.abs(gram - np.eye(100))) < 1e-12
        assert basis.residual <= 1e-8


@pytest.mark.parametrize("level, count", [(3, 100), (4, 400)])
def test_icosphere_modes_do_not_depend_on_the_seed(monkeypatch, level,
                                                   count):
    # every reflection class is asked for more than a quarter of its
    # modes, so all are solved dense and no start vector is drawn
    calls = counted_eigsh(monkeypatch)
    pencil = assemble_fem(icosphere(level))
    one = solve_lowest(pencil, count, tol=1e-8, seed=1)
    two = solve_lowest(pencil, count, tol=1e-8, seed=2)
    assert calls == []
    assert one.eigenvalues.tobytes() == two.eigenvalues.tobytes()
    assert one.modes.tobytes() == two.modes.tobytes()


@pytest.mark.parametrize("turn, level, count", [
    (False, 3, 97), (False, 3, 200), (True, 2, 33)],
    ids=["8-classes-97", "8-classes-200", "one-class-33"])
def test_solver_residual_is_the_worst_over_the_whole_table(turn, level,
                                                           count):
    # the residual is checked a block of columns at a time; it must be the
    # worst ||K v - lambda M v|| / ||v|| / (1 + lambda) of the whole table
    mesh = icosphere(level)
    pencil = assemble_fem(rotated(mesh) if turn else mesh)
    basis = solve_lowest(pencil, count, tol=1e-8)
    lam, modes = basis.eigenvalues, basis.modes
    residuals = pencil.stiffness @ modes - modes * pencil.mass[:, None] * lam
    worst = np.max(np.linalg.norm(residuals, axis=0)
                   / np.linalg.norm(modes, axis=0) / (1.0 + lam))
    assert basis.residual == worst
    with pytest.raises(SolverError) as failed:
        solve_lowest(pencil, count, tol=1e-16)
    assert failed.value.residual == worst
    assert str(failed.value) == (f"eigenpair residual {worst:.3e} exceeds "
                                 "tolerance 1e-16")


def test_residual_blocks_give_the_whole_table_norms():
    # numpy sums the column norms of a block of two or more columns row by
    # row, as for the whole table, but a single column's pairwise, so no
    # block may be one lone column unless the table is
    width = lb_spectrum.RESIDUAL_BLOCK
    table = np.random.default_rng(7).standard_normal((642, 3 * width + 1))
    for count in (1, 2, width - 1, width, width + 1, 2 * width + 1,
                  3 * width + 1):
        blocks = list(_column_blocks(count))
        assert blocks[0][0] == 0 and blocks[-1][1] == count
        assert all(stop == start for (_, stop), (start, _)
                   in zip(blocks, blocks[1:]))
        assert all(min(2, count) <= stop - start <= width
                   for start, stop in blocks)
        whole = np.linalg.norm(table[:, :count], axis=0)
        blocked = np.concatenate([np.linalg.norm(table[:, start:stop], axis=0)
                                  for start, stop in blocks])
        assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("turn, level, count", [
    (False, 3, 200), (False, 2, 20), (True, 2, 60), (True, 3, 20)],
    ids=["8-classes-200", "8-classes-20", "one-class-60", "one-class-20"])
def test_merged_class_solves_are_the_basis_modes(monkeypatch, turn, level,
                                                 count):
    # the C-ordered table the class solves merge into becomes the basis's
    # modes as it is, with the clamped eigenvalues: each class solve
    # returns mass-orthonormal modes, and the classes are exactly separate
    merged = []
    by_class = lb_spectrum._lowest_by_class

    def captured(*args):
        values, vectors, parity = by_class(*args)
        merged.append((values.copy(), vectors, vectors.copy()))
        return values, vectors, parity

    monkeypatch.setattr(lb_spectrum, "_lowest_by_class", captured)
    mesh = icosphere(level)
    pencil = assemble_fem(rotated(mesh) if turn else mesh)
    basis = solve_lowest(pencil, count, tol=1e-8)
    (values, solved, vectors), = merged
    assert solved.flags["C_CONTIGUOUS"]
    assert np.shares_memory(basis.modes, solved)
    assert basis.modes.tobytes() == vectors.tobytes()
    assert basis.eigenvalues.tobytes() == np.maximum(values, 0.0).tobytes()
    gram = (basis.modes * pencil.mass[:, None]).T @ basis.modes
    assert np.max(np.abs(gram - np.eye(count))) <= 1e-12


def untrimmed_merge(stiffness, mass, count, seed, classes):
    """The class merge that keeps every class's whole block until the
    merged table is filled: the reference for the trimmed merge."""
    characters, bases = zip(*classes)
    solved = [lb_spectrum._lowest_pairs(
        basis.T @ stiffness @ basis, basis.multiply(basis).T @ mass,
        min(count, basis.shape[1]), seed) for basis in bases]
    sizes = [len(values) for values, _ in solved]
    owner = np.repeat(np.arange(len(bases)), sizes)
    start = np.cumsum([0] + sizes)
    values = np.concatenate([values for values, _ in solved])
    order = np.argsort(values, kind="stable")[:count]
    vectors = np.empty((stiffness.shape[0], count))
    for c, basis in enumerate(bases):
        picked = np.flatnonzero(owner[order] == c)
        vectors[:, picked] = basis @ solved[c][1][:, order[picked] - start[c]]
    return values[order], vectors, np.array(characters)[owner[order]]


def assert_merges_agree(stiffness, mass, count, classes):
    trimmed = lb_spectrum._lowest_by_class(stiffness, mass, count,
                                           SOLVER_SEED, classes)
    reference = untrimmed_merge(stiffness, mass, count, SOLVER_SEED, classes)
    for array, expected in zip(trimmed, reference):
        assert array.dtype == expected.dtype
        assert array.shape == expected.shape
        assert array.tobytes() == expected.tobytes()
    return trimmed


@pytest.mark.parametrize("turn, level, count, lanczos", [
    (False, 2, 60, False), (False, 3, 200, False), (False, 4, 40, True),
    (True, 3, 40, True)],
    ids=["8-dense-60", "8-dense-200", "8-lanczos-40", "one-lanczos-40"])
def test_trimmed_class_merge_is_the_untrimmed_one(monkeypatch, turn, level,
                                                  count, lanczos):
    # cutting each class block to the pairs at most the running count-th
    # value selects the same pairs: values, modes and characters bit for
    # bit, for classes solved dense and by Lanczos
    calls = counted_eigsh(monkeypatch)
    mesh = icosphere(level)
    stiffness, mass, nodes = assemble_fem(rotated(mesh) if turn else mesh)
    classes = _class_bases(_reflections(stiffness, mass, nodes), len(mass))
    assert_merges_agree(stiffness, mass, count, classes)
    assert bool(calls) == lanczos


def test_trimmed_class_merge_keeps_a_tied_selection():
    # the count-th smallest value, 2, is held by both classes, and class 1
    # holds it twice: the values equal to the bound stay, so the stable
    # sort still takes class 0's 2 before class 1's first 2, as the
    # untrimmed merge does
    stiffness = sp.diags([1.0, 2.0, 5.0, 2.0, 2.0, 4.0]).tocsr()
    identity = sp.identity(6, format="csc")
    classes = [(0, identity[:, :3]), (1, identity[:, 3:])]
    values, vectors, parity = assert_merges_agree(stiffness, np.ones(6), 3,
                                                  classes)
    assert values.tolist() == [1.0, 2.0, 2.0]
    assert parity.tolist() == [0, 0, 1]
    assert np.array_equal(np.abs(vectors[:3, :2]), np.eye(3)[:, :2])
    assert not vectors[:3, 2].any() and not vectors[3:, :2].any()


def traced_peak(call):
    """tracemalloc peak of ``call()`` in bytes, after one warm-up call that
    makes its first-call allocations."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak


def solver_peak(pencil, count):
    """tracemalloc peak of one solve, in (vertex, mode) tables."""
    return traced_peak(lambda: solve_lowest(pencil, count, tol=1e-8)) \
        / (pencil.stiffness.shape[0] * count * 8)


def test_solver_peak_holds_at_most_two_tables():
    # after the class merge a solve holds the one table that becomes its
    # modes; the class solves and small temporaries add the rest.  A copy
    # of the merged table or a whole-table residual check each add a full
    # table
    assert solver_peak(assemble_fem(icosphere(3)), 200) < 2.0


def test_trimmed_class_blocks_keep_a_level4_solve_within_one_and_a_half_tables():
    # icosphere:4's 8 classes of about 320 columns are solved dense for 400
    # modes.  Whole class blocks held while the merged table is filled add
    # about 0.8 tables to it (2.03 in all); blocks cut to the pairs the
    # merge can still select add about 0.2 (1.43 in all)
    assert solver_peak(assemble_fem(icosphere(4)), 400) <= 1.5


def test_one_class_dense_solve_peak_holds_below_five_and_a_half_tables():
    # a rotated icosphere:3 is one class of 642 vertices, solved dense for
    # 200 modes: the stiffness is scaled in one (vertex, vertex) array of
    # 3.2 tables, which eigh overwrites; each scaled or symmetrized copy
    # would add 3.2 tables more
    assert solver_peak(assemble_fem(rotated(icosphere(3))), 200) < 5.5


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


def test_cache_written_before_factored_tables_loads(tmp_path):
    # a WLB1 version 1 container (icosphere:1, 6 modes) stored by the
    # release that tabulated every basis at every node holds no reflections
    # and no parities, so it is a miss.  A version 3 container loads as mode
    # values at the vertices with the mesh's reflections and the modes'
    # parities, stores back to the same bytes, and its Gram matrix is
    # W^T W with W = modes * sqrt(mass * gamma0), split by class
    source = DATA / "wlb1_cache"
    assert cache_load(str(source), "7c2dc468a90972a4707ccb1bb124af0c") \
        is None
    mesh = icosphere(1)
    written = tmp_path / "written"
    solved, hit = cached_mesh_spectrum(mesh, 6, tol=1e-8,
                                       directory=str(written))
    assert not hit
    key = cache_key(mesh.content_hash(), 6, 1e-8, SOLVER_SEED)
    basis = cache_load(str(written), key)
    assert basis is not None and basis.source == "mesh-fem"
    assert basis.mode_count == 6 and basis.modes.shape == (42, 6)
    assert basis.quadrature._fields == ("nodes", "mass", "modes", "parity",
                                        "reflections")
    assert basis.quadrature.reflections.shape == (3, 42)
    for array, solved_array in zip(basis.quadrature, solved.quadrature):
        assert array.dtype == solved_array.dtype
        assert np.array_equal(array, solved_array)
    cache_store(str(tmp_path), key, basis)
    assert (tmp_path / (key + ".wlb")).read_bytes() \
        == (written / (key + ".wlb")).read_bytes()
    field = DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0))
    scaled = basis.modes * np.sqrt(
        basis.mass * field.effective(basis.nodes))[:, None]
    whole = scaled.T @ scaled
    grams = _damping_gram(basis, field, len(basis.values) - 1)
    columns = np.concatenate([columns for columns, _ in grams])
    assert len(grams) > 1 and np.array_equal(np.sort(columns), np.arange(6))
    for columns, gram in grams:
        np.testing.assert_allclose(gram, whole[np.ix_(columns, columns)],
                                   rtol=0.0, atol=1e-14)


def test_modes_are_one_c_ordered_table(tmp_path):
    # a dense Gram gathers each class's rows from the flat view of the mode
    # table; only a C-ordered table gives that view without a copy, both
    # from a fresh solve and from a cache hit
    fresh = solve_lowest(assemble_fem(icosphere(2)), 12, tol=1e-8)
    cached_mesh_spectrum(icosphere(2), 12, tol=1e-8, directory=str(tmp_path))
    loaded, hit = cached_mesh_spectrum(icosphere(2), 12, tol=1e-8,
                                       directory=str(tmp_path))
    assert hit
    for basis in (fresh, loaded):
        assert basis.modes.flags["C_CONTIGUOUS"]
        assert np.shares_memory(basis.modes, basis.modes.reshape(-1))


def test_cache_miss_on_perturbed_mesh(tmp_path):
    directory = str(tmp_path)
    mesh = icosphere(2)
    cached_mesh_spectrum(mesh, 12, tol=1e-8, directory=directory)
    vertices = mesh.vertices.copy()
    vertices[0] += 1e-3
    perturbed = SurfaceMesh(vertices, mesh.triangles)
    _, hit = cached_mesh_spectrum(perturbed, 12, tol=1e-8, directory=directory)
    assert not hit


def test_cache_hit_of_a_mesh_spec_builds_nothing(tmp_path):
    # a spec's entry is keyed by its identity, so only a miss builds the
    # mesh; the nodes are checked on both paths, and a hit's cached nodes
    # are bitwise the vertices that were solved
    mesh, builds, checked = icosphere(2), [], []
    spec = MeshSpec("ab" * 32, lambda: builds.append(1) or mesh)
    for expected in (False, True):
        basis, hit = cached_mesh_spectrum(spec, 12, directory=str(tmp_path),
                                          check_nodes=checked.append)
        assert hit == expected and basis.mesh_hash == spec.identity
    assert builds == [1]
    assert checked[0] is mesh.vertices
    assert checked[1].tobytes() == mesh.vertices.tobytes()
    assert os.listdir(tmp_path) == [
        cache_key(spec.identity, 12, SOLVER_TOL, SOLVER_SEED) + ".wlb"]


def test_cache_absent_key_is_miss(tmp_path):
    assert cache_load(str(tmp_path), "0" * 32) is None


def test_cache_version_mismatch_is_miss(tmp_path):
    directory = str(tmp_path)
    mesh = icosphere(1)
    cached_mesh_spectrum(mesh, 6, tol=1e-8, directory=directory)
    key = cache_key(mesh.content_hash(), 6, 1e-8, SOLVER_SEED)
    path = pathlib.Path(directory, key + ".wlb")
    blob = path.read_bytes()
    assert cache_load(directory, key) is not None
    path.write_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
    assert cache_load(directory, key) is None


def test_cache_version_2_header_is_miss(tmp_path):
    # version 2 had no mesh digest between the counts and the <ddd> header
    directory = str(tmp_path)
    mesh = icosphere(1)
    cached_mesh_spectrum(mesh, 6, tol=1e-8, directory=directory)
    key = cache_key(mesh.content_hash(), 6, 1e-8, SOLVER_SEED)
    pathlib.Path(directory, key + ".wlb").write_bytes(
        CACHE_MAGIC + struct.pack("<IQQQ", 2, 6, 42, 3)
        + struct.pack("<ddd", 4.0 * np.pi, 10.0, 0.0))
    assert cache_load(directory, key) is None
    _, hit = cached_mesh_spectrum(mesh, 6, tol=1e-8, directory=directory)
    assert not hit


def test_cache_entry_is_one_file(tmp_path):
    directory = str(tmp_path)
    mesh = icosphere(1)
    cached_mesh_spectrum(mesh, 6, tol=1e-8, directory=directory)
    key = cache_key(mesh.content_hash(), 6, 1e-8, SOLVER_SEED)
    assert os.listdir(directory) == [key + ".wlb"]


def test_cache_entry_of_another_mesh_is_a_miss(tmp_path):
    # the key is only a truncated hash; the container's own digest decides
    directory = str(tmp_path)
    mesh, other = icosphere(1), rotated(icosphere(1))
    solved, _ = cached_mesh_spectrum(other, 6, tol=1e-8, directory=directory)
    key = cache_key(mesh.content_hash(), 6, 1e-8, SOLVER_SEED)
    cache_store(directory, key, solved)
    loaded = cache_load(directory, key)
    assert loaded.mesh_hash == other.content_hash() != mesh.content_hash()
    _, hit = cached_mesh_spectrum(mesh, 6, tol=1e-8, directory=directory)
    assert not hit
    assert cache_load(directory, key).mesh_hash == mesh.content_hash()


@pytest.mark.parametrize("mesh_hash", [
    "", "ab" * 31, "xy" * 32, "ab " * 32,
], ids=["empty", "short", "not-hex", "spaced"])
def test_cache_store_refuses_a_bad_mesh_hash(tmp_path, mesh_hash):
    basis = solve_lowest(assemble_fem(icosphere(1)), 6, tol=1e-8)
    basis.mesh_hash = mesh_hash
    with pytest.raises(ValueError):
        cache_store(str(tmp_path), "0" * 32, basis)
    assert os.listdir(tmp_path) == []


class _FullDisk:
    """An array whose conversion fails as a full disk does."""

    def __array__(self, dtype=None, copy=None):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("failing", ["write", "rename"])
def test_cache_store_failure_leaves_no_temp_file(tmp_path, monkeypatch,
                                                 failing):
    basis, _ = cached_mesh_spectrum(icosphere(1), 6, tol=1e-8)
    key = "k" * 32
    broken = basis
    if failing == "write":  # the 4th array, the mode values, cannot be written
        broken = dataclasses.replace(basis, quadrature=basis.quadrature
                                     ._replace(modes=_FullDisk()))
    else:
        def no_rename(source, target):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(lb_spectrum.os, "replace", no_rename)
    with pytest.raises(OSError) as failed:
        cache_store(str(tmp_path), key, broken)
    assert failed.value.errno == errno.ENOSPC
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    cache_store(str(tmp_path), key, basis)
    assert os.listdir(tmp_path) == [key + ".wlb"]
    loaded = cache_load(str(tmp_path), key)
    assert loaded.modes.tobytes() == basis.modes.tobytes()


def test_cache_store_refuses_a_basis_without_vertices(tmp_path):
    # a container always holds the vertex data counting reads
    solved = solve_lowest(assemble_fem(icosphere(1)), 6, tol=1e-8)
    sphere = exact_sphere_spectrum(3)
    for basis in (dataclasses.replace(solved, quadrature=None), sphere):
        basis.mesh_hash = "ab" * 32
        with pytest.raises(ValueError):
            cache_store(str(tmp_path), "0" * 32, basis)
    assert os.listdir(tmp_path) == []


def _packed(basis, k, p, q, arrays):
    """A version 3 container of the basis's header fields with the given
    counts, followed by ``arrays`` as they are."""
    return (CACHE_MAGIC + struct.pack(
        "<IQQQ32sddd", CACHE_VERSION, k, p, q, bytes.fromhex(basis.mesh_hash),
        basis.area, basis.trusted_horizon, basis.residual)
        + b"".join(array.tobytes() for array in arrays))


def test_cache_container_without_modes_or_vertices_raises(tmp_path):
    # p = 0 is the eigenvalue-only layout of an entry without vertex data,
    # which no writer produces; k = 0 holds no modes at all
    directory = str(tmp_path)
    mesh = icosphere(1)
    basis, _ = cached_mesh_spectrum(mesh, 6, tol=1e-8, directory=directory)
    key = cache_key(mesh.content_hash(), 6, 1e-8, SOLVER_SEED)
    path = tmp_path / (key + ".wlb")
    whole = path.read_bytes()
    assert whole == _packed(basis, 6, 42, 3, [
        basis.eigenvalues, basis.mass, basis.nodes, basis.modes,
        basis.quadrature.parity, basis.quadrature.reflections])
    for contents in (_packed(basis, 6, 0, 0, [basis.eigenvalues]),
                     _packed(basis, 0, 42, 3, [
                         basis.mass, basis.nodes,
                         basis.quadrature.reflections])):
        path.write_bytes(contents)
        with pytest.raises(CacheError, match="modes, "):
            cache_load(directory, key)


def _tampered(name, quadrature):
    """The quadrature's arrays, copied, with one damage done to them."""
    nodes, mass, modes, parity, reflections = (
        np.array(array) for array in quadrature)
    p = len(nodes)
    if name == "identity-row":  # exits 0 with a wrong count unchecked
        reflections[0] = np.arange(p)
    elif name == "far-index":  # an IndexError unchecked
        reflections[0, 5] = 10 ** 6
    elif name == "negative-index":  # wraps onto the same vertex
        reflections[0, 5] -= p
    elif name == "repeated-index":
        reflections[0, 1] = reflections[0, 0]
    elif name == "not-a-permutation":  # mirrors nodes collapsed to 0
        nodes[:] = 0.0
        reflections[0] = 0
    elif name == "descending-axes":
        reflections[[0, 1]] = reflections[[1, 0]]
    elif name == "fourth-reflection":
        reflections = np.vstack([reflections, reflections[2:]])
    elif name in ("parity-above", "parity-negative"):
        parity[0] = 8 if name == "parity-above" else -1
    elif name in ("nan-node", "inf-node"):  # a NaN exits 3 unchecked
        # with no reflection left, which a NaN node could not mirror
        reflections, parity[:] = reflections[:0], 0
        nodes[0, 0] = np.nan if name == "nan-node" else np.inf
    elif name in ("zero-mass", "nan-mass", "inf-mass"):
        mass[3] = {"zero-mass": 0.0, "nan-mass": np.nan}.get(name, np.inf)
    return Quadrature(nodes, mass, modes, parity, reflections)


TAMPERS = ["identity-row", "far-index", "negative-index", "repeated-index",
           "not-a-permutation", "descending-axes", "fourth-reflection",
           "parity-above", "parity-negative", "nan-node", "inf-node",
           "zero-mass", "nan-mass", "inf-mass"]


@pytest.mark.parametrize("name", ["untouched"] + TAMPERS)
def test_cache_hit_checks_the_tables_it_indexes_with(tmp_path, name):
    # counting indexes the vertices with the reflection rows and selects
    # classes by the parity bits, so a hit refuses tables no solve makes
    directory = str(tmp_path)
    mesh = icosphere(1)
    cached_mesh_spectrum(mesh, 6, tol=1e-8, directory=directory)
    key = cache_key(mesh.content_hash(), 6, 1e-8, SOLVER_SEED)
    loaded = cache_load(directory, key)
    cache_store(directory, key, dataclasses.replace(
        loaded, quadrature=_tampered(name, loaded.quadrature)))
    if name == "untouched":
        again = cache_load(directory, key)
        for array, loaded_array in zip(again.quadrature, loaded.quadrature):
            assert array.tobytes() == loaded_array.tobytes()
        return
    with pytest.raises(CacheError):
        cache_load(directory, key)


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


@pytest.mark.parametrize("contents", [
    b"",
    CACHE_MAGIC,
    CACHE_MAGIC + struct.pack("<IQQQ", CACHE_VERSION, 6, 42, 3) + bytes(32)
    + struct.pack("<ddd", 4.0 * np.pi, 10.0, 0.0),
], ids=["empty", "magic-only", "header-only"])
def test_cache_short_container_raises(tmp_path, contents):
    directory = str(tmp_path)
    mesh = icosphere(1)
    cached_mesh_spectrum(mesh, 6, tol=1e-8, directory=directory)
    key = cache_key(mesh.content_hash(), 6, 1e-8, SOLVER_SEED)
    pathlib.Path(directory, key + ".wlb").write_bytes(contents)
    with pytest.raises(CacheError):
        cache_load(directory, key)


def test_cache_hit_holds_read_only_views(tmp_path):
    directory = str(tmp_path)
    mesh = icosphere(2)
    cached_mesh_spectrum(mesh, 12, tol=1e-8, directory=directory)
    loaded, hit = cached_mesh_spectrum(mesh, 12, tol=1e-8,
                                       directory=directory)
    assert hit
    for array in (loaded.modes, loaded.mass, loaded.nodes):
        assert not array.flags.writeable
        assert not array.flags.owndata
    with pytest.raises(ValueError):
        loaded.modes[0, 0] = 0.0


def test_loaded_basis_keeps_its_bits_when_its_key_is_rewritten(tmp_path):
    directory = str(tmp_path)
    mesh = icosphere(2)
    cached_mesh_spectrum(mesh, 12, tol=1e-8, directory=directory)
    key = cache_key(mesh.content_hash(), 12, 1e-8, SOLVER_SEED)
    loaded = cache_load(directory, key)
    modes, mass = loaded.modes.copy(), loaded.mass.copy()
    flipped = dataclasses.replace(
        loaded, quadrature=loaded.quadrature._replace(modes=-loaded.modes))
    cache_store(directory, key, flipped)
    assert np.array_equal(loaded.modes, modes)
    assert np.array_equal(loaded.mass, mass)
    assert np.array_equal(cache_load(directory, key).modes, -modes)


def test_loaded_basis_gives_the_solved_gram_bit_for_bit(tmp_path):
    # 41 modes put the mode table 8 bytes past a 16-byte boundary of the
    # mapping, unlike the aligned copy the solve returns
    directory = str(tmp_path)
    mesh = icosphere(3)
    solved, hit = cached_mesh_spectrum(mesh, 41, tol=1e-8,
                                       directory=directory)
    assert not hit
    loaded, hit = cached_mesh_spectrum(mesh, 41, tol=1e-8,
                                       directory=directory)
    assert hit
    last = len(solved.values) - 1
    for field in (DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0)),
                  DampingField.constant(1.5)):
        pairs = zip(_damping_gram(loaded, field, last),
                    _damping_gram(solved, field, last), strict=True)
        for (loaded_columns, loaded_gram), (columns, gram) in pairs:
            assert np.array_equal(loaded_columns, columns)
            assert loaded_gram.tobytes() == gram.tobytes()


def test_cache_key_depends_on_inputs():
    keys = {
        cache_key("abc", 10, 1e-8, 1),
        cache_key("abd", 10, 1e-8, 1),
        cache_key("abc", 11, 1e-8, 1),
        cache_key("abc", 10, 1e-7, 1),
        cache_key("abc", 10, 1e-8, 2),
    }
    assert len(keys) == 5


def test_cache_entry_of_the_whole_pencil_solve_is_a_miss(tmp_path):
    # an entry stored under the key of the solver that took the whole
    # pencil at once, with no solver revision, of the class solve that
    # formed its Gram matrix from a mass-scaled copy, or of the one that
    # re-orthonormalized the merged table in place, never answers a run
    directory = str(tmp_path)
    mesh = icosphere(1)
    basis = solve_lowest(assemble_fem(mesh), 6, tol=1e-8)
    basis.mesh_hash = mesh.content_hash()
    stem = f"{basis.mesh_hash}:6:{1e-8!r}:{SOLVER_SEED}"
    for suffix in (":v1", f":v{CACHE_VERSION}:reflection-classes",
                   f":v{CACHE_VERSION}:in-place-gram"):
        old_key = hashlib.sha256((stem + suffix).encode()).hexdigest()[:32]
        assert old_key != cache_key(basis.mesh_hash, 6, 1e-8, SOLVER_SEED)
        cache_store(directory, old_key, basis)
        assert cache_load(directory, old_key) is not None
    _, hit = cached_mesh_spectrum(mesh, 6, directory=directory)
    assert not hit


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
