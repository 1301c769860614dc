"""Tests for the Galerkin counting model and the Weyl-law scan."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dsytrf

from weylcount import semiclassical_count
from weylcount.errors import (
    DomainError,
    InsufficientSpectrumError,
    UsageError,
)
from weylcount.lb_spectrum import exact_sphere_spectrum, sphere_degree_for
from weylcount.semiclassical_count import (
    ZERO_TOL,
    CountReport,
    DampingConstants,
    GalerkinOperator,
    TridiagonalFamily,
    build_operator,
    constants_for,
    count_negative,
    inequality_check,
    inequality_margin,
    monotonicity_probe,
    scan,
    weyl_coefficient,
    weyl_prediction,
)
from weylcount.surface import AnalyticSurface, DampingField
from weylcount.surface.mesh import icosphere


@pytest.fixture(scope="module")
def sphere():
    return AnalyticSurface.unit_sphere()


@pytest.fixture(scope="module")
def gamma_two():
    return DampingField.constant(2.0)


@pytest.fixture(scope="module")
def tilted():
    return DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0))


def oracle_sphere_count(r, gamma0):
    """Independent enumeration: modes with n(n+1) strictly below r^2(g^2-1)."""
    threshold = r * r * (gamma0 * gamma0 - 1.0)
    count = 0
    n = 0
    while n * (n + 1) < threshold:
        count += 2 * n + 1
        n += 1
    return count


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------

def test_constants_values():
    constants = DampingConstants(2.0, 2.0)
    assert constants.big_c == 0.25
    assert constants.eps == 0.125
    assert constants.delta == 0.5
    assert constants.ellipticity_threshold(0.1) == pytest.approx(300.0)


def test_constants_validation():
    with pytest.raises(DomainError):
        DampingConstants(1.0, 2.0)
    with pytest.raises(DomainError):
        DampingConstants(2.0, 1.5)


def test_eps_below_half():
    rng = np.random.default_rng(21)
    for _ in range(200):
        c0 = rng.uniform(1.0 + 1e-6, 50.0)
        c1 = c0 + rng.uniform(0.0, 50.0)
        assert DampingConstants(c0, c1).eps < 0.5


def test_constants_from_field(sphere, tilted):
    constants = constants_for(tilted, sphere)
    assert constants.c0 == pytest.approx(1.5)
    assert constants.c1 == pytest.approx(2.5)


# ----------------------------------------------------------------------
# operator assembly
# ----------------------------------------------------------------------

def test_constant_operator_is_exact_diagonal(gamma_two):
    basis = exact_sphere_spectrum(2)
    op = build_operator(basis, gamma_two, 1.0)
    [(stack, sizes)] = op.blocks
    assert stack.shape == (3, 1, 1)  # one 1 x 1 block per cluster
    assert sizes.tolist() == [1, 3, 5]
    assert stack[0, 0, 0] == pytest.approx(-1.0)
    assert stack[1, 0, 0] == pytest.approx(np.sqrt(3.0) - 2.0)
    basis = exact_sphere_spectrum(20)
    for h in (1.0, 0.3):
        op = build_operator(basis, gamma_two, h)
        lam = basis.eigenvalues[:op.mode_cut]
        assert np.array_equal(op.eigenvalues(),
                              np.sqrt(1.0 + h * h * lam) - 2.0)


def test_inverted_constant_equivalent():
    basis = exact_sphere_spectrum(12)
    above = build_operator(basis, DampingField.constant(2.0), 0.25)
    below = build_operator(basis, DampingField.constant(0.5), 0.25)
    assert np.array_equal(above.blocks[0][0], below.blocks[0][0])
    assert np.array_equal(above.eigenvalues(), below.eigenvalues())


def test_mode_cut_never_splits_a_cluster(gamma_two):
    basis = exact_sphere_spectrum(40)
    op = build_operator(basis, gamma_two, 0.2)  # threshold 150, 2x policy
    assert op.mode_cut == 169  # degree-12 cluster (lambda = 156) kept whole
    assert sphere_degree_for(basis.eigenvalues[op.mode_cut - 1]) == 12
    assert basis.eigenvalues[op.mode_cut - 1] == 156.0


def test_insufficient_basis_names_required_count(gamma_two):
    basis = exact_sphere_spectrum(10)
    with pytest.raises(InsufficientSpectrumError) as err:
        build_operator(basis, gamma_two, 0.1)  # needs lambda up to 300
    assert "324" in str(err.value)


def test_variable_field_needs_surface(tilted):
    basis = exact_sphere_spectrum(20)
    with pytest.raises(UsageError):
        build_operator(basis, tilted, 0.5)


def test_bad_h_rejected(gamma_two):
    basis = exact_sphere_spectrum(5)
    for h in (0.0, -1.0, np.nan):
        with pytest.raises(UsageError):
            build_operator(basis, gamma_two, h)


def test_bad_zero_tol_rejected(gamma_two):
    # a negative tolerance would count eigenvalues above zero as negative,
    # and a NaN one would count none
    op = build_operator(exact_sphere_spectrum(20), gamma_two, 0.2)
    for zero_tol in (-0.5, np.nan):
        with pytest.raises(UsageError):
            count_negative(op, zero_tol=zero_tol)


def test_affine_operator_block_structure(sphere, tilted):
    basis = exact_sphere_spectrum(12)
    op = build_operator(basis, tilted, 1.0, surface=sphere)
    # degrees 0..3 are retained: one block per order m over degrees m..3
    [(family, multiplicity)] = op.blocks
    blocks = [family.block(m) for m in range(len(family))]
    assert [len(diagonal) for diagonal, _ in blocks] == [4, 3, 2, 1]
    assert multiplicity.tolist() == [1, 2, 2, 2]
    assert op.mode_cut == 16 == len(op.eigenvalues())
    # G_00 = mean of gamma0 over the sphere = 2 (phi_0 constant), D_00 = 1
    assert blocks[0][0][0] == pytest.approx(-1.0, abs=1e-12)
    for m, (diagonal, off_diagonal) in enumerate(blocks):
        block = (np.diag(diagonal) + np.diag(off_diagonal, 1)
                 + np.diag(off_diagonal, -1))
        assert np.array_equal(block, block.T)
        assert np.array_equal(block, np.triu(np.tril(block, 1), -1))
        # -b times the Jacobi entries <q_{n-1,m}, z q_{n,m}>
        n = np.arange(m + 1, 4)
        assert np.allclose(off_diagonal, -0.5 * np.sqrt(
            (n * n - m * m) / ((2.0 * n - 1.0) * (2.0 * n + 1.0))),
            rtol=0.0, atol=1e-15)


def test_block_and_dense_paths_agree(sphere):
    # the same profile along +-z (block path) and along +-x (dense path) must
    # give identical spectra by rotational symmetry of the sphere
    basis_z = exact_sphere_spectrum(12)
    basis_x = exact_sphere_spectrum(12)
    for offset, slope, sign in ((2.0, 0.5, 1.0), (2.0, -0.5, 1.0),
                                (2.0, 0.5, -1.0), (3.0, -1.5, -1.0)):
        along_z = DampingField.affine(offset, slope, (0.0, 0.0, sign))
        along_x = DampingField.affine(offset, slope, (sign, 0.0, 0.0))
        for h in (1.0, 0.5):
            op_z = build_operator(basis_z, along_z, h, surface=sphere)
            op_x = build_operator(basis_x, along_x, h, surface=sphere)
            [(family, _)] = op_z.blocks
            assert len(family) == sphere_degree_for(
                basis_z.eigenvalues[op_z.mode_cut - 1]) + 1
            assert len(op_x.blocks) == 1
            assert op_z.mode_cut == op_x.mode_cut
            assert np.max(np.abs(op_z.eigenvalues()
                                 - op_x.eigenvalues())) < 1e-10


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------

def test_frozen_sphere_counts(gamma_two):
    basis = exact_sphere_spectrum(80)
    for r, expected in ((5, 81), (10, 289), (20, 1225)):
        outcome = count_negative(build_operator(basis, gamma_two, 1.0 / r))
        assert outcome.negative == expected
        assert outcome.borderline == 0
        assert expected == oracle_sphere_count(r, 2.0)


def test_counts_match_enumeration_oracle(gamma_two):
    basis = exact_sphere_spectrum(80)
    for r in np.linspace(3.0, 30.0, 28):
        outcome = count_negative(build_operator(basis, gamma_two, 1.0 / r))
        assert outcome.negative == oracle_sphere_count(r, 2.0)
        assert abs(outcome.negative - 3.0 * r * r) <= 6.0 * r


def test_borderline_at_exact_crossing(gamma_two):
    # r = 2: the degree-3 cluster sits exactly on the crossing (12 = 3 r^2)
    basis = exact_sphere_spectrum(10)
    outcome = count_negative(build_operator(basis, gamma_two, 0.5))
    assert outcome.negative == 9
    assert outcome.borderline == 7
    relaxed = count_negative(build_operator(basis, gamma_two, 0.5),
                             zero_tol=1e-3)
    assert relaxed.borderline >= 7


def eigvalsh_count(operator, zero_tol=ZERO_TOL):
    """Reference count from the full spectrum."""
    values = operator.eigenvalues()
    return (int(np.sum(values < -zero_tol)),
            int(np.sum(np.abs(values) <= zero_tol)))


def planted(values, seed):
    """Q diag(values) Q^T for a random orthogonal Q."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (len(values), len(values))))
    return (q * np.asarray(values)) @ q.T


def test_inertia_count_on_planted_spectra(monkeypatch):
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    operator = GalerkinOperator(0, [
        (planted([0.0, 5e-13, -5e-13, 2e-12, -2e-12, -0.7, 1.3, 3.0], 1), 1),
        (swap, 1),
        # exactly on the thresholds: pivots of the shifted block are 0
        (np.diag([ZERO_TOL, -ZERO_TOL, 0.5]), 1),
        (planted([-2e-12, 0.0, 4e-13, -1.5, 0.25], 2), 2),
        (np.stack([planted([-1.0, 1e-13, 2.0], 3),
                   planted([-2e-12, -3e-13, 2e-12], 4)]), np.array([1, 3])),
        (np.array([0.0, 5e-13, -5e-13, 2e-12, -2e-12])[:, None, None],
         np.array([1, 2, 3, 4, 5])),
    ])
    # the swap block factors through a 2 x 2 pivot at either shift
    for shift in (ZERO_TOL, -ZERO_TOL):
        assert np.all(dsytrf(swap + shift * np.eye(2), lower=1)[1] < 0)

    # block by block, as planted: eigenvalues below -tol, then |mu| <= tol
    negative = 2 + 1 + 0 + 2 * 2 + (1 + 3 * 1) + 5
    borderline = 3 + 0 + 2 + 2 * 2 + (1 + 3 * 1) + (1 + 2 + 3)
    assert eigvalsh_count(operator) == (negative, borderline)

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("count_negative computed eigenvalues")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    monkeypatch.setattr(semiclassical_count, "eigh", no_eigensolver)
    assert count_negative(operator) == (negative, borderline)

    # a polar-affine section is counted without eigenvalues or factorizations
    polar = build_operator(exact_sphere_spectrum(40), DampingField.affine(
        2.0, 0.5, (0.0, 0.0, 1.0)), 0.25,
        surface=AnalyticSurface.unit_sphere())
    monkeypatch.undo()
    expected = eigvalsh_count(polar)
    for name in ("eigh", "eigvalsh_tridiagonal", "dsytrf"):
        monkeypatch.setattr(semiclassical_count, name, no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    assert count_negative(polar) == expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(size=st.integers(2, 24), seed=st.integers(0, 2 ** 32 - 1),
       diagonal=st.sampled_from([0.0, 1e-3, 1.0]),
       scale=st.sampled_from([1e-6, 1.0, 1e3]),
       multiplicity=st.integers(1, 3))
def test_inertia_count_matches_eigvalsh(size, seed, diagonal, scale,
                                        multiplicity):
    # a small diagonal makes Bunch-Kaufman pick 2 x 2 pivots
    matrix = np.random.default_rng(seed).standard_normal((size, size))
    matrix = scale * (matrix + matrix.T)
    matrix[np.diag_indices(size)] *= diagonal
    values = np.linalg.eigvalsh(matrix)
    assume(np.min(np.abs(np.abs(values) - ZERO_TOL)) >= 1e-9)
    operator = GalerkinOperator(size, [(matrix, multiplicity)])
    assert count_negative(operator) == eigvalsh_count(operator)


def random_family(data, size):
    """A TridiagonalFamily of ``size`` blocks drawn from Hypothesis data,
    with some couplings zero and isolated diagonal entries planted at 0 and
    +-ZERO_TOL."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    scale = data.draw(st.sampled_from([1e-6, 1.0, 1e3]))
    diagonal = scale * rng.standard_normal(size)
    off_diagonal = scale * rng.standard_normal(size * (size - 1) // 2)
    off_diagonal[rng.random(len(off_diagonal)) < 0.2] = 0.0
    rows = np.repeat(np.arange(size), np.arange(size))
    for n in data.draw(st.lists(st.integers(0, size - 1), max_size=3)):
        # row n decouples from its neighbours in every block
        off_diagonal[(rows == n) | (rows == n + 1)] = 0.0
        diagonal[n] = data.draw(st.sampled_from([0.0, ZERO_TOL, -ZERO_TOL]))
    return TridiagonalFamily(diagonal, off_diagonal)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(size=st.integers(1, 24), data=st.data())
def test_sturm_count_matches_eigvalsh_tridiagonal(size, data):
    family = random_family(data, size)
    multiplicity = np.array(data.draw(st.lists(
        st.integers(1, 3), min_size=size, max_size=size)))
    spectra = [eigvalsh_tridiagonal(*family.block(m)) for m in range(size)]
    values = np.concatenate(spectra)
    # planted eigenvalues are exact; any other must sit clear of the ties
    gap = np.abs(np.abs(values) - ZERO_TOL)
    planted = (values == 0.0) | (gap == 0.0)
    assume(np.all(planted | (gap >= 1e-9 * max(1.0, np.max(np.abs(values))))))
    reference = (
        sum(k * np.sum(v < -ZERO_TOL) for k, v in zip(multiplicity, spectra)),
        sum(k * np.sum(np.abs(v) <= ZERO_TOL)
            for k, v in zip(multiplicity, spectra)))
    operator = GalerkinOperator(0, [(family, multiplicity)])
    assert count_negative(operator) == reference


def test_sturm_count_at_exact_ties():
    # [[3/4, 1], [1, 3/4]] has eigenvalues -1/4 and 7/4.  At zero_tol = 1/4
    # the second pivot of T + I/4 is 1 - 1/1 = 0 exactly: -1/4 is not below
    # -zero_tol but is within it.  Rows 2 and 3 are decoupled ties at
    # +-zero_tol, so blocks 0..3 hold 3, 2, 2 and 1 borderline eigenvalues.
    family = TridiagonalFamily(np.array([0.75, 0.75, 0.25, -0.25]),
                               np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    assert count_negative(GalerkinOperator(0, [(family, np.ones(4))]),
                          zero_tol=0.25) == (0, 3 + 2 + 2 + 1)
    # block 0, [[-tol, 1], [1, 0]], has eigenvalues near -1 and 1, yet the
    # first pivot of T + tol I is -tol + tol = 0 exactly, and the next one
    # 0 - 1 / (+tiny) = -inf; block 1, [0], is one borderline eigenvalue
    family = TridiagonalFamily(np.array([-ZERO_TOL, 0.0]), np.array([1.0]))
    operator = GalerkinOperator(0, [(family, np.array([1, 1]))])
    assert count_negative(operator) == (1, 1) == eigvalsh_count(operator)


def test_sturm_sweep_needs_one_ascending_last_degree_per_member():
    # each member is swept only through its last degree, and members drop
    # out of the sweep in order; a batch member without one would be
    # counted by no row, or silently left out
    family, multiplicity = semiclassical_count._polar_family(
        2.0, 0.5, np.array([[0.5], [0.25]]), 6)
    sweep = semiclassical_count.SturmSweep(family, multiplicity, [3, 6])
    assert sweep.count(1, 6, ZERO_TOL) == count_negative(GalerkinOperator(
        0, [(TridiagonalFamily(family.diagonal[1], family.off_diagonal),
             multiplicity)]))
    for last in ([6, 3], [6], [2, 4, 6]):
        with pytest.raises(ValueError):
            semiclassical_count.SturmSweep(family, multiplicity, last)


def closed_form_axis_count(r, offset, slope, zero_tol=ZERO_TOL):
    """Count of affine:offset,slope,z on the unit sphere from scipy's
    tridiagonal eigenvalues, truncated at 2x the ellipticity threshold."""
    c1 = offset + abs(slope)
    need = 2.0 * (c1 * c1 - 1.0) * r * r
    top = 0
    while top * (top + 1) < need:
        top += 1
    count = 0
    for m in range(top + 1):
        n = np.arange(m, top + 1)
        diagonal = np.sqrt(1.0 + n * (n + 1.0) / (r * r)) - offset
        k = n[1:]
        jacobi = np.sqrt((k * k - m * m) / ((2.0 * k - 1.0) * (2.0 * k + 1.0)))
        values = eigvalsh_tridiagonal(diagonal, -slope * jacobi)
        count += (1 if m == 0 else 2) * int(np.sum(values < -zero_tol))
    return count


def test_axis_affine_counts_match_closed_form(sphere, tilted):
    basis = exact_sphere_spectrum(420)
    for r, expected in ((32.0, 3157), (64.0, 12626), (128.0, 50510)):
        got = count_negative(build_operator(basis, tilted, 1.0 / r,
                                            surface=sphere))
        assert got.negative == expected == closed_form_axis_count(
            r, 2.0, 0.5)


# ----------------------------------------------------------------------
# Weyl prediction
# ----------------------------------------------------------------------

def test_weyl_constant(sphere, gamma_two):
    assert weyl_prediction(sphere, gamma_two, 10.0) == pytest.approx(
        300.0, abs=1e-6)
    assert weyl_coefficient(sphere, gamma_two) == pytest.approx(3.0, abs=1e-8)


def test_weyl_affine_closed_form(sphere, tilted):
    assert weyl_coefficient(sphere, tilted) == pytest.approx(
        37.0 / 12.0, abs=1e-8)
    assert weyl_prediction(sphere, tilted, 12.0) == pytest.approx(
        444.0, abs=1e-6)


def test_weyl_on_mesh(tilted):
    # a mesh integrates by its lumped vertex rule, close to the sphere's
    # closed form 37/12 on a fine icosphere
    mesh = icosphere(3)
    gamma0 = tilted.effective(mesh.vertices)
    lumped = np.dot(mesh.vertex_areas(), gamma0 * gamma0 - 1.0) / (4.0 * np.pi)
    assert weyl_coefficient(mesh, tilted) == lumped
    assert weyl_coefficient(mesh, tilted) == pytest.approx(37.0 / 12.0,
                                                           rel=1e-2)


def test_weyl_vanishes_toward_one(sphere):
    barely = DampingField.constant(1.0 + 1e-9)
    assert weyl_coefficient(sphere, barely) < 1e-6


def test_weyl_rejects_nonpositive_radius(sphere, gamma_two):
    with pytest.raises(UsageError):
        weyl_prediction(sphere, gamma_two, 0.0)


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------

def test_scan_constant_report(sphere, gamma_two):
    basis = exact_sphere_spectrum(80)
    report = scan(sphere, gamma_two, [5.0, 10.0, 20.0], basis)
    assert report.n_scalar.tolist() == [81, 289, 1225]
    assert report.n_system.tolist() == [162, 578, 2450]
    assert report.borderline.tolist() == [0, 0, 0]
    assert np.array_equal(report.weyl(), report.coefficient
                          * report.r_grid ** 2)
    assert report.weyl() == pytest.approx([75.0, 300.0, 1200.0], abs=1e-6)
    assert report.stability_delta == 0
    gates = report.gates()
    assert gates["monotone"] and gates["truncation_stable"]
    assert gates["exponent_in_window"] is True
    assert 1.9 <= report.fitted_exponent <= 2.1
    assert report.passed()


def test_scan_coefficient_window(sphere, gamma_two):
    basis = exact_sphere_spectrum(100)
    report = scan(sphere, gamma_two, np.linspace(10.0, 30.0, 9), basis)
    assert abs(report.fitted_coefficient - 3.0) <= 0.35
    assert 1.9 <= report.fitted_exponent <= 2.1


def test_scan_exponent_requires_span(sphere, gamma_two):
    basis = exact_sphere_spectrum(60)
    report = scan(sphere, gamma_two, [8.0, 16.0], basis)
    assert report.fitted_exponent is None
    assert report.gates()["exponent_in_window"] is None
    assert report.passed()


def test_scan_variable_field(sphere, tilted):
    basis = exact_sphere_spectrum(66)
    report = scan(sphere, tilted, [8.0, 12.0, 16.0], basis)
    assert abs(report.n_scalar[-1] / 256.0 - 37.0 / 12.0) <= 0.4
    assert report.stability_delta == 0
    assert np.all(np.diff(report.n_scalar) > 0)


@pytest.mark.parametrize("degree", [20, 17])
def test_dense_scan_forms_one_gram(sphere, monkeypatch, degree):
    # at r = 5 the cut needs degree 16 and the 1.5x recount degree 20
    field = DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0))
    r_grid = np.array([3.0, 4.0, 5.0])
    gram_cuts = []
    form = semiclassical_count._damping_gram

    def counted(basis, field, cut):
        gram_cuts.append(cut)
        return form(basis, field, cut)

    monkeypatch.setattr(semiclassical_count, "_damping_gram", counted)
    report = scan(sphere, field, r_grid, exact_sphere_spectrum(degree))
    assert len(gram_cuts) == 1

    basis = exact_sphere_spectrum(degree)

    def standalone(cut_factor):
        operators = [build_operator(basis, field, 1.0 / r, surface=sphere,
                                    cut_factor=cut_factor) for r in r_grid]
        return ([count_negative(op).negative for op in operators],
                operators[-1].mode_cut)

    counts, last_cut = standalone(2.0)
    assert list(report.n_scalar) == counts
    if degree == 20:
        recounts, last_cut = standalone(3.0)
        assert report.stability_delta == max(
            abs(a - b) for a, b in zip(recounts, counts))
    else:
        assert report.stability_delta is None
    assert gram_cuts[0] == last_cut


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(offset=st.floats(1.1, 3.0), fraction=st.floats(-0.95, 0.95),
       axis=st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]),
       invert=st.booleans(),
       radii=st.lists(st.floats(1.0, 7.0), min_size=1, max_size=5,
                      unique=True),
       cut_factor=st.sampled_from([0.4, 0.9, 2.0]),
       zero_tol=st.sampled_from([ZERO_TOL, 0.05, 0.5]), data=st.data())
def test_polar_scan_matches_per_radius_counts(sphere, offset, fraction, axis,
                                              invert, radii, cut_factor,
                                              zero_tol, data):
    # one Sturm sweep counts the whole scan; each section and its recount
    # must equal a separate build and count at that radius.  Cuts below the
    # ellipticity threshold make the counts depend on the last degree.
    field = DampingField.affine(offset, fraction * (offset - 1.05), axis,
                                invert=invert)
    r_grid = np.sort(radii)
    threshold = constants_for(field, sphere).ellipticity_threshold(
        1.0 / r_grid[-1])
    recount_factor = 1.5 * cut_factor
    degree = data.draw(st.integers(
        sphere_degree_for(max(cut_factor, 1.0) * threshold),
        sphere_degree_for(max(recount_factor, 1.0) * threshold) + 1))
    basis = exact_sphere_spectrum(degree)
    report = scan(sphere, field, r_grid, basis, cut_factor=cut_factor,
                  zero_tol=zero_tol)

    def per_radius(cut_factor):
        operators = [build_operator(basis, field, 1.0 / r, surface=sphere,
                                    cut_factor=cut_factor) for r in r_grid]
        return ([count_negative(op, zero_tol=zero_tol) for op in operators],
                [op.mode_cut for op in operators])

    counts, cuts = per_radius(cut_factor)
    assert report.n_scalar.tolist() == [c.negative for c in counts]
    assert report.borderline.tolist() == [c.borderline for c in counts]
    assert report.mode_cuts.tolist() == cuts
    try:
        recounts, _ = per_radius(recount_factor)
    except InsufficientSpectrumError:
        assert report.stability_delta is None
    else:
        assert report.stability_delta == max(
            abs(a.negative - b.negative) for a, b in zip(recounts, counts))


def test_polar_scan_counts_each_section_from_one_sweep(sphere, monkeypatch):
    # every section is still built and counted by a call of its own, primary
    # counts before recounts, and all of them read one shared sweep
    calls, built, sweeps = [], [], []
    for name in ("build_operator", "count_negative"):
        def recorded(*args, _name=name,
                     _original=getattr(semiclassical_count, name), **kwargs):
            calls.append((_name, kwargs.get("cut_factor")))
            result = _original(*args, **kwargs)
            if _name == "build_operator":
                built.append(result)
            return result
        monkeypatch.setattr(semiclassical_count, name, recorded)

    class Recorded(semiclassical_count.SturmSweep):
        def __init__(self, *args):
            sweeps.append(self)
            super().__init__(*args)

    monkeypatch.setattr(semiclassical_count, "SturmSweep", Recorded)
    field = DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0))
    basis = exact_sphere_spectrum(40)
    scan(sphere, field, np.array([4.0, 6.0, 8.0]), basis)
    assert calls == [("build_operator", 2.0), ("count_negative", None)] * 3 \
        + [("build_operator", 3.0), ("count_negative", None)] * 3
    assert len(sweeps) == 1
    # the scan's sections, counted again at another tolerance too, count as
    # copies of them with no sweep of their own
    for op in built:
        [(family, multiplicity)] = op.blocks
        assert family.sweep[0] is sweeps[0]
        alone = GalerkinOperator(op.mode_cut, [(TridiagonalFamily(
            family.diagonal, family.off_diagonal), multiplicity)])
        for zero_tol in (0.5, ZERO_TOL):
            assert count_negative(op, zero_tol=zero_tol) \
                == count_negative(alone, zero_tol=zero_tol)


def test_scan_regime_symmetry_bit_exact(sphere):
    basis = exact_sphere_spectrum(50)
    above = DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0))
    below = DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0), invert=True)
    grid = [8.0, 12.0]
    report_above = scan(sphere, above, grid, basis)
    report_below = scan(sphere, below, grid, basis)
    assert report_above.to_csv() == report_below.to_csv()


def test_scan_deterministic_serialization(sphere, gamma_two):
    basis = exact_sphere_spectrum(40)
    first = scan(sphere, gamma_two, [5.0, 10.0], basis)
    second = scan(sphere, gamma_two, [5.0, 10.0], basis)
    assert first.to_csv() == second.to_csv()
    assert first.to_json(config={"seed": 42}) == second.to_json(
        config={"seed": 42})


def test_csv_shape(sphere, gamma_two):
    basis = exact_sphere_spectrum(40)
    text = scan(sphere, gamma_two, [5.0, 10.0], basis).to_csv()
    lines = text.split("\n")
    assert lines[0] == "r,N_scalar,N_system,W,borderline"
    assert lines[1].startswith("5,81,162,")
    assert "\r" not in text
    assert text.endswith("\n")


def test_json_payload(sphere, gamma_two):
    basis = exact_sphere_spectrum(40)
    report = scan(sphere, gamma_two, [5.0, 10.0], basis)
    payload = json.loads(report.to_json(config={"gamma": "2"}))
    assert payload["N_scalar"] == [81, 289]
    assert payload["config"] == {"gamma": "2"}
    assert payload["truncation"]["stable"] is True
    assert payload["gates"]["monotone"] is True


def test_scan_rejects_bad_grids(sphere, gamma_two):
    basis = exact_sphere_spectrum(40)
    with pytest.raises(UsageError):
        scan(sphere, gamma_two, [10.0, 5.0], basis)
    with pytest.raises(UsageError):
        scan(sphere, gamma_two, [], basis)


# ----------------------------------------------------------------------
# monotonicity probe
# ----------------------------------------------------------------------

def test_probe_constant_matches_closed_form(gamma_two):
    # h dmu/dh = s - 1/s along every branch; at the crossing s = gamma0
    # the slope is (gamma0^2 - 1)/gamma0 = 3/2 for gamma0 = 2
    basis = exact_sphere_spectrum(40)
    probe = monotonicity_probe(basis, gamma_two, (0.24, 0.30), steps=7)
    assert probe.events and probe.skipped == 0
    for event in probe.events:
        s = event.mu + 2.0
        assert event.slope == pytest.approx(s - 1.0 / s, abs=0.02)
    crossing = min(probe.events, key=lambda e: abs(e.mu))
    assert crossing.slope == pytest.approx(1.5, abs=0.05)
    assert not probe.violations


def test_probe_variable_field(sphere, tilted):
    basis = exact_sphere_spectrum(66)
    probe = monotonicity_probe(basis, tilted, (1.0 / 16.5, 1.0 / 15.5),
                               surface=sphere, steps=7)
    assert len(probe.events) > 100
    assert probe.min_slope > 0.0
    assert probe.min_slope >= probe.eps / 4.0
    assert not probe.violations


def test_probe_rejects_bad_window(gamma_two):
    basis = exact_sphere_spectrum(10)
    with pytest.raises(UsageError):
        monotonicity_probe(basis, gamma_two, (0.3, 0.2))


# ----------------------------------------------------------------------
# the per-mode inequality
# ----------------------------------------------------------------------

def test_margin_frozen_example():
    constants = DampingConstants(2.0, 2.0)
    assert inequality_margin(constants, 2.0, 2.0) == pytest.approx(2.5)


def test_margin_at_unit_s_equals_eps():
    for gamma0 in (1.5, 2.0, 5.0):
        constants = DampingConstants(gamma0, gamma0)
        assert inequality_margin(constants, 1.0, gamma0) == pytest.approx(
            constants.eps, abs=1e-15)


def test_inequality_check_no_violations():
    for gamma0 in (1.5, 2.0, 5.0):
        constants = DampingConstants(gamma0, gamma0)
        report = inequality_check(constants, count=10000, seed=1)
        assert report["violations"] == 0
        assert report["min_margin"] >= 0.0
        assert report["margin_at_s1_c0"] == pytest.approx(constants.eps)
        assert report["margin_at_s1_c0"] >= 0.5 * constants.eps


def test_inequality_check_variable_range():
    constants = DampingConstants(1.5, 2.5)
    report = inequality_check(constants, count=20000, seed=2)
    assert report["violations"] == 0
    assert report["min_margin"] >= 0.0
