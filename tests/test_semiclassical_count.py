"""Tests for the Galerkin counting model and the Weyl-law scan."""

import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dsytrf

from weylcount import semiclassical_count
from weylcount.errors import (
    DomainError,
    InsufficientSpectrumError,
    InvalidFieldError,
    UsageError,
)
from weylcount.lb_spectrum import (
    _vertex_orbits,
    assemble_fem,
    exact_sphere_spectrum,
    solve_lowest,
    sphere_degree_for,
)
from weylcount.semiclassical_count import (
    STABILITY_FACTOR,
    ZERO_TOL,
    CountReport,
    DampingConstants,
    GalerkinOperator,
    NegativeCount,
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
from weylcount.surface.charts import _mapped_rule
from weylcount.surface.mesh import icosphere

from sphere_reference import (
    product_gram,
    product_section,
    reflection_classes,
)
from test_lb_spectrum import rotated, traced_peak


@pytest.fixture(scope="module")
def sphere():
    return AnalyticSurface.unit_sphere()


@pytest.fixture(scope="module")
def gamma_two():
    return DampingField.constant(2.0)


@pytest.fixture(scope="module")
def tilted():
    return DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0))


@pytest.fixture(scope="module")
def mesh_basis():
    return solve_lowest(assemble_fem(icosphere(2)), 40)


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
    [(values, sizes)] = op.blocks
    assert values.shape == (3,)  # one value per cluster
    assert sizes.tolist() == [1, 3, 5]
    assert values[0] == pytest.approx(-1.0)
    assert values[1] == pytest.approx(np.sqrt(3.0) - 2.0)
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
    # h^2 overflows at 1e155 and underflows at 1e-200
    for h in (0.0, -1.0, np.nan, np.inf, 1e155, 1e-200):
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
    blocks = list(family.blocks())
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
        # |b| times the Jacobi entries <q_{n-1,m}, z q_{n,m}>: a family
        # keeps their squares, so the signs are gone
        n = np.arange(m + 1, 4)
        assert np.allclose(off_diagonal, 0.5 * np.sqrt(
            (n * n - m * m) / ((2.0 * n - 1.0) * (2.0 * n + 1.0))),
            rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("case", ["sphere constant", "mesh constant",
                                  "z-affine", "mesh affine"])
def test_sections_hold_one_of_three_block_kinds(sphere, mesh_basis, case):
    # cluster values with one multiplicity each, F-ordered mesh blocks, one
    # per reflection class, each with the ascending basis modes its rows
    # stand for, or one tridiagonal family with one multiplicity per
    # order: each weighs its blocks to the mode cut
    basis, field, h = {
        "sphere constant": (exact_sphere_spectrum(20),
                            DampingField.constant(2.0), 0.3),
        "mesh constant": (mesh_basis, DampingField.constant(2.0), 1.25),
        "z-affine": (exact_sphere_spectrum(20),
                     DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0)), 0.3),
        "mesh affine": (mesh_basis,
                        DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0)), 1.25),
    }[case]
    op = build_operator(basis, field, h, surface=sphere)
    if case == "mesh affine":
        # x -> -x changes the field, y -> -y and z -> -z do not
        assert len(op.blocks) == 4
        for matrix, columns in op.blocks:
            assert isinstance(matrix, np.ndarray)
            assert columns.dtype.kind == "i"
            assert np.all(np.diff(columns) > 0)
            assert matrix.shape == (len(columns),) * 2
            assert matrix.flags.f_contiguous
        assert np.array_equal(np.sort(np.concatenate(
            [columns for _, columns in op.blocks])), np.arange(op.mode_cut))
        assert len(op.eigenvalues()) == op.mode_cut
        return
    [(matrix, multiplicity)] = op.blocks
    if case.endswith("constant"):
        assert isinstance(matrix, np.ndarray) and matrix.ndim == 1
        assert multiplicity.dtype.kind == "i"
        assert multiplicity.shape == matrix.shape
        assert np.sum(multiplicity) == op.mode_cut
    else:
        assert isinstance(matrix, TridiagonalFamily)
        assert multiplicity.dtype.kind == "i"
        assert multiplicity.shape == (len(matrix),)
        assert np.sum(multiplicity * np.arange(len(matrix), 0, -1)) \
            == op.mode_cut
    assert len(op.eigenvalues()) == op.mode_cut


def below_one(axis):
    """A field along ``axis`` whose base stays below one: its effective
    coefficient 1 / (0.5 + 0.1 <axis, x>), in [1.67, 2.5], is not affine,
    so the exact sphere counts it by the dual family of its base.  Its
    c1 = 2.5 is that of 2 + 0.5 <axis, x>, so the two have the same mode
    cuts."""
    return DampingField.affine(0.5, 0.1, axis)


def sphere_cut(sphere, field, h, cut_factor, degree):
    """The exact sphere's mode cut in closed form: degrees 0..n, n the first
    with n(n+1) >= cut_factor times the ellipticity threshold, so (n + 1)^2
    modes; None when the basis stops below degree n."""
    need = cut_factor * constants_for(field, sphere).ellipticity_threshold(h)
    n = 0
    while n * (n + 1) < need:
        n += 1
    return None if n > degree else (n + 1) ** 2


def test_block_and_dense_paths_agree(sphere):
    # rotation oracle: an affine field along any axis is counted by the
    # Sturm sweep of a + b z; the same field's 2-D product-rule Gram matrix
    # on the harmonics, counted by Bunch-Kaufman inertia, must give the
    # same mode cuts, counts and borderlines, and the same spectra
    basis = exact_sphere_spectrum(32)
    for axis, (offset, slope, sign, radii) in itertools.product(
            [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0),
             (2.0, -1.0, 2.0), (0.3, 0.1, -0.9)],
            [(2.0, 0.5, 1.0, (1.0, 2.5, 4.0, 10.0)),
             (2.0, -0.5, -1.0, (1.5, 7.0)),
             (3.0, -1.5, 1.0, (1.0, 2.0, 4.0))]):
        field = DampingField.affine(offset, slope, sign * np.asarray(axis))
        gram = product_gram(32, field, sphere_cut(
            sphere, field, 1.0 / radii[-1], 2.0, 32))
        for r in radii:
            op = build_operator(basis, field, 1.0 / r, surface=sphere)
            [(family, _)] = op.blocks
            assert isinstance(family, TridiagonalFamily)
            assert op.mode_cut == sphere_cut(sphere, field, 1.0 / r, 2.0, 32)
            reference = product_section(basis, 1.0 / r, op.mode_cut, gram)
            for zero_tol in (ZERO_TOL, 0.05):
                assert count_negative(op, zero_tol=zero_tol) \
                    == count_negative(reference, zero_tol=zero_tol)
            if r <= 4.0:
                assert np.max(np.abs(op.eigenvalues()
                                     - reference.eigenvalues())) < 1e-10


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


def repeated(matrix, times=1):
    """``times`` copies of a dense block, each standing for modes of its
    own: a dense block's layout is its modes, so a repeat is listed."""
    return [(matrix, np.arange(len(matrix)) + len(matrix) * copy)
            for copy in range(times)]


def test_inertia_count_on_planted_spectra(monkeypatch):
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    operator = GalerkinOperator(0, [
        *repeated(planted([0.0, 5e-13, -5e-13, 2e-12, -2e-12, -0.7, 1.3,
                           3.0], 1)),
        *repeated(swap),
        # exactly on the thresholds: pivots of the shifted block are 0
        *repeated(np.diag([ZERO_TOL, -ZERO_TOL, 0.5])),
        *repeated(planted([-2e-12, 0.0, 4e-13, -1.5, 0.25], 2), 2),
        *repeated(planted([-1.0, 1e-13, 2.0], 3)),
        *repeated(planted([-2e-12, -3e-13, 2e-12], 4), 3),
        # cluster values, each with its own multiplicity
        (np.array([0.0, 5e-13, -5e-13, 2e-12, -2e-12]),
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
    # the counting code imports scipy.linalg where it runs, and looks each
    # routine up there on each call
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", no_eigensolver)
    assert count_negative(operator) == (negative, borderline)

    # a polar-affine section is counted without eigenvalues or factorizations
    polar = build_operator(exact_sphere_spectrum(40), DampingField.affine(
        2.0, 0.5, (0.0, 0.0, 1.0)), 0.25,
        surface=AnalyticSurface.unit_sphere())
    monkeypatch.undo()
    expected = eigvalsh_count(polar)
    for name in ("eigh_tridiagonal", "eigvalsh_tridiagonal"):
        monkeypatch.setattr(scipy.linalg, name, no_eigensolver)
    monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", no_eigensolver)
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
    operator = GalerkinOperator(size * multiplicity,
                                repeated(matrix, multiplicity))
    assert count_negative(operator) == eigvalsh_count(operator)


def stored(off_diagonal):
    """The squares of a family whose entry coupling rows n - 1 and n of
    block m is ``off_diagonal[n (n - 1) / 2 + m]``: row n's entries are one
    run."""
    return lambda n: np.square(off_diagonal[n * (n - 1) // 2:n * (n + 1) // 2])


def random_family(data, size):
    """A TridiagonalFamily of ``size`` blocks drawn from Hypothesis data,
    with some couplings zero and isolated diagonal entries planted at 0 and
    +-ZERO_TOL.  Half the families declare the bound max |off-diagonal|,
    and some diagonals drift upwards, so that a sweep may leave early."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    scale = data.draw(st.sampled_from([1e-6, 1.0, 1e3]))
    drift = data.draw(st.sampled_from([0.0, 1.0, 4.0]))
    diagonal = scale * (rng.standard_normal(size) + drift * np.arange(size))
    off_diagonal = scale * rng.standard_normal(size * (size - 1) // 2)
    off_diagonal[rng.random(len(off_diagonal)) < 0.2] = 0.0
    rows = np.repeat(np.arange(size), np.arange(size))
    for n in data.draw(st.lists(st.integers(0, size - 1), max_size=3)):
        # row n decouples from its neighbours in every block
        off_diagonal[(rows == n) | (rows == n + 1)] = 0.0
        diagonal[n] = data.draw(st.sampled_from([0.0, ZERO_TOL, -ZERO_TOL]))
    bound = float(np.max(np.abs(off_diagonal), initial=0.0)) \
        if data.draw(st.booleans()) else np.inf
    return TridiagonalFamily(diagonal, stored(off_diagonal), bound=bound)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(size=st.integers(1, 24), data=st.data())
def test_sturm_count_matches_eigvalsh_tridiagonal(size, data):
    family = random_family(data, size)
    multiplicity = np.array(data.draw(st.lists(
        st.integers(1, 3), min_size=size, max_size=size)))
    spectra = [eigvalsh_tridiagonal(*block) for block in family.blocks()]
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
                               stored(np.array([1.0, 0, 0, 0, 0, 0])))
    assert count_negative(GalerkinOperator(0, [(family, np.ones(4))]),
                          zero_tol=0.25) == (0, 3 + 2 + 2 + 1)
    # block 0, [[-tol, 1], [1, 0]], has eigenvalues near -1 and 1, yet the
    # first pivot of T + tol I is -tol + tol = 0 exactly, and the next one
    # 0 - 1 / (+tiny) = -inf; block 1, [0], is one borderline eigenvalue
    family = TridiagonalFamily(np.array([-ZERO_TOL, 0.0]),
                               stored(np.array([1.0])))
    operator = GalerkinOperator(0, [(family, np.array([1, 1]))])
    assert count_negative(operator) == (1, 1) == eigvalsh_count(operator)


def test_sturm_sweep_needs_one_ascending_last_degree_per_member():
    # each member is swept only through its last degree, and members drop
    # out of the sweep in order; a batch member without one would be
    # counted by no row, or silently left out
    family, multiplicity = semiclassical_count._polar_family(
        2.0, 0.5, False, np.array([[0.5], [0.25]]), 6)
    below, up_to = semiclassical_count._running_counts(
        family, multiplicity, [3, 6], ZERO_TOL)[:, 1, 6]
    assert (below, up_to - below) == count_negative(GalerkinOperator(
        0, [(TridiagonalFamily(family.diagonal[1], family.squares),
             multiplicity)]))
    for last in ([6, 3], [6], [2, 4, 6]):
        with pytest.raises(ValueError):
            semiclassical_count._running_counts(family, multiplicity, last,
                                                ZERO_TOL)


def asking(family, asked):
    """``family`` with its squares recorded: each row n asked for is
    appended to ``asked``."""
    def squares(n):
        asked.append(n)
        return family.squares(n)

    return dataclasses.replace(family, squares=squares)


def test_sweep_generates_each_row_of_couplings_once():
    # the sweep asks for each row's squared couplings at most once, in
    # order: without a bound every row, with one a leading run of rows
    family, multiplicity = semiclassical_count._polar_family(
        2.0, 0.5, False, 1.0 / 12.0, 40)
    expected = eigvalsh_count(GalerkinOperator(0, [(family, multiplicity)]))
    for bound in (np.inf, family.bound):
        asked = []
        assert count_negative(GalerkinOperator(0, [(asking(
            dataclasses.replace(family, bound=bound), asked),
            multiplicity)])) == expected
        assert asked == list(range(len(asked)))
        assert (len(asked) < 41) == np.isfinite(bound)


@pytest.mark.parametrize("slope", [0.5, 0.1, -1.5, 2.0 ** 0.5])
def test_polar_squares_are_the_jacobi_squares(slope):
    # the premise of the sweep's certificate: each served square of a polar
    # family is n^2 - m^2, exact, times one float factor, three roundings
    # from slope^2 (n^2 - m^2) / ((2n - 1)(2n + 1)), so within 3 ulp of it
    # in exact arithmetic, and at most fl(bound^2); the model and the dual
    # family, above one and below, serve the same squares bit for bit
    model, _ = semiclassical_count._polar_family(2.0, slope, False, 0.1, 400)
    dual, _ = semiclassical_count._polar_family(0.5, slope, True, 0.1, 400)
    assert model.dual is None and dual.dual is not None
    square_bound = model.bound * model.bound
    exact_slope = Fraction(slope) ** 2
    for n in range(401):
        squares = model.squares(n)
        assert np.array_equal(squares, dual.squares(n))
        assert squares.shape == (n,) and np.all(squares <= square_bound)
        if n % 10 and n > 40:
            continue
        for m, (square, spacing) in enumerate(zip(squares.tolist(),
                                                  np.spacing(squares))):
            exact = exact_slope * (n * n - m * m) / ((2 * n - 1) * (2 * n + 1))
            assert abs(Fraction(square) - exact) <= 3 * Fraction(spacing)


def test_blocks_ask_for_each_row_once(sphere):
    # an eigenvalue listing and a probe section ask a family for each row's
    # squares once, L calls for L + 1 orders, not once per order; each
    # off-diagonal is nonnegative and squares back to its row within 1 ulp
    basis = exact_sphere_spectrum(60)
    for field in (DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0)),
                  below_one((0.0, 0.0, 1.0))):
        op = build_operator(basis, field, 1.0 / 12.0, surface=sphere)
        [(family, multiplicity)] = op.blocks
        size = len(family)
        assert size > 20
        for listing in (
                lambda op: op.eigenvalues(),
                lambda op: list(semiclassical_count._block_slopes(
                    basis, op, 1.0 / 12.0))):
            asked = []
            spied = GalerkinOperator(op.mode_cut, [(asking(family, asked),
                                                    multiplicity)])
            assert len(listing(spied)) == len(listing(op))
            assert asked == list(range(1, size))
        for m, (diagonal, off_diagonal) in enumerate(family.blocks()):
            assert np.array_equal(diagonal, family.diagonal[m:])
            rows = np.array([family.squares(n)[m] for n in range(m + 1, size)])
            assert np.all(off_diagonal >= 0.0)
            assert np.all(np.abs(np.square(off_diagonal) - rows)
                          <= np.spacing(rows))


def full_recurrence(family, multiplicity, last, zero_tol):
    """The running-count table _running_counts returns for ``family``, from
    the plain pivot recurrence: every row of every member through its last,
    one row's couplings per call, no exit."""
    rows = last[-1] + 1
    members = np.arange(len(last))
    diagonal = family.diagonal.reshape(-1, len(family))[:, :rows]
    shifts = np.array([zero_tol, -zero_tol])[:, None, None]
    outright = 0
    if family.dual is None:
        shifted = diagonal + shifts
    else:
        model = family.dual.reshape(-1, len(family))[:, :rows]
        moved = model + shifts
        with np.errstate(divide="ignore"):
            shifted = diagonal + (1.0 / model - 1.0 / moved)
        outright = (moved < 0.0) * np.cumsum(multiplicity)[:rows]
    ties = np.array([1.0, -1.0])[:, None, None] * np.finfo(float).tiny
    fresh = np.zeros(shifted.shape, dtype=np.int64)
    pivots = np.zeros((2, len(last), 0))
    for n in range(rows):
        squares = family.squares(n)
        with np.errstate(over="ignore"):
            pivots = shifted[..., n, None] - np.append(
                squares / pivots, np.zeros((2, len(last), 1)), axis=-1)
        pivots = np.where(pivots == 0.0, ties, pivots)
        swept = members[np.asarray(last) >= n]
        fresh[:, swept, n] = (pivots[:, swept] < 0.0) @ multiplicity[:n + 1]
    return np.cumsum(fresh + outright, axis=-1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(offset=st.floats(1.1, 3.0), fraction=st.floats(-0.95, 0.95),
       dual=st.booleans(),
       radii=st.lists(st.floats(2.0, 40.0), min_size=1, max_size=5,
                      unique=True),
       factor=st.sampled_from([2.0, 3.0]),
       zero_tol=st.sampled_from([0.0, ZERO_TOL, 0.05, 1.0, 1.5, 3.0]))
def test_sweep_table_matches_the_full_recurrence(sphere, offset, fraction,
                                                 dual, radii, factor,
                                                 zero_tol):
    # leaving the sweep at a certificate changes no running count at any
    # degree of any member, bit for bit, above one and below
    base = drawn_base(offset, fraction, dual)
    field = DampingField.affine(*base, (0.0, 0.0, 1.0))
    r_grid = np.sort(radii)
    last = [sphere_degree_for(factor * constants_for(
        field, sphere).ellipticity_threshold(1.0 / r)) for r in r_grid]
    family, multiplicity = semiclassical_count._polar_family(
        *base, dual, 1.0 / r_grid[:, None], last[-1])
    assert np.isfinite(family.bound)
    assert np.array_equal(
        semiclassical_count._running_counts(family, multiplicity, last,
                                            zero_tol),
        full_recurrence(family, multiplicity, last, zero_tol))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(size=st.integers(2, 30), seed=st.integers(0, 2 ** 32 - 1),
       diagonal=st.sampled_from([0.0, 1e-3, 0.3, 1.0]))
def test_two_by_two_pivots_have_negative_determinant(size, seed, diagonal):
    # so each 2 x 2 pivot holds one eigenvalue of each sign, as _inertia
    # counts it
    matrix = np.random.default_rng(seed).standard_normal((size, size))
    matrix = matrix + matrix.T
    matrix[np.diag_indices(size)] *= diagonal
    factor, pivots, _ = dsytrf(matrix, lower=1)
    k = 0
    while k < size:
        if pivots[k] < 0:
            assert pivots[k + 1] == pivots[k]
            assert factor[k, k] * factor[k + 1, k + 1] \
                - factor[k + 1, k] ** 2 < 0.0
            k += 2
        else:
            k += 1


def planted_dual(zero_tol):
    """A bounded dual family of 40 rows whose model diagonal D passes
    zero_tol exactly at row 20, where the shifted diagonal a - (D - zero_tol)
    ^-1 is -inf, after a run of rows counted outright."""
    model = np.concatenate([np.linspace(1.0, 2.9, 20), [zero_tol],
                            np.full(19, zero_tol + 4.0)])
    couplings = np.full(40 * 39 // 2, 0.01)
    return TridiagonalFamily(0.5 - 1.0 / model, stored(couplings),
                             dual=model, bound=0.01)


def test_late_negative_diagonals_block_the_exit(sphere):
    # where a shifted diagonal past the check row is negative or -inf no
    # certificate holds, however positive the pivots so far: at zero_tol 3
    # the dual diagonal a - (D - 3)^-1 of affine:0.5,0.3,z dips far below
    # zero where D passes 3, on its scan's recount cuts at r 4..14, and a
    # planted dual row is -inf
    field = DampingField.affine(0.5, 0.3, (0.0, 0.0, 1.0))
    r_grid = np.linspace(4.0, 14.0, 11)
    last = [sphere_degree_for(3.0 * constants_for(
        field, sphere).ellipticity_threshold(1.0 / r)) for r in r_grid]
    family, multiplicity = semiclassical_count._polar_family(
        0.5, 0.3, True, 1.0 / r_grid[:, None], last[-1])
    shifted = family.diagonal + 1.0 / family.dual - 1.0 / (family.dual - 3.0)
    assert np.any(shifted[:, semiclassical_count.CERTIFY_STRIDE:] < 0.0)
    for family, multiplicity, last in [
            (family, multiplicity, last),
            (planted_dual(3.0), np.ones(40, dtype=int), [39])]:
        assert np.array_equal(
            semiclassical_count._running_counts(family, multiplicity, last,
                                                3.0),
            full_recurrence(family, multiplicity, last, 3.0))
    # the -inf row is one negative pivot in each of the 21 blocks through it
    table = full_recurrence(planted_dual(3.0), np.ones(40, dtype=int), [39],
                            3.0)
    assert table[1, 0, 20] - table[1, 0, 19] == 21
    # and a bounded family whose diagonal dips negative after a long
    # positive run still counts the dip
    diagonal = np.full(60, 4.0)
    diagonal[44] = -1.0
    family = TridiagonalFamily(diagonal, stored(np.full(60 * 59 // 2, 0.5)),
                               bound=0.5)
    operator = GalerkinOperator(0, [(family, np.ones(60, dtype=int))])
    assert count_negative(operator) == eigvalsh_count(operator)
    assert count_negative(operator).negative == 45


def test_sweep_weighs_any_multiplicity_and_exact_ties():
    # multiplicities 3 and 5, not only the polar 1s and 2s, in a batch whose
    # members stop at different degrees, and exact zero pivots at both
    # shifts: decoupled rows planted at +-zero_tol and 0, and at rows 25-26
    # the block [[3/4, 1], [1, 3/4]], whose second pivot at zero_tol 1/4 is
    # 1 - 1/1 = 0 in every order through it.  Row counts are exact float
    # sums, and each order's slot enters its first row as zero
    tol, size = 0.25, 32
    rng = np.random.default_rng(11)
    diagonal = rng.standard_normal((4, size)) + 0.4 * np.arange(size)
    off_diagonal = 0.3 * rng.standard_normal(size * (size - 1) // 2)
    rows = np.repeat(np.arange(size), np.arange(size))
    for n in (3, 11, 20, 24):
        off_diagonal[(rows == n) | (rows == n + 1)] = 0.0
    diagonal[:, 3] = tol
    diagonal[:, 11] = -tol
    diagonal[:, 20] = [tol, -tol, 0.0, tol]
    diagonal[:, 25:27] = 0.75
    off_diagonal[rows == 26] = 1.0
    multiplicity = np.where(np.arange(size) % 2 == 0, 3, 5)
    for bound in (np.inf, float(np.max(np.abs(off_diagonal)))):
        family = TridiagonalFamily(diagonal, stored(off_diagonal),
                                   bound=bound)
        for last in ([31, 31, 31, 31], [4, 12, 26, 31]):
            table = semiclassical_count._running_counts(
                family, multiplicity, last, tol)
            assert np.array_equal(
                table, full_recurrence(family, multiplicity, last, tol))
            # a tie at -zero_tol is within it, and one at zero_tol is not
            # below -zero_tol: every member's borderline grows at row 3
            below, up_to = table[:, :, 3] - table[:, :, 2]
            assert np.all(up_to - below >= multiplicity[3])
    lone = TridiagonalFamily(diagonal[0], stored(off_diagonal))
    operator = GalerkinOperator(0, [(lone, multiplicity)])
    assert count_negative(operator, zero_tol=tol) \
        == eigvalsh_count(operator, zero_tol=tol)


def test_sweep_leaves_once_every_later_row_is_certified(sphere, monkeypatch):
    # the z batch of the axis-blocks benchmark workload asks for at most
    # 65% of its rows' squares; without a bound the same batch asks for all
    # of them, to the same table
    asked, sweeps = [], []
    running_counts = semiclassical_count._running_counts

    def recorded(family, *args):
        sweeps.append(((family,) + args,
                       running_counts(asking(family, asked), *args)))
        return sweeps[-1][1]

    monkeypatch.setattr(semiclassical_count, "_running_counts", recorded)
    field = DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0))
    r_grid = np.linspace(12.32, 48.32, 4)
    basis = exact_sphere_spectrum(sphere_degree_for(
        3.2 * constants_for(field, sphere).ellipticity_threshold(
            1.0 / r_grid[-1])))
    report = scan(sphere, field, r_grid, basis)
    [((family, multiplicity, last, zero_tol), table)] = sweeps
    rows = last[-1] + 1
    assert zero_tol == ZERO_TOL
    assert asked == list(range(len(asked))) and len(asked) <= 0.65 * rows
    asked.clear()
    unbounded = running_counts(asking(dataclasses.replace(
        family, bound=np.inf), asked), multiplicity, last, zero_tol)
    assert np.array_equal(unbounded, table)
    assert asked == list(range(rows))
    assert report.n_scalar.tolist() == [
        closed_form_axis_count(r, 2.0, 0.5).negative for r in r_grid]


def axis_orders(r, offset, slope):
    """(m, D, J) per order m of affine:offset,slope,z on the unit sphere,
    truncated at 2x the ellipticity threshold as the program cuts: D the
    model diagonal sqrt(1 + n(n+1) / r^2) over degrees n = m..top, and J
    the off-diagonal of the Jacobi matrix J_m of the orthonormal
    associated Legendre functions."""
    dual = offset + abs(slope) < 1.0
    c1 = 1.0 / (offset - abs(slope)) if dual else offset + abs(slope)
    need = 2.0 * (c1 * c1 - 1.0) * r * r
    top = 0
    while top * (top + 1) < need:
        top += 1
    for m in range(top + 1):
        n = np.arange(m, top + 1)
        k = n[1:]
        yield (m, np.sqrt(1.0 + n * (n + 1.0) / (r * r)),
               np.sqrt((k * k - m * m) / ((2.0 * k - 1.0) * (2.0 * k + 1.0))))


def closed_form_axis_count(r, offset, slope, zero_tol=ZERO_TOL):
    """NegativeCount of affine:offset,slope,z on the unit sphere from
    scipy's tridiagonal eigenvalues, truncated at 2x the ellipticity
    threshold: eigenvalues below -zero_tol and those within zero_tol.

    Per order m, with D = diag(sqrt(1 + n(n+1) / r^2)), a base above one
    gives the blocks D - a - b J_m, and one below one the model
    D - P^-1, P = a + b J_m, which by Haynsworth's inertia additivity has
    as many eigenvalues below -s as the dual a - (D + s)^-1 + b J_m has
    below 0, for D + s > 0: s = zero_tol counts those below -zero_tol,
    s = -zero_tol those up to zero_tol.  No eigenvalue may lie within 1e-9
    of +-zero_tol, nor a dual one within 1e-9 of 0, where LAPACK's
    rounding could move it across."""
    dual = offset + abs(slope) < 1.0
    negative = borderline = 0
    for m, model, jacobi in axis_orders(r, offset, slope):
        if dual:
            assert np.all(model > zero_tol)
            spectra = [eigvalsh_tridiagonal(offset - 1.0 / (model + s),
                                            slope * jacobi)
                       for s in (zero_tol, -zero_tol)]
            assert min(np.min(np.abs(values)) for values in spectra) > 1e-9
            below, up_to = (int(np.sum(values < 0.0)) for values in spectra)
        else:
            values = eigvalsh_tridiagonal(model - offset, -slope * jacobi)
            assert np.min(np.abs(np.abs(values) - zero_tol)) > 1e-9
            below = int(np.sum(values < -zero_tol))
            up_to = int(np.sum(values <= zero_tol))
        weight = 1 if m == 0 else 2
        negative += weight * below
        borderline += weight * (up_to - below)
    return NegativeCount(negative, borderline)


def test_axis_affine_counts_match_closed_form(sphere, tilted):
    basis = exact_sphere_spectrum(420)
    for r, expected in ((32.0, 3157), (64.0, 12626), (128.0, 50510)):
        got = count_negative(build_operator(basis, tilted, 1.0 / r,
                                            surface=sphere))
        assert got.negative == expected == closed_form_axis_count(
            r, 2.0, 0.5).negative


@pytest.mark.parametrize("zero_tol", [ZERO_TOL, 0.05, 1.5])
@pytest.mark.parametrize("r", [50.0, 100.0])
def test_axis_affine_borderline_counts_match_closed_form(sphere, tilted, r,
                                                         zero_tol):
    # the sweep's count below -zero_tol and its borderline, from the same
    # pivot recurrence at both shifts, against LAPACK per order
    got = count_negative(build_operator(exact_sphere_spectrum(420), tilted,
                                        1.0 / r, surface=sphere), zero_tol)
    assert got == closed_form_axis_count(r, 2.0, 0.5, zero_tol)


@pytest.mark.parametrize("r, zero_tol, expected", [
    (25.0, ZERO_TOL, (3279, 0)), (25.0, 0.05, (3138, 287)),
    (50.0, ZERO_TOL, (13123, 0)), (50.0, 0.05, (12558, 1148))])
def test_dual_axis_counts_match_closed_form(sphere, r, zero_tol, expected):
    # a base below one is counted by the sweep of the dual family; the
    # oracle forms the dual at each shift itself and counts it with LAPACK
    # per order, so it repeats none of the program's pivot recurrence
    field = DampingField.affine(0.5, 0.3, (0.0, 0.0, 1.0))
    got = count_negative(build_operator(exact_sphere_spectrum(420), field,
                                        1.0 / r, surface=sphere), zero_tol)
    assert got == closed_form_axis_count(r, 0.5, 0.3, zero_tol) == expected


def dense_dual_axis_count(r, offset, slope, zero_tol):
    """NegativeCount of affine:offset,slope,z below one on the unit sphere
    from the dense model itself: per order m, the eigenvalues of
    diag(D_m) - inv(a + b J_m) below -zero_tol and within zero_tol, at the
    cut of :func:`closed_form_axis_count`.  It forms neither the dual nor
    its shifted diagonal, so it repeats no Haynsworth step and no rows
    counted outright.  No eigenvalue may lie within 1e-9 of +-zero_tol."""
    negative = borderline = 0
    for m, model, jacobi in axis_orders(r, offset, slope):
        base = (np.diag(np.full(len(model), offset))
                + np.diag(slope * jacobi, 1) + np.diag(slope * jacobi, -1))
        values = np.linalg.eigvalsh(np.diag(model) - np.linalg.inv(base))
        assert np.min(np.abs(np.abs(values) - zero_tol)) > 1e-9
        weight = 1 if m == 0 else 2
        negative += weight * int(np.sum(values < -zero_tol))
        borderline += weight * int(np.sum(np.abs(values) <= zero_tol))
    return NegativeCount(negative, borderline)


@pytest.mark.parametrize("r, zero_tol, expected", [
    (6.0, 1.5, (39, 480)), (6.0, 3.0, (3, 999)),
    (12.0, 1.5, (160, 1912)), (12.0, 3.0, (15, 3922))])
def test_dual_rows_counted_outright_match_dense_model(sphere, r, zero_tol,
                                                      expected):
    # above zero_tol = 1 some rows have D_n < zero_tol (D_0 = 1 always, and
    # n <= 12 at r = 12 and zero_tol 1.5), where the dual sweep counts a
    # negative eigenvalue outside its recurrence; the dense model counts
    # them as eigenvalues like any other
    field = DampingField.affine(0.5, 0.3, (0.0, 0.0, 1.0))
    got = count_negative(build_operator(exact_sphere_spectrum(100), field,
                                        1.0 / r, surface=sphere), zero_tol)
    assert got == dense_dual_axis_count(r, 0.5, 0.3, zero_tol) == expected


def test_axis_affine_count_matches_closed_form_at_r_200(sphere, tilted):
    got = count_negative(build_operator(exact_sphere_spectrum(650), tilted,
                                        1.0 / 200.0, surface=sphere))
    assert got == closed_form_axis_count(200.0, 2.0, 0.5) == (123342, 0)


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
    # below one, along a tilted axis: half the integral of (a + b t)^-2 - 1
    # over [-1, 1] is 1 / (a^2 - b^2) - 1
    below = DampingField.affine(0.5, 0.3, (1.0, 2.0, 2.0))
    assert weyl_coefficient(sphere, below) == pytest.approx(
        1.0 / (0.5 ** 2 - 0.3 ** 2) - 1.0, abs=1e-13)


def test_weyl_on_mesh(tilted):
    # a mesh integrates by its lumped vertex rule, close to the sphere's
    # closed form 37/12 on a fine icosphere
    mesh = icosphere(3)
    gamma0 = tilted.effective(mesh.vertices)
    lumped = np.dot(mesh.vertex_areas(), gamma0 * gamma0 - 1.0) / (4.0 * np.pi)
    assert weyl_coefficient(mesh, tilted) == lumped
    assert weyl_coefficient(mesh, tilted) == pytest.approx(37.0 / 12.0,
                                                           rel=1e-2)


WEYL_FIELDS = [
    DampingField.constant(2.0), DampingField.constant(0.4),
    DampingField.affine(2.0, 0.4, (0.0, 0.0, 1.0)),
    DampingField.affine(2.0, 0.4, (1.0, 0.0, 0.0)),
    DampingField.affine(2.0, 0.4, (1.0, 2.0, 2.0)),
    DampingField.affine(0.5, 0.2, (0.0, 0.0, 1.0)),
    DampingField.affine(0.5, 0.2, (1.0, 0.0, 0.0)),
    DampingField.affine(0.5, 0.2, (1.0, 2.0, 2.0)),
    DampingField.affine(2.0, 0.4, (1.0, 0.0, 0.0), invert=True),
    DampingField.affine(0.5, 0.2, (1.0, 2.0, 2.0), invert=True),
]


@pytest.mark.parametrize("axes", [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0)],
                         ids=["sphere", "ellipsoid"])
def test_weyl_coefficient_is_the_rule_sum(axes):
    # the integrand is evaluated in place, bit for bit the rule's sum of
    # (g * g - 1) * w, g = max(b, 1 / b) from the base values b
    surface = AnalyticSurface.ellipsoid(*axes)
    points, weights = _mapped_rule(axes)
    for field in WEYL_FIELDS:
        base = np.full(len(points), field.value) \
            if field.kind == "constant" \
            else field.offset + field.slope * (points @ field.axis)
        g = np.maximum(base, 1.0 / base)
        assert weyl_coefficient(surface, field) == float(
            np.sum((g * g - 1.0) * weights)) / (4.0 * np.pi)


@pytest.mark.parametrize("field", [
    DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0)),
    DampingField.affine(0.5, 0.3, (1.0, 0.0, 0.0)),
    DampingField.constant(0.4)], ids=["above", "below", "constant"])
def test_weyl_integrand_holds_one_rule_array(sphere, field):
    # the base values, overwritten by the effective values, then by the
    # integrand and then by the weighted integrand; the reciprocals, a copy
    # of the base or an integrand or weighting temporary out of place would
    # each add a rule array.  The masks of the checks take 1/8 of one
    points, _ = _mapped_rule((1.0, 1.0, 1.0))
    weyl_coefficient(sphere, field)
    peak = traced_peak(lambda: weyl_coefficient(sphere, field))
    assert peak < 1.5 * len(points) * 8


def test_vertex_table_is_left_as_given():
    # the effective values are written into a copy of the table, never into
    # the table a field holds
    basis = solve_lowest(assemble_fem(icosphere(1)), 10)
    table = np.random.default_rng(3).uniform(0.3, 0.9, len(basis.nodes))
    field = DampingField.vertex_table(table)
    given = field.table.tobytes()
    gamma0 = field.effective(basis.nodes)
    assert np.array_equal(gamma0, 1.0 / table)
    semiclassical_count._damping_gram(basis, field, len(basis.values) - 1)
    assert field.table.tobytes() == given


def test_weyl_vanishes_toward_one(sphere):
    barely = DampingField.constant(1.0 + 1e-9)
    assert weyl_coefficient(sphere, barely) < 1e-6


@pytest.mark.parametrize("field", [
    DampingField.affine(1.2, 0.5, (0.0, 0.0, 1.0)),
    DampingField.affine(0.2, 0.2, (0.0, 0.0, 1.0)),
], ids=["touches-one", "reaches-zero"])
def test_weyl_coefficient_refuses_what_counts_refuse(sphere, field):
    # the product rule has no node where these fields touch 1 or vanish, so
    # only the range gate every count passes tells them from a valid field
    with pytest.raises(InvalidFieldError):
        constants_for(field, sphere)
    with pytest.raises(InvalidFieldError):
        weyl_coefficient(sphere, field)


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


def test_below_one_scan_reaches_large_r(sphere):
    # the north star below one, out of a dense section's reach: the dual
    # sweep counts 1 / (0.5 + 0.3 <axis, x>) along an oblique axis at
    # r = 50..100, through degree 850, against the Weyl coefficient
    # c = 1 / (a^2 - b^2) - 1 = 5.25.  With K the scan's own largest
    # |N - c r^2| / r, the least-squares coefficient is within
    # K sum(r^3) / sum(r^4) of c
    field = DampingField.affine(0.5, 0.3, (1.0, 2.0, 2.0))
    r_grid = np.linspace(50.0, 100.0, 11)
    basis = exact_sphere_spectrum(sphere_degree_for(
        3.0 * constants_for(field, sphere).ellipticity_threshold(
            1.0 / r_grid[-1])))
    report = scan(sphere, field, r_grid, basis)
    assert report.stability_delta == 0 and report.passed()
    assert report.coefficient == pytest.approx(5.25, abs=1e-13)
    remainder = np.max(np.abs(report.n_scalar - 5.25 * r_grid ** 2)
                       / r_grid)
    assert remainder < 1.0
    assert abs(report.fitted_coefficient - 5.25) \
        <= remainder * np.sum(r_grid ** 3) / np.sum(r_grid ** 4)


@pytest.mark.parametrize("axis", [
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (2.0, -1.0, 2.0)],
    ids=["x", "y", "110", "212"])
def test_affine_field_on_the_sphere_takes_the_sweep(sphere, monkeypatch,
                                                    axis):
    # a field affine along any axis, its base above one or below, inverted
    # or not, is counted by the Sturm sweep alone: no Gram matrix is formed
    # and nothing factored, in a scan or a single section.  Below one the
    # family is the dual, whose diagonal a - D^-1 rises towards a
    def forbidden(*args, **kwargs):
        raise AssertionError("an affine field took the dense path")

    basis = exact_sphere_spectrum(30)
    for name in ("_damping_gram", "_inertia"):
        monkeypatch.setattr(semiclassical_count, name, forbidden)
    for (offset, slope), invert in itertools.product(
            ((2.0, 0.5), (0.5, 0.1)), (False, True)):
        field = DampingField.affine(offset, slope, axis, invert=invert)
        report = scan(sphere, field, [2.0, 4.0, 6.0], basis)
        assert report.stability_delta is not None
        op = build_operator(basis, field, 0.25, surface=sphere)
        [(family, _)] = op.blocks
        assert isinstance(family, TridiagonalFamily)
        assert (family.dual is None) == (offset > 1.0)
        if family.dual is not None:
            assert np.all(np.diff(family.diagonal) > 0.0)
            assert np.all(family.diagonal < offset)
        count_negative(op)
    assert basis.quadrature is None


@pytest.mark.parametrize("modes", [40, 20])
def test_dense_scan_forms_one_gram(sphere, monkeypatch, modes):
    # the dense path serves mesh bases alone.  At r = 1.2 the cut needs
    # lambda up to 15.1, which the 20 lowest modes of icosphere:2 reach,
    # and the 1.5x recount up to 22.7, which only the 40 lowest do
    field = below_one((1.0, 0.0, 0.0))
    r_grid = np.array([0.8, 1.0, 1.2])
    basis = solve_lowest(assemble_fem(icosphere(2)), modes)
    lasts, factored, built = [], [], []
    form, inertia = semiclassical_count._damping_gram, \
        semiclassical_count._inertia
    section = semiclassical_count._section

    def counted(basis, field, last):
        lasts.append(last)
        return form(basis, field, last)

    def counted_inertia(matrix, shift):
        factored.append(shift)
        return inertia(matrix, shift)

    def recorded(*args):
        built.append(section(*args))
        return built[-1]

    monkeypatch.setattr(semiclassical_count, "_damping_gram", counted)
    monkeypatch.setattr(semiclassical_count, "_inertia", counted_inertia)
    monkeypatch.setattr(semiclassical_count, "_section", recorded)

    def standalone(cut_factor, zero_tol):
        operators = [build_operator(basis, field, 1.0 / r, surface=sphere,
                                    cut_factor=cut_factor) for r in r_grid]
        return ([count_negative(op, zero_tol=zero_tol) for op in operators],
                operators[-1].mode_cut)

    for zero_tol in (ZERO_TOL, 0.05):
        lasts.clear()
        factored.clear()
        built.clear()
        report = scan(sphere, field, r_grid, basis, zero_tol=zero_tol)
        assert len(lasts) == 1
        # a section is one F-ordered block per reflection class over the
        # modes below its cut, each factored in a primary section at
        # +-zero_tol, in a recount at +zero_tol only: no report reads its
        # borderline.  y -> -y and z -> -z leave the field unchanged, so
        # there are four classes, all present from the first cut on
        expected = []
        for index, op in enumerate(built):
            assert len(op.blocks) == 4
            assert sum(len(columns) for _, columns in op.blocks) \
                == op.mode_cut
            for matrix, columns in op.blocks:
                assert matrix.shape == (len(columns),) * 2
                assert matrix.flags.f_contiguous
                expected += [zero_tol, -zero_tol] if index < 3 \
                    else [zero_tol]
        assert factored == expected
        assert len(built) == 3 * (1 + (modes == 40))

        counts, last_cut = standalone(2.0, zero_tol)
        assert report.n_scalar.tolist() == [c.negative for c in counts]
        assert report.borderline.tolist() == [c.borderline for c in counts]
        if modes == 40:
            recounts, last_cut = standalone(3.0, zero_tol)
            assert report.stability_delta == max(
                abs(a.negative - b.negative) for a, b in zip(recounts, counts))
            # the borderlines the recount leaves out are not all zero
            assert any(c.borderline for c in recounts) == (zero_tol == 0.05)
        else:
            assert report.stability_delta is None
        assert basis.ends[lasts[0]] == last_cut


@pytest.mark.parametrize("wider", [False, True])
def test_dense_section_is_built_in_fortran_order(sphere, mesh_basis,
                                                 monkeypatch, wider):
    # each class block has the same bits as diag(d) - G_c over the class's
    # modes below the cut, laid out for LAPACK, exact zeros of the Gram
    # matrix included, also when the section helper takes the leading part
    # of a wider cut's Gram matrices, as a scan's sections do.
    # Zeros of both signs are planted where a class Gram matrix is below
    # roundoff, and at two fixed places, so they do not depend on how its
    # sums round
    field = DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0))
    form = semiclassical_count._damping_gram

    def planted(basis, field, last):
        grams = form(basis, field, last)
        for _, gram in grams:
            tiny = np.abs(gram) < 1e-16
            gram[tiny] = np.copysign(0.0, gram[tiny])
            if len(gram) > 2:
                gram[0, 1] = gram[1, 0] = -0.0
                gram[0, 2] = gram[2, 0] = 0.0
        return grams

    monkeypatch.setattr(semiclassical_count, "_damping_gram", planted)
    top = len(mesh_basis.values) - 1
    shared = planted(mesh_basis, field, top) if wider else None
    h = 1.25
    operator = build_operator(mesh_basis, field, h, surface=sphere)
    if wider:
        operator = semiclassical_count._section(
            mesh_basis, field, sphere, h, int(np.searchsorted(
                mesh_basis.ends, operator.mode_cut)), shared)
    cut = operator.mode_cut
    assert cut < mesh_basis.mode_count
    grams = planted(mesh_basis, field, int(np.searchsorted(
        mesh_basis.ends, cut))) if shared is None else shared
    diagonal = np.sqrt(1.0 + h * h * mesh_basis.leading(cut))
    assert len(operator.blocks) == len(grams) == 4
    zeros = []
    for (matrix, columns), (all_columns, gram) in zip(operator.blocks,
                                                      grams):
        assert np.array_equal(columns, all_columns[all_columns < cut])
        gram = gram[:len(columns), :len(columns)]
        zeros += gram[gram == 0.0].tolist()
        expected = np.diag(diagonal[columns]) - gram
        assert matrix.flags.f_contiguous
        assert matrix.T.tobytes() == expected.tobytes()
    assert np.any(np.signbit(zeros)) and not np.all(np.signbit(zeros))


def dual_counts_below_reference(operator, basis, h, gram, zero_tol):
    """Whether every leading section of the dual ``operator``, through each
    degree, counts no more eigenvalues below -zero_tol, nor up to zero_tol,
    than the reference section through that degree: by Davis-Choi-Jensen
    P^-1 is at most the section of 1 / p, so the dual's model D - P^-1 is
    at least the reference's D - G."""
    [(family, multiplicity)] = operator.blocks
    table = semiclassical_count._running_counts(
        family, multiplicity, [len(family) - 1], zero_tol)
    for degree in range(len(family)):
        below, up_to = table[:, 0, degree]
        reference = count_negative(product_section(
            basis, h, (degree + 1) ** 2, gram), zero_tol=zero_tol)
        if below > reference.negative or up_to > sum(reference):
            return False
    return True


@pytest.mark.parametrize("axis, classes", [
    ((1.0, 0.0, 0.0), (3, 4, 4)), ((0.0, 1.0, 0.0), (2, 2, 2)),
    ((1.0, 1.0, 0.0), (2, 2, 2)), ((0.0, 1.0, 1.0), (1, 1, 1))],
    ids=["x", "y", "110", "011"])
def test_reflection_classes_count_as_one_block(sphere, axis, classes):
    # the 2-D product-rule reference splits by reflection: z -> -z leaves a
    # field without a z part unchanged, y -> -y one without a y part, and
    # each such reflection halves the section (at h = 4 it stops at
    # degree 1, where no mode is odd under both).  The blocks of the
    # classes must count as the whole reference section does, and so must
    # the dual section that is counted, which counts no more at any cut
    basis = exact_sphere_spectrum(16)
    field = below_one(axis)
    gram = product_gram(16, field)
    split_by = reflection_classes(16, field)
    for h, blocks in zip((4.0, 0.5, 0.3), classes):
        counted = build_operator(basis, field, h, surface=sphere)
        cut = counted.mode_cut
        split = product_section(basis, h, cut, gram, split_by)
        whole = product_section(basis, h, cut, gram)
        assert len(split.blocks) == blocks and len(whole.blocks) == 1
        assert np.max(np.abs(split.eigenvalues()
                             - whole.eigenvalues())) <= 1e-13
        for zero_tol in (ZERO_TOL, 0.05):
            assert count_negative(split, zero_tol=zero_tol) \
                == count_negative(whole, zero_tol=zero_tol) \
                == count_negative(counted, zero_tol=zero_tol)
            assert dual_counts_below_reference(counted, basis, h, gram,
                                               zero_tol)


@pytest.mark.parametrize("axis", [
    (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
    (1.0, 1.0, 0.0), (1.0, 2.0, 2.0)],
    ids=["z", "-z", "x", "y", "110", "122"])
def test_per_order_sections_match_the_product_rule(sphere, axis):
    # the test reference: the 2-D product rule over the whole grid, one
    # dense block D - G.  The dual section counts its model D - P^-1, which
    # is at least D - G, so no more eigenvalues than the reference at any
    # cut, and as many at the converged cuts the counts use
    degree = 30
    basis = exact_sphere_spectrum(degree)
    for offset, slope in ((0.5, 0.1), (0.7, -0.2)):
        field = DampingField.affine(offset, slope, axis)
        gram = product_gram(degree, field)
        for r in (0.25, 1.0, 2.5, 4.0, 6.0):
            counted = build_operator(basis, field, 1.0 / r, surface=sphere)
            assert counted.mode_cut == sphere_cut(sphere, field, 1.0 / r,
                                                  2.0, degree)
            reference = product_section(basis, 1.0 / r, counted.mode_cut,
                                        gram)
            for zero_tol in (ZERO_TOL, 0.05):
                assert count_negative(counted, zero_tol=zero_tol) \
                    == count_negative(reference, zero_tol=zero_tol)
                assert dual_counts_below_reference(counted, basis, 1.0 / r,
                                                   gram, zero_tol)


@pytest.mark.parametrize("zero_tol", [ZERO_TOL, 0.05, 1.0, 1.5, 3.0])
def test_dual_section_counts_the_inverse_model(sphere, zero_tol):
    # at a shift s the dual is counted as P - (D + s)^-1, plus each row
    # with D + s < 0 once per block holding it (Haynsworth), so its counts
    # are those of the model D - P^-1 itself, formed here one order at a
    # time with P = a I + b J_m.  D_0 = 1, so at zero_tol = 1 the shifted
    # inverse meets 1 / 0 in row 0; at 1.5 and 3 the rows of D below the
    # tolerance are counted outright
    basis = exact_sphere_spectrum(60)
    for (offset, slope), r in itertools.product(
            ((0.5, 0.3), (0.7, -0.2)), (0.5, 2.5, 6.0)):
        h = 1.0 / r
        field = DampingField.affine(offset, slope, (1.0, 2.0, 2.0))
        operator = build_operator(basis, field, h, surface=sphere)
        top = len(operator.blocks[0][0]) - 1
        values = []
        for m in range(top + 1):
            n = np.arange(m, top + 1)
            k = n[1:]
            coupling = np.diag(slope * np.sqrt(
                (k * k - m * m) / ((2.0 * k - 1.0) * (2.0 * k + 1.0))), 1)
            section = offset * np.eye(len(n)) + coupling + coupling.T
            model = np.diag(np.sqrt(1.0 + h * h * n * (n + 1.0))) \
                - np.linalg.inv(section)
            values += [np.linalg.eigvalsh(model)] * (1 if m == 0 else 2)
        values = np.concatenate(values)
        assert count_negative(operator, zero_tol=zero_tol) == (
            np.sum(values < -zero_tol), np.sum(np.abs(values) <= zero_tol))


def test_exact_sphere_refuses_a_vertex_table(sphere):
    # a table of one value per mesh vertex has no points on the exact
    # sphere to be read at
    basis = exact_sphere_spectrum(4)
    field = DampingField.vertex_table(np.full(25, 2.0))
    with pytest.raises(UsageError, match="mesh basis"):
        build_operator(basis, field, 1.0, surface=sphere)
    with pytest.raises(UsageError, match="mesh basis"):
        scan(sphere, field, [0.5, 1.0], basis)


@pytest.mark.parametrize("field, invariant", [
    (DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0)), 0b110),
    (DampingField.affine(0.5, 0.2, (1.0, 1.0, 1.0)), 0b000),
    (DampingField.constant(2.0), 0b111),
], ids=["x", "below-one-111", "constant"])
def test_mesh_gram_is_one_rank_k_update(mesh_basis, field, invariant):
    # the Gram matrix of a mesh basis is W^T W with
    # W = modes * sqrt(mass * gamma0), through every cluster, kept as one
    # rank-k update per class of modes of equal parity under the
    # reflections x, y, z (bits 0, 1, 2) that leave the field unchanged.
    # What the classes drop is roundoff, and each class keeps its part of
    # W^T W to roundoff; a field no reflection leaves unchanged is one
    # class, W^T W bit for bit
    parity = mesh_basis.quadrature.parity
    for last in (len(mesh_basis.values) - 1, len(mesh_basis.values) // 2):
        cut = int(mesh_basis.ends[last])
        scaled = mesh_basis.modes[:, :cut] * np.sqrt(
            mesh_basis.mass * field.effective(mesh_basis.nodes))[:, None]
        whole = scaled.T @ scaled
        grams = semiclassical_count._damping_gram(mesh_basis, field, last)
        classes = parity[:cut] & invariant
        assert [columns.tolist() for columns, _ in grams] == [
            np.flatnonzero(classes == c).tolist() for c in np.unique(classes)]
        if not invariant:
            [(_, gram)] = grams
            assert gram.tobytes() == whole.tobytes()
        scale = np.max(np.abs(whole))
        assert np.max(np.abs(whole[classes[:, None] != classes[None, :]]),
                      initial=0.0) < 1e-15 * scale
        for columns, gram in grams:
            assert np.array_equal(gram, gram.T)
            assert np.max(np.abs(gram - whole[np.ix_(columns, columns)])) \
                < 1e-14 * scale


def orbit_weights(basis, field):
    """(reps, weight, invariant) as :func:`_damping_gram` forms them: the
    first vertex of each vertex orbit of the reflections that leave the
    field unchanged, sqrt(size * mass * gamma0) there, and the bit mask of
    those reflections."""
    _, mass, _, _, reflections = basis.quadrature
    gamma0 = field.effective(basis.nodes)
    kept = [np.array_equal(gamma0[perm], gamma0) for perm in reflections]
    _, orbit, reps = _vertex_orbits(reflections[kept], len(mass))
    weight = np.sqrt(np.bincount(orbit)[reps] * mass[reps] * gamma0[reps])
    return reps, weight, sum(keep << bit for bit, keep in enumerate(kept))


def sliced_grams(basis, field, last):
    """(columns, G_c) per class, each W_c sliced from one scaled table
    (modes[reps, :cut] * weight[:, None])[:, columns]."""
    cut = int(basis.ends[last])
    reps, weight, invariant = orbit_weights(basis, field)
    scaled = basis.modes[reps, :cut] * weight[:, None]
    classes = basis.quadrature.parity[:cut] & invariant
    grams = []
    for character in np.unique(classes):
        columns = np.flatnonzero(classes == character)
        part = scaled[:, columns]
        grams.append((columns, part.T @ part))
    return grams


@pytest.fixture(scope="module")
def gather_bases():
    """Bases of 200 modes on icosphere:3 and of 60 modes on a rotated
    icosphere:2, which no coordinate reflection maps onto itself."""
    return (solve_lowest(assemble_fem(icosphere(3)), 200),
            solve_lowest(assemble_fem(rotated(icosphere(2))), 60))


@pytest.mark.parametrize("turned, field", [
    (False, DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0))),
    (False, DampingField.affine(2.0, 0.5, (0.0, 1.0, 0.0))),
    (False, DampingField.affine(2.0, 0.5, (1.0, 1.0, 0.0))),
    (False, DampingField.affine(0.6, 0.1, (0.0, 1.0, 0.0))),
    (True, DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0))),
], ids=["x", "y", "110", "below-one-y", "rotated"])
def test_gathered_class_grams_match_the_sliced_table(gather_bases, turned,
                                                     field):
    # each W_c is gathered from the flat mode table into one reused buffer;
    # it must hold the values and layout that slicing one scaled table gave,
    # so each G_c is bit for bit that product, at every cut
    basis = gather_bases[turned]
    top = len(basis.values) - 1
    for last in (top // 3, 2 * top // 3, top):
        grams = semiclassical_count._damping_gram(basis, field, last)
        expected = sliced_grams(basis, field, last)
        assert len(grams) == len(expected) and (len(grams) == 1) == turned
        for (columns, gram), (want_columns, want) in zip(grams, expected):
            assert np.array_equal(columns, want_columns)
            assert np.array_equal(gram, want)


def test_class_grams_form_no_scaled_table(gather_bases):
    # two buffers sized for the largest class and the Gram matrices are all
    # a dense assembly holds; a (reps, cut) table of the scaled modes, or a
    # whole-table copy of them, would add one table each
    basis = gather_bases[0]
    field = DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0))
    last = len(basis.values) - 1
    reps, _, _ = orbit_weights(basis, field)
    peak = traced_peak(
        lambda: semiclassical_count._damping_gram(basis, field, last))
    assert peak < 1.7 * len(reps) * int(basis.ends[last]) * 8


def drawn_base(offset, fraction, dual):
    """(a, b) of an affine base profile from Hypothesis draws, offset in
    [1.1, 3] and fraction in [-0.95, 0.95]: above one a = offset and
    |b| < a - 1.05; below one (``dual``) a = 1 / offset and |b| is less
    than a's distance to 0.05 and to 0.95, so the base stays inside
    (0.05, 0.95)."""
    if not dual:
        return offset, fraction * (offset - 1.05)
    return 1.0 / offset, fraction * min(1.0 / offset - 0.05,
                                        0.95 - 1.0 / offset)


@pytest.fixture(scope="module")
def level3_bases():
    """(mesh, basis) of 150 modes on icosphere:3, which x -> -x, y -> -y
    and z -> -z map onto itself, and on a rotated copy, which none does."""
    meshes = icosphere(3), rotated(icosphere(3))
    return [(mesh, solve_lowest(assemble_fem(mesh), 150)) for mesh in meshes]


MESH_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0),
             "110": (1.0, 1.0, 0.0), "oblique": (0.3, 0.1, -0.9)}


def drawn_mesh_field(data, nodes):
    """(field, mixes) from Hypothesis draws: an affine field along one of
    MESH_AXES, or a vertex table that every coordinate reflection leaves
    unchanged or one none does, each above one or below.  ``mixes`` is
    True when no coordinate reflection leaves the field unchanged."""
    kind = data.draw(st.sampled_from(sorted(MESH_AXES) + ["symmetric",
                                                          "asymmetric"]))
    invert = data.draw(st.booleans())
    if kind in MESH_AXES:
        # a slope too small to move gamma0 would leave it unchanged
        base = drawn_base(data.draw(st.floats(1.1, 3.0)),
                          data.draw(st.one_of(st.floats(-0.95, -0.1),
                                              st.floats(0.1, 0.95))),
                          data.draw(st.booleans()))
        return (DampingField.affine(*base, MESH_AXES[kind], invert=invert),
                kind == "oblique")
    if kind == "symmetric":
        x, y, z = np.abs(nodes).T
        table = 1.5 + x * x + 0.5 * y * z
    else:
        table = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))
                                      ).uniform(1.5, 2.5, len(nodes))
    if data.draw(st.booleans()):
        table = 1.0 / table
    return (DampingField.vertex_table(table, invert=invert),
            kind == "asymmetric")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(turned=st.booleans(),
       fractions=st.lists(st.floats(0.05, 0.99), min_size=1, max_size=4,
                          unique=True),
       data=st.data())
def test_mesh_class_counts_match_the_whole_block(level3_bases, turned,
                                                 fractions, data):
    # counting one block per reflection class must give the counts and
    # borderlines of the whole block diag(d) - W^T W,
    # W = modes * sqrt(mass * gamma0), at every radius, recount included,
    # and counts that do not fall as r grows.  A field that no reflection
    # leaves unchanged, and any field on the rotated mesh, stays one block
    # whose Gram matrix is W^T W bit for bit
    mesh, basis = level3_bases[turned]
    field, mixes = drawn_mesh_field(data, basis.nodes)
    one_block = mixes or turned
    c1 = constants_for(field, mesh).c1
    r_grid = np.sort(fractions) * np.sqrt(basis.trusted_horizon
                                          / (c1 * c1 - 1.0))
    for zero_tol in (ZERO_TOL, 0.05):
        report = scan(mesh, field, r_grid, basis, zero_tol=zero_tol)
        assert np.all(np.diff(report.n_scalar) >= 0)
        recounts = []
        for r, negative, borderline in zip(r_grid, report.n_scalar,
                                           report.borderline):
            operator = build_operator(basis, field, 1.0 / r, surface=mesh)
            cut = operator.mode_cut
            last = int(np.searchsorted(basis.ends, cut))
            scaled = basis.modes[:, :cut] * np.sqrt(
                basis.mass * field.effective(basis.nodes))[:, None]
            whole = scaled.T @ scaled
            assert count_negative(product_section(
                basis, 1.0 / r, cut, whole), zero_tol=zero_tol) \
                == (negative, borderline)
            if one_block:
                [(_, gram)] = semiclassical_count._damping_gram(
                    basis, field, last)
                assert gram.tobytes() == whole.tobytes()
                assert len(operator.blocks) == 1
            if report.stability_delta is not None:
                wider = build_operator(basis, field, 1.0 / r, surface=mesh,
                                       cut_factor=3.0).mode_cut
                scaled = basis.modes[:, :wider] * np.sqrt(
                    basis.mass * field.effective(basis.nodes))[:, None]
                recounts.append(count_negative(product_section(
                    basis, 1.0 / r, wider, scaled.T @ scaled),
                    zero_tol=zero_tol).negative - negative)
        if recounts:
            assert report.stability_delta == max(map(abs, recounts))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(offset=st.floats(1.1, 3.0), fraction=st.floats(-0.95, 0.95),
       dual=st.booleans(),
       axis=st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]),
       invert=st.booleans(),
       radii=st.lists(st.floats(1.0, 7.0), min_size=1, max_size=5,
                      unique=True),
       cut_factor=st.sampled_from([0.4, 0.9, 2.0]),
       zero_tol=st.sampled_from([ZERO_TOL, 0.05, 0.5, 1.5]), data=st.data())
def test_polar_scan_matches_per_radius_counts(sphere, offset, fraction, dual,
                                              axis, invert, radii, cut_factor,
                                              zero_tol, data):
    # one Sturm sweep counts the whole scan, above one or below; each
    # section and its recount must equal a separate build and count at that
    # radius.  Cuts below the ellipticity threshold make the counts depend
    # on the last degree, and a tolerance above one makes the dual count
    # rows of D below it outright.
    field = DampingField.affine(*drawn_base(offset, fraction, dual), axis,
                                invert=invert)
    r_grid = np.sort(radii)
    threshold = constants_for(field, sphere).ellipticity_threshold(
        1.0 / r_grid[-1])
    degree = data.draw(st.integers(
        sphere_degree_for(max(cut_factor, 1.0) * threshold),
        sphere_degree_for(max(STABILITY_FACTOR * cut_factor, 1.0)
                          * threshold) + 1))
    assert_scan_matches_per_radius(sphere, field, r_grid,
                                   exact_sphere_spectrum(degree), cut_factor,
                                   zero_tol)


def assert_scan_matches_per_radius(surface, field, r_grid, basis, cut_factor,
                                   zero_tol):
    """A scan's counts, borderlines, mode cuts and stability delta equal
    those of a separate build and count at each radius, recount included."""
    report = scan(surface, field, r_grid, basis, cut_factor=cut_factor,
                  zero_tol=zero_tol)

    def per_radius(cut_factor):
        operators = [build_operator(basis, field, 1.0 / r, surface=surface,
                                    cut_factor=cut_factor) for r in r_grid]
        return ([count_negative(op, zero_tol=zero_tol) for op in operators],
                [op.mode_cut for op in operators])

    counts, cuts = per_radius(cut_factor)
    assert report.n_scalar.tolist() == [c.negative for c in counts]
    assert report.borderline.tolist() == [c.borderline for c in counts]
    assert report.mode_cuts.tolist() == cuts
    try:
        recounts, _ = per_radius(STABILITY_FACTOR * cut_factor)
    except InsufficientSpectrumError:
        assert report.stability_delta is None
    else:
        assert report.stability_delta == max(
            abs(a.negative - b.negative) for a, b in zip(recounts, counts))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(value=st.sampled_from([2.0, 0.5]),
       radii=st.lists(st.floats(1.0, 60.0), min_size=1, max_size=5,
                      unique=True),
       cut_factor=st.sampled_from([0.9, 2.0]),
       zero_tol=st.sampled_from([ZERO_TOL, 0.05, 0.5]), data=st.data())
def test_constant_scan_matches_per_radius_counts(sphere, value, radii,
                                                 cut_factor, zero_tol, data):
    # constant damping above one and below: each section and its recount
    # must equal a separate build and count at that radius.  The basis
    # stops anywhere from the threshold's degree to one past the recount's,
    # so cuts land at the basis top at times, and a cut below the threshold
    # makes the counts depend on it: at large r several clusters lie
    # between 0.9 times the threshold and the threshold, so the recount
    # there counts more than the section
    field = DampingField.constant(value)
    r_grid = np.sort(radii)
    threshold = constants_for(field, sphere).ellipticity_threshold(
        1.0 / r_grid[-1])
    degree = data.draw(st.integers(
        sphere_degree_for(threshold),
        sphere_degree_for(STABILITY_FACTOR * cut_factor * threshold) + 1))
    assert_scan_matches_per_radius(sphere, field, r_grid,
                                   exact_sphere_spectrum(degree), cut_factor,
                                   zero_tol)


unit_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda axis: np.linalg.norm(axis) >= 0.1)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(offset=st.floats(1.1, 2.0), fraction=st.floats(-0.95, 0.95),
       axis=unit_axes, invert=st.booleans(),
       radii=st.lists(st.floats(1.0, 5.0), min_size=1, max_size=4,
                      unique=True), data=st.data())
def test_dense_scan_matches_polar_scan_rotated(sphere, offset, fraction,
                                               axis, invert, radii, data):
    # rotation oracle: a scan of an affine field along a random axis, which
    # the Sturm sweep counts as the same field along +z, against the 2-D
    # product-rule Gram matrix of the field itself on the harmonics, one
    # dense block counted by Bunch-Kaufman inertia at each radius, its cut
    # and its 1.5x recount; degrees between the cut's and one past the
    # recount's leave the recount unsupported at times
    field = DampingField.affine(offset, fraction * (offset - 1.05), axis,
                                invert=invert)
    r_grid = np.sort(radii)
    threshold = constants_for(field, sphere).ellipticity_threshold(
        1.0 / r_grid[-1])
    degree = data.draw(st.integers(sphere_degree_for(2.0 * threshold),
                                   sphere_degree_for(3.0 * threshold) + 1))
    basis = exact_sphere_spectrum(degree)
    report = scan(sphere, field, r_grid, basis)

    cuts = [[sphere_cut(sphere, field, 1.0 / r, factor, degree)
             for r in r_grid] for factor in (2.0, 3.0)]
    widest = max(cut for cut in cuts[0] + cuts[1] if cut is not None)
    gram = product_gram(degree, field, widest)
    counts = [count_negative(product_section(basis, 1.0 / r, cut, gram))
              for r, cut in zip(r_grid, cuts[0])]
    assert report.mode_cuts.tolist() == cuts[0]
    assert report.n_scalar.tolist() == [c.negative for c in counts]
    assert report.borderline.tolist() == [c.borderline for c in counts]
    if None in cuts[1]:
        assert report.stability_delta is None
    else:
        assert report.stability_delta == max(
            abs(count_negative(product_section(
                basis, 1.0 / r, cut, gram)).negative - c.negative)
            for r, cut, c in zip(r_grid, cuts[1], counts))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(offset=st.floats(1.1, 3.0), fraction=st.floats(-0.95, 0.95),
       dual=st.booleans(), axis=unit_axes,
       radii=st.lists(st.floats(0.5, 30.0), min_size=2, max_size=8,
                      unique=True))
def test_affine_scan_is_regime_symmetric_and_monotone(sphere, offset,
                                                      fraction, dual, axis,
                                                      radii):
    # the field and its pointwise reciprocal have the same effective
    # coefficient, so the same report bytes, its base range above one or
    # below; and counts never fall as r grows: D(h) decreases with r, and
    # with it D - P and the dual P - D^-1 at every shift, the cuts are
    # nested and, by Cauchy interlacing, a wider section has at least as
    # many eigenvalues below -zero_tol
    field, reciprocal = (
        DampingField.affine(*drawn_base(offset, fraction, dual), axis,
                            invert=invert) for invert in (False, True))
    r_grid = np.sort(radii)
    basis = exact_sphere_spectrum(sphere_degree_for(
        3.2 * constants_for(field, sphere).ellipticity_threshold(
            1.0 / r_grid[-1])))
    report = scan(sphere, field, r_grid, basis)
    assert report.to_csv() == scan(sphere, reciprocal, r_grid,
                                   basis).to_csv()
    assert np.all(np.diff(report.n_scalar) >= 0)


def test_polar_scan_counts_each_section_from_one_sweep(sphere, monkeypatch):
    # a scan of an affine field, above one or below, builds and counts no
    # section of its own: one sweep holds every count, primary and recount,
    # and the tables of its batch equal the counts of the lone families
    # that build_operator gives at each radius and cut, at the scan's
    # tolerance and at another.  A cut below the threshold makes the counts
    # depend on the cut
    sweeps = []
    running_counts = semiclassical_count._running_counts

    def recorded(*args):
        sweeps.append(args)
        return running_counts(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("a scan built or counted a section of its own")

    basis = exact_sphere_spectrum(40)
    for (base, radii), cut_factor in itertools.product(
            (((2.0, 0.5), [4.0, 6.0, 8.0]), ((0.5, 0.3), [2.0, 3.0, 4.0])),
            (2.0, 0.4)):
        sweeps.clear()
        monkeypatch.setattr(semiclassical_count, "_running_counts",
                            recorded)
        for name in ("build_operator", "count_negative", "_section",
                     "GalerkinOperator"):
            monkeypatch.setattr(semiclassical_count, name, forbidden)
        field = DampingField.affine(*base, (0.0, 0.0, 1.0))
        report = scan(sphere, field, np.array(radii), basis,
                      cut_factor=cut_factor)
        monkeypatch.undo()
        [(family, multiplicity, last, zero_tol)] = sweeps
        assert zero_tol == ZERO_TOL
        tables = {tol: running_counts(family, multiplicity, last, tol)
                  for tol in (0.5, ZERO_TOL)}
        delta = 0
        for member, r in enumerate(radii):
            primary, recount = (build_operator(
                basis, field, 1.0 / r, surface=sphere, cut_factor=factor)
                for factor in (cut_factor, STABILITY_FACTOR * cut_factor))
            for alone in (primary, recount):
                [(lone, _)] = alone.blocks
                for tol, table in tables.items():
                    below, up_to = table[:, member, len(lone) - 1]
                    assert (below, up_to - below) \
                        == count_negative(alone, zero_tol=tol)
            assert report.mode_cuts[member] == primary.mode_cut
            assert (report.n_scalar[member], report.borderline[member]) \
                == count_negative(primary)
            delta = max(delta, abs(count_negative(recount).negative
                                   - count_negative(primary).negative))
        assert report.stability_delta == delta


@pytest.mark.parametrize("gamma", [2.0, 0.5])
@pytest.mark.parametrize("size, radii", [(40, [4.0, 6.0, 8.0]),
                                         (-40, [0.8, 1.0, 1.2])],
                         ids=["sphere", "mesh"])
def test_constant_scan_counts_from_cluster_values(sphere, monkeypatch, gamma,
                                                  size, radii):
    # a constant scan builds and counts no section: its counts, primary and
    # recount, are those of the sections build_operator gives at each radius
    # and cut, also where zero_tol is planted exactly on |value| of a cluster
    # below zero (strictly below -zero_tol fails) or of one above (up to
    # zero_tol holds).  gamma 0.5 is the effective 2.  A negative size is a
    # mesh basis of that many icosphere:2 modes
    def forbidden(*args, **kwargs):
        raise AssertionError("a scan built or counted a section of its own")

    basis = exact_sphere_spectrum(size) if size > 0 \
        else solve_lowest(assemble_fem(icosphere(2)), -size)
    field = DampingField.constant(gamma)
    h = 1.0 / radii[1]
    values = np.sqrt(1.0 + h * h * basis.values) - 2.0
    tolerances = [ZERO_TOL, -values[values < 0.0][-1],
                  values[values > 0.0][0]]
    for zero_tol in tolerances:
        for name in ("_section", "count_negative", "build_operator"):
            monkeypatch.setattr(semiclassical_count, name, forbidden)
        report = scan(sphere, field, radii, basis, zero_tol=zero_tol)
        monkeypatch.undo()
        delta = 0
        for i, r in enumerate(radii):
            primary, recount = (count_negative(build_operator(
                basis, field, 1.0 / r, surface=sphere, cut_factor=factor),
                zero_tol=zero_tol) for factor in (2.0, 2.0 * STABILITY_FACTOR))
            assert (report.n_scalar[i], report.borderline[i]) == primary
            delta = max(delta, abs(recount.negative - primary.negative))
        assert report.stability_delta == delta
        # the planted cluster lies within the tolerance at radii[1]
        assert report.borderline[1] > 0 or zero_tol == ZERO_TOL


@pytest.mark.parametrize("field, size, radii, recounts", [
    (DampingField.constant(2.0), 40, [4.0, 6.0, 8.0], 3),
    (DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0)), 40, [4.0, 6.0, 8.0], 3),
    (DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0)), 16, [4.0, 4.2, 4.4], 1),
    (below_one((1.0, 0.0, 0.0)), -40, [0.8, 1.0, 1.2], 3),
    (below_one((1.0, 0.0, 0.0)), -20, [0.8, 1.1, 1.2], 1)],
    ids=["constant", "polar", "polar-short", "mesh", "mesh-short"])
def test_scan_finds_each_mode_cut_once(sphere, monkeypatch, field, size,
                                       radii, recounts):
    # a scan plans the last cluster of every radius in one pass per cut
    # factor, and each radius's cut is the one build_operator finds at that
    # radius and factor; a recount the basis supports at the first
    # ``recounts`` radii only is refused as a whole, and the report has no
    # recount row.  A negative size is a mesh basis of that many
    # icosphere:2 modes, a positive one the exact sphere's degree
    basis = exact_sphere_spectrum(size) if size > 0 \
        else solve_lowest(assemble_fem(icosphere(2)), -size)
    for r in radii[:recounts]:
        build_operator(basis, field, 1.0 / r, surface=sphere, cut_factor=3.0)
    if recounts < len(radii):
        with pytest.raises(InsufficientSpectrumError):
            build_operator(basis, field, 1.0 / radii[recounts],
                           surface=sphere, cut_factor=3.0)

    plans = []
    find = semiclassical_count._last_cluster

    def recorded(basis, field, constants, h, cut_factor):
        plans.append([cut_factor, h])
        last = find(basis, field, constants, h, cut_factor)
        # reached only by a plan that every radius passes
        plans[-1].append(last)
        return last

    monkeypatch.setattr(semiclassical_count, "_last_cluster", recorded)
    report = scan(sphere, field, radii, basis)
    monkeypatch.undo()
    assert [plan[0] for plan in plans] == [2.0, 3.0]
    assert [len(plan) == 3 for plan in plans] == [True,
                                                  recounts == len(radii)]
    assert (report.stability_delta is None) == (recounts < len(radii))
    for factor, h, *last in plans:
        assert np.array_equal(h, 1.0 / np.asarray(radii))
    for factor, _, last in (plan for plan in plans if len(plan) == 3):
        for r, cut in zip(radii, last):
            assert basis.ends[cut] == build_operator(
                basis, field, 1.0 / r, surface=sphere,
                cut_factor=factor).mode_cut
    assert report.mode_cuts.tolist() == [
        build_operator(basis, field, 1.0 / r, surface=sphere).mode_cut
        for r in radii]


def horizon_at(basis, horizon):
    """``basis`` trusted only up to ``horizon``."""
    return dataclasses.replace(basis, trusted_horizon=horizon)


# (field, basis, radii, cut factor, message): the plan fails first at
# radii[1], by the check named in the id, whose message it matches.  An
# overflowing cut target or threshold is also beyond the basis top, and
# "top-and-horizon" fails both of those checks, so these cases also fix
# which check names the radius
OVERFLOW = "h = 1e-100 needs eigenvalues up to inf$"
PLAN_REFUSALS = {
    "overflow": (DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0)),
                 exact_sphere_spectrum(20), [1e-100, 1e100, 1e120], 1e110,
                 OVERFLOW),
    "overflow-constant": (DampingField.constant(2.0),
                          exact_sphere_spectrum(20), [1e-100, 1e100, 1e120],
                          1e110, OVERFLOW),
    "top": (DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0)),
            exact_sphere_spectrum(20), [4.0, 7.0, 8.0], 2.0,
            "h = 0.142857 needs eigenvalues up to 514.5 but the basis stops "
            "at 420"),
    "top-constant": (DampingField.constant(2.0), exact_sphere_spectrum(20),
                     [4.0, 12.0, 13.0], 2.0,
                     "h = 0.0833333 needs eigenvalues up to 432 but"),
    "horizon": (DampingField.constant(2.0),
                horizon_at(exact_sphere_spectrum(40), 100.0),
                [4.0, 6.0, 30.0], 2.0,
                "^threshold 108 beyond the trusted horizon 100$"),
    "top-and-horizon": (DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0)),
                        horizon_at(exact_sphere_spectrum(20), 100.0),
                        [4.0, 7.0, 8.0], 2.0,
                        "h = 0.142857 needs eigenvalues up to 514.5 but"),
}


@pytest.mark.parametrize("case", PLAN_REFUSALS.values(),
                         ids=PLAN_REFUSALS.keys())
def test_scan_plan_refuses_as_the_first_failing_radius(sphere, case):
    # the one-pass plan raises what build_operator raises at the first
    # radius it cannot plan, message and all, as a plan radius by radius
    # would; the radius before it plans
    field, basis, radii, factor, message = case
    build_operator(basis, field, 1.0 / radii[0], surface=sphere,
                   cut_factor=factor)
    with pytest.raises(InsufficientSpectrumError, match=message) as built:
        build_operator(basis, field, 1.0 / radii[1], surface=sphere,
                       cut_factor=factor)
    with pytest.raises(InsufficientSpectrumError) as scanned:
        scan(sphere, field, radii, basis, cut_factor=factor)
    assert type(scanned.value) is type(built.value)
    assert str(scanned.value) == str(built.value)


# (field, basis, radii, cut factor): every radius plans at the factor, and
# the recount fails first at radii[1]; the horizon check does not depend on
# the factor, so no recount fails it alone
RECOUNT_REFUSALS = {
    "top": (DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0)),
            exact_sphere_spectrum(20), [4.0, 5.5, 6.0], 2.0),
    # constant damping checks the basis top against the threshold only, so
    # its cut target may be near overflow
    "overflow": (DampingField.constant(2.0), exact_sphere_spectrum(20),
                 [0.5, 1.0, 1.02], 5e307),
}


@pytest.mark.parametrize("case", RECOUNT_REFUSALS.values(),
                         ids=RECOUNT_REFUSALS.keys())
def test_scan_without_its_recount_has_no_stability_delta(sphere, case):
    field, basis, radii, factor = case
    recount = factor * STABILITY_FACTOR
    build_operator(basis, field, 1.0 / radii[0], surface=sphere,
                   cut_factor=recount)
    with pytest.raises(InsufficientSpectrumError):
        build_operator(basis, field, 1.0 / radii[1], surface=sphere,
                       cut_factor=recount)
    report = scan(sphere, field, radii, basis, cut_factor=factor)
    assert report.stability_delta is None
    assert report.truncation_stable is None
    assert report.mode_cuts.tolist() == [
        build_operator(basis, field, 1.0 / r, surface=sphere,
                       cut_factor=factor).mode_cut for r in radii]


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


@pytest.mark.parametrize("radii", [[5.0, np.nan], [np.nan], [0.0, 5.0],
                                   [np.inf], [5.0, np.inf], [-1.0, 5.0],
                                   [1e-155], [5.0, 1e160], [1e200]])
def test_bad_radii_rejected_before_any_mode_cut(sphere, gamma_two,
                                                monkeypatch, radii):
    def no_cut(*args):
        raise AssertionError("a mode cut was computed")

    monkeypatch.setattr(semiclassical_count, "_last_cluster", no_cut)
    with pytest.raises(UsageError, match="finite and positive"):
        scan(sphere, gamma_two, radii, exact_sphere_spectrum(40))
    with pytest.raises(UsageError, match="finite and positive"):
        weyl_prediction(sphere, gamma_two, radii)


# ----------------------------------------------------------------------
# monotonicity probe
# ----------------------------------------------------------------------

def test_probe_constant_matches_closed_form(gamma_two):
    # h dmu/dh = s - 1/s along every branch; at the crossing s = gamma0
    # the slope is (gamma0^2 - 1)/gamma0 = 3/2 for gamma0 = 2
    basis = exact_sphere_spectrum(40)
    probe = monotonicity_probe(basis, gamma_two, (0.24, 0.30), steps=7)
    assert probe.events
    for event in probe.events:
        s = event.mu + 2.0
        assert event.slope == pytest.approx(s - 1.0 / s, abs=1e-12)
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


def block_spectra(operator):
    """Eigenvalues of each block of a section, in the probe's block order:
    a family's blocks by order, cluster values one by one."""
    spectra = []
    for matrix, _ in operator.blocks:
        if isinstance(matrix, TridiagonalFamily):
            spectra += [eigvalsh_tridiagonal(*block)
                        for block in matrix.blocks()]
        elif matrix.ndim == 1:
            spectra += list(matrix[:, None])
        else:
            spectra.append(np.linalg.eigvalsh(matrix))
    return spectra


@pytest.mark.parametrize("case", ["model family", "dual family", "mesh",
                                  "constant"])
def test_probe_slopes_match_central_differences(sphere, case):
    # the Hellmann-Feynman slope of every eigenvalue of every block against
    # h (mu(h + d) - mu(h - d)) / 2d at d = 1e-6, whose truncation error is
    # O(d^2) and whose rounding error is about 1e-16 |mu| / d
    basis, field, h = {
        "model family": (exact_sphere_spectrum(66),
                         DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0)),
                         1.0 / 16.0),
        "dual family": (exact_sphere_spectrum(30), below_one((1.0, 0.0, 0.0)),
                        1.0 / 8.0),
        "mesh": (solve_lowest(assemble_fem(icosphere(3)), 150),
                 DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0)), 0.5),
        "constant": (exact_sphere_spectrum(40), DampingField.constant(2.0),
                     0.27),
    }[case]
    step = 1e-6
    operator = build_operator(basis, field, h, surface=sphere)
    blocks = list(semiclassical_count._block_slopes(basis, operator, h))
    after, before = (block_spectra(build_operator(basis, field, h + d,
                                                  surface=sphere))
                     for d in (step, -step))
    assert len(blocks) == len(after) == len(before) > 0
    if case == "mesh":
        # one block per class of the field's reflections y and z
        assert len(blocks) == 4
        assert sum(len(values) for values, _ in blocks) == operator.mode_cut
    for (values, slopes), up, down in zip(blocks, after, before):
        assert np.array_equal(values, np.sort(values))
        np.testing.assert_allclose(slopes, h * (up - down) / (2.0 * step),
                                   rtol=1e-8, atol=0.0)


def test_probe_on_dense_classes_is_blind_to_roundoff(sphere, monkeypatch):
    # a section of a field along x is symmetric about the x axis, so its
    # spectrum has exactly degenerate eigenvalues; each degenerate pair of
    # orders +-m is one block of multiplicity 2, and within a block the
    # gaps are clear of roundoff, so a planted 1e-15 perturbation of the
    # diagonal that every order's block shares moves no event across the
    # band edge and no slope beyond roundoff.  The field is below one, so
    # the probe sees the dual section
    basis = exact_sphere_spectrum(30)
    field = below_one((1.0, 0.0, 0.0))
    polar = semiclassical_count._polar_family
    families = []

    def probe():
        report = monotonicity_probe(basis, field, (1.0 / 8.5, 1.0 / 7.5),
                                    surface=sphere, steps=7)
        assert not report.violations
        return report.events

    def recorded(*args):
        families.append(polar(*args))
        return families[-1]

    monkeypatch.setattr(semiclassical_count, "_polar_family", recorded)
    plain = probe()
    assert len(plain) > 1000
    assert all(family.dual is not None for family, _ in families)
    rng = np.random.default_rng(5)

    def perturbed(*args):
        family, multiplicity = polar(*args)
        noise = rng.standard_normal(family.diagonal.shape) * 1e-15
        families.append((dataclasses.replace(
            family, diagonal=family.diagonal + noise), multiplicity))
        return families[-1]

    monkeypatch.setattr(semiclassical_count, "_polar_family", perturbed)
    families.clear()
    moved = probe()
    assert len(families) == 7
    assert [(e.block, e.branch, e.h) for e in moved] \
        == [(e.block, e.branch, e.h) for e in plain]
    np.testing.assert_allclose([e.slope for e in moved],
                               [e.slope for e in plain], rtol=1e-12)


def test_probe_rejects_bad_window(gamma_two):
    basis = exact_sphere_spectrum(10)
    with pytest.raises(UsageError):
        monotonicity_probe(basis, gamma_two, (0.3, 0.2))


@pytest.mark.parametrize("steps", [0, 1, -3, 2.7])
def test_probe_refuses_steps_below_two_or_fractional(gamma_two, monkeypatch,
                                                     steps):
    # fewer than two steps cannot include both ends of the window, and a
    # probe that ran on no h must not pass; no section is built first
    def forbidden(*args, **kwargs):
        raise AssertionError("the probe built a section")

    monkeypatch.setattr(semiclassical_count, "_section", forbidden)
    with pytest.raises(UsageError, match="steps"):
        monotonicity_probe(exact_sphere_spectrum(10), gamma_two, (0.2, 0.3),
                           steps=steps)


@pytest.fixture(scope="module")
def level3_200():
    return solve_lowest(assemble_fem(icosphere(3)), 200)


@pytest.mark.parametrize("case", ["sphere z", "sphere constant", "mesh x",
                                  "mesh below-one y"])
def test_probe_slopes_meet_the_model_bound(sphere, level3_200, case):
    # in a model section D - G with G >= c0 every in-band eigenvalue has
    # h dmu/dh >= delta = (c0 - 1)/2, so the bound is an oracle for every
    # slope the probe reports.  A mesh section of a base below one is the
    # Gram section of 1 / p, a model section too; the dual family of a
    # base below one on the exact sphere is not, and is left out
    basis, field, radii = {
        "sphere z": (exact_sphere_spectrum(40),
                     DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0)),
                     (8.5, 7.5)),
        "sphere constant": (exact_sphere_spectrum(40),
                            DampingField.constant(2.0), (8.5, 7.5)),
        "mesh x": (level3_200, DampingField.affine(2.0, 0.5, (1.0, 0.0, 0.0)),
                   (2.4, 2.2)),
        "mesh below-one y": (level3_200,
                             DampingField.affine(0.6, 0.1, (0.0, 1.0, 0.0)),
                             (2.4, 2.2)),
    }[case]
    probe = monotonicity_probe(basis, field, [1.0 / r for r in radii],
                               surface=sphere)
    assert probe.events
    assert probe.min_slope >= probe.delta * (1.0 - 1e-12)


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
