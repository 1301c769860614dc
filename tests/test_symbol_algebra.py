"""Tests for the pointwise cotangent symbol calculus."""

from types import SimpleNamespace

import numpy as np
import pytest

from weylcount import symbol_algebra
from weylcount.errors import BranchError, ChartDegeneracyError, UsageError
from weylcount.surface import AnalyticSurface
from weylcount.symbol_algebra import (
    CotangentSample,
    chart_transfer,
    diagonalizing_frame,
    dispersion_diagonal,
    dispersion_matrix,
    eigenstructure,
    elliptic_root,
    identity_suite,
    m_reference_at_minus_i,
    principal_m,
    principal_m1,
    random_samples,
    rank_one,
    transfer_sample,
    transport_principal,
)

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def sphere():
    return AnalyticSurface.unit_sphere()


def synthetic(beta, nu):
    """Duck-typed sample with prescribed beta and nu (for closed-form oracles)."""
    beta = np.asarray(beta, dtype=float)
    return SimpleNamespace(beta=beta, nu=np.asarray(nu, dtype=float),
                           r0=float(beta @ beta))


# ----------------------------------------------------------------------
# beta and r0
# ----------------------------------------------------------------------

def test_equatorial_sphere_sample(sphere):
    sample = CotangentSample(sphere, 0, (np.pi / 2.0, 0.7), (1.0, 0.0))
    assert sample.r0 == pytest.approx(1.0, abs=1e-12)
    assert abs(sample.nu @ sample.beta) < 1e-12
    other = CotangentSample(sphere, 0, (np.pi / 2.0, 0.7), (0.0, 1.0))
    assert other.r0 == pytest.approx(1.0, abs=1e-12)


def test_zero_covector(sphere):
    sample = CotangentSample(sphere, 0, (1.0, 1.0), (0.0, 0.0))
    assert np.all(sample.beta == 0.0)
    assert sample.r0 == 0.0
    with pytest.raises(UsageError):
        eigenstructure(sample)
    with pytest.raises(UsageError):
        diagonalizing_frame(sample)


def test_beta_homogeneity(sphere):
    for sample in random_samples(sphere, 20, seed=7):
        doubled = CotangentSample(sphere, sample.chart_index, sample.x,
                                  2.0 * sample.xi)
        assert np.max(np.abs(doubled.beta - 2.0 * sample.beta)) < 1e-12
        assert doubled.r0 == pytest.approx(4.0 * sample.r0, rel=1e-12)


def test_r0_matches_inverse_metric(sphere):
    for sample in random_samples(sphere, 20, seed=8):
        assert abs(sample.r0 - sample.inverse_metric_form()) < 1e-10


# ----------------------------------------------------------------------
# elliptic root
# ----------------------------------------------------------------------

def test_elliptic_root_values():
    assert elliptic_root(-1j, 0.0) == pytest.approx(1j)
    assert elliptic_root(-1j, 3.0) == pytest.approx(2j)
    z = -1j / (1.0 + 1j * 1e-4)
    assert abs(elliptic_root(z, 1.0) - 1j * SQRT2) <= 1e-4


def test_elliptic_root_branch_error():
    with pytest.raises(BranchError):
        elliptic_root(2.0, 1.0)  # z^2 - r0 = 3 on the positive real axis


def test_elliptic_root_square_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.uniform(-0.25, 0.25)
        z = -1j / (1.0 + 1j * t)
        r0 = rng.uniform(0.0, 9.0)
        rho = elliptic_root(z, r0)
        assert abs(rho * rho - (z * z - r0)) < 1e-12
        assert rho.imag > 0.0


# ----------------------------------------------------------------------
# matrix symbols
# ----------------------------------------------------------------------

def test_m_at_zero_covector_is_identity():
    sample = synthetic([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert np.max(np.abs(-principal_m(sample, -1j) - np.eye(3))) < 1e-12


def test_m_closed_form_r0_three():
    sample = synthetic([SQRT3, 0.0, 0.0], [0.0, 0.0, 1.0])
    minus_m = -principal_m(sample, -1j)
    assert np.max(np.abs(minus_m - np.diag([0.5, 2.0, 2.0]))) < 1e-12
    assert np.max(np.abs(minus_m - m_reference_at_minus_i(sample))) < 1e-12


def test_m1_is_minus_m(sphere):
    for sample in random_samples(sphere, 10, seed=5):
        z = -1j / (1.0 + 0.02j)
        assert np.max(np.abs(principal_m1(sample, z)
                             + principal_m(sample, z))) == 0.0


def test_m_complex_symmetric(sphere):
    for sample in random_samples(sphere, 10, seed=6):
        m = principal_m(sample, -1j / (1.0 - 0.05j))
        assert np.max(np.abs(m - m.T)) < 1e-14


def test_rank_one_structure(sphere):
    for sample in random_samples(sphere, 20, seed=9):
        matrix = rank_one(sample)
        assert np.max(np.abs(matrix - matrix.T)) == 0.0
        assert np.trace(matrix) == pytest.approx(sample.r0, abs=1e-12)
        pairs = eigenstructure(sample)
        for value, vector in pairs:
            assert np.max(np.abs(matrix @ vector - value * vector)) < 1e-10
        assert np.max(np.abs(matrix @ np.cross(sample.nu, sample.beta))) < 1e-10


def test_frame_example_and_invariance(sphere):
    sample = synthetic([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    frame = diagonalizing_frame(sample)
    expected = np.array([[0.0, 0.0, 1.0],
                         [0.0, 1.0, 0.0],
                         [1.0, 0.0, 0.0]])
    assert np.max(np.abs(frame - expected)) < 1e-12
    diag = frame.T @ rank_one(sample) @ frame
    assert np.max(np.abs(diag - np.diag([0.0, 0.0, 1.0]))) < 1e-12

    for real in random_samples(sphere, 10, seed=11):
        u = diagonalizing_frame(real)
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12
        scaled = CotangentSample(sphere, real.chart_index, real.x,
                                 2.0 * real.xi)
        assert np.max(np.abs(diagonalizing_frame(scaled) - u)) < 1e-12


def test_dispersion_diagonalization(sphere):
    rng = np.random.default_rng(12)
    for sample in random_samples(sphere, 25, seed=12):
        h = rng.uniform(0.05, 1.0)
        gamma0 = rng.uniform(1.1, 5.0)
        frame = diagonalizing_frame(sample)
        reduced = frame.T @ dispersion_matrix(sample, h, gamma0) @ frame
        target = np.diag(dispersion_diagonal(sample, h, gamma0))
        assert np.max(np.abs(reduced - target)) < 1e-10
        s = np.sqrt(1.0 + h * h * sample.r0)
        assert dispersion_diagonal(sample, h, gamma0)[2] == pytest.approx(
            1.0 / s - gamma0)


# ----------------------------------------------------------------------
# transport solutions
# ----------------------------------------------------------------------

def test_transport_electric_frozen_example():
    sample = synthetic([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    solution = transport_principal(sample, -1j, [0.0, 1.0, 0.0],
                                   side="electric")
    assert np.max(np.abs(solution.a00
                         - np.array([1.0, 0.0, -1j / SQRT2]))) < 1e-12
    assert np.max(np.abs(np.cross(sample.nu, solution.b00)
                         - np.array([1.0 / SQRT2, 0.0, 0.0]))) < 1e-12
    assert np.max(np.abs(solution.b00
                         - np.array([0.0, -1.0 / SQRT2, 0.0]))) < 1e-12
    assert np.max(np.abs(np.cross(sample.nu, solution.a00)
                         - solution.g)) < 1e-12
    assert max(solution.residuals().values()) < 1e-10


def test_transport_magnetic_frozen_example():
    sample = synthetic([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    solution = transport_principal(sample, -1j, [0.0, 1.0, 0.0],
                                   side="magnetic")
    assert np.max(np.abs(solution.b00
                         - np.array([1.0, 0.0, -1j / SQRT2]))) < 1e-12
    assert np.max(np.abs(solution.a00
                         - np.array([0.0, 1.0 / SQRT2, 0.0]))) < 1e-12
    assert max(solution.residuals().values()) < 1e-10


def test_transport_zero_data():
    sample = synthetic([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    for side in ("electric", "magnetic"):
        solution = transport_principal(sample, -1j, np.zeros(3), side=side)
        assert np.max(np.abs(solution.a00)) == 0.0
        assert np.max(np.abs(solution.b00)) == 0.0


def test_transport_rejects_bad_input():
    sample = synthetic([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    with pytest.raises(UsageError):
        transport_principal(sample, -1j, [0.0, 0.0, 1.0])  # normal data
    with pytest.raises(UsageError):
        transport_principal(sample, -1j, [0.0, 1.0, 0.0], side="sideways")


def test_transport_residuals_on_surface_samples(sphere):
    rng = np.random.default_rng(13)
    for sample in random_samples(sphere, 25, seed=13):
        t = rng.uniform(-0.04, 0.04)
        z = -1j / (1.0 + 1j * t)
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = np.cross(sample.nu, np.cross(g, sample.nu))
        for side in ("electric", "magnetic"):
            solution = transport_principal(sample, z, g, side=side)
            assert max(solution.residuals().values()) < 1e-10


# ----------------------------------------------------------------------
# chart invariance and the full suite
# ----------------------------------------------------------------------

def test_chart_transfer_preserves_beta(sphere):
    sample = CotangentSample(sphere, 0, (np.pi / 2.0, 0.7), (0.4, -1.1))
    moved = transfer_sample(sample, 1)
    assert moved.chart_index == 1
    assert np.max(np.abs(moved.point - sample.point)) < 1e-12
    assert np.max(np.abs(moved.beta - sample.beta)) < 1e-8
    assert abs(moved.r0 - sample.r0) < 1e-8


def test_identity_suite_sphere(sphere):
    report = identity_suite(sphere, samples=300, seed=42)
    assert report["surface"] == "unit-sphere"
    assert report["samples"] == 300
    assert report["seed"] == 42
    assert max(report["residuals"].values()) < 1e-8
    assert "transport-electric" in report["residuals"]
    assert "chart-invariance" in report["residuals"]


def test_identity_suite_ellipsoid():
    surface = AnalyticSurface.ellipsoid(2.0, 1.0, 1.0)
    report = identity_suite(surface, samples=300, seed=42)
    assert max(report["residuals"].values()) < 1e-8


def test_suite_rejects_empty_batch(sphere):
    with pytest.raises(UsageError):
        random_samples(sphere, 0)


def per_sample_suite(surface, count, seed):
    """The identity suite one sample at a time, through the public
    per-sample functions and the suite's two rng streams.  Returns the worst
    residual per identity, per sample whether its chart transfer ran, and
    the drawn h, gamma0, z and tangential g."""
    rng = np.random.default_rng(seed + 1)
    worst = {}
    kept = []
    draws = {"h": [], "gamma0": [], "z": [], "g": []}

    def record(name, value):
        worst[name] = max(worst.get(name, 0.0), float(value))

    for drawn in random_samples(surface, count, seed=seed):
        sample = CotangentSample(surface, drawn.chart_index, drawn.x, drawn.xi)
        h = rng.uniform(0.05, 1.0)
        t = rng.uniform(-h * h, h * h)
        z = -1j / (1.0 + 1j * t)
        gamma0 = rng.uniform(1.1, 5.0)

        record("nu-beta-orthogonal", abs(sample.nu @ sample.beta))
        record("r0-inverse-metric",
               abs(sample.r0 - sample.inverse_metric_form()))
        doubled = CotangentSample(surface, sample.chart_index, sample.x,
                                  2.0 * sample.xi)
        record("beta-homogeneous",
               np.max(np.abs(doubled.beta - 2.0 * sample.beta)))

        matrix = rank_one(sample)
        record("B-symmetric-psd",
               max(np.max(np.abs(matrix - matrix.T)),
                   max(0.0, -np.min(np.linalg.eigvalsh(matrix))),
                   abs(np.trace(matrix) - sample.r0)))
        for value, vector in eigenstructure(sample):
            record("B-eigenstructure",
                   np.max(np.abs(matrix @ vector - value * vector)))

        frame = diagonalizing_frame(sample)
        record("U-orthogonal", np.linalg.norm(frame.T @ frame - np.eye(3)))
        record("U-diagonalizes-B",
               np.max(np.abs(frame.T @ matrix @ frame
                             - np.diag([0.0, 0.0, sample.r0]))))
        record("dispersion-diagonalization",
               np.max(np.abs(frame.T @ dispersion_matrix(sample, h, gamma0)
                             @ frame
                             - np.diag(dispersion_diagonal(sample, h,
                                                           gamma0)))))

        rho = elliptic_root(z, sample.r0)
        record("rho-square", abs(rho * rho - (z * z - sample.r0)))
        record("rho-branch-lower-bound",
               max(0.0, min(1.0, 0.5 * np.sqrt(1.0 + sample.r0)) - rho.imag))

        m = principal_m(sample, z)
        record("m-symmetric", np.max(np.abs(m - m.T)))
        m_at_i = principal_m(sample, -1j)
        record("m-at-minus-i",
               np.max(np.abs(-m_at_i - m_reference_at_minus_i(sample))))
        record("m1-equals-minus-m",
               np.max(np.abs(principal_m1(sample, -1j) + m_at_i)))

        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = np.cross(sample.nu, np.cross(g, sample.nu))
        for name, value in zip(draws, (h, gamma0, z, g)):
            draws[name].append(value)
        for side in ("electric", "magnetic"):
            solution = transport_principal(sample, z, g, side=side)
            record(f"transport-{side}", max(solution.residuals().values()))

        try:
            moved = transfer_sample(sample, 1 - sample.chart_index)
        except ChartDegeneracyError:
            kept.append(False)
        else:
            kept.append(True)
            record("chart-invariance",
                   max(np.max(np.abs(moved.beta - sample.beta)),
                       abs(moved.r0 - sample.r0)))
    return worst, kept, draws


@pytest.mark.parametrize("surface", [
    AnalyticSurface.unit_sphere(),
    AnalyticSurface.ellipsoid(2.0, 1.0, 1.0),
], ids=["sphere", "ellipsoid"])
def test_batched_suite_matches_per_sample_oracle(surface, monkeypatch):
    count, seed = 50, 2024
    worst, kept, draws = per_sample_suite(surface, count, seed)
    seen = {}

    def spy(name, keys):
        function = getattr(symbol_algebra, name)

        def wrapper(sample, *args, **kwargs):
            seen.update(zip(keys, args))
            return function(sample, *args, **kwargs)
        monkeypatch.setattr(symbol_algebra, name, wrapper)

    spy("dispersion_matrix", ("h", "gamma0"))
    spy("transport_principal", ("z", "g"))
    report = identity_suite(surface, samples=count, seed=seed)
    # the residuals are roundoff-sized and blind to the draws; compare those
    for name, values in draws.items():
        assert np.allclose(seen[name], values, rtol=1e-15, atol=0.0), name
    assert list(report["residuals"]) == sorted(worst)
    assert len(worst) == 16
    for name, value in worst.items():
        assert abs(report["residuals"][name] - value) <= 1e-13, name

    batch = random_samples(surface, count, seed=seed)
    moved, interior = chart_transfer(batch, 1 - batch.chart_index)
    assert interior.tolist() == kept
    assert 0 < sum(kept) < count  # both outcomes are exercised
    assert len(moved) == sum(kept)
