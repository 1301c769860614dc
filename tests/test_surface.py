import numpy as np
import pytest

from weylcount.errors import (
    ChartDegeneracyError,
    InvalidFieldError,
    MeshQualityError,
    UsageError,
)
from weylcount.surface import (
    AnalyticSurface,
    Chart,
    DampingField,
    SurfaceMesh,
    icosphere,
    read_off,
    read_vertex_values,
    smooth_step,
    write_off,
)

SPHERE_AREA = 4.0 * np.pi


# ----------------------------------------------------------------------
# charts and quadrature
# ----------------------------------------------------------------------

def test_sphere_area_chart_quadrature():
    sphere = AnalyticSurface.unit_sphere()
    assert abs(sphere.area() - SPHERE_AREA) <= 1e-8


def test_sphere_moments_chart_quadrature():
    sphere = AnalyticSurface.unit_sphere()
    assert abs(sphere.integrate(lambda p: p[..., 2])) <= 1e-8
    assert abs(sphere.integrate(lambda p: p[..., 2] ** 2) - SPHERE_AREA / 3.0) <= 1e-6


def test_ellipsoid_area_matches_prolate_closed_form():
    # semi-axes (2, 1, 1): S = 2 pi b^2 (1 + a/(b e) asin e), e^2 = 1 - b^2/a^2
    ecc = np.sqrt(1.0 - 0.25)
    exact = 2.0 * np.pi * (1.0 + (2.0 / ecc) * np.arcsin(ecc))
    surf = AnalyticSurface.ellipsoid(2.0, 1.0, 1.0)
    assert abs(surf.integrate(lambda p: 1.0) - exact) <= 1e-6


def test_quadrature_order_floor():
    sphere = AnalyticSurface.unit_sphere()
    with pytest.raises(UsageError):
        sphere.area(order=8)


def test_ellipsoid_normal_matches_implicit_gradient():
    surf = AnalyticSurface.ellipsoid(2.0, 1.0, 1.0)
    chart = surf.charts[0]
    n = chart.normal(np.pi / 2.0, 0.0)
    assert np.allclose(n, [1.0, 0.0, 0.0], atol=1e-12)

    rng = np.random.default_rng(7)
    th = rng.uniform(0.15, np.pi - 0.15, 256)
    ph = rng.uniform(0.0, 2.0 * np.pi, 256)
    pts = chart.point(th, ph)
    normals = chart.normal(th, ph)
    # gradient of x^2/a^2 + y^2/b^2 + z^2/c^2, normalized
    grad = 2.0 * pts / surf.axes**2
    grad /= np.linalg.norm(grad, axis=-1)[:, None]
    assert np.max(np.abs(normals - grad)) <= 1e-9
    assert np.max(np.abs(np.linalg.norm(normals, axis=-1) - 1.0)) <= 1e-12
    # outward for a star-shaped surface
    assert np.all(np.einsum("ij,ij->i", normals, pts) > 0.0)


def test_finite_difference_tangents_match_analytic():
    surf = AnalyticSurface.ellipsoid(2.0, 1.0, 1.0)
    analytic = surf.charts[1]
    fd = Chart(analytic.mapping, analytic.domain)
    rng = np.random.default_rng(11)
    th = rng.uniform(0.15, np.pi - 0.15, 128)
    ph = rng.uniform(0.0, 2.0 * np.pi, 128)
    for got, want in zip(fd.tangents(th, ph), analytic.tangents(th, ph)):
        assert np.max(np.abs(got - want)) <= 1e-8


def test_degenerate_chart_raises():
    collapsed = Chart(
        lambda u, v: np.stack([u, u, np.zeros_like(u * v)], axis=-1),
        ((0.0, 1.0), (0.0, 1.0)),
    )
    with pytest.raises(ChartDegeneracyError):
        collapsed.metric(0.5, 0.5)
    with pytest.raises(ChartDegeneracyError):
        collapsed.normal(0.5, 0.5)


def test_chart_inverse_round_trip():
    surf = AnalyticSurface.ellipsoid(2.0, 1.0, 1.0)
    rng = np.random.default_rng(3)
    th = rng.uniform(0.2, np.pi - 0.2, 200)
    ph = rng.uniform(0.01, 2.0 * np.pi - 0.01, 200)
    for chart in surf.charts:
        u, v = chart.inverse(chart.point(th, ph))
        assert np.max(np.abs(u - th)) <= 1e-12
        assert np.max(np.abs(v - ph)) <= 1e-12


def test_partition_of_unity_covers_sphere():
    sphere = AnalyticSurface.unit_sphere()
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((5000, 3))
    pts /= np.linalg.norm(pts, axis=-1)[:, None]
    weights = np.stack([sphere.partition_weights(i, pts) for i in range(2)])
    assert np.all(weights >= 0.0)
    assert np.max(np.abs(weights.sum(axis=0) - 1.0)) <= 1e-14
    # every point with positive chart weight lies inside that chart's rectangle
    for i, chart in enumerate(sphere.charts):
        covered = weights[i] > 0.0
        u, v = chart.inverse(pts[covered])
        assert np.all(chart.contains(u, v))


@pytest.mark.parametrize("surface", [
    AnalyticSurface.unit_sphere(), AnalyticSurface.ellipsoid(2.0, 1.0, 1.0)],
    ids=["unit-sphere", "ellipsoid:2,1,1"])
def test_integrate_weights_match_partition_weights(surface, monkeypatch):
    raw_calls = []
    for chart in surface.charts:
        def counted(points, weight=chart.weight):
            raw_calls.append(len(points))
            return weight(points)
        monkeypatch.setattr(chart, "weight", counted)
    applied = []
    partition = surface.partition_weights

    def recorded(index, points):
        weights = partition(index, points)
        applied.append((index, points, weights))
        return weights

    monkeypatch.setattr(surface, "partition_weights", recorded)
    surface.integrate(lambda points: 1.0)
    # each chart's raw weight is evaluated once per chart grid
    assert len(raw_calls) == len(surface.charts) ** 2
    assert [index for index, _, _ in applied] == [0, 1]
    for index, points, weights in applied:
        raw = np.stack([chart.weight(points) for chart in surface.charts])
        assert np.array_equal(weights, raw[index] / raw.sum(axis=0))


def test_smooth_step_shape():
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    t = np.linspace(0.0, 1.0, 101)
    s = smooth_step(t)
    assert np.all(np.diff(s) >= 0.0)
    assert abs(smooth_step(0.5) - 0.5) <= 1e-14


# ----------------------------------------------------------------------
# meshes
# ----------------------------------------------------------------------

def test_icosphere_counts_and_topology():
    for level, nv in [(0, 12), (1, 42), (2, 162), (3, 642)]:
        mesh = icosphere(level)
        assert mesh.vertex_count == nv
        assert mesh.triangle_count == 20 * 4**level
        assert mesh.euler_characteristic() == 2
        assert mesh.signed_volume() > 0.0


def test_icosphere_area_second_order_from_below():
    errors = [SPHERE_AREA - icosphere(level).area for level in (1, 2, 3)]
    assert all(e > 0.0 for e in errors)  # inscribed, from below
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine > 3.0  # better than halving: second order


def test_vertex_areas_partition_mesh_area():
    mesh = icosphere(2)
    areas = mesh.vertex_areas()
    assert np.all(areas > 0.0)
    assert abs(areas.sum() - mesh.area) <= 1e-12 * mesh.area


def test_mesh_integrate_matches_chart_quadrature():
    mesh = icosphere(3)
    assert abs(mesh.integrate(lambda p: 1.0) - SPHERE_AREA) <= 0.005 * SPHERE_AREA
    z2 = mesh.integrate(lambda p: p[..., 2] ** 2)
    assert abs(z2 - SPHERE_AREA / 3.0) <= 0.01 * SPHERE_AREA / 3.0


def test_vertex_normals_radial_on_icosphere():
    mesh = icosphere(3)
    normals = mesh.vertex_normals()
    assert np.max(np.abs(np.linalg.norm(normals, axis=-1) - 1.0)) <= 1e-12
    deviation = np.linalg.norm(normals - mesh.vertices, axis=-1)
    assert np.max(deviation) <= 0.02
    assert np.mean(deviation) <= 0.01


def test_open_mesh_rejected():
    mesh = icosphere(1)
    with pytest.raises(MeshQualityError, match="watertight"):
        SurfaceMesh(mesh.vertices, mesh.triangles[:-1])


def test_inconsistent_orientation_rejected():
    mesh = icosphere(1)
    tri = mesh.triangles.copy()
    tri[0] = tri[0][::-1]
    with pytest.raises(MeshQualityError):
        SurfaceMesh(mesh.vertices, tri)


def test_inward_mesh_rejected():
    mesh = icosphere(1)
    with pytest.raises(MeshQualityError, match="inward"):
        SurfaceMesh(mesh.vertices, mesh.triangles[:, ::-1])


def test_degenerate_triangle_rejected():
    vertices = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e-20, 0.0, 0.0],
    ])
    triangles = np.array([[0, 1, 2], [0, 3, 1], [1, 3, 2], [0, 2, 3]])
    with pytest.raises(MeshQualityError):
        SurfaceMesh(vertices, triangles)


def test_content_hash_sensitive_to_perturbation():
    mesh = icosphere(1)
    moved = mesh.vertices.copy()
    moved[0, 0] += 1e-9
    other = SurfaceMesh(moved, mesh.triangles)
    assert mesh.content_hash() != other.content_hash()
    again = SurfaceMesh(mesh.vertices.copy(), mesh.triangles.copy())
    assert mesh.content_hash() == again.content_hash()


# ----------------------------------------------------------------------
# OFF files and vertex tables
# ----------------------------------------------------------------------

def test_off_round_trip(tmp_path):
    mesh = icosphere(1)
    path = tmp_path / "ico1.off"
    write_off(mesh, path)
    back = read_off(path)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.vertices, mesh.vertices)


def test_off_rejects_quads(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshQualityError, match="triangle"):
        read_off(path)


def test_off_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("PLY\n0 0 0\n")
    with pytest.raises(MeshQualityError, match="header"):
        read_off(path)


def test_vertex_table_io(tmp_path):
    path = tmp_path / "gamma.txt"
    path.write_text("2.0\n# comment\n2.5\n\n3.0\n")
    values = read_vertex_values(path)
    assert np.array_equal(values, [2.0, 2.5, 3.0])
    with pytest.raises(MeshQualityError, match="values"):
        read_vertex_values(path, expected_count=4)


# ----------------------------------------------------------------------
# damping fields
# ----------------------------------------------------------------------

def test_effective_damping_of_constant_fields():
    pts = np.zeros((4, 3))
    assert np.all(DampingField.constant(0.5).effective(pts) == 2.0)
    assert np.all(DampingField.constant(2.0).effective(pts) == 2.0)
    assert np.all(DampingField.constant(4.0, invert=True).effective(pts) == 4.0)


def test_affine_field_range_on_sphere():
    sphere = AnalyticSurface.unit_sphere()
    field = DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0))
    assert field.base_range(sphere) == (1.5, 2.5)
    assert field.effective_range(sphere) == (1.5, 2.5)


def test_reciprocal_field_effective_values_bit_identical():
    sphere = AnalyticSurface.unit_sphere()
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((1000, 3))
    pts /= np.linalg.norm(pts, axis=-1)[:, None]
    above = DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0))
    below = DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0), invert=True)
    assert above.effective_range(sphere) == below.effective_range(sphere)
    ga = above.effective(pts)
    gb = below.effective(pts)
    assert np.array_equal(ga, gb)  # bit-for-bit


def test_field_touching_one_rejected():
    sphere = AnalyticSurface.unit_sphere()
    field = DampingField.affine(1.5, 0.5, (0.0, 0.0, 1.0))
    with pytest.raises(InvalidFieldError, match="1"):
        field.effective_range(sphere)
    with pytest.raises(InvalidFieldError):
        DampingField.constant(1.0).effective_range(sphere)


def test_nonpositive_field_rejected():
    sphere = AnalyticSurface.unit_sphere()
    with pytest.raises(InvalidFieldError):
        DampingField.affine(0.5, 1.0, (0.0, 0.0, 1.0)).effective_range(sphere)
    with pytest.raises(InvalidFieldError):
        DampingField.constant(-2.0).effective_range(sphere)


def test_vertex_table_field_alignment():
    mesh = icosphere(0)
    field = DampingField.vertex_table(np.full(12, 3.0))
    assert field.effective_range(mesh) == (3.0, 3.0)
    assert np.all(field.effective(mesh.vertices) == 3.0)
    short = DampingField.vertex_table(np.full(10, 3.0))
    with pytest.raises(InvalidFieldError):
        short.effective_range(mesh)


def test_effective_affine_coefficients():
    sphere = AnalyticSurface.unit_sphere()
    above = DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0))
    below = DampingField.affine(2.0, 0.5, (0.0, 0.0, 1.0), invert=True)
    for field in (above, below):
        coeffs = field.effective_affine(sphere)
        assert coeffs is not None
        offset, slope, axis = coeffs
        assert (offset, slope) == (2.0, 0.5)
        assert np.array_equal(axis, [0.0, 0.0, 1.0])
    # base dips below 1: the effective coefficient is no longer affine
    wide = DampingField.affine(2.0, 1.5, (0.0, 0.0, 1.0))
    assert wide.effective_affine(sphere) is None
