import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from weylcount.errors import (
    ChartDegeneracyError,
    InvalidFieldError,
    MeshQualityError,
    UsageError,
)
from weylcount.surface import (
    AnalyticSurface,
    DampingField,
    SurfaceMesh,
    icosphere,
    read_off,
    read_vertex_values,
    write_off,
)
from weylcount.surface import charts
from weylcount.surface import mesh as mesh_module
from weylcount.surface.mesh import (
    MAX_ICOSPHERE_LEVEL,
    icosphere_spec,
    off_spec,
)

from test_lb_spectrum import traced_peak

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


def test_affine_coefficient_is_exact_along_every_axis():
    # (1/4 pi) * integral of (a + b <axis, x>)^2 - 1 over the sphere is
    # a^2 - 1 + b^2/3 for every unit axis
    a, b = 2.0, 0.5
    sphere = AnalyticSurface.unit_sphere()
    coefficients = []
    for axis in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                 (0.3, -0.7, 0.2)]:
        axis = np.asarray(axis) / np.linalg.norm(axis)
        coefficients.append(sphere.integrate(
            lambda p: (a + b * (p @ axis)) ** 2 - 1.0) / (4.0 * np.pi))
    coefficients = np.array(coefficients)
    assert np.max(np.abs(coefficients - (a * a - 1.0 + b * b / 3.0))) <= 1e-14
    assert np.ptp(coefficients) <= 1e-14


def test_integration_grid_is_built_once_and_read_only(monkeypatch):
    sphere = AnalyticSurface.unit_sphere()
    ellipsoid = AnalyticSurface.ellipsoid(2.0, 1.0, 1.0)
    first = [sphere.area(), ellipsoid.area()]
    grid = charts._integration_grid()
    assert np.array_equal(grid.nodes,
                          charts.sphere_grid(charts.INTEGRATION_DEGREE).nodes)
    for array in grid:
        assert not array.flags.writeable

    def rebuilt(degree):
        raise AssertionError("integration grid rebuilt")

    monkeypatch.setattr(charts, "sphere_grid", rebuilt)
    assert [sphere.area(), ellipsoid.area()] == first
    assert charts._integration_grid() is grid


@pytest.mark.parametrize("axes", [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0)],
                         ids=["unit-sphere", "ellipsoid:2,1,1"])
def test_mapped_rule_is_built_once_and_read_only(axes):
    # the mapped points and area weights are the uncached formula's, bit for
    # bit, built once per semi-axes, and an integrand cannot write into them
    surface = AnalyticSurface.ellipsoid(*axes)
    grid = charts._integration_grid()
    points = grid.nodes * surface.axes
    weights = grid.mass * np.prod(surface.axes) * np.linalg.norm(
        points / surface.axes ** 2, axis=-1)
    cached = charts._mapped_rule(tuple(surface.axes.tolist()))
    assert cached[0].tobytes() == points.tobytes()
    assert cached[1].tobytes() == weights.tobytes()
    assert charts._mapped_rule(axes) is cached

    def integrand(p):
        return p[..., 0] ** 2 + 2.0 * p[..., 2]

    assert surface.integrate(integrand) == float(np.sum(
        integrand(points) * weights))

    def writes(p):
        p[..., 0] = 0.0
        return 1.0

    with pytest.raises(ValueError):
        surface.integrate(writes)
    assert cached[0].tobytes() == points.tobytes()


def test_mapped_rule_holds_one_quotient_table():
    # the area element's squares are formed in place in the one table of
    # quotients points / axes^2; np.linalg.norm's copy of that table and its
    # product with the copy would add two more (points, 3) tables
    count = len(charts._integration_grid().nodes)
    peak = traced_peak(
        lambda: charts._mapped_rule.__wrapped__((2.0, 1.0, 1.0)))
    assert peak < 3.2 * count * 3 * 8


def test_integrate_never_writes_an_array_the_caller_holds():
    # an integrand's fresh array is weighted in place; an array the caller
    # keeps, or a writable view of one, is weighted into a new array, and
    # every way sums the same products
    surface = AnalyticSurface.ellipsoid(2.0, 1.0, 1.0)
    points, weights = charts._mapped_rule((2.0, 1.0, 1.0))
    kept = points[..., 0] ** 2
    table = np.array(points)
    expected = float(np.sum(kept * weights))
    kept_bytes, table_bytes = kept.tobytes(), table.tobytes()
    assert surface.integrate(lambda p: kept) == expected
    assert surface.integrate(lambda p: table[:, 0] ** 2) == expected
    assert surface.integrate(lambda p: p[..., 0] ** 2) == expected
    assert kept.tobytes() == kept_bytes
    assert surface.integrate(lambda p: table[:, 0]) == float(
        np.sum(points[..., 0] * weights))
    assert table.tobytes() == table_bytes


def test_ellipsoid_area_matches_prolate_closed_form():
    # semi-axes (2, 1, 1): S = 2 pi b^2 (1 + a/(b e) asin e), e^2 = 1 - b^2/a^2
    ecc = np.sqrt(1.0 - 0.25)
    exact = 2.0 * np.pi * (1.0 + (2.0 / ecc) * np.arcsin(ecc))
    surf = AnalyticSurface.ellipsoid(2.0, 1.0, 1.0)
    assert abs(surf.integrate(lambda p: 1.0) - exact) <= 1e-12


def test_ellipsoid_area_matches_oblate_closed_form():
    # semi-axes (1, 1, 0.5): S = 2 pi a^2 (1 + (1 - e^2)/e atanh e),
    # e^2 = 1 - c^2/a^2
    ecc = np.sqrt(1.0 - 0.25)
    exact = 2.0 * np.pi * (1.0 + (1.0 - ecc * ecc) / ecc * np.arctanh(ecc))
    surf = AnalyticSurface.ellipsoid(1.0, 1.0, 0.5)
    assert abs(surf.area() - exact) <= 1e-12


def test_nonfinite_semi_axes_rejected():
    for axes in [(np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, -np.inf)]:
        with pytest.raises(UsageError, match="finite"):
            AnalyticSurface.ellipsoid(*axes)


def ellipsoid_charts():
    """Both charts of the ellipsoids (2, 1, 1) and (3, 2, 1), with their
    surface; on the second, a y/z mix-up in a chart's scale shows."""
    for axes in [(2.0, 1.0, 1.0), (3.0, 2.0, 1.0)]:
        surf = AnalyticSurface.ellipsoid(*axes)
        for chart in surf.charts:
            yield surf, chart


def test_ellipsoid_normal_matches_implicit_gradient():
    rng = np.random.default_rng(7)
    th = rng.uniform(0.15, np.pi - 0.15, 256)
    ph = rng.uniform(0.0, 2.0 * np.pi, 256)
    for surf, chart in ellipsoid_charts():
        if chart.name == "polar-z":
            _, n, _, _ = chart.frames(np.pi / 2.0, 0.0)
            assert np.allclose(n, [1.0, 0.0, 0.0], atol=1e-12)
        pts, normals, _, _ = chart.frames(th, ph)
        assert np.max(np.abs(chart.point(th, ph) - pts)) == 0.0
        assert np.max(np.abs(np.sum((pts / surf.axes) ** 2, axis=-1)
                             - 1.0)) <= 1e-12
        # gradient of x^2/a^2 + y^2/b^2 + z^2/c^2, normalized
        grad = 2.0 * pts / surf.axes**2
        grad /= np.linalg.norm(grad, axis=-1)[:, None]
        assert np.max(np.abs(normals - grad)) <= 1e-9
        assert np.max(np.abs(np.linalg.norm(normals, axis=-1) - 1.0)) <= 1e-12
        # outward for a star-shaped surface
        assert np.all(np.einsum("ij,ij->i", normals, pts) > 0.0)


def test_finite_difference_tangents_match_analytic():
    rng = np.random.default_rng(11)
    th = rng.uniform(0.15, np.pi - 0.15, 128)
    ph = rng.uniform(0.0, 2.0 * np.pi, 128)
    step = 1e-6
    for _, chart in ellipsoid_charts():
        fd = ((chart.point(th + step, ph) - chart.point(th - step, ph)),
              (chart.point(th, ph + step) - chart.point(th, ph - step)))
        for got, want in zip(fd, chart.tangents(th, ph)):
            assert np.max(np.abs(got / (2.0 * step) - want)) <= 1e-8


def test_frames_dual_to_tangents():
    chart = AnalyticSurface.ellipsoid(3.0, 2.0, 1.0).charts[1]
    rng = np.random.default_rng(5)
    th = rng.uniform(0.15, np.pi - 0.15, 64)
    ph = rng.uniform(0.0, 2.0 * np.pi, 64)
    _, normal, eu, ev = chart.frames(th, ph)
    tu, tv = chart.tangents(th, ph)
    pairing = np.einsum("kai,kbi->kab", np.stack([eu, ev], axis=1),
                        np.stack([tu, tv], axis=1))
    assert np.max(np.abs(pairing - np.eye(2))) <= 1e-12
    assert np.max(np.abs(np.einsum("ki,ki->k", normal, eu))) <= 1e-12
    assert np.max(np.abs(np.einsum("ki,ki->k", normal, ev))) <= 1e-12


def _same_bits(got, want):
    """Equal dtype, shape and values, NaN where NaN and signed zeros alike."""
    signs = [np.signbit(part) for array in (got, want)
             for part in (array.real, array.imag)]
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(signs[0], signs[2])
            and np.array_equal(signs[1], signs[3]))


@st.composite
def _vector_array(draw, shape, kind):
    """float64 or complex128 array of ``shape``, with inf and nan entries."""
    parts = [draw(hnp.arrays(np.float64, shape, elements=st.floats(width=64)))
             for _ in range(1 if kind == "real" else 2)]
    if kind == "real":
        return parts[0]
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(0, 4),
       layout=st.sampled_from(["batch", "one-left", "one-right", "single",
                               "outer"]),
       kinds=st.sampled_from([("real", "real"), ("complex", "complex"),
                              ("real", "complex"), ("complex", "real")]),
       data=st.data())
def test_cross_helper_matches_np_cross_bit_for_bit(rows, layout, kinds, data):
    # the helper stands in for np.cross on the symbol path, so it must
    # give the same promoted dtype, broadcast shape and bits, inf and nan
    # included
    shapes = {"batch": ((rows, 3), (rows, 3)), "one-left": ((3,), (rows, 3)),
              "one-right": ((rows, 3), (3,)), "single": ((3,), (3,)),
              "outer": ((2, 1, 3), (rows, 3))}[layout]
    a, b = (data.draw(_vector_array(shape, kind))
            for shape, kind in zip(shapes, kinds))
    with np.errstate(all="ignore"):
        assert _same_bits(charts._cross(a, b), np.cross(a, b))


@pytest.mark.parametrize("pole", ["z", "x"])
def test_place_scales_each_component_like_stack_then_scale(pole):
    chart = AnalyticSurface.ellipsoid(3.0, 2.0, 0.5).charts["zx".index(pole)]
    rng = np.random.default_rng(13)
    components = tuple(rng.standard_normal((2, 5)) for _ in range(2)) + (
        np.zeros((2, 5)),)
    stacked = np.stack([components[i] for i in chart._order],
                       axis=-1) * chart._scale
    assert _same_bits(chart._place(components), stacked)


def test_degenerate_chart_raises():
    # at the equator of the polar-z chart the theta tangent is (0, 0, -c),
    # so the Gram determinant is c^2 = 1e-12, below GRAM_FLOOR
    chart = AnalyticSurface.ellipsoid(1.0, 1.0, 1e-6).charts[0]
    with pytest.raises(ChartDegeneracyError):
        chart.metric(np.pi / 2.0, 0.5)
    with pytest.raises(ChartDegeneracyError):
        chart.frames(np.pi / 2.0, 0.5)


def test_chart_inverse_round_trip():
    rng = np.random.default_rng(3)
    th = rng.uniform(0.2, np.pi - 0.2, 200)
    ph = rng.uniform(0.01, 2.0 * np.pi - 0.01, 200)
    for _, chart in ellipsoid_charts():
        u, v = chart.inverse(chart.point(th, ph))
        assert np.max(np.abs(u - th)) <= 1e-12
        assert np.max(np.abs(v - ph)) <= 1e-12


# ----------------------------------------------------------------------
# meshes
# ----------------------------------------------------------------------

def test_icosphere_counts_and_topology():
    for level, nv in [(0, 12), (1, 42), (2, 162), (3, 642), (4, 2562)]:
        mesh = icosphere(level)
        assert mesh.vertex_count == nv
        assert mesh.triangle_count == 20 * 4**level
        assert mesh.edge_count == 30 * 4**level
        assert mesh.euler_characteristic() == 2
        assert mesh.signed_volume() > 0.0


def loop_icosphere(level):
    """The icosphere subdivided one face edge at a time: each midpoint gets
    the next vertex number when its edge is first met and is projected by
    its own np.linalg.norm."""
    base = icosphere(0)
    points = [tuple(v) for v in base.vertices]
    faces = [tuple(f) for f in base.triangles.tolist()]
    for _ in range(level):
        numbers = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in numbers:
                mid = np.asarray(points[i]) + np.asarray(points[j])
                mid /= np.linalg.norm(mid)
                numbers[key] = len(points)
                points.append(tuple(mid))
            return numbers[key]

        subdivided = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            subdivided.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc),
                               (ab, bc, ca)])
        faces = subdivided
    return SurfaceMesh(np.asarray(points), np.asarray(faces))


def test_icosphere_matches_loop_subdivision_bit_for_bit():
    # the content hash keys the FEM cache, so the vectorized subdivision
    # must number and place every vertex exactly as the loop does
    for level in range(6):
        assert icosphere(level).content_hash() \
            == loop_icosphere(level).content_hash()


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


def stretched_icosphere():
    """icosphere(2) mapped by diag(3, 1, 1): 184 of its 320 faces are
    obtuse."""
    mesh = icosphere(2)
    return SurfaceMesh(mesh.vertices * [3.0, 1.0, 1.0], mesh.triangles)


def angle_cotangents(mesh):
    """(3, faces): cot theta at each corner, theta the arccos of the inner
    product of the unit vectors along the corner's two edges."""
    corners = mesh.vertices[mesh.triangles]
    cots = []
    for k in range(3):
        b, c = (edge / np.linalg.norm(edge, axis=-1)[:, None] for edge in (
            corners[:, (k + 1) % 3] - corners[:, k],
            corners[:, (k + 2) % 3] - corners[:, k]))
        cots.append(1.0 / np.tan(np.arccos(np.sum(b * c, axis=-1))))
    return np.array(cots)


@pytest.mark.parametrize("stretched", [False, True])
def test_corner_cotangents_match_the_angles(stretched):
    mesh = stretched_icosphere() if stretched else icosphere(2)
    cots = mesh.corner_cotangents()
    assert cots.shape == (3, mesh.triangle_count)
    np.testing.assert_allclose(cots, angle_cotangents(mesh),
                               rtol=0.0, atol=1e-12)
    assert np.count_nonzero(np.any(cots < 0.0, axis=0)) \
        == (184 if stretched else 0)


def test_obtuse_faces_give_each_corner_a_third():
    # a non-obtuse face gives corner k the Voronoi weight
    # (|x_k - x_j|^2 cot_i + |x_k - x_i|^2 cot_j) / 8, i and j its other
    # corners; an obtuse face gives each corner a third of its area.  The
    # weights of every face sum to its area, so the vertex areas sum to the
    # mesh area
    mesh = stretched_icosphere()
    corners = mesh.vertices[mesh.triangles]
    cots = angle_cotangents(mesh)
    thirds = mesh.face_areas() / 3.0
    obtuse = np.any(cots < 0.0, axis=0)
    voronoi = np.zeros(mesh.vertex_count)
    expected = np.zeros(mesh.vertex_count)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        weight = (np.sum((corners[:, k] - corners[:, j]) ** 2, axis=-1)
                  * cots[i]
                  + np.sum((corners[:, k] - corners[:, i]) ** 2, axis=-1)
                  * cots[j]) / 8.0
        np.add.at(voronoi, mesh.triangles[:, k], weight)
        np.add.at(expected, mesh.triangles[:, k],
                  np.where(obtuse, thirds, weight))
    areas = mesh.vertex_areas()
    np.testing.assert_allclose(areas, expected, rtol=1e-12, atol=0.0)
    # the obtuse faces' Voronoi weights would have been other areas
    assert np.max(np.abs(voronoi - expected) / expected) > 0.01
    assert abs(areas.sum() - mesh.area) <= 1e-12 * mesh.area


def test_mesh_integrate_matches_chart_quadrature():
    mesh = icosphere(3)
    assert abs(mesh.integrate(lambda p: 1.0) - SPHERE_AREA) <= 0.005 * SPHERE_AREA
    z2 = mesh.integrate(lambda p: p[..., 2] ** 2)
    assert abs(z2 - SPHERE_AREA / 3.0) <= 0.01 * SPHERE_AREA / 3.0


def test_open_mesh_rejected():
    mesh = icosphere(1)
    with pytest.raises(MeshQualityError, match="watertight"):
        SurfaceMesh(mesh.vertices, mesh.triangles[:-1])


def test_inconsistent_orientation_rejected():
    mesh = icosphere(1)
    tri = mesh.triangles.copy()
    tri[0] = tri[0][::-1]
    with pytest.raises(MeshQualityError, match="used twice"):
        SurfaceMesh(mesh.vertices, tri)


def test_duplicated_triangle_rejected():
    mesh = icosphere(1)
    tri = np.concatenate([mesh.triangles, mesh.triangles[:1]])
    with pytest.raises(MeshQualityError, match="used twice"):
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_vertex_rejected(value):
    # a NaN compares False, so without its own check a NaN vertex passes
    # every other one and fails only in the FEM solve
    mesh = icosphere(1)
    vertices = mesh.vertices.copy()
    vertices[3, 1] = value
    with pytest.raises(MeshQualityError,
                       match="vertex 3 has a non-finite coordinate"):
        SurfaceMesh(vertices, mesh.triangles)


def test_content_hash_sensitive_to_perturbation():
    mesh = icosphere(1)
    moved = mesh.vertices.copy()
    moved[0, 0] += 1e-9
    other = SurfaceMesh(moved, mesh.triangles)
    assert mesh.content_hash() != other.content_hash()
    again = SurfaceMesh(mesh.vertices.copy(), mesh.triangles.copy())
    assert mesh.content_hash() == again.content_hash()


def test_icosphere_content_hashes_are_pinned():
    # a generated mesh is named by its level and ICOSPHERE_REVISION, not by
    # its bits: bump ICOSPHERE_REVISION when these change
    assert [icosphere(level).content_hash() for level in range(4)] == [
        "7430cba663139ecda5c7f753829b0099402227b5c5ef6c20266931e70cc26854",
        "bcf68b12840205025f0f1bfe09d799f586b62ae7ddd4a113ca6fd8c886fd2b0f",
        "a6426b412c89b83ab67cdf63cfd6b362e92c3bd4c882a1585de673e0712cc584",
        "9cf60ba93fe8704bf67468b6d6698c0403fbe81ab79ed44163c5b78a4e6e38ed",
    ]


def test_mesh_specs_are_named_before_they_are_built(tmp_path, monkeypatch):
    built = icosphere(2)
    write_off(built, tmp_path / "ico2.off")
    calls = []
    monkeypatch.setattr(mesh_module, "icosphere",
                        lambda level: calls.append(level) or built)
    identities = [icosphere_spec(level).identity for level in (0, 1, 2, 2)]
    assert len(set(identities)) == 3 and identities[2] == identities[3]
    assert all(len(identity) == 64 for identity in identities)
    spec = off_spec(tmp_path / "ico2.off")
    assert spec.identity == hashlib.sha256(
        (tmp_path / "ico2.off").read_bytes()).hexdigest()
    assert calls == []
    assert icosphere_spec(2).build() is built and calls == [2]
    # the spec builds the bytes it hashed, whatever the file holds later
    (tmp_path / "ico2.off").write_text("OFF\n")
    assert spec.build().content_hash() == built.content_hash()
    with pytest.raises(MeshQualityError, match="level %d is above the cap"
                       % (MAX_ICOSPHERE_LEVEL + 1)):
        icosphere_spec(MAX_ICOSPHERE_LEVEL + 1)
    assert calls == [2]


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


# ----------------------------------------------------------------------
# damping fields
# ----------------------------------------------------------------------

def test_effective_damping_of_constant_fields():
    pts = np.zeros((4, 3))
    assert np.all(DampingField.constant(0.5).effective(pts) == 2.0)
    assert np.all(DampingField.constant(2.0).effective(pts) == 2.0)
    assert np.all(DampingField.constant(4.0, invert=True).effective(pts) == 4.0)


def test_effective_damping_at_one_point():
    # a single point gives the scalar max(b, 1 / b) of its base value b
    point = np.array([0.3, -0.4, 0.5])
    for offset, slope, axis in ((2.0, 0.5, (1.0, 0.0, 0.0)),
                                (0.5, 0.3, (1.0, 2.0, 2.0))):
        field = DampingField.affine(offset, slope, axis)
        base = offset + slope * float(point @ field.axis)
        value = field.effective(point)
        assert np.ndim(value) == 0 and value == max(base, 1.0 / base)
    assert DampingField.constant(0.4).effective(point).tolist() == [2.5]


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


def test_effective_is_the_maximum_with_the_reciprocal():
    # the reciprocal written over the base where it is below one gives
    # np.maximum(base, 1 / base) bit for bit, on both sides of one, for
    # every kind; one point of an affine field gives a scalar
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((500, 3))
    pts /= np.linalg.norm(pts, axis=-1)[:, None]
    fields = [DampingField.constant(value)
              for value in (0.4, 2.0, 1.0 - 1e-15, 1.0 + 1e-15)]
    fields += [DampingField.affine(offset, slope, axis)
               for offset, slope in ((2.0, 0.5), (0.5, 0.3), (1.0, 0.5))
               for axis in ((0.0, 0.0, 1.0), (1.0, 2.0, 2.0))]
    fields += [DampingField.vertex_table(table) for table in (
        rng.uniform(1.5, 3.0, len(pts)), rng.uniform(0.2, 0.9, len(pts)),
        rng.uniform(0.5, 2.0, len(pts)))]
    for field in fields:
        if field.kind == "constant":
            base = np.full(len(pts), field.value)
        elif field.kind == "affine":
            base = field.offset + field.slope * (pts @ field.axis)
        else:
            base = field.table.copy()
        assert np.array_equal(field.effective(pts),
                              np.maximum(base, 1.0 / base)), field.kind
        if field.kind == "affine":
            value = field.effective(pts[7])
            assert np.ndim(value) == 0
            assert value == np.maximum(base[7], 1.0 / base[7])


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


def test_nonfinite_field_parameters_rejected():
    for make in [lambda: DampingField.constant(np.nan),
                 lambda: DampingField.constant(np.inf, invert=True),
                 lambda: DampingField.affine(np.nan, 0.5, (0.0, 0.0, 1.0)),
                 lambda: DampingField.affine(2.0, -np.inf, (0.0, 0.0, 1.0)),
                 lambda: DampingField.affine(2.0, 0.5, (np.nan, 0.0, 1.0)),
                 lambda: DampingField.affine(2.0, 0.5, (np.inf, 0.0, 0.0)),
                 lambda: DampingField.vertex_table([3.0, np.nan, 3.0])]:
        with pytest.raises(UsageError, match="finite"):
            make()


def test_vertex_table_field_alignment():
    mesh = icosphere(0)
    field = DampingField.vertex_table(np.full(12, 3.0))
    assert field.effective_range(mesh) == (3.0, 3.0)
    assert np.all(field.effective(mesh.vertices) == 3.0)
    short = DampingField.vertex_table(np.full(10, 3.0))
    with pytest.raises(InvalidFieldError):
        short.effective_range(mesh)
