"""Triangle meshes of closed surfaces: validation, areas, OFF files, icospheres.

A mesh can also be named before it is built, as a :class:`MeshSpec`: an
icosphere by its level and the generator's revision, an OFF file by the
sha256 of its bytes.  The spectrum cache keys its entries by that name, so
a cached mesh basis is found without building the mesh.
"""

import hashlib
import io
from collections import namedtuple

import numpy as np

from ..errors import MeshQualityError

DEGENERATE_AREA = 1e-14
# the finest icosphere a spec builds: level L has 10 * 4**L + 2 vertices,
# 655 362 at level 8, and each level takes about four times the memory
# and time of the last
MAX_ICOSPHERE_LEVEL = 8
# names the icosphere generator in a generated mesh's identity; bump it
# whenever a change to icosphere() changes the bits of any level's mesh
ICOSPHERE_REVISION = "edge-midpoints-1"


class MeshSpec(namedtuple("MeshSpec", ["identity", "build"])):
    """A mesh named before it is built.  ``identity`` is a sha256 hex
    digest that fixes the mesh bit for bit; ``build()`` builds and
    validates that mesh."""

    __slots__ = ()


class SurfaceMesh:
    """Watertight, consistently oriented triangle mesh with outward normals.

    Validation enforces: finite vertex coordinates, every directed edge
    appears exactly once (so every undirected edge is shared by exactly two
    triangles with opposite orientation), no degenerate triangles, and
    positive signed volume (outward orientation).
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self._vertex_areas = None
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshQualityError("vertices must have shape (n, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshQualityError("triangles must have shape (m, 3)")
        self.validate()

    # ------------------------------------------------------------------
    # topology / validity
    # ------------------------------------------------------------------
    def validate(self):
        nv = len(self.vertices)
        tri = self.triangles
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            raise MeshQualityError(
                f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
        if len(tri) == 0:
            raise MeshQualityError("mesh has no triangles")
        if tri.min() < 0 or tri.max() >= nv:
            raise MeshQualityError("triangle index out of range")
        if np.any((tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2])
                  | (tri[:, 0] == tri[:, 2])):
            raise MeshQualityError("triangle with repeated vertex")
        keys = self._edge_keys()
        if np.any(keys[1:] == keys[:-1]):
            raise MeshQualityError("directed edge used twice: inconsistent orientation")
        if not np.array_equal(keys, np.sort(keys % nv * nv + keys // nv)):
            raise MeshQualityError("boundary edge found: mesh is not watertight")
        corners = self._corner_vectors()
        areas = _face_areas(*corners)
        if np.any(areas < DEGENERATE_AREA):
            worst = int(np.argmin(areas))
            raise MeshQualityError(
                f"degenerate triangle {worst} with area {areas[worst]:.3e}")
        if _signed_volume(*corners) <= 0.0:
            raise MeshQualityError("negative signed volume: mesh oriented inward")

    def _edge_keys(self):
        """Sorted keys a * n + b of the directed triangle edges (a, b), n the
        vertex count."""
        tri = self.triangles
        directed = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
        return np.sort(directed[:, 0] * len(self.vertices) + directed[:, 1])

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def triangle_count(self):
        return len(self.triangles)

    @property
    def edge_count(self):
        # validation found each directed edge (a, b) once and with its
        # reverse, so each undirected edge is the one key with a < b
        keys, nv = self._edge_keys(), len(self.vertices)
        return int(np.count_nonzero(keys // nv < keys % nv))

    def euler_characteristic(self):
        return self.vertex_count - self.edge_count + self.triangle_count

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def _corner_vectors(self):
        v = self.vertices[self.triangles]
        return v[:, 0], v[:, 1], v[:, 2]

    def face_areas(self):
        return _face_areas(*self._corner_vectors())

    @property
    def area(self):
        return float(np.sum(self.face_areas()))

    def signed_volume(self):
        return _signed_volume(*self._corner_vectors())

    def corner_cotangents(self):
        """(3, faces): row k holds the cotangent of each face's angle at its
        corner k, <b - a, c - a> / |(b - a) x (c - a)| for that corner a and
        the next two, b and c.  The norm is twice the face area, as
        :meth:`face_areas` computes it from corner 0."""
        corners = self._corner_vectors()
        double = 2.0 * _face_areas(*corners)
        return np.array([np.einsum("ij,ij->i", corners[(k + 1) % 3] - a,
                                   corners[(k + 2) % 3] - a) / double
                         for k, a in enumerate(corners)])

    def vertex_areas(self):
        """Lumped vertex areas: Voronoi weights, barycentric fallback.

        Non-obtuse triangles distribute their area by the cotangent Voronoi
        rule; obtuse ones fall back to equal thirds.  Either way the weights
        of one triangle sum to its area, so the total equals the mesh area.
        """
        if self._vertex_areas is not None:
            return self._vertex_areas
        corners = self._corner_vectors()
        areas = _face_areas(*corners)
        cots = self.corner_cotangents()
        obtuse = np.any(cots < 0.0, axis=0)
        weights = np.empty((3, len(areas)))
        for k in range(3):
            # Voronoi weight at corner k: (|e_j|^2 cot_j + |e_i|^2 cot_i)/8
            # with i, j the other two corners and e_i the edge opposite i.
            i, j = (k + 1) % 3, (k + 2) % 3
            edge_i = np.sum((corners[j] - corners[k]) ** 2, axis=-1)
            edge_j = np.sum((corners[i] - corners[k]) ** 2, axis=-1)
            weights[k] = (edge_i * cots[i] + edge_j * cots[j]) / 8.0
        weights[:, obtuse] = areas[obtuse] / 3.0

        out = np.zeros(len(self.vertices))
        for k in range(3):
            np.add.at(out, self.triangles[:, k], weights[k])
        self._vertex_areas = out
        return out

    def integrate(self, f):
        """Lumped vertex-rule integral of ``f(points) -> values``; a scalar
        value stands for that value at every vertex."""
        values = np.asarray(f(self.vertices), dtype=float)
        values = np.broadcast_to(values, (len(self.vertices),))
        return float(np.dot(self.vertex_areas(), values))

    def content_hash(self):
        """Hex digest identifying geometry and connectivity bit-for-bit."""
        digest = hashlib.sha256()
        digest.update(np.int64(self.vertices.shape[0]).tobytes())
        digest.update(np.int64(self.triangles.shape[0]).tobytes())
        digest.update(self.vertices.tobytes())
        digest.update(self.triangles.tobytes())
        return digest.hexdigest()

    def spec(self):
        """This mesh as a :class:`MeshSpec` named by its content hash."""
        return MeshSpec(self.content_hash(), lambda: self)


def _face_areas(p0, p1, p2):
    return 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=-1)


def _signed_volume(p0, p1, p2):
    return float(np.sum(np.einsum("ij,ij->i", p0, np.cross(p1, p2))) / 6.0)


# ----------------------------------------------------------------------
# generators / IO
# ----------------------------------------------------------------------

def icosphere(level):
    """Icosahedron subdivided ``level`` times, vertices projected to the unit sphere."""
    if level < 0:
        raise MeshQualityError("subdivision level must be >= 0")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    vertices = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    vertices /= np.linalg.norm(vertices, axis=-1)[:, None]
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64)

    for _ in range(level):
        # every face's edges ab, bc, ca in turn; each edge's midpoint is
        # numbered in the order its edge is first met
        edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        key = edges.min(axis=1) * len(vertices) + edges.max(axis=1)
        order = np.argsort(key, kind="stable")
        new = np.diff(key[order], prepend=-1) != 0
        first = order[new]  # each edge's first occurrence, by key
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(new) - 1
        met = np.argsort(first)
        number = np.empty_like(met)
        number[met] = len(vertices) + np.arange(len(met))
        ends = edges[first[met]]
        mid = vertices[ends[:, 0]] + vertices[ends[:, 1]]
        # each row's dot product by itself, from the routine np.linalg.norm
        # calls on one vector, so the bits are those of a norm per vertex; a
        # norm along an axis or einsum sums in another order
        mid /= np.sqrt(mid[:, None, :] @ mid[:, :, None])[:, 0]
        ab, bc, ca = number[inverse].reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=-1).reshape(-1, 3)
        vertices = np.concatenate([vertices, mid])

    return SurfaceMesh(vertices, faces)


def icosphere_spec(level):
    """The icosphere of ``level`` as a :class:`MeshSpec`, named by the
    level, :data:`ICOSPHERE_REVISION` and the NumPy version, whose
    routines fix the vertex bits.  A level above
    :data:`MAX_ICOSPHERE_LEVEL` is refused before anything is built."""
    if level > MAX_ICOSPHERE_LEVEL:
        raise MeshQualityError(
            "icosphere level %d is above the cap of %d"
            % (level, MAX_ICOSPHERE_LEVEL))
    text = "icosphere:%d:%s:numpy-%s" % (level, ICOSPHERE_REVISION,
                                         np.__version__)
    return MeshSpec(hashlib.sha256(text.encode()).hexdigest(),
                    lambda: icosphere(level))


def off_spec(path):
    """The OFF file at ``path`` as a :class:`MeshSpec`, named by the sha256
    of its bytes: the same bytes always parse and validate to the same
    mesh.  ``build()`` parses the bytes that were hashed, not the file as
    it is by then."""
    with open(path, "rb") as handle:
        data = handle.read()
    return MeshSpec(hashlib.sha256(data).hexdigest(),
                    lambda: _parse_off(path, data))


def _off_tokens(data):
    # decoded and split into lines as a text-mode open() would
    for line in io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"):
        line = line.split("#", 1)[0].strip()
        if line:
            yield from line.split()


def read_off(path):
    """Read an ASCII OFF triangle mesh (validated on construction)."""
    with open(path, "rb") as handle:
        return _parse_off(path, handle.read())


def _parse_off(path, data):
    tokens = _off_tokens(data)
    try:
        header = next(tokens)
    except StopIteration:
        raise MeshQualityError(f"{path}: empty OFF file") from None
    if header != "OFF":
        raise MeshQualityError(f"{path}: missing OFF header, got {header!r}")
    try:
        nv = int(next(tokens))
        nf = int(next(tokens))
        next(tokens)  # edge count, ignored
        vertices = np.fromiter(
            (float(next(tokens)) for _ in range(3 * nv)), dtype=float, count=3 * nv
        ).reshape(nv, 3)
        faces = np.empty((nf, 3), dtype=np.int64)
        for f in range(nf):
            arity = int(next(tokens))
            if arity != 3:
                raise MeshQualityError(f"{path}: face {f} has {arity} vertices; "
                                       "only triangles are supported")
            faces[f] = [int(next(tokens)) for _ in range(3)]
    except (StopIteration, ValueError) as exc:
        raise MeshQualityError(f"{path}: truncated or malformed OFF data") from exc
    return SurfaceMesh(vertices, faces)


def write_off(mesh, path):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("OFF\n")
        handle.write(f"{mesh.vertex_count} {mesh.triangle_count} {mesh.edge_count}\n")
        for v in mesh.vertices:
            handle.write("%.17g %.17g %.17g\n" % tuple(v))
        for t in mesh.triangles:
            handle.write("3 %d %d %d\n" % tuple(t))


def read_vertex_values(path):
    """Read a per-vertex scalar table: one decimal value per line."""
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for ln, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise MeshQualityError(f"{path}:{ln}: not a number: {line!r}") from None
    return np.asarray(values, dtype=float)
