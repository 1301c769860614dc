"""Laplace-Beltrami spectra on closed surfaces.

Two sources feed the counting pipeline with the same interface:

* the exact unit-sphere spectrum n(n+1) with multiplicity 2n+1, degree n
  in columns n^2..n^2+2n with order m at n^2+n+m, its real harmonics
  tabulated on a product quadrature grid on first use, and
* cotangent finite elements with lumped mass on a triangle mesh, solved as a
  sparse symmetric generalized eigenproblem for the lowest eigenpairs.

Mesh solves are expensive, so they get a small binary disk cache ("WLB1"
container plus a JSON sidecar), keyed by the mesh content, the mode count,
the solver tolerance and the solver seed.
"""

import hashlib
import json
import os
import struct
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cholesky, eigh, solve_triangular
from scipy.special import roots_legendre

from .errors import (
    CacheError,
    InsufficientSpectrumError,
    MeshQualityError,
    SolverError,
    UsageError,
)

SOLVER_SEED = 0x5EED
SOLVER_TOL = 1e-8
TRUSTED_MODE_FRACTION = 0.05
CACHE_MAGIC = b"WLB1"
CACHE_VERSION = 1

Pencil = namedtuple("Pencil", ["stiffness", "mass", "nodes"])
Quadrature = namedtuple("Quadrature", ["nodes", "mass", "modes"])


@dataclass
class SpectralBasis:
    """Ascending Laplace-Beltrami eigenvalues plus tabulated modes.

    ``modes`` holds mode values at ``nodes`` with quadrature weights
    ``mass``; the columns are orthonormal in the weighted inner product.  A
    mesh basis keeps the arrays it was solved or loaded with in
    ``quadrature`` (None for a cache entry without them); the exact sphere
    tabulates its harmonics there on first access, in the module's layout,
    where a column's degree is ``sphere_degree_for`` of its eigenvalue.
    ``trusted_horizon`` is the largest eigenvalue considered resolved: for a
    mesh, the Weyl count of 5% of the vertex budget, i.e.
    ``0.05 * vertex_count * 4 pi / area``.
    """

    eigenvalues: np.ndarray
    source: str
    area: float
    trusted_horizon: float
    quadrature: Quadrature = None
    residual: float = 0.0
    mesh_hash: str = ""

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(self.eigenvalues) < 0.0):
            raise SolverError("eigenvalues not ascending")

    def _tabulated(self):
        if self.quadrature is None and self.source == "exact-sphere":
            self.quadrature = _tabulate_sphere_modes(
                sphere_degree_for(self.top))
        return self.quadrature or Quadrature(None, None, None)

    nodes = property(lambda self: self._tabulated().nodes)
    mass = property(lambda self: self._tabulated().mass)
    modes = property(lambda self: self._tabulated().modes)

    @property
    def mode_count(self):
        return len(self.eigenvalues)

    @property
    def top(self):
        return float(self.eigenvalues[-1])

    def modes_needed(self, lam):
        """Estimated number of modes required to resolve eigenvalue lam."""
        if self.source == "exact-sphere":
            return (sphere_degree_for(lam) + 1) ** 2
        return int(np.ceil(self.area / (4.0 * np.pi) * lam * 1.15)) + 8

    def require_top(self, lam, context=""):
        if self.top < lam:
            raise InsufficientSpectrumError(
                f"{context or 'request'} needs eigenvalues up to {lam:.6g} but the "
                f"basis stops at {self.top:.6g}; about {self.modes_needed(lam)} "
                f"modes are required")


# ----------------------------------------------------------------------
# exact sphere spectrum
# ----------------------------------------------------------------------

def sphere_degree_for(lam):
    """Smallest degree N with N(N+1) >= lam."""
    if lam <= 0.0:
        return 0
    return int(np.ceil(0.5 * (np.sqrt(1.0 + 4.0 * lam) - 1.0) - 1e-12))


def exact_sphere_spectrum(max_degree):
    """Unit-sphere spectrum up to the given degree: n(n+1), multiplicity 2n+1."""
    max_degree = int(max_degree)
    if max_degree < 0:
        raise InsufficientSpectrumError("max_degree must be >= 0")
    each = np.arange(max_degree + 1, dtype=np.int64)
    eigenvalues = np.repeat(each * (each + 1.0), 2 * each + 1)
    return SpectralBasis(eigenvalues=eigenvalues, source="exact-sphere",
                         area=4.0 * np.pi,
                         trusted_horizon=float(eigenvalues[-1]))


def normalized_legendre_block(order, max_degree, t):
    """Orthonormal associated Legendre values q_{n,m}(t), n = m..max_degree.

    Normalized so that the integral of q_{n,m}^2 over [-1, 1] is 1; computed
    with the standard stable three-term recurrence in the degree.
    """
    m = int(order)
    t = np.asarray(t, dtype=float)
    count = max_degree - m + 1
    if count <= 0:
        return np.zeros((0,) + t.shape)
    out = np.empty((count,) + t.shape)
    # seed q_{m,m}
    q = np.full(t.shape, 1.0 / np.sqrt(2.0))
    if m > 0:
        s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        for k in range(1, m + 1):
            q = np.sqrt((2.0 * k + 1.0) / (2.0 * k)) * s * q
    out[0] = q
    if count > 1:
        out[1] = np.sqrt(2.0 * m + 3.0) * t * q
    for n in range(m + 2, max_degree + 1):
        alpha = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        beta = np.sqrt((2.0 * n + 1.0) * (n - 1.0 - m) * (n - 1.0 + m)
                       / ((2.0 * n - 3.0) * (n * n - m * m)))
        out[n - m] = alpha * t * out[n - m - 1] - beta * out[n - m - 2]
    return out


def _tabulate_sphere_modes(max_degree):
    """Real orthonormal harmonics up to max_degree, in the column order of
    ``exact_sphere_spectrum``, at the nodes of a product quadrature.

    The quadrature (Gauss-Legendre in z, equispaced in longitude) is exact
    for integrands Y_i * Y_j * p with p affine in the coordinates.
    """
    t, wt = roots_legendre(max_degree + 3)
    nphi = 2 * max_degree + 3
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    wphi = np.full(nphi, 2.0 * np.pi / nphi)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    nodes = np.stack([
        np.outer(sin_theta, np.cos(phi)).ravel(),
        np.outer(sin_theta, np.sin(phi)).ravel(),
        np.outer(t, np.ones_like(phi)).ravel(),
    ], axis=-1)
    mass = np.outer(wt, wphi).ravel()

    # column-major, so each (degree, order) column below is one contiguous write
    modes = np.empty(((max_degree + 1) ** 2, len(nodes))).T
    cos_table = {m: np.cos(m * phi) for m in range(max_degree + 1)}
    sin_table = {m: np.sin(m * phi) for m in range(1, max_degree + 1)}
    for m in range(max_degree + 1):
        block = normalized_legendre_block(m, max_degree, t)  # (deg span, nt)
        for row, n in enumerate(range(m, max_degree + 1)):
            col = n * n + n  # order 0 of degree n; order +-m at col +- m
            if m == 0:
                modes[:, col] = np.outer(block[row] / np.sqrt(2.0 * np.pi),
                                         np.ones_like(phi)).ravel()
            else:
                modes[:, col - m] = np.outer(
                    block[row] / np.sqrt(np.pi), sin_table[m]).ravel()
                modes[:, col + m] = np.outer(
                    block[row] / np.sqrt(np.pi), cos_table[m]).ravel()
    return Quadrature(nodes, mass, modes)


# ----------------------------------------------------------------------
# cotangent finite elements
# ----------------------------------------------------------------------

def assemble_fem(mesh):
    """Cotangent stiffness and lumped mass of a triangle mesh.

    Stiffness off-diagonals are -(cot a + cot b)/2 over the two angles facing
    each edge; rows sum to zero and the matrix is symmetric positive
    semidefinite.  The mass diagonal holds the Voronoi vertex areas, so its
    trace equals the surface area.
    """
    tri = mesh.triangles
    corners = [mesh.vertices[tri[:, k]] for k in range(3)]
    double_area = np.linalg.norm(
        np.cross(corners[1] - corners[0], corners[2] - corners[0]), axis=-1)
    if np.any(0.5 * double_area < 1e-14):
        worst = int(np.argmin(double_area))
        raise MeshQualityError(
            f"degenerate triangle {worst}: area {0.5 * double_area[worst]:.3e}")

    rows, cols, vals = [], [], []
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        cot = np.einsum("ij,ij->i",
                        corners[a] - corners[c],
                        corners[b] - corners[c]) / double_area
        half = 0.5 * cot
        ia, ib = tri[:, a], tri[:, b]
        rows.extend([ia, ib, ia, ib])
        cols.extend([ib, ia, ia, ib])
        vals.extend([-half, -half, half, half])
    stiffness = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.vertex_count, mesh.vertex_count))
    stiffness.sum_duplicates()
    return Pencil(stiffness, mesh.vertex_areas(), mesh.vertices)


def solve_lowest(pencil, count, tol=SOLVER_TOL, seed=SOLVER_SEED):
    """Lowest ``count`` eigenpairs of the (stiffness, mass) pencil.

    Deterministic: the Lanczos start vector is drawn from a fixed seed.
    Large requests fall back to a dense solve of the mass-scaled problem.
    Residuals ||K v - lambda M v|| / ||v|| are checked against
    ``tol * (1 + lambda)``; failure raises SolverError with the worst value.
    """
    stiffness, mass, nodes = pencil
    n = stiffness.shape[0]
    count = int(count)
    if not 0.0 < tol <= 1e-4:
        raise UsageError(f"residual tolerance must lie in (0, 1e-4], got {tol!r}")
    if count < 1:
        raise InsufficientSpectrumError("at least one mode must be requested")
    if count > n:
        raise InsufficientSpectrumError(
            f"{count} modes requested from a {n}-vertex mesh")

    if count > n // 4 or count >= n - 1:
        scale = 1.0 / np.sqrt(mass)
        dense = stiffness.toarray() * scale[:, None] * scale[None, :]
        dense = 0.5 * (dense + dense.T)
        values, vectors = eigh(dense, subset_by_index=[0, count - 1])
        vectors = vectors * scale[:, None]
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        shift = -0.1 * (1.0 + stiffness.diagonal().max() / mass.max()) * 1e-2
        try:
            values, vectors = spla.eigsh(
                stiffness, k=count, M=sp.diags(mass), sigma=shift,
                which="LM", v0=v0, maxiter=max(2000, 40 * count))
        except spla.ArpackNoConvergence as exc:
            raise SolverError(f"Lanczos failed to converge: {exc}") from exc
        order = np.argsort(values)
        values, vectors = values[order], vectors[:, order]

    if values[0] < -1e-8:
        raise SolverError(f"spurious negative eigenvalue {values[0]:.3e}",
                          residual=float(values[0]))
    values = np.maximum(values, 0.0)

    # re-orthonormalize in the mass inner product (degenerate clusters)
    gram = (vectors * mass[:, None]).T @ vectors
    chol = cholesky(gram, lower=False)
    vectors = solve_triangular(chol.T, vectors.T, lower=True).T

    residuals = stiffness @ vectors - mass[:, None] * vectors * values
    rnorm = np.linalg.norm(residuals, axis=0) / np.linalg.norm(vectors, axis=0)
    worst = float(np.max(rnorm / (1.0 + values)))
    if worst > tol:
        raise SolverError(
            f"eigenpair residual {worst:.3e} exceeds tolerance {tol:g}",
            residual=worst)

    area = float(np.sum(mass))
    horizon = TRUSTED_MODE_FRACTION * n * 4.0 * np.pi / area
    return SpectralBasis(
        eigenvalues=values,
        source="mesh-fem",
        area=area,
        trusted_horizon=float(min(horizon, values[-1])),
        quadrature=Quadrature(nodes, mass, vectors),
        residual=worst,
    )


# ----------------------------------------------------------------------
# disk cache
# ----------------------------------------------------------------------

def cache_key(mesh_hash, count, tol, seed):
    text = (f"{mesh_hash}:{int(count)}:{float(tol)!r}:{int(seed)}"
            f":v{CACHE_VERSION}")
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _cache_paths(directory, key):
    return (os.path.join(directory, key + ".wlb"),
            os.path.join(directory, key + ".json"))


def cache_store(directory, key, basis, count, tol):
    """Write the basis into <key>.wlb plus a JSON sidecar; returns the path.

    Writes go to process-unique temp files followed by an atomic rename, so
    concurrent writers resolve to last-writer-wins without torn files.
    """
    os.makedirs(directory, exist_ok=True)
    bin_path, json_path = _cache_paths(directory, key)
    k = basis.mode_count
    p = 0 if basis.modes is None else len(basis.nodes)
    tmp_bin = f"{bin_path}.{os.getpid()}.tmp"
    with open(tmp_bin, "wb") as handle:
        handle.write(CACHE_MAGIC)
        handle.write(struct.pack("<IQQ", CACHE_VERSION, k, p))
        handle.write(struct.pack("<ddd", basis.area, basis.trusted_horizon,
                                 basis.residual))
        handle.write(basis.eigenvalues.astype("<f8").tobytes())
        if p:
            handle.write(basis.mass.astype("<f8").tobytes())
            handle.write(basis.nodes.astype("<f8").tobytes())
            handle.write(basis.modes.astype("<f8").tobytes())
    sidecar = {
        "format": CACHE_MAGIC.decode(),
        "version": CACHE_VERSION,
        "key": key,
        "mesh_hash": basis.mesh_hash,
        "count": int(count),
        "tol": float(tol),
        "source": basis.source,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    tmp_json = f"{json_path}.{os.getpid()}.tmp"
    with open(tmp_json, "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle, sort_keys=True, indent=2)
        handle.write("\n")
    os.replace(tmp_bin, bin_path)
    os.replace(tmp_json, json_path)
    return bin_path


def cache_load(directory, key):
    """Load a cached basis; returns None on miss (including version skew)."""
    bin_path, json_path = _cache_paths(directory, key)
    if not (os.path.exists(bin_path) and os.path.exists(json_path)):
        return None
    try:
        with open(json_path, "r", encoding="utf-8") as handle:
            sidecar = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheError(f"unreadable cache sidecar {json_path}: {exc}") from exc
    if sidecar.get("format") != CACHE_MAGIC.decode() \
            or sidecar.get("version") != CACHE_VERSION:
        return None  # version skew is a miss, never a silent wrong answer

    with open(bin_path, "rb") as handle:
        blob = handle.read()
    if blob[:4] != CACHE_MAGIC:
        raise CacheError(f"bad magic in cache container {bin_path}")
    try:
        version, k, p = struct.unpack_from("<IQQ", blob, 4)
        offset = 4 + struct.calcsize("<IQQ")
        area, horizon, residual = struct.unpack_from("<ddd", blob, offset)
        offset += struct.calcsize("<ddd")

        def take(count, shape):
            nonlocal offset
            nbytes = 8 * count
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
            offset += nbytes
            return arr.reshape(shape).copy()

        eigenvalues = take(k, (k,))
        quadrature = None
        if p:
            mass = take(p, (p,))
            quadrature = Quadrature(take(3 * p, (p, 3)), mass,
                                    take(p * k, (p, k)))
        if offset != len(blob):
            raise CacheError(f"trailing bytes in cache container {bin_path}")
    except (struct.error, ValueError) as exc:
        raise CacheError(f"corrupt cache container {bin_path}: {exc}") from exc
    if version != CACHE_VERSION:
        return None
    return SpectralBasis(
        eigenvalues=eigenvalues,
        source=sidecar.get("source", "mesh-fem"),
        area=area,
        trusted_horizon=horizon,
        quadrature=quadrature,
        residual=residual,
        mesh_hash=sidecar.get("mesh_hash", ""),
    )


def cached_mesh_spectrum(mesh, count, tol=SOLVER_TOL, directory=None,
                         seed=SOLVER_SEED):
    """Mesh spectrum with optional disk caching; returns (basis, hit)."""
    mesh_hash = mesh.content_hash()
    key = cache_key(mesh_hash, count, tol, seed)
    if directory is not None:
        cached = cache_load(directory, key)
        if cached is not None and cached.mesh_hash == mesh_hash:
            return cached, True
    basis = solve_lowest(assemble_fem(mesh), count, tol=tol, seed=seed)
    basis.mesh_hash = mesh_hash
    if directory is not None:
        cache_store(directory, key, basis, count, tol)
    return basis, False
