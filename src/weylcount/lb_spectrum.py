"""Laplace-Beltrami spectra on closed surfaces.

A spectrum is a list of clusters: distinct eigenvalues, strictly ascending,
each with a positive integer multiplicity.  Two sources feed the counting
pipeline with the same interface:

* the exact unit-sphere spectrum, cluster n holding n(n+1) with multiplicity
  2n+1, so it is stored in O(degree) memory.  It tabulates nothing: a
  field counted on it has an affine base profile, whose sections are
  tridiagonal in each order with couplings in closed form; and
* cotangent finite elements with lumped mass on a triangle mesh, solved as a
  sparse symmetric generalized eigenproblem for the lowest eigenpairs, whose
  exactly equal eigenvalues form one cluster.  Every mesh is solved by
  symmetry class: each coordinate reflection that maps the mesh onto
  itself (each icosphere has all three) splits the pencil, up to 8
  classes, each solved on its own and merged, and a mesh with none is the
  one trivial class.  The basis keeps its mode values at the vertices
  with the vertex masses, as its ``quadrature``, together with the vertex
  permutation of each reflection found and each mode's parity under them,
  so counting can split a section by class too.  Each class solve returns
  mass-orthonormal modes, and the classes merge into one (vertex, mode)
  table, kept as it is.  Only these cold solves use scipy, so
  ``scipy.sparse`` is imported inside them (:func:`assemble_fem`,
  :func:`_class_bases`, :func:`_lowest_pairs`) and ``scipy.linalg`` inside
  the dense class solve (:func:`_lowest_pairs`): a run that loads its
  basis from the cache or counts on the exact sphere imports neither from
  here.

Mesh solves are expensive, so they get a small binary disk cache: one
self-describing "WLB1" container per entry, keyed by the mesh's identity,
the mode count, the solver tolerance, the solver seed and the solver
revision.  The identity is a sha256 hex digest named before any mesh is
built (:class:`~weylcount.surface.mesh.MeshSpec`): of an icosphere's level
and generator revision, of an OFF file's bytes, or of a SurfaceMesh's
content.  Container version 3 is laid out little-endian as the magic, a
``<IQQQ`` header (version, mode count k, vertex count p, reflection count
q), the 32 raw bytes of that identity, a ``<ddd`` header (area, trusted
horizon, residual), the k eigenvalues, the p masses, the (p, 3) nodes and
the (p, k) mode values (``<f8``), then the k parities and the (q, p)
reflection permutations (``<i8``); k and p are at least 1, and the arrays
start at byte 88, so every array starts 8-byte aligned.  A hit maps the
container read-only and views its arrays in place, copying nothing; this
is safe because a writer only ever publishes an entry by one atomic
rename, so a mapped file is never truncated under a live basis.  A hit
checks the tables counting indexes with (each reflection row must be a
permutation that mirrors the nodes in one coordinate axis, and each
parity must fit the reflections) and the nodes and masses, so a damaged
entry is an error, never a wrong count.  An entry of another version, or
whose digest names another mesh, is a miss.
"""

import contextlib
import hashlib
import mmap
import os
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    CacheError,
    InsufficientSpectrumError,
    SolverError,
    UsageError,
)

# seeds only the symmetry classes solved by Lanczos; part of the cache key
SOLVER_SEED = 42
SOLVER_TOL = 1e-8
TRUSTED_MODE_FRACTION = 0.05
# the largest exact sphere degree the command line builds a basis for
MAX_EXACT_DEGREE = 100_000
CACHE_MAGIC = b"WLB1"
CACHE_VERSION = 3
# after the magic: version, k, p, q, mesh sha256, area, horizon, residual
_CACHE_HEADER = "<IQQQ32sddd"
# names the eigensolver in the cache key, so an entry solved another way
# (such as the whole-pencil Lanczos solve) never answers a run
SOLVER_REVISION = "class-solves"
# columns per block of the solver's residual check
RESIDUAL_BLOCK = 32

Pencil = namedtuple("Pencil", ["stiffness", "mass", "nodes"])
Quadrature = namedtuple("Quadrature",
                        ["nodes", "mass", "modes", "parity", "reflections"])


@dataclass
class SpectralBasis:
    """Laplace-Beltrami eigenvalue clusters plus, for a mesh, mode values.

    ``values`` holds the distinct eigenvalues, strictly ascending, and
    ``multiplicities`` how many modes each cluster spans; ``ends`` is their
    running sum, the number of modes through each cluster.  The per-mode
    ``eigenvalues`` are expanded from the clusters on each access; counting
    reads the clusters, and a mesh section expands only its own modes
    (``leading``).

    A mesh basis holds its ``quadrature``: ``modes[t, j]`` is mode j at
    vertex ``nodes[t]``, whose lumped ``mass[t]`` makes the columns
    orthonormal to the class solves' accuracy, as it was solved or loaded;
    each mode lies exactly in its own class, so the classes are exactly
    separate.  Row b of the int64 ``reflections`` is the vertex
    permutation of the b-th coordinate reflection that maps the mesh onto
    itself (none for a mesh without one), and bit b of the int64
    ``parity[j]`` is set when mode j is odd under it.  A loaded basis
    holds read-only views of the mapped cache container.  The exact
    sphere, whose cluster index is the degree, holds none: ``quadrature``
    is None for it and only for it.
    ``trusted_horizon`` is the largest eigenvalue considered resolved: for
    a mesh, the Weyl count of 5% of the vertex budget, i.e.
    ``0.05 * vertex_count * 4 pi / area``.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    source: str
    area: float
    trusted_horizon: float
    quadrature: Quadrature = None
    residual: float = 0.0
    mesh_hash: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.multiplicities = np.asarray(self.multiplicities, dtype=np.int64)
        if (self.values.ndim != 1 or len(self.values) == 0
                or self.multiplicities.shape != self.values.shape
                or not np.all(np.diff(self.values) > 0.0)
                or not np.all(self.multiplicities >= 1)):
            raise SolverError("eigenvalue clusters must be strictly ascending "
                              "with positive multiplicities")
        self.ends = np.cumsum(self.multiplicities)

    nodes = property(lambda self: getattr(self.quadrature, "nodes", None))
    mass = property(lambda self: getattr(self.quadrature, "mass", None))
    modes = property(lambda self: getattr(self.quadrature, "modes", None))

    @property
    def eigenvalues(self):
        """All per-mode eigenvalues, ascending, with multiplicity."""
        return self.leading(self.mode_count)

    def leading(self, cut):
        """The first ``cut`` per-mode eigenvalues."""
        clusters = int(np.searchsorted(self.ends, cut)) + 1
        return np.repeat(self.values[:clusters],
                         self.multiplicities[:clusters])[:cut]

    @property
    def mode_count(self):
        return int(self.ends[-1])

    @property
    def top(self):
        return float(self.values[-1])

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


def clusters_of(eigenvalues):
    """(values, multiplicities) of ascending per-mode eigenvalues: each run
    of exactly equal eigenvalues is one cluster."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    starts = np.flatnonzero(np.diff(eigenvalues, prepend=np.nan) != 0.0)
    return eigenvalues[starts], np.diff(starts, append=len(eigenvalues))


# ----------------------------------------------------------------------
# exact sphere spectrum
# ----------------------------------------------------------------------

def sphere_degree_for(lam):
    """Smallest degree N with N(N+1) >= lam."""
    if lam <= 0.0:
        return 0
    return int(np.ceil(0.5 * (np.sqrt(1.0 + 4.0 * lam) - 1.0) - 1e-12))


def exact_sphere_spectrum(max_degree):
    """Unit-sphere spectrum up to the given degree: cluster n is n(n+1) with
    multiplicity 2n+1."""
    max_degree = int(max_degree)
    if max_degree < 0:
        raise InsufficientSpectrumError("max_degree must be >= 0")
    each = np.arange(max_degree + 1, dtype=np.int64)
    values = each * (each + 1.0)
    return SpectralBasis(values=values, multiplicities=2 * each + 1,
                         source="exact-sphere", area=4.0 * np.pi,
                         trusted_horizon=float(values[-1]))


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
    import scipy.sparse as sp

    tri = mesh.triangles
    rows, cols, vals = [], [], []
    for c, cot in enumerate(mesh.corner_cotangents()):
        a, b = (c + 1) % 3, (c + 2) % 3
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


def _reflections(stiffness, mass, nodes):
    """Vertex permutations of the coordinate reflections x -> -x, y -> -y
    and z -> -z that map the (stiffness, mass) pencil onto itself.

    A reflection must map the vertices onto themselves exactly: the points
    and their mirror images are sorted lexicographically and compared
    exactly, by value, so -0.0 matches 0.0.  A match is kept only if it
    leaves the stiffness and the mass invariant to 1e-12 of their largest
    entries.  ``perm[i]`` is the mirror image of vertex i.
    """
    order = np.lexsort(nodes.T)
    if np.any(np.all(np.diff(nodes[order], axis=0) == 0.0, axis=1)):
        return []  # a repeated vertex has no unique mirror image
    largest = abs(stiffness).max()
    reflections = []
    for axis in range(3):
        mirrored = nodes.copy()
        mirrored[:, axis] *= -1.0
        mirror_order = np.lexsort(mirrored.T)
        if not np.array_equal(nodes[order], mirrored[mirror_order]):
            continue
        perm = np.empty(len(nodes), dtype=np.int64)
        perm[order] = mirror_order
        if (abs(stiffness[perm][:, perm] - stiffness).max()
                <= 1e-12 * largest
                and np.max(np.abs(mass[perm] - mass))
                <= 1e-12 * np.max(mass)):
            reflections.append(perm)
    return reflections


def _vertex_orbits(reflections, n):
    """(group, orbit, firsts): row e of ``group`` composes reflection b for
    each bit b set in e, ``orbit[t]`` names the orbit of vertex t by its
    smallest vertex, and ``firsts`` lists those names, ascending."""
    group = [np.arange(n)]
    for perm in reflections:
        group += [element[perm] for element in group]
    group = np.stack(group)
    orbit = group.min(axis=0)
    return group, orbit, np.flatnonzero(orbit == np.arange(n))


def _class_bases(reflections, n):
    """(character, basis) pairs: one orthonormal sparse basis per character
    of the group the commuting ``reflections`` generate, in vertex space.
    Bit b of a character is set when its basis is odd under reflection b;
    without reflections the one character 0 has the identity basis.

    Column j of a character's basis is the projection of the j-th vertex
    orbit's first vertex onto that character, normalized: +-1/sqrt(orbit
    size) on the orbit.  An orbit whose stabilizer the character does not
    fix projects to zero and is dropped, and so is a character with no
    column left.
    """
    import scipy.sparse as sp

    group, _, firsts = _vertex_orbits(reflections, n)
    columns = np.tile(np.arange(len(firsts)), len(group))
    bases = []
    for character in range(len(group)):
        signs = np.array([(-1.0) ** bin(character & element).count("1")
                          for element in range(len(group))])
        basis = sp.csc_matrix(
            (np.repeat(signs, len(firsts)), (group[:, firsts].ravel(),
                                             columns)),
            shape=(n, len(firsts)))
        norms = np.sqrt(np.asarray(basis.multiply(basis).sum(axis=0))[0])
        kept = np.flatnonzero(norms > 0.0)
        if len(kept):
            scale = sp.diags(1.0 / norms[kept])
            bases.append((character, (basis[:, kept] @ scale).tocsc()))
    return bases


def _lowest_pairs(stiffness, mass, count, seed):
    """Lowest ``count`` eigenpairs of one pencil with diagonal mass: a dense
    solve of the mass-scaled problem for large requests, shift-invert
    Lanczos from a seeded start vector otherwise."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = stiffness.shape[0]
    if count > n // 4 or count >= n - 1:
        from scipy.linalg import eigh

        scale = 1.0 / np.sqrt(mass)
        dense = stiffness.toarray(order="F")
        dense *= scale[:, None]
        dense *= scale
        values, vectors = eigh(dense, subset_by_index=[0, count - 1],
                               overwrite_a=True)
        vectors *= scale[:, None]
        return values, vectors
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
    return values[order], vectors[:, order]


def _lowest_by_class(stiffness, mass, count, seed, classes):
    """Lowest ``count`` eigenpairs of the pencil, one symmetry class at a
    time, and each pair's class character: class Q of ``classes``
    (:func:`_class_bases`) takes the lowest min(count, columns) pairs of
    (Q^T K Q, Q^T M Q), whose mass is still diagonal, the classes' values
    are merged by a stable sort, and only the selected vectors are mapped
    back to the vertices.

    Once the classes solved so far hold ``count`` values, the count-th
    smallest of them bounds every value the merge selects, since later
    classes can only lower it.  After each class solve every block is cut
    to its leading pairs with value at most that bound, kept as a copy so
    the dropped columns are freed: the values come back ascending, and
    those equal to the bound stay, so the stable sort selects the same
    pairs in the same order."""
    characters, bases = zip(*classes)
    values, blocks = [], []
    for basis in bases:
        share = min(count, basis.shape[1])
        block_values, block_vectors = _lowest_pairs(
            basis.T @ stiffness @ basis,
            basis.multiply(basis).T @ mass, share, seed)
        values.append(block_values)
        blocks.append(block_vectors)
        solved = np.concatenate(values)
        if len(solved) < count:
            continue
        bound = np.partition(solved, count - 1)[count - 1]
        for c, class_values in enumerate(values):
            cut = int(np.searchsorted(class_values, bound, side="right"))
            if cut < len(class_values):
                values[c] = class_values[:cut]
                blocks[c] = blocks[c][:, :cut].copy(order="K")
    sizes = [len(v) for v in values]
    owner = np.repeat(np.arange(len(bases)), sizes)
    start = np.cumsum([0] + sizes)
    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")[:count]
    vectors = np.empty((stiffness.shape[0], count))
    for c, basis in enumerate(bases):
        picked = np.flatnonzero(owner[order] == c)
        vectors[:, picked] = basis @ blocks[c][:, order[picked] - start[c]]
        blocks[c] = None
    return values[order], vectors, np.array(characters)[owner[order]]


def _column_blocks(count):
    """(start, stop) of the residual check's column blocks, at most
    RESIDUAL_BLOCK wide.  A lone last column takes the last column of the
    block before it: numpy sums the squares of a block of two or more
    columns row by row, as it sums those of the whole table, but a single
    column's pairwise."""
    starts = list(range(0, count, RESIDUAL_BLOCK))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts[-1] -= 1
    return zip(starts, starts[1:] + [count])


def solve_lowest(pencil, count, tol=SOLVER_TOL, seed=SOLVER_SEED):
    """Lowest ``count`` eigenpairs of the (stiffness, mass) pencil.

    Every mesh is solved one symmetry class at a time (Bossavit, CMAME 56,
    1986): each coordinate reflection that maps the mesh onto itself splits
    the pencil, up to 8 classes, and a mesh with no such reflection is the
    one trivial class, the whole pencil.  Each class takes a dense solve of
    the mass-scaled problem for large requests and shift-invert Lanczos
    otherwise, whose start vector is drawn from ``seed``, so the result is
    deterministic and depends on the seed only through Lanczos classes.
    The basis keeps the reflections' vertex permutations and each mode's
    class character as its parity.  Residuals
    ||K v - lambda M v|| / ||v|| of the merged pairs are checked on the
    whole pencil against ``tol * (1 + lambda)``; failure raises SolverError
    with the worst value.

    Memory: the class solves keep only the pairs the merge can still
    select (:func:`_lowest_by_class`), so while the (vertex, mode) table
    is filled the class blocks hold about ``count`` columns in all, each
    as long as its class; after the merge that table is the only one
    live, and it becomes the basis's modes as it is.  The residuals are
    checked RESIDUAL_BLOCK columns at a time.
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

    reflections = _reflections(stiffness, mass, nodes)
    values, vectors, parity = _lowest_by_class(
        stiffness, mass, count, seed, _class_bases(reflections, n))

    if values[0] < -1e-8:
        raise SolverError(f"spurious negative eigenvalue {values[0]:.3e}",
                          residual=float(values[0]))
    values = np.maximum(values, 0.0)

    # K V - M V diag(values), one block of columns at a time in one reused
    # buffer, since each fresh array would cost a page fault per page.  The
    # column norms are squared in place and summed, as np.linalg.norm sums
    # them: sqrt(add.reduce(x * x, axis=0))
    rnorm = np.empty(count)
    buffer = np.empty((n, min(count, RESIDUAL_BLOCK)))
    for start, stop in _column_blocks(count):
        columns, block = vectors[:, start:stop], buffer[:, :stop - start]
        block[...] = columns
        residuals = stiffness @ block
        block *= mass[:, None]
        block *= values[start:stop]
        residuals -= block
        residuals *= residuals
        np.multiply(columns, columns, out=block)
        rnorm[start:stop] = (np.sqrt(np.add.reduce(residuals, axis=0))
                             / np.sqrt(np.add.reduce(block, axis=0)))
    worst = float(np.max(rnorm / (1.0 + values)))
    if worst > tol:
        raise SolverError(
            f"eigenpair residual {worst:.3e} exceeds tolerance {tol:g}",
            residual=worst)

    area = float(np.sum(mass))
    horizon = TRUSTED_MODE_FRACTION * n * 4.0 * np.pi / area
    return SpectralBasis(
        *clusters_of(values),
        source="mesh-fem",
        area=area,
        trusted_horizon=float(min(horizon, values[-1])),
        quadrature=Quadrature(nodes, mass, vectors, parity,
                              np.array(reflections, dtype=np.int64)
                              .reshape(-1, n)),
        residual=worst,
    )


# ----------------------------------------------------------------------
# disk cache
# ----------------------------------------------------------------------

def cache_key(mesh_hash, count, tol, seed):
    text = (f"{mesh_hash}:{int(count)}:{float(tol)!r}:{int(seed)}"
            f":v{CACHE_VERSION}:{SOLVER_REVISION}")
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def cache_store(directory, key, basis):
    """Write the mesh basis into <key>.wlb; returns the path.

    The basis's ``mesh_hash``, the identity of the mesh it was solved on,
    goes into the header as its 32 raw bytes, and every array of its
    quadrature follows, so a container always holds p >= 1 vertices.  The
    container is written to a process-unique temp file and published by
    one atomic rename, so concurrent writers resolve to last-writer-wins
    without torn files; a write or rename that fails removes the temp file
    and re-raises.  A ``mesh_hash`` that is not a sha256 hex digest,
    or a basis without a quadrature (the exact sphere), raises ValueError
    before anything is written.
    """
    digest = bytes.fromhex(basis.mesh_hash)
    if len(basis.mesh_hash) != 64 or len(digest) != 32:
        raise ValueError(f"mesh_hash {basis.mesh_hash!r} is not a sha256 "
                         "hex digest")
    if basis.quadrature is None:
        raise ValueError("a cache container holds a mesh basis's vertices")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".wlb")
    k = basis.mode_count
    quadrature = basis.quadrature
    p, q = len(quadrature.nodes), len(quadrature.reflections)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(CACHE_MAGIC + struct.pack(
                _CACHE_HEADER, CACHE_VERSION, k, p, q, digest, basis.area,
                basis.trusted_horizon, basis.residual))
            arrays = [basis.eigenvalues, quadrature.mass, quadrature.nodes,
                      quadrature.modes, quadrature.parity,
                      quadrature.reflections]
            for array, dtype in zip(arrays, ["<f8"] * 4 + ["<i8"] * 2):
                handle.write(np.ascontiguousarray(array, dtype=dtype))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # leave no temp file behind
            os.remove(tmp)
        raise
    return path


def _check_tables(path, quadrature):
    """Refuse, with CacheError, a loaded quadrature that counting could not
    index safely or that no solve produced: nodes and masses must be
    finite and the masses positive, each reflection row a permutation of
    the vertices that mirrors the nodes exactly in one coordinate axis,
    the axes ascending as :func:`_reflections` finds them, and every
    parity below 2^q.  O(q p + k), reading no mode value."""
    nodes, mass, _, parity, reflections = quadrature
    p = len(nodes)
    if not (np.isfinite(nodes).all()
            and 0.0 < mass.min() <= mass.max() < np.inf):
        raise CacheError(f"cache container {path} holds a non-finite node "
                         "or a non-positive mass")
    axis = -1
    for b, perm in enumerate(reflections):
        if not (perm.min() >= 0 and perm.max() < p
                and np.bincount(perm, minlength=p).max() == 1):
            raise CacheError(f"cache container {path}: reflection {b} is "
                             f"not a permutation of its {p} vertices")
        images = np.take(nodes, perm, axis=0)  # faster than nodes[perm]
        for axis in range(axis + 1, 3):
            images[:, axis] *= -1.0  # negation is exact, and -0.0 == 0.0
            if (images == nodes).all():
                break
            images[:, axis] *= -1.0
        else:
            raise CacheError(f"cache container {path}: reflection {b} does "
                             "not mirror its nodes in a later coordinate axis")
    if parity.min() < 0 or parity.max() >= 1 << len(reflections):
        raise CacheError(f"cache container {path} holds a parity outside "
                         f"its {len(reflections)} reflections")


def cache_load(directory, key):
    """Load a cached mesh basis; returns None on miss (including version
    skew).

    A hit maps the container read-only: the eigenvalues, masses, nodes,
    mode values, parities and reflections are views of the mapping, not
    copies.  The mapping outlives any later store of the same key, which
    writes a new file and renames it over the old one.  A short, empty or
    overlong container, one with a bad magic, one without modes or
    vertices (k = 0 or p = 0), and one whose tables fail
    :func:`_check_tables`, raises CacheError.
    """
    path = os.path.join(directory, key + ".wlb")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as handle:
            blob = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:  # an empty file cannot be mapped
        raise CacheError(f"unreadable cache container {path}: {exc}") from exc
    if blob[:4] != CACHE_MAGIC:
        raise CacheError(f"bad magic in cache container {path}")
    try:
        version, = struct.unpack_from("<I", blob, 4)
        if version != CACHE_VERSION:
            return None  # version skew is a miss, never a silent wrong answer
        _, k, p, q, digest, area, horizon, residual = struct.unpack_from(
            _CACHE_HEADER, blob, 4)
        if k == 0 or p == 0:
            raise CacheError(f"cache container {path}: {k} modes, {p} nodes")
        offset = 4 + struct.calcsize(_CACHE_HEADER)

        def take(count, shape, dtype="<f8"):
            nonlocal offset
            arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
            offset += 8 * count
            return arr.reshape(shape)

        eigenvalues = take(k, (k,))
        mass = take(p, (p,))
        quadrature = Quadrature(take(3 * p, (p, 3)), mass,
                                take(p * k, (p, k)), take(k, (k,), "<i8"),
                                take(q * p, (q, p), "<i8"))
        if offset != len(blob):
            raise CacheError(f"trailing bytes in cache container {path}")
    except (struct.error, ValueError) as exc:
        raise CacheError(f"corrupt cache container {path}: {exc}") from exc
    _check_tables(path, quadrature)
    return SpectralBasis(
        *clusters_of(eigenvalues),
        source="mesh-fem",
        area=area,
        trusted_horizon=horizon,
        quadrature=quadrature,
        residual=residual,
        mesh_hash=digest.hex(),
    )


def cached_mesh_spectrum(mesh, count, tol=SOLVER_TOL, directory=None,
                         seed=SOLVER_SEED, check_nodes=None):
    """Mesh spectrum with optional disk caching; returns (basis, hit).

    ``mesh`` is a :class:`~weylcount.surface.mesh.MeshSpec`, or a
    SurfaceMesh, whose identity is its content hash.  The entry is keyed
    by that identity, and a hit needs the container's own digest to match
    it, so a spec's mesh is built (and validated) only on a miss.
    ``check_nodes``, when given, is called with the mesh's nodes before
    they are used, and raises to refuse them: on a hit with the cached
    nodes, which are bitwise the vertices of the mesh that was solved, and
    on a miss with the built mesh's vertices, before the solve."""
    if hasattr(mesh, "content_hash"):  # a SurfaceMesh
        mesh = mesh.spec()
    key = cache_key(mesh.identity, count, tol, seed)
    if directory is not None:
        cached = cache_load(directory, key)
        if cached is not None and cached.mesh_hash == mesh.identity:
            if check_nodes is not None:
                check_nodes(cached.nodes)
            return cached, True
    built = mesh.build()
    if check_nodes is not None:
        check_nodes(built.vertices)
    basis = solve_lowest(assemble_fem(built), count, tol=tol, seed=seed)
    basis.mesh_hash = mesh.identity
    if directory is not None:
        cache_store(directory, key, basis)
    return basis, False
