"""The exact sphere's 2-D product rule, kept as a reference for the tests.

The counting code forms no Gram matrix of a damping field on the exact
sphere: it counts closed-form tridiagonal sections of the field's affine
base profile, or their duals below one.  The reference here builds the
Gram matrix of the effective damping the direct way: every real harmonic
at every node of ``sphere_grid(degree)`` (Gauss-Legendre in z times
equispaced longitudes), one column at a time, and W^T W with
W = harmonics * sqrt(mass * gamma0), in the column order of
``exact_sphere_spectrum``: degree n in columns n^2..n^2+2n, order m at
n^2+n+m.
"""

import functools

import numpy as np

from weylcount.semiclassical_count import GalerkinOperator
from weylcount.surface.charts import sphere_grid


def per_order_legendre(order, max_degree, t):
    """q_{n,m}(t), n = m..max_degree, by the degree recurrence of one
    order, normalized so that the integral of q_{n,m}^2 over [-1, 1] is
    1."""
    m = order
    out = np.empty((max_degree - m + 1,) + t.shape)
    q = np.full(t.shape, 1.0 / np.sqrt(2.0))
    if m > 0:
        s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        for k in range(1, m + 1):
            q = np.sqrt((2.0 * k + 1.0) / (2.0 * k)) * s * q
    out[0] = q
    if len(out) > 1:
        out[1] = np.sqrt(2.0 * m + 3.0) * t * q
    for n in range(m + 2, max_degree + 1):
        alpha = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        beta = np.sqrt((2.0 * n + 1.0) * (n - 1.0 - m) * (n - 1.0 + m)
                       / ((2.0 * n - 3.0) * (n * n - m * m)))
        out[n - m] = alpha * t * out[n - m - 1] - beta * out[n - m - 2]
    return out


@functools.lru_cache(maxsize=4)
def reference_tabulation(max_degree):
    """(nodes, mass, modes): the harmonics at every node of
    ``sphere_grid(max_degree)``, one column at a time, read-only.  Order m
    of degree n is q_{n,|m|}(z) times 1 / sqrt(2 pi) for m = 0,
    cos(m phi) / sqrt(pi) for m > 0 and sin(|m| phi) / sqrt(pi) for
    m < 0."""
    grid = sphere_grid(max_degree)
    t, phi = grid.z, grid.phi
    modes = np.empty((len(grid.mass), (max_degree + 1) ** 2))
    for m in range(max_degree + 1):
        block = per_order_legendre(m, max_degree, t)
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
    for array in (grid.nodes, grid.mass, modes):
        array.flags.writeable = False
    return grid.nodes, grid.mass, modes


def product_gram(max_degree, field, cut=None):
    """The Gram matrix of the effective damping on the first ``cut``
    harmonics (all through ``max_degree`` by default), by the product rule
    over the whole grid."""
    nodes, mass, modes = reference_tabulation(max_degree)
    scaled = modes[:, :cut] * np.sqrt(mass * field.effective(nodes))[:, None]
    return scaled.T @ scaled


def reflection_classes(max_degree, field):
    """The columns of each reflection class, parity bits ascending.

    The grid maps onto itself under z -> -z and y -> -y, and harmonic
    (n, m) is odd under the first when n + |m| is odd, under the second
    when m < 0.  A reflection that leaves the field unchanged, bit for bit
    at the nodes, couples no even harmonic to an odd one, so the modes of
    equal parity under every such reflection form one class."""
    nodes = sphere_grid(max_degree).nodes
    degrees = np.repeat(np.arange(max_degree + 1),
                        2 * np.arange(max_degree + 1) + 1)
    orders = np.arange(len(degrees)) - degrees * (degrees + 1)
    bits = np.zeros(len(degrees), dtype=np.int64)
    gamma0 = field.effective(nodes)
    for bit, (axis, odd) in enumerate(((2, (degrees + orders) % 2 == 1),
                                       (1, orders < 0))):
        mirrored = nodes.copy()
        mirrored[:, axis] *= -1.0
        if np.array_equal(field.effective(mirrored), gamma0):
            bits |= odd << bit
    return [np.flatnonzero(bits == b) for b in np.unique(bits)]


def product_section(basis, h, cut, gram, classes=None):
    """Reference section diag(sqrt(1 + h^2 lambda)) - G on the first
    ``cut`` modes, G a leading part of ``gram``: one dense block, or one
    per class of ``classes``."""
    diagonal = np.sqrt(1.0 + h * h * basis.leading(cut))
    blocks = []
    for columns in classes or [np.arange(cut)]:
        columns = columns[columns < cut]
        if len(columns):
            blocks.append((np.diag(diagonal[columns])
                           - gram[np.ix_(columns, columns)], columns))
    return GalerkinOperator(cut, blocks)
