"""Charts and quadrature on axis-aligned ellipsoids.

Every surface here is the unit sphere mapped by diag(a, b, c).  It is
covered by two overlapping charts, the sphere's polar chart turned onto the
z and x axes and scaled by that matrix; they supply points, normals, frames
and chart inverses.  Surface integrals need no charts: they use the sphere's
product grid (``sphere_grid``: Gauss-Legendre in z times equispaced
longitudes) mapped by the same matrix.
"""

import functools
import sys
from collections import namedtuple

import numpy as np
from scipy.special import roots_legendre

from ..errors import ChartDegeneracyError, UsageError

GRAM_FLOOR = 1e-10
# degree of the sphere grid behind AnalyticSurface.integrate: 96 nodes in z,
# 189 longitudes; exact for polynomials of degree <= 188 on the sphere
INTEGRATION_DEGREE = 93

POLAR_MARGIN = 0.1                      # polar caps excluded from each chart

SphereGrid = namedtuple("SphereGrid", ["z", "phi", "nodes", "mass"])


def _cross(a, b):
    """Cross product of 3-vectors over the last axis of two arrays.

    np.cross's arithmetic, broadcast alike, in the same promoted dtype and
    with the same bits: component k is a[k+1] b[k+2] - a[k+2] b[k+1]
    (indices mod 3), one product written into the output and the other
    subtracted from it.  It skips np.cross's axis handling, which is most of
    its cost on small batches.
    """
    out = np.empty(np.broadcast(a, b).shape, np.result_type(a, b))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        component = out[..., k]
        np.multiply(a[..., i], b[..., j], out=component)
        np.subtract(component, a[..., j] * b[..., i], out=component)
    return out


def sphere_grid(degree):
    """Product quadrature on the unit sphere.

    Gauss-Legendre in z with ``degree + 3`` nodes times ``2 degree + 3``
    equispaced longitudes ``phi``; ``nodes`` (z-major, shape (..., 3)) and
    their weights ``mass`` are flattened over the grid.  The rule is exact for
    polynomials in the coordinates of degree <= 2 degree + 2, so for
    products Y_i Y_j p of harmonics of degree <= ``degree`` with p affine.
    """
    z, wz = roots_legendre(degree + 3)
    nphi = 2 * degree + 3
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    wphi = np.full(nphi, 2.0 * np.pi / nphi)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    nodes = np.stack([
        np.outer(sin_theta, np.cos(phi)).ravel(),
        np.outer(sin_theta, np.sin(phi)).ravel(),
        np.outer(z, np.ones_like(phi)).ravel(),
    ], axis=-1)
    return SphereGrid(z, phi, nodes, np.outer(wz, wphi).ravel())


@functools.lru_cache(maxsize=None)
def _integration_grid():
    """``sphere_grid(INTEGRATION_DEGREE)``, built on first use, read-only."""
    grid = sphere_grid(INTEGRATION_DEGREE)
    for array in grid:
        array.flags.writeable = False
    return grid


# each mapped rule holds about 0.6 MB
@functools.lru_cache(maxsize=8)
def _mapped_rule(axes):
    """(points, weights) of the integration grid mapped onto the ellipsoid
    with semi-axes ``axes`` (a tuple), built on first use, read-only.

    The area element's norm |x / axes^2| is squared and summed in the one
    array of the quotients, as np.linalg.norm squares and sums its copy of
    them, so the weights are bit for bit those of
    grid.mass * prod(axes) * norm(points / axes^2) with one (points, 3)
    temporary instead of three."""
    grid = _integration_grid()
    axes = np.asarray(axes)
    points = grid.nodes * axes
    squares = points / axes ** 2
    squares *= squares
    weights = np.sqrt(np.add.reduce(squares, axis=-1))
    weights *= grid.mass * np.prod(axes)
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


class Chart:
    """The polar chart (theta, phi) of the ellipsoid diag(axes) S^2.

    A point is axes * P s(theta, phi), s = (sin theta cos phi,
    sin theta sin phi, cos theta), where the signed coordinate permutation P
    puts the chart's pole on its axis: the identity for ``pole="z"``, and
    (x, y, z) -> (z, y, -x) for ``pole="x"``.  P is a rotation and the axes
    are positive, so on the domain, where sin theta > 0, the cross product
    of the tangents points away from the centre.
    """

    DOMAIN = ((POLAR_MARGIN, np.pi - POLAR_MARGIN), (0.0, 2.0 * np.pi))
    # component i of P s is sign_i * s[order_i]
    PERMUTATIONS = {"z": ((0, 1, 2), (1.0, 1.0, 1.0)),
                    "x": ((2, 1, 0), (1.0, 1.0, -1.0))}

    def __init__(self, axes, pole):
        order, signs = self.PERMUTATIONS[pole]
        self.name = "polar-" + pole
        self._order = order
        self._unorder = np.argsort(order)
        self._scale = np.asarray(axes, dtype=float) * signs

    def _place(self, components):
        """axes * P applied to the three components of a sphere vector,
        each component scaled straight into its column of the output."""
        out = np.empty(np.shape(components[0]) + (3,))
        for k, (i, scale) in enumerate(zip(self._order, self._scale)):
            np.multiply(components[i], scale, out=out[..., k])
        return out

    def _evaluate(self, u, v, tangents=True):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                                   np.asarray(v, dtype=float))
        st, ct = np.sin(u), np.cos(u)
        sp, cp = np.sin(v), np.cos(v)
        point = self._place((st * cp, st * sp, ct))
        if not tangents:
            return point
        return (point, self._place((ct * cp, ct * sp, -st)),
                self._place((-st * sp, st * cp, np.zeros_like(st))))

    def point(self, u, v):
        return self._evaluate(u, v, tangents=False)

    def inverse(self, points):
        """Chart parameters (theta, phi) of points on the surface."""
        s = (np.asarray(points, dtype=float) / self._scale)[..., self._unorder]
        theta = np.arccos(np.clip(s[..., 2], -1.0, 1.0))
        phi = np.mod(np.arctan2(s[..., 1], s[..., 0]), 2.0 * np.pi)
        return theta, phi

    def contains(self, u, v, tol=0.0):
        (ulo, uhi), (vlo, vhi) = self.DOMAIN
        return (u >= ulo - tol) & (u <= uhi + tol) & (v >= vlo - tol) & (v <= vhi + tol)

    def tangents(self, u, v):
        """First derivatives (ds/du, ds/dv), each of shape (..., 3)."""
        return self._evaluate(u, v)[1:]

    def _gram(self, tu, tv):
        """Entries e, f, g and determinant of the first fundamental form."""
        e = np.sum(tu * tu, axis=-1)
        f = np.sum(tu * tv, axis=-1)
        g = np.sum(tv * tv, axis=-1)
        det = e * g - f * f
        if np.any(det <= GRAM_FLOOR):
            raise ChartDegeneracyError(
                f"chart {self.name!r}: Gram determinant {float(np.min(det)):.3e} "
                f"<= {GRAM_FLOOR:g}")
        return e, f, g, det

    def metric(self, u, v):
        """First fundamental form, shape (..., 2, 2)."""
        e, f, g, _ = self._gram(*self.tangents(u, v))
        gram = np.empty(np.shape(e) + (2, 2))
        gram[..., 0, 0] = e
        gram[..., 0, 1] = f
        gram[..., 1, 0] = f
        gram[..., 1, 1] = g
        return gram

    def frames(self, u, v):
        """Point, outward unit normal and dual frame (e_u, e_v) at (u, v).

        One evaluation of the point and tangents serves all four; the dual
        frame is tangential with <e_i, t_j> = delta_ij.
        """
        point, tu, tv = self._evaluate(u, v)
        e, f, g, det = self._gram(tu, tv)
        normal = _cross(tu, tv)
        normal = normal / np.linalg.norm(normal, axis=-1)[..., None]
        eu = (g[..., None] * tu - f[..., None] * tv) / det[..., None]
        ev = (-f[..., None] * tu + e[..., None] * tv) / det[..., None]
        return point, normal, eu, ev


class AnalyticSurface:
    """Axis-aligned ellipsoid covered by two polar charts, poles on z and x.

    Instances are produced by :meth:`unit_sphere` and :meth:`ellipsoid`.
    ``axes`` stores the semi-axes, so the unit sphere is the special case
    (1, 1, 1).
    """

    def __init__(self, name, axes):
        self.name = name
        self.axes = np.asarray(axes, dtype=float)
        self.charts = [Chart(self.axes, pole) for pole in "zx"]

    @classmethod
    def unit_sphere(cls):
        return cls("unit-sphere", (1.0, 1.0, 1.0))

    @classmethod
    def ellipsoid(cls, a, b, c):
        axes = (float(a), float(b), float(c))
        if not np.all(np.isfinite(axes)):
            raise UsageError("ellipsoid semi-axes must be finite")
        if min(axes) <= 0.0:
            raise UsageError("ellipsoid semi-axes must be positive")
        name = "ellipsoid(%g,%g,%g)" % axes
        return cls(name, axes)

    def support(self, direction):
        """max over the surface of <direction, x> (exact for ellipsoids)."""
        direction = np.asarray(direction, dtype=float)
        return float(np.linalg.norm(self.axes * direction))

    def integrate(self, f):
        """Integrate ``f(points) -> values`` over the surface.

        The surface is the unit sphere mapped by diag(axes), so the rule is
        the sphere's product grid mapped by the same matrix, each node
        weighted by the area element a b c |x / axes^2| at its image x.
        The mapped rule is built once per semi-axes and read-only, so ``f``
        must not write into its points.

        The values are weighted in place when ``f`` returns a fresh float
        array of the rule's shape that nothing else refers to, as the Weyl
        integrand does; any other result (a scalar, a view such as a column
        of the points, an array the caller keeps) is weighted into a new
        array.  Both sum the same products, so bit for bit.
        """
        points, weights = _mapped_rule(tuple(self.axes.tolist()))
        values = np.asarray(f(points), dtype=float)
        # ``alone`` is referred to by its name only; getrefcount counts
        # ``values`` the same way, so equal counts mean no one else holds it
        alone = object()
        if (values.shape == weights.shape and values.flags.owndata
                and values.flags.writeable
                and sys.getrefcount(values) == sys.getrefcount(alone)):
            values *= weights
        else:
            values = values * weights
        return float(np.sum(values))

    def area(self):
        return self.integrate(lambda pts: 1.0)

