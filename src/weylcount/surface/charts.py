"""Parametric charts and quadrature on smooth closed surfaces.

A closed surface is covered by two overlapping polar charts (rotated 90
degrees against each other); they supply points, normals, frames and chart
inverses.  Every surface here is an axis-aligned ellipsoid, the unit sphere
mapped by diag(a, b, c), so surface integrals need no charts: they use the
sphere's product grid (``sphere_grid``, shared with the tabulated sphere
harmonics) mapped by that matrix.
"""

import functools
from collections import namedtuple

import numpy as np
from scipy.special import roots_legendre

from ..errors import ChartDegeneracyError, UsageError

FD_STEP = 1e-6
GRAM_FLOOR = 1e-10
# degree of the sphere grid behind AnalyticSurface.integrate: 96 nodes in z,
# 189 longitudes; exact for polynomials of degree <= 188 on the sphere
INTEGRATION_DEGREE = 93

POLAR_MARGIN = 0.1                      # polar caps excluded from each chart

SphereGrid = namedtuple("SphereGrid", ["z", "phi", "nodes", "mass",
                                       "z_weights", "phi_weights"])


def sphere_grid(degree):
    """Product quadrature on the unit sphere.

    Gauss-Legendre in z with ``degree + 3`` nodes times ``2 degree + 3``
    equispaced longitudes ``phi``; ``nodes`` (z-major, shape (..., 3)) and
    ``mass`` are flattened over the grid, ``mass`` the product of the
    factor weights ``z_weights`` and ``phi_weights``.  The rule is exact for
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
    return SphereGrid(z, phi, nodes, np.outer(wz, wphi).ravel(), wz, wphi)


@functools.lru_cache(maxsize=None)
def _integration_grid():
    """``sphere_grid(INTEGRATION_DEGREE)``, built on first use, read-only."""
    grid = sphere_grid(INTEGRATION_DEGREE)
    for array in grid:
        array.flags.writeable = False
    return grid


class Chart:
    """One parametric patch of a closed surface.

    Parameters
    ----------
    mapping : callable
        ``mapping(u, v) -> (..., 3)`` ambient points; must broadcast.
    domain : ((float, float), (float, float))
        Closed parameter rectangle.
    jacobian : callable, optional
        ``jacobian(u, v) -> (..., 3, 2)`` analytic first derivatives.  When
        omitted, central differences with step ``FD_STEP`` are used.
    inverse : callable, optional
        ``inverse(points) -> (u, v)`` for ambient points on the chart image.
    interior_point : array-like
        Point strictly inside the enclosed volume; normals are oriented away
        from it.
    """

    def __init__(self, mapping, domain, jacobian=None, inverse=None,
                 interior_point=(0.0, 0.0, 0.0), name=""):
        self.mapping = mapping
        self.domain = tuple((float(lo), float(hi)) for lo, hi in domain)
        for lo, hi in self.domain:
            if not hi > lo:
                raise UsageError("chart parameter rectangle is empty")
        self._jacobian = jacobian
        self.inverse = inverse
        self.interior_point = np.asarray(interior_point, dtype=float)
        self.name = name

    def point(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.asarray(self.mapping(u, v), dtype=float)

    def contains(self, u, v, tol=0.0):
        (ulo, uhi), (vlo, vhi) = self.domain
        return (u >= ulo - tol) & (u <= uhi + tol) & (v >= vlo - tol) & (v <= vhi + tol)

    def tangents(self, u, v):
        """First derivatives (ds/du, ds/dv), each of shape (..., 3)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if self._jacobian is not None:
            jac = np.asarray(self._jacobian(u, v), dtype=float)
            return jac[..., 0], jac[..., 1]
        h = FD_STEP
        du = (self.point(u + h, v) - self.point(u - h, v)) / (2.0 * h)
        dv = (self.point(u, v + h) - self.point(u, v - h)) / (2.0 * h)
        return du, dv

    def metric(self, u, v):
        """First fundamental form, shape (..., 2, 2)."""
        tu, tv = self.tangents(u, v)
        e = np.sum(tu * tu, axis=-1)
        f = np.sum(tu * tv, axis=-1)
        g = np.sum(tv * tv, axis=-1)
        det = e * g - f * f
        if np.any(det <= GRAM_FLOOR):
            raise ChartDegeneracyError(
                f"chart {self.name!r}: Gram determinant {float(np.min(det)):.3e} "
                f"<= {GRAM_FLOOR:g}")
        gram = np.empty(np.shape(e) + (2, 2))
        gram[..., 0, 0] = e
        gram[..., 0, 1] = f
        gram[..., 1, 0] = f
        gram[..., 1, 1] = g
        return gram

    def normal(self, u, v):
        """Unit normal, oriented away from the interior point (outward)."""
        tu, tv = self.tangents(u, v)
        n = np.cross(tu, tv)
        nn = np.linalg.norm(n, axis=-1)
        if np.any(nn * nn <= GRAM_FLOOR):
            raise ChartDegeneracyError(
                f"chart {self.name!r}: degenerate tangent plane")
        n = n / nn[..., None]
        outward = np.sum(n * (self.point(u, v) - self.interior_point), axis=-1)
        return n * np.where(outward < 0.0, -1.0, 1.0)[..., None]

    def dual_frame(self, u, v):
        """Covector frame (e_u, e_v): tangential, with <e_i, t_j> = delta_ij."""
        tu, tv = self.tangents(u, v)
        e = np.sum(tu * tu, axis=-1)
        f = np.sum(tu * tv, axis=-1)
        g = np.sum(tv * tv, axis=-1)
        det = e * g - f * f
        if np.any(det <= GRAM_FLOOR):
            raise ChartDegeneracyError(
                f"chart {self.name!r}: Gram determinant below {GRAM_FLOOR:g}")
        eu = (g[..., None] * tu - f[..., None] * tv) / det[..., None]
        ev = (-f[..., None] * tu + e[..., None] * tv) / det[..., None]
        return eu, ev


class AnalyticSurface:
    """Closed surface covered by two rotated polar charts.

    Instances are produced by :meth:`unit_sphere` and :meth:`ellipsoid`.
    ``axes`` stores the semi-axes, so the unit sphere is the special case
    (1, 1, 1).
    """

    def __init__(self, name, axes, charts):
        self.name = name
        self.axes = np.asarray(axes, dtype=float)
        self.charts = list(charts)

    @classmethod
    def unit_sphere(cls):
        return cls("unit-sphere", (1.0, 1.0, 1.0),
                   _polar_chart_pair((1.0, 1.0, 1.0)))

    @classmethod
    def ellipsoid(cls, a, b, c):
        axes = (float(a), float(b), float(c))
        if not np.all(np.isfinite(axes)):
            raise UsageError("ellipsoid semi-axes must be finite")
        if min(axes) <= 0.0:
            raise UsageError("ellipsoid semi-axes must be positive")
        name = "ellipsoid(%g,%g,%g)" % axes
        return cls(name, axes, _polar_chart_pair(axes))

    def support(self, direction):
        """max over the surface of <direction, x> (exact for ellipsoids)."""
        direction = np.asarray(direction, dtype=float)
        return float(np.linalg.norm(self.axes * direction))

    def integrate(self, f):
        """Integrate ``f(points) -> values`` over the surface.

        The surface is the unit sphere mapped by diag(axes), so the rule is
        the sphere's product grid mapped by the same matrix, each node
        weighted by the area element a b c |x / axes^2| at its image x.
        """
        grid = _integration_grid()
        points = grid.nodes * self.axes
        weights = grid.mass * np.prod(self.axes) * np.linalg.norm(
            points / self.axes ** 2, axis=-1)
        return float(np.sum(np.asarray(f(points), dtype=float) * weights))

    def area(self):
        return self.integrate(lambda pts: 1.0)


def _polar_chart_pair(axes):
    """Two polar charts of an axis-aligned ellipsoid, poles on z and on x."""
    ax = np.asarray(axes, dtype=float)
    lo = POLAR_MARGIN
    hi = np.pi - POLAR_MARGIN
    domain = ((lo, hi), (0.0, 2.0 * np.pi))

    def map_z(th, ph):
        st, ct = np.sin(th), np.cos(th)
        return np.stack([ax[0] * st * np.cos(ph),
                         ax[1] * st * np.sin(ph),
                         ax[2] * ct], axis=-1)

    def jac_z(th, ph):
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        d_th = np.stack([ax[0] * ct * cp, ax[1] * ct * sp,
                         -ax[2] * st * np.ones_like(cp)], axis=-1)
        d_ph = np.stack([-ax[0] * st * sp, ax[1] * st * cp,
                         np.zeros_like(st * sp)], axis=-1)
        return np.stack([d_th, d_ph], axis=-1)

    def inv_z(points):
        u = np.asarray(points, dtype=float) / ax
        th = np.arccos(np.clip(u[..., 2], -1.0, 1.0))
        ph = np.mod(np.arctan2(u[..., 1], u[..., 0]), 2.0 * np.pi)
        return th, ph

    # Second chart: same construction conjugated by the rotation that sends
    # the z axis onto the x axis, so its polar caps sit on (+-a, 0, 0).
    def map_x(th, ph):
        st, ct = np.sin(th), np.cos(th)
        return np.stack([ax[0] * ct,
                         ax[1] * st * np.sin(ph),
                         -ax[2] * st * np.cos(ph)], axis=-1)

    def jac_x(th, ph):
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        d_th = np.stack([-ax[0] * st * np.ones_like(cp),
                         ax[1] * ct * sp,
                         -ax[2] * ct * cp], axis=-1)
        d_ph = np.stack([np.zeros_like(st * sp),
                         ax[1] * st * cp,
                         ax[2] * st * sp], axis=-1)
        return np.stack([d_th, d_ph], axis=-1)

    def inv_x(points):
        u = np.asarray(points, dtype=float) / ax
        th = np.arccos(np.clip(u[..., 0], -1.0, 1.0))
        ph = np.mod(np.arctan2(u[..., 1], -u[..., 2]), 2.0 * np.pi)
        return th, ph

    return [
        Chart(map_z, domain, jacobian=jac_z, inverse=inv_z, name="polar-z"),
        Chart(map_x, domain, jacobian=jac_x, inverse=inv_x, name="polar-x"),
    ]
