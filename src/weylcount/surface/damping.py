"""Damping coefficient fields on closed surfaces.

A field stores the coefficient either directly or (``invert=True``) as the
pointwise reciprocal of a stored base profile.  The effective coefficient
``max(gamma, 1/gamma)`` is always computed from the base values, so a field
and its pointwise reciprocal yield bit-identical effective values -- the two
damping regimes are exactly symmetric downstream.
"""

import numpy as np

from ..errors import InvalidFieldError, UsageError

KINDS = ("constant", "affine", "vertex-table")


def _finite(value, what):
    value = float(value)
    if not np.isfinite(value):
        raise UsageError("%s must be finite, got %r" % (what, value))
    return value


class DampingField:
    """Scalar damping coefficient gamma on a surface.

    Kinds
    -----
    constant
        ``gamma(x) = value`` (or ``1/value`` with ``invert``).
    affine
        base profile ``offset + slope * <axis, x>`` with a unit axis;
        ``invert`` takes the pointwise reciprocal of that profile.
    vertex-table
        one base value per mesh vertex.

    The field must be strictly positive and stay strictly on one side of 1;
    a coefficient touching 1 anywhere is rejected.  ``invert`` is taken and
    not stored: the effective coefficient max(gamma, 1/gamma) comes from
    the base alone, so ``invert`` cannot change it, nor any count.
    """

    def __init__(self, kind, *, value=None, offset=None, slope=None,
                 axis=None, table=None, invert=False):
        if kind not in KINDS:
            raise UsageError(f"unknown damping field kind {kind!r}")
        self.kind = kind
        if kind == "constant":
            if value is None:
                raise UsageError("constant field needs a value")
            self.value = _finite(value, "constant field value")
        elif kind == "affine":
            if offset is None or slope is None or axis is None:
                raise UsageError("affine field needs offset, slope and axis")
            self.offset = _finite(offset, "affine offset")
            self.slope = _finite(slope, "affine slope")
            axis = np.asarray(axis, dtype=float)
            norm = np.linalg.norm(axis)
            if axis.shape != (3,) or not 0.0 < norm < np.inf:
                raise UsageError(
                    "affine axis must be a finite nonzero 3-vector")
            self.axis = axis / norm
        else:
            if table is None:
                raise UsageError("vertex-table field needs a value table")
            self.table = np.asarray(table, dtype=float)
            if self.table.ndim != 1 or len(self.table) == 0:
                raise UsageError("vertex table must be a nonempty 1-d array")
            if not np.all(np.isfinite(self.table)):
                raise UsageError("vertex table entries must be finite")

    # convenience constructors -----------------------------------------
    @classmethod
    def constant(cls, value, invert=False):
        return cls("constant", value=value, invert=invert)

    @classmethod
    def affine(cls, offset, slope, axis, invert=False):
        return cls("affine", offset=offset, slope=slope, axis=axis,
                   invert=invert)

    @classmethod
    def vertex_table(cls, table, invert=False):
        return cls("vertex-table", table=table, invert=invert)

    # evaluation --------------------------------------------------------
    def base_values(self, points):
        """The stored base profile at ambient points (or per-vertex).

        An affine profile is scaled and shifted in place in the one array
        the projection onto the axis returns, the same products and sums
        as offset + slope * <axis, x>, so bit for bit."""
        points = np.asarray(points, dtype=float)
        if self.kind == "constant":
            return np.full(points.shape[:-1] or (1,), self.value)
        if self.kind == "affine":
            base = points @ self.axis
            base *= self.slope
            base += self.offset
            return base
        if points.ndim != 2 or len(points) != len(self.table):
            raise InvalidFieldError(
                f"vertex table has {len(self.table)} entries but "
                f"{len(points)} points were supplied")
        return self.table.copy()

    def effective(self, points):
        """Effective coefficient max(gamma, 1/gamma), computed from the base.

        The maximum is written over the reciprocals, so they are the one
        float array it adds to the base; the values are those of
        np.maximum(base, 1.0 / base), bit for bit."""
        base = self.base_values(points)
        if np.any(base <= 0.0):
            raise InvalidFieldError("damping field is not strictly positive")
        if np.any(base == 1.0):
            raise InvalidFieldError("damping coefficient equals 1")
        inverse = np.divide(1.0, base)
        # a single point gives a scalar, which has no buffer to reuse
        return np.maximum(base, inverse, out=inverse if inverse.ndim else None)

    # range analysis ----------------------------------------------------
    def base_range(self, surface):
        """Exact (min, max) of the base profile over the surface."""
        if self.kind == "constant":
            return self.value, self.value
        if self.kind == "vertex-table":
            if hasattr(surface, "vertices") and \
                    len(surface.vertices) != len(self.table):
                raise InvalidFieldError(
                    f"vertex table has {len(self.table)} entries but the mesh "
                    f"has {len(surface.vertices)} vertices")
            return float(self.table.min()), float(self.table.max())
        if hasattr(surface, "support"):
            reach = abs(self.slope) * surface.support(self.axis)
            return self.offset - reach, self.offset + reach
        base = self.base_values(surface.vertices)
        return float(base.min()), float(base.max())

    def effective_range(self, surface):
        """(min, max) of the effective coefficient; both are > 1."""
        lo, hi = self.base_range(surface)
        if lo <= 0.0:
            raise InvalidFieldError(
                f"damping field reaches {lo:g} <= 0 on the surface")
        if lo > 1.0:
            return lo, hi
        if hi < 1.0:
            return 1.0 / hi, 1.0 / lo
        raise InvalidFieldError(
            f"damping coefficient range [{lo:g}, {hi:g}] touches 1")
