"""Damping coefficient fields on closed surfaces.

A field stores its base profile gamma as given: a field below one is given
by its own values (say ``affine:0.5,0.3,z``).  Every count reads the
effective coefficient ``max(gamma, 1/gamma)`` of the base values, so the
below-one regime is the above-one regime of the pointwise reciprocal.
"""

import numpy as np

from ..errors import InvalidFieldError, UsageError


def _finite(value, what):
    value = float(value)
    if not np.isfinite(value):
        raise UsageError("%s must be finite, got %r" % (what, value))
    return value


class DampingField:
    """Scalar damping coefficient gamma on a surface.

    Kinds, one constructor each
    ---------------------------
    :meth:`constant`
        ``gamma(x) = value``.
    :meth:`affine`
        base profile ``offset + slope * <axis, x>`` with a unit axis.
    :meth:`vertex_table`
        one base value per mesh vertex.

    The field must be strictly positive and stay strictly on one side of 1;
    a coefficient touching 1 anywhere is rejected.  Every constructor takes
    an ``invert`` keyword and ignores it: the effective coefficient
    max(gamma, 1/gamma) comes from the base alone, so ``invert`` could not
    change it, nor any count.
    """

    def __init__(self, kind, **params):
        """A field of ``kind`` with its checked parameters, as one of the
        constructors builds it."""
        self.kind = kind
        vars(self).update(params)

    # constructors, one per kind ----------------------------------------
    @classmethod
    def constant(cls, value, invert=False):
        return cls("constant", value=_finite(value, "constant field value"))

    @classmethod
    def affine(cls, offset, slope, axis, invert=False):
        offset = _finite(offset, "affine offset")
        slope = _finite(slope, "affine slope")
        axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(axis)
        if axis.shape != (3,) or not 0.0 < norm < np.inf:
            raise UsageError("affine axis must be a finite nonzero 3-vector")
        return cls("affine", offset=offset, slope=slope, axis=axis / norm)

    @classmethod
    def vertex_table(cls, table, invert=False):
        table = np.asarray(table, dtype=float)
        if table.ndim != 1 or len(table) == 0:
            raise UsageError("vertex table must be a nonempty 1-d array")
        if not np.all(np.isfinite(table)):
            raise UsageError("vertex table entries must be finite")
        return cls("vertex-table", table=table)

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

        The base array is the result: its entries below one are replaced
        by their reciprocals in place, and the rest kept, so no float array
        is added to it.  Since 1/b < 1 < b for b > 1, the values are those
        of np.maximum(base, 1.0 / base), bit for bit.  A single point of an
        affine field gives a scalar."""
        base = self.base_values(points)
        if np.any(base <= 0.0):
            raise InvalidFieldError("damping field is not strictly positive")
        if np.any(base == 1.0):
            raise InvalidFieldError("damping coefficient equals 1")
        if np.ndim(base) == 0:
            # a scalar has no buffer to write into
            return np.maximum(base, 1.0 / base)
        np.divide(1.0, base, out=base, where=base < 1.0)
        return base

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
