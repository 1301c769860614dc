"""Counting negative modes of the reduced boundary operator.

The model operator at semiclassical parameter h = 1/r acts in the
Laplace-Beltrami eigenbasis as D - G, with D = diag(sqrt(1 + h^2 lambda_j))
and G the Gram matrix of the effective damping gamma0 under the surface mass
inner product.  Its negative eigenvalues predict the eigenvalue count N(r),
which the Weyl law pegs at (r^2 / 4 pi) * integral of (gamma0^2 - 1).

The finite section is stored block diagonally, as symmetric blocks (or
stacks of equal-size blocks) each repeated a number of times.  Constant
damping makes every block 1 x 1, damping affine along the sphere's polar
axis gives one tridiagonal block per order, kept as the diagonal and
off-diagonals alone, and any other field one dense block from the mode
values the basis tabulates, which this module reads.

Counting computes no eigenvalues: by Sylvester's law of inertia the number
of eigenvalues below a shift is the number of negative pivots of an LDL^T
factorization of the shifted block.  Dense blocks are factored by LAPACK
(Bunch-Kaufman); the tridiagonal blocks of a polar-affine section are
counted by their pivot recurrence, a Sturm sequence, swept over the degrees
once for all orders together, so no block is ever formed.  A scan counts
every section it needs, each radius and its recount, in one such sweep,
batched over h: a section through a lower degree is a leading part of one
through a higher degree, so the sweep keeps a running count through every
degree and each section's count is a lookup in it.
"""

import json
from collections import namedtuple
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.linalg import eigh, eigvalsh_tridiagonal
from scipy.linalg.lapack import dsytrf, dsytrf_lwork
from scipy.optimize import linear_sum_assignment

from .errors import DomainError, InsufficientSpectrumError, UsageError
from .lb_spectrum import sphere_degree_for

ZERO_TOL = 1e-12
CUT_FACTOR = 2.0
STABILITY_FACTOR = 1.5
EXPONENT_SPAN = 3.0
TRACK_OVERLAP = 0.8

NegativeCount = namedtuple("NegativeCount", ["negative", "borderline"])


@dataclass(frozen=True)
class DampingConstants:
    """Derived constants of an effective damping range [c0, c1], both > 1.

    C = 1/c1^2 and eps = (C/2)(c0-1)^2 control the per-mode inequality;
    delta = (c0-1)/2 is the half-width of the monotonicity probe band.
    eps < 1/2 always, since (c0-1)/c1 < 1.
    """

    c0: float
    c1: float

    def __post_init__(self):
        if not 1.0 < self.c0 <= self.c1:
            raise DomainError(
                f"damping range [{self.c0}, {self.c1}] must satisfy 1 < c0 <= c1")

    @property
    def big_c(self):
        return 1.0 / (self.c1 * self.c1)

    @property
    def eps(self):
        return 0.5 * self.big_c * (self.c0 - 1.0) ** 2

    @property
    def delta(self):
        return 0.5 * (self.c0 - 1.0)

    def ellipticity_threshold(self, h):
        """lambda* = (c1^2 - 1)/h^2: modes above it have positive symbol."""
        return (self.c1 * self.c1 - 1.0) / (h * h)


def constants_for(field, surface):
    lo, hi = field.effective_range(surface)
    return DampingConstants(lo, hi)


def inequality_margin(constants, s, gamma0):
    """(1 + C - eps) s^2 - 2 C gamma0 s + (C gamma0^2 - 1), the per-mode form.

    Nonnegative for every s >= 1 and gamma0 in [c0, c1]; equals eps exactly
    at s = 1, gamma0 = c0.
    """
    s = np.asarray(s, dtype=float)
    gamma0 = np.asarray(gamma0, dtype=float)
    c = constants.big_c
    return ((1.0 + c - constants.eps) * s * s
            - 2.0 * c * gamma0 * s + (c * gamma0 * gamma0 - 1.0))


def inequality_check(constants, count=10000, seed=0):
    """Sample (lambda, h, gamma0) triples and report the worst margin.

    h is drawn from [1e-3, 1] and lambda from [0, 4x the ellipticity
    threshold at h = 1].
    Returns {"min_margin", "margin_at_s1_c0", "samples", "violations"}.
    """
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 4.0 * constants.ellipticity_threshold(1.0),
                      size=count)
    h = rng.uniform(1e-3, 1.0, size=count)
    gamma0 = rng.uniform(constants.c0, constants.c1, size=count)
    s = np.sqrt(1.0 + h * h * lam)
    margins = inequality_margin(constants, s, gamma0)
    return {
        "min_margin": float(np.min(margins)),
        "margin_at_s1_c0": float(inequality_margin(constants, 1.0, constants.c0)),
        "samples": int(count),
        "violations": int(np.sum(margins < 0.0)),
    }


# ----------------------------------------------------------------------
# the Galerkin operator
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TridiagonalFamily:
    """Symmetric tridiagonal blocks T_0, ..., T_L that share one diagonal.

    T_m spans rows m..L with diagonal ``diagonal[..., m:]``; its entry
    coupling rows n - 1 and n (m < n <= L) is
    ``off_diagonal[n (n - 1) / 2 + m]``, so the entries that couple row n to
    row n - 1 in all blocks are one run, and the off-diagonals of the family
    cut to rows 0..n are a leading slice.  Leading axes on ``diagonal`` hold
    a batch of families that share the off-diagonals.  ``sweep`` is
    (SturmSweep, member) when the family is a leading part of that member of
    a batch whose sweep counts it, as the sections of a scan are, and None
    when it is counted on its own.
    """

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    sweep: tuple = None

    def __len__(self):
        return self.diagonal.shape[-1]

    def block(self, order):
        """(diagonal, off-diagonal) of T_order."""
        rows = np.arange(order + 1, len(self))
        return (self.diagonal[..., order:],
                self.off_diagonal[rows * (rows - 1) // 2 + order])


@dataclass
class GalerkinOperator:
    """Finite section D - G of the model operator at fixed h.

    ``blocks`` lists (matrix, multiplicity) pairs whose direct sum is the
    section: ``matrix`` is one symmetric (k, k) block, a (b, k, k) stack of
    them, or a :class:`TridiagonalFamily` standing for its blocks, and
    ``multiplicity`` an int or one count per stacked block or family member.
    ``mode_cut`` counts retained basis modes.
    """

    mode_cut: int
    blocks: list

    def eigenvalues(self):
        """All retained model eigenvalues, ascending, with multiplicity."""
        spectra = []
        for matrix, multiplicity in self.blocks:
            if isinstance(matrix, TridiagonalFamily):
                spectra += [np.tile(eigvalsh_tridiagonal(*matrix.block(m)),
                                    multiplicity[m])
                            for m in range(len(matrix))]
                continue
            values = np.linalg.eigvalsh(matrix)
            spectra.append(np.repeat(values.reshape(-1, values.shape[-1]),
                                     multiplicity, axis=0).ravel())
        return np.sort(np.concatenate(spectra))


def _inertia(matrix, shift):
    """(negative, zero) eigenvalue counts of symmetric matrix + shift * I.

    Sylvester's law of inertia gives them from the block diagonal D of a
    Bunch-Kaufman factorization P L D L^T P^T: a 1 x 1 pivot counts by its
    sign, a 2 x 2 pivot by its determinant and trace.
    """
    size = len(matrix)
    # factored in place, so this Fortran-ordered copy is the only new buffer
    shifted = np.array(matrix, order="F")
    shifted[np.diag_indices(size)] += shift
    # Without the workspace query LAPACK falls back to the unblocked
    # factorization, about seven times slower at n ~ 1000.
    lwork, _ = dsytrf_lwork(size, lower=1)
    factor, pivots, _ = dsytrf(shifted, lower=1, lwork=int(lwork),
                               overwrite_a=1)
    diagonal = np.diag(factor)
    # both rows of a 2 x 2 pivot carry the same negative index, so a run of
    # negative indices holds whole pairs, each starting at an even offset
    paired = pivots < 0
    index = np.arange(size)
    run_start = np.maximum.accumulate(np.where(paired, 0, index + 1))
    first = np.flatnonzero(paired & ((index - run_start) % 2 == 0))

    single = diagonal[~paired]
    det = diagonal[first] * diagonal[first + 1] - factor[first + 1, first] ** 2
    trace = diagonal[first] + diagonal[first + 1]
    # det < 0: one eigenvalue of each sign; det > 0: two of the trace's
    # sign; det == 0: one zero and the trace
    negative = (np.count_nonzero(single < 0.0) + np.count_nonzero(det < 0.0)
                + 2 * np.count_nonzero((det > 0.0) & (trace < 0.0))
                + np.count_nonzero((det == 0.0) & (trace < 0.0)))
    zero = (np.count_nonzero(single == 0.0) + np.count_nonzero(det == 0.0)
            + np.count_nonzero((det == 0.0) & (trace == 0.0)))
    return negative, zero


class SturmSweep:
    """Counts of the sections of a batch of tridiagonal families, looked up
    in a table of running counts that one pivot sweep fills per tolerance.

    The section of a family through degree n is the direct sum of its blocks
    T_m, m <= n, each cut to rows m..n and repeated ``multiplicity[m]``
    times.  ``last`` holds each batch member's last degree counted, in
    ascending order, as a scan's ascending radii are.

    The LDL^T pivots of a tridiagonal T + s I obey the recurrence
    d(n) = T_nn + s - T_n,n-1^2 / d(n - 1), and the negative pivots count
    the eigenvalues of T below -s.  A section's pivots are the leading
    pivots of every wider section, so each row n is swept once, for every
    block and every member holding it (a member only through its ``last``),
    at s = zero_tol and s = -zero_tol together.  An exactly zero pivot
    becomes +tiny at s = zero_tol and -tiny at s = -zero_tol, so an
    eigenvalue exactly at -zero_tol is not counted below it and one exactly
    at zero_tol is counted within it.
    """

    def __init__(self, family, multiplicity, last):
        self.family = family
        self.multiplicity = np.asarray(multiplicity)
        if (len(last) != family.diagonal.size // len(family)
                or np.any(np.diff(last) < 0)):
            raise ValueError("need one ascending last degree per batch member")
        # the first member still swept at row n; the members after it are too
        self._first = np.searchsorted(last, np.arange(last[-1] + 1))
        self._tables = {}

    def count(self, member, degree, zero_tol):
        """NegativeCount of the section of ``member`` through ``degree``."""
        if zero_tol not in self._tables:
            self._tables[zero_tol] = self._sweep(zero_tol)
        below, up_to = self._tables[zero_tol][:, member, degree]
        return NegativeCount(int(below), int(up_to - below))

    def _sweep(self, zero_tol):
        """(2, members, rows) table of the running counts of negative pivots
        at the shifts zero_tol and -zero_tol, weighed by multiplicity."""
        rows = len(self._first)
        diagonal = self.family.diagonal.reshape(-1, len(self.family))
        shifted = (diagonal.T[:, None, :, None]
                   + np.array([zero_tol, -zero_tol])[:, None, None])
        squares = np.square(self.family.off_diagonal)
        pivots = np.empty((2, len(diagonal), rows))
        fresh = np.zeros((2, len(diagonal), rows), dtype=np.int64)
        ties = np.array([[[1.0]], [[-1.0]]]) * np.finfo(float).tiny
        # a tiny pivot overflows the next quotient to inf, whose pivot is then
        # -inf, counted negative, and the pivot after it finite again
        with np.errstate(over="ignore"):
            for n in range(rows):
                start = self._first[n]
                head = pivots[:, start:, :n + 1]
                np.divide(squares[n * (n - 1) // 2:n * (n + 1) // 2],
                          head[..., :n], out=head[..., :n])
                head[..., n] = 0.0
                np.subtract(shifted[n, :, start:], head, out=head)
                np.copyto(head, ties, where=head == 0.0)
                fresh[:, start:, n] = (head < 0.0) @ self.multiplicity[:n + 1]
        return np.cumsum(fresh, axis=-1)


def count_negative(operator, zero_tol=ZERO_TOL):
    """Count eigenvalues < -zero_tol; |eigenvalue| <= zero_tol is borderline.

    Each dense block of size k > 1 is factored twice: the negative inertia
    of A + zero_tol I counts eigenvalues below -zero_tol, and the negative
    plus zero inertia of A - zero_tol I those up to zero_tol.  A tridiagonal
    family is counted by its pivot recurrence at the same two shifts, read
    from the sweep it shares when it has one, and a stack of 1 x 1 blocks
    holds its eigenvalues and is counted directly.
    """
    if not zero_tol >= 0.0:
        raise UsageError(f"zero tolerance must be >= 0, got {zero_tol}")
    negative = borderline = 0
    for matrix, multiplicity in operator.blocks:
        if isinstance(matrix, TridiagonalFamily):
            sweep, member = matrix.sweep or (
                SturmSweep(matrix, multiplicity, [len(matrix) - 1]), 0)
            # the sweep weighs each block by its multiplicity itself
            below, within = sweep.count(member, len(matrix) - 1, zero_tol)
            negative, borderline = negative + below, borderline + within
            continue
        if matrix.shape[-1] == 1:
            values = matrix.reshape(-1)
            below, within = values < -zero_tol, np.abs(values) <= zero_tol
        else:
            stack = matrix.reshape((-1,) + matrix.shape[-2:])
            below = np.array([_inertia(block, zero_tol)[0]
                              for block in stack])
            within = np.array([sum(_inertia(block, -zero_tol))
                               for block in stack]) - below
        negative += int(np.sum(below * multiplicity))
        borderline += int(np.sum(within * multiplicity))
    return NegativeCount(negative, borderline)


def _mode_cut_index(eigenvalues, threshold):
    """First section boundary whose last retained eigenvalue >= threshold,
    extended so a degenerate cluster is never split."""
    cut = int(np.searchsorted(eigenvalues, threshold, side="left")) + 1
    if cut > len(eigenvalues):
        raise InsufficientSpectrumError(
            f"basis top {eigenvalues[-1]:.6g} below mode-cut threshold "
            f"{threshold:.6g}")
    return int(np.searchsorted(eigenvalues, eigenvalues[cut - 1],
                               side="right"))


def _mode_cut(basis, field, h, surface, cut_factor):
    """Retained section size at h: ``cut_factor`` times the ellipticity
    threshold (constant damping needs no tail at all, so there only the
    threshold itself must be resolved).  Raises InsufficientSpectrumError
    when the basis cannot resolve it."""
    lam_star = constants_for(field, surface).ellipticity_threshold(h)
    lam = basis.eigenvalues
    need = cut_factor * lam_star
    basis.require_top(lam_star if field.kind == "constant" else need,
                      context=f"counting at h = {h:g}")
    if lam_star > basis.trusted_horizon:
        raise InsufficientSpectrumError(
            f"threshold {lam_star:.6g} beyond the trusted horizon "
            f"{basis.trusted_horizon:.6g}")
    return _mode_cut_index(lam, min(need, lam[-1]))


def _polar_affine(basis, field, surface):
    """(offset, signed slope) of damping affine along the exact sphere's
    polar axis, or None when the field needs the dense path."""
    affine = field.effective_affine(surface)
    if (affine is None or basis.source != "exact-sphere"
            or abs(abs(affine[2][2]) - 1.0) >= 1e-14):
        return None
    offset, slope, axis = affine
    return offset, slope * axis[2]


def _damping_gram(basis, field, cut):
    """Gram matrix of the effective damping on the first ``cut`` modes.

    Formed as W^T W with W = modes * sqrt(mass * gamma0); both factors are
    positive, and the product runs as one symmetric rank-k update whose
    result is exactly symmetric.
    """
    if basis.modes is None:
        raise UsageError("dense assembly needs tabulated modes on the basis")
    weights = np.sqrt(basis.mass * field.effective(basis.nodes))
    scaled = basis.modes[:, :cut] * weights[:, None]
    return scaled.T @ scaled


def _cluster_starts(eigenvalues, cut):
    """Where the eigenvalue clusters among the first ``cut`` start; the
    eigenvalues are sorted, so a cluster starts where they change."""
    return np.append(0, np.flatnonzero(
        eigenvalues[1:cut] != eigenvalues[:cut - 1]) + 1)


def _polar_family(offset, slope, h, degree):
    """(family, multiplicity) of a polar-affine section through ``degree``.

    A column of h values gives a batch of families, which share the
    off-diagonals.  Orders m >= 1 count twice, for +-m.
    """
    degrees = np.arange(degree + 1)
    # (row n, order m < n) in the family's off-diagonal layout
    rows = np.repeat(degrees, degrees)
    orders = np.arange(len(rows)) - rows * (rows - 1) // 2
    jacobi = np.sqrt((rows * rows - orders * orders)
                     / ((2.0 * rows - 1.0) * (2.0 * rows + 1.0)))
    family = TridiagonalFamily(
        np.sqrt(1.0 + h * h * degrees * (degrees + 1.0)) - offset,
        -slope * jacobi)
    return family, np.where(degrees == 0, 1, 2)


def build_operator(basis, field, h, surface=None, cut_factor=CUT_FACTOR, *,
                   _shared=None):
    """Assemble the finite model of the counting operator at h.

    Constant damping gives one 1 x 1 block per eigenvalue cluster.  Damping
    whose effective coefficient a + b z is affine along the polar axis of the
    exact sphere gives, per order m, diag(sqrt(1 + h^2 n(n+1)) - a) - b J_m
    over degrees n >= m, with J_m the Jacobi matrix of the orthonormal
    associated Legendre functions: one tridiagonal family, order m >= 1
    counted twice for +-m.  Anything else goes through the Gram matrix of
    tabulated mode values.  ``scan`` forms the h-independent part of its
    sections once, at its widest cut, and passes it as ``_shared``: the
    cluster starts or the Gram matrix, of which each section takes a leading
    part, or for polar-affine damping its :class:`SturmSweep` and the batch
    member that stands for h.
    """
    if not h > 0.0:
        raise UsageError(f"semiclassical parameter must be positive, got {h}")
    if field.kind != "constant" and surface is None:
        raise UsageError("variable damping needs the surface for its range")
    cut = _mode_cut(basis, field, h, surface, cut_factor)
    lam = basis.eigenvalues

    if field.kind == "constant":
        gamma0 = max(field.value, 1.0 / field.value)
        starts = _cluster_starts(lam, cut) if _shared is None else _shared
        starts = starts[:np.searchsorted(starts, cut)]
        sizes = np.diff(starts, append=cut)
        values = np.sqrt(1.0 + h * h * lam[starts]) - gamma0
        return GalerkinOperator(cut, [(values[:, None, None], sizes)])

    polar = _polar_affine(basis, field, surface)
    if polar is not None:
        degree = sphere_degree_for(lam[cut - 1])
        if _shared is None:
            return GalerkinOperator(cut, [_polar_family(*polar, h, degree)])
        sweep, member = _shared
        part = TridiagonalFamily(
            sweep.family.diagonal[member, :degree + 1],
            sweep.family.off_diagonal[:degree * (degree + 1) // 2], _shared)
        return GalerkinOperator(cut, [(part, sweep.multiplicity[:degree + 1])])

    gram = _damping_gram(basis, field, cut) if _shared is None else _shared
    matrix = np.diag(np.sqrt(1.0 + h * h * lam[:cut])) - gram[:cut, :cut]
    return GalerkinOperator(cut, [(matrix, 1)])


# ----------------------------------------------------------------------
# Weyl prediction
# ----------------------------------------------------------------------

def weyl_coefficient(surface, field):
    """(1/4 pi) * integral over the surface of (gamma0^2 - 1)."""
    def integrand(points):
        gamma0 = field.effective(points)
        return gamma0 * gamma0 - 1.0

    return float(surface.integrate(integrand)) / (4.0 * np.pi)


def weyl_prediction(surface, field, r):
    """The leading Weyl count coefficient * r^2."""
    if np.any(np.asarray(r) <= 0.0):
        raise UsageError("radius must be positive")
    return weyl_coefficient(surface, field) * np.asarray(r, dtype=float) ** 2


# ----------------------------------------------------------------------
# scans and reports
# ----------------------------------------------------------------------

@dataclass
class CountReport:
    """Counts, predictions and fit diagnostics over an r grid."""

    r_grid: np.ndarray
    n_scalar: np.ndarray
    n_system: np.ndarray
    borderline: np.ndarray
    coefficient: float
    mode_cuts: np.ndarray
    fitted_coefficient: float = None
    fitted_exponent: float = None
    # why no exponent was fitted, when none was
    exponent_reason: str = None
    stability_delta: int = None
    gamma_label: str = ""
    basis_source: str = ""

    def weyl(self):
        return self.coefficient * self.r_grid ** 2

    @property
    def truncation_stable(self):
        return None if self.stability_delta is None \
            else self.stability_delta == 0

    def gates(self):
        """Pass/fail map for the scan invariants; None = not applicable."""
        exponent_gate = None
        if self.fitted_exponent is not None:
            exponent_gate = bool(1.9 <= self.fitted_exponent <= 2.1)
        return {
            "monotone": bool(np.all(np.diff(self.n_scalar) >= 0)),
            "truncation_stable": self.truncation_stable,
            "exponent_in_window": exponent_gate,
        }

    def gate_reasons(self):
        """Why each gate that could not run (None in :meth:`gates`) did not."""
        reasons = {}
        if self.stability_delta is None:
            reasons["truncation_stable"] = (
                "basis cannot support the %gx recount" % STABILITY_FACTOR)
        if self.fitted_exponent is None:
            reasons["exponent_in_window"] = self.exponent_reason
        return reasons

    def passed(self):
        return all(value is not False for value in self.gates().values())

    def to_csv(self):
        lines = ["r,N_scalar,N_system,W,borderline"]
        weyl = self.weyl()
        for i, r in enumerate(self.r_grid):
            lines.append("%.17g,%d,%d,%.17g,%d" % (
                r, self.n_scalar[i], self.n_system[i], weyl[i],
                self.borderline[i]))
        return "\n".join(lines) + "\n"

    def to_json(self, config=None, version=""):
        payload = {
            "r": [float(r) for r in self.r_grid],
            "N_scalar": [int(n) for n in self.n_scalar],
            "N_system": [int(n) for n in self.n_system],
            "W": [float(w) for w in self.weyl()],
            "borderline": [int(b) for b in self.borderline],
            "coefficient": float(self.coefficient),
            "fit": {
                "coefficient": None if self.fitted_coefficient is None
                else float(self.fitted_coefficient),
                "exponent": None if self.fitted_exponent is None
                else float(self.fitted_exponent),
            },
            "truncation": {
                "mode_cuts": [int(c) for c in self.mode_cuts],
                "stability_delta": None if self.stability_delta is None
                else int(self.stability_delta),
                "stable": self.truncation_stable,
            },
            "gates": self.gates(),
            "gamma": self.gamma_label,
            "basis_source": self.basis_source,
            "config": config or {},
            "version": version,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _fit_powers(r_grid, counts):
    """Least-squares diagnostics: N ~ c r^2 on the whole grid, log-log slope
    on the top half (slope only when the grid spans a factor of at least
    EXPONENT_SPAN in r).  Returns (coefficient, exponent, reason), with the
    reason no exponent was fitted, or None when one was."""
    r = np.asarray(r_grid, dtype=float)
    n = np.asarray(counts, dtype=float)
    coefficient = None
    if np.any(n > 0):
        coefficient = float(np.sum(n * r * r) / np.sum(r ** 4))
    if r[-1] / r[0] < EXPONENT_SPAN:
        return coefficient, None, "r_max/r_min < %g" % EXPONENT_SPAN
    half = len(r) // 2
    rr, nn = r[half:], n[half:]
    keep = nn > 0
    if np.sum(keep) < 2:
        return (coefficient, None,
                "fewer than 2 positive counts in the top half")
    slope = np.polyfit(np.log(rr[keep]), np.log(nn[keep]), 1)[0]
    return coefficient, float(slope), None


def scan(surface, field, r_grid, basis, cut_factor=CUT_FACTOR,
         zero_tol=ZERO_TOL):
    """Count negative modes over an ascending r grid and fit the growth.

    The truncation-stability recount enlarges the mode cut by 50%; if the
    basis cannot support the recount the stability delta is left undefined
    rather than failing the scan.  Every section, recounts included, is
    built and counted on its own, radii ascending, first at ``cut_factor``
    and then at the recount, and takes a leading part of one h-independent
    part formed at the widest cut: cluster starts or the Gram matrix.  The
    polar-affine sections are members of one batch, one per radius, and one
    :class:`SturmSweep` counts them all: it sweeps each member through the
    degree of its widest cut once, and each count looks its section up.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or len(r_grid) == 0:
        raise UsageError("r grid must be a nonempty 1-d array")
    if np.any(np.diff(r_grid) <= 0.0):
        raise UsageError("r grid must be strictly ascending")

    h_grid = 1.0 / r_grid
    factors = (cut_factor, cut_factor * STABILITY_FACTOR)
    cuts = [[_mode_cut(basis, field, h, surface, cut_factor) for h in h_grid]]
    try:
        cuts.append([_mode_cut(basis, field, h, surface, factors[1])
                     for h in h_grid])
    except InsufficientSpectrumError:
        factors = factors[:1]
    cuts = np.array(cuts)
    widest = int(np.max(cuts))

    polar = _polar_affine(basis, field, surface)
    if field.kind == "constant":
        shared = [_cluster_starts(basis.eigenvalues, widest)] * len(h_grid)
    elif polar is not None:
        # one batch member per radius, swept through its widest cut's degree
        last = [sphere_degree_for(basis.eigenvalues[cut - 1])
                for cut in cuts.max(axis=0)]
        sweep = SturmSweep(*_polar_family(*polar, h_grid[:, None], last[-1]),
                           last)
        shared = [(sweep, member) for member in range(len(h_grid))]
    else:
        shared = [_damping_gram(basis, field, widest)] * len(h_grid)
    below, within = np.array([
        [count_negative(build_operator(basis, field, h, surface=surface,
                                       cut_factor=factor, _shared=part),
                        zero_tol=zero_tol)
         for h, part in zip(h_grid, shared)]
        for factor in factors]).transpose(2, 0, 1)

    stability_delta = None
    if len(factors) == 2:
        stability_delta = int(np.max(np.abs(below[1] - below[0])))

    n_scalar = below[0]
    coefficient, exponent, exponent_reason = _fit_powers(r_grid, n_scalar)
    return CountReport(
        r_grid=r_grid,
        n_scalar=n_scalar,
        n_system=2 * n_scalar,
        borderline=within[0],
        coefficient=weyl_coefficient(surface, field),
        mode_cuts=cuts[0],
        fitted_coefficient=coefficient,
        fitted_exponent=exponent,
        exponent_reason=exponent_reason,
        stability_delta=stability_delta,
        gamma_label=getattr(field, "kind", ""),
        basis_source=basis.source,
    )


# ----------------------------------------------------------------------
# monotonicity probe
# ----------------------------------------------------------------------

@dataclass
class BranchEvent:
    """One in-band finite-difference slope along a tracked branch."""

    block: int
    branch: int
    h: float
    mu: float
    slope: float


@dataclass
class ProbeReport:
    h_grid: np.ndarray
    delta: float
    eps: float
    events: list
    skipped: int
    violations: list = dataclass_field(default_factory=list)

    @property
    def min_slope(self):
        return min((e.slope for e in self.events), default=None)

    def passed(self):
        return not self.violations


def _operator_spectra(basis, field, h_values, surface, cut_factor):
    """Eigenvalues and eigenvectors per h and per block.

    Sections may grow with 1/h, so every block is cut to its smallest size
    across the window and only blocks present at every h are kept; branches
    then stay comparable from one h to the next.  Branch tracking needs
    eigenvectors, so this is the one place tridiagonal blocks are formed.
    """
    per_h = []
    for h in h_values:
        operator = build_operator(basis, field, h, surface=surface,
                                  cut_factor=cut_factor)
        blocks = []
        for matrix, _ in operator.blocks:
            if isinstance(matrix, TridiagonalFamily):
                blocks += [np.diag(diagonal) + np.diag(off, 1)
                           + np.diag(off, -1) for diagonal, off in
                           map(matrix.block, range(len(matrix)))]
            else:
                blocks += list(np.reshape(matrix, (-1,) + matrix.shape[-2:]))
        per_h.append(blocks)
    common = min(len(blocks) for blocks in per_h)
    sizes = [min(len(blocks[b]) for blocks in per_h) for b in range(common)]
    return [[eigh(blocks[b][:size, :size]) for b, size in enumerate(sizes)]
            for blocks in per_h]


def monotonicity_probe(basis, field, h_window, surface=None, steps=7,
                       cut_factor=CUT_FACTOR):
    """Check h * dmu/dh > 0 for all branches inside the band [-delta, delta].

    Branches are tracked across the h grid by maximal eigenvector overlap
    (assignment problem on |V_a^T V_b|); pairs with best overlap at most
    TRACK_OVERLAP are skipped and counted.  Central differences at interior
    grid points give the slopes; a slope below eps/4 is recorded as a
    violation.
    """
    h_lo, h_hi = float(h_window[0]), float(h_window[1])
    if not 0.0 < h_lo < h_hi:
        raise UsageError("h window must satisfy 0 < h_lo < h_hi")
    constants = constants_for(field, surface)
    h_grid = np.linspace(h_lo, h_hi, int(steps))

    spectra = _operator_spectra(basis, field, h_grid, surface, cut_factor)
    blocks = len(spectra[0])
    events = []
    skipped = 0

    for block in range(blocks):
        size = len(spectra[0][block][0])
        # permutation[i] maps branch id -> eigen index at grid point i
        permutations = [np.arange(size)]
        for i in range(1, len(h_grid)):
            _, prev_vectors = spectra[i - 1][block]
            _, next_vectors = spectra[i][block]
            overlap_matrix = np.abs(prev_vectors.T @ next_vectors)
            rows, cols = linear_sum_assignment(-overlap_matrix)
            mapping = np.empty(size, dtype=np.int64)
            good = np.ones(size, dtype=bool)
            for row, col in zip(rows, cols):
                mapping[row] = col
                if overlap_matrix[row, col] <= TRACK_OVERLAP:
                    good[row] = False
            previous = permutations[-1]
            current = mapping[previous]
            lost = ~good[previous]
            skipped += int(np.sum(lost))
            current = np.where(lost, -1, current)
            current = np.where(previous < 0, -1, current)
            permutations.append(current)

        for i in range(1, len(h_grid) - 1):
            before, here, after = (permutations[i - 1], permutations[i],
                                   permutations[i + 1])
            mu_prev = spectra[i - 1][block][0]
            mu_here = spectra[i][block][0]
            mu_next = spectra[i + 1][block][0]
            for branch in range(size):
                if before[branch] < 0 or here[branch] < 0 or after[branch] < 0:
                    continue
                mu = mu_here[here[branch]]
                if abs(mu) > constants.delta:
                    continue
                dh = h_grid[i + 1] - h_grid[i - 1]
                slope = (h_grid[i] * (mu_next[after[branch]]
                                      - mu_prev[before[branch]]) / dh)
                events.append(BranchEvent(block, branch, float(h_grid[i]),
                                          float(mu), float(slope)))

    report = ProbeReport(h_grid=h_grid, delta=constants.delta,
                         eps=constants.eps, events=events, skipped=skipped)
    floor = constants.eps / 4.0
    report.violations = [e for e in events if e.slope < floor]
    return report
