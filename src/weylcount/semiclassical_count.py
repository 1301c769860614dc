"""Counting negative modes of the reduced boundary operator.

The model operator at semiclassical parameter h = 1/r acts in the
Laplace-Beltrami eigenbasis as D - G, with D = diag(sqrt(1 + h^2 lambda_j))
and G the Gram matrix of the effective damping gamma0 under the surface mass
inner product.  Its negative eigenvalues predict the eigenvalue count N(r),
which the Weyl law pegs at (r^2 / 4 pi) * integral of (gamma0^2 - 1).

A section keeps whole eigenvalue clusters of the basis, and it is stored
block diagonally (:class:`GalerkinOperator`).  One builder,
:func:`_section`, makes every kind of block, and :func:`build_operator`
is its one-radius entry.  On the exact sphere every
nonconstant field the program accepts has an affine base profile
p = a + b<axis, x>, and a rotation taking the axis to +z maps each
degree's harmonics onto themselves, where the diagonal
sqrt(1 + h^2 n(n+1)) is constant, so the section is unitarily equivalent
to the one for a + b z, which splits by order m into tridiagonal blocks,
kept as the diagonal and a closed form of the squared couplings, which
alone decide the inertia and the spectrum (Parlett, 1980).  Above one the
effective coefficient is p itself, and the blocks are those of D - P, P
the section of multiplication by p.  Below one it is 1 / p, which is not
affine, and the blocks are those of the dual P - D^-1.  D and P are
positive definite, so by Haynsworth's inertia additivity on
[[P, I], [I, D]] the dual has the inertia of D - P^-1; and P^-1 is at
most the section of multiplication by 1 / p (Davis-Choi-Jensen), so a dual
section counts no more than the Gram section of 1 / p at the same cut,
and the two agree once the cut has converged.  A mesh basis gives dense
blocks, from the mode values it holds: one per reflection class of the
mesh that the field does not mix, since the Gram matrix couples no modes
of opposite parity under a reflection that leaves the field unchanged.

Counting computes no eigenvalues: by Sylvester's law of inertia the number
of eigenvalues below a shift is the number of negative pivots of an LDL^T
factorization of the shifted block.  Dense blocks are factored by LAPACK
(Bunch-Kaufman); the tridiagonal blocks of an affine section are counted
by their pivot recurrence, a Sturm sequence, swept over the degrees once
for all orders together, so no block is ever formed.  A scan first plans
the last cluster of every radius and its recount, one vectorized pass per
cut factor; an affine field's planned sections are then counted by one
such sweep, batched over h: a section through a lower degree is a leading
part of one through a higher degree, so the sweep returns one table of
running counts through every degree and each count is an entry of it.  A member leaves the sweep once a pivot
bound proves that no later row adds a negative pivot.

Only dense counting, eigenvalue listings and the monotonicity probe use
``scipy.linalg``, so it is imported where they run: LAPACK through
:func:`_lapack`, once per process, and the tridiagonal eigensolvers inside
:meth:`GalerkinOperator.eigenvalues` and :func:`_block_slopes`.  Counting
on the exact sphere, Weyl coefficients and reports load no scipy module.
"""

import functools
import json
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientSpectrumError, UsageError
from .lb_spectrum import _vertex_orbits

ZERO_TOL = 1e-12
CUT_FACTOR = 2.0
STABILITY_FACTOR = 1.5
EXPONENT_SPAN = 3.0

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

    T_m spans rows m..L with diagonal ``diagonal[..., m:]``.  A family
    keeps only the squares of its off-diagonals, which alone decide the
    pivots, eigenvalues and eigenvector squares: ``squares(n)`` is row n's
    vector, entry m the square of T_m's entry coupling rows n - 1 and n.
    Leading axes on ``diagonal`` hold a batch of families that share the
    squares, as the sections of a scan do, one per radius, counted by one
    sweep (:func:`_running_counts`).

    ``dual`` is None when the blocks are sections of the model themselves,
    and otherwise the model's diagonal D, of the diagonal's shape: the
    blocks are then the dual P - D^-1 of the model's D - P^-1, with
    diagonal a - D^-1.  The two have the same inertia, but not the same
    eigenvalues, so a shift s of the model enters the dual inside the
    inverse, as P - (D + s)^-1 (see :func:`_running_counts`).

    ``bound`` is a float kappa with fl(kappa^2) at least every computed
    square, and +inf when the family declares none; a sweep leaves the
    rows that a pivot bound proves add no negative pivot
    (:func:`_running_counts`), which an infinite kappa never proves.
    """

    diagonal: np.ndarray
    squares: object
    dual: np.ndarray = None
    bound: float = np.inf

    def __len__(self):
        return self.diagonal.shape[-1]

    def blocks(self):
        """(diagonal, off-diagonal) of T_0, ..., T_L in turn, the
        off-diagonals the nonnegative roots of one table of all squares,
        each row asked for once, as large as the blocks' spectra."""
        size = len(self)
        table = np.zeros((size, size))
        for n in range(1, size):
            table[:n, n] = self.squares(n)
        np.sqrt(table, out=table)
        for order in range(size):
            yield self.diagonal[..., order:], table[order, order + 1:]


@dataclass
class GalerkinOperator:
    """Finite section D - G of the model operator at fixed h.

    ``blocks`` lists (matrix, layout) pairs whose direct sum is the
    section.  ``matrix`` is one of three kinds:

    * a 1-d array of cluster values, value i a 1 x 1 block repeated
      ``layout[i]`` times (constant damping);
    * a symmetric, F-ordered 2-d (k, k) block of a mesh basis, ``layout``
      the k ascending basis modes its rows stand for, one reflection
      class's modes below the cut (variable damping on a mesh);
    * a :class:`TridiagonalFamily`, its block T_m repeated ``layout[m]``
      times (an affine field on the exact sphere).

    ``mode_cut`` counts retained basis modes.
    """

    mode_cut: int
    blocks: list

    def eigenvalues(self):
        """All retained model eigenvalues, ascending, with multiplicity.

        A dual family (a field below one on the exact sphere) holds the
        eigenvalues of the dual P - D^-1 instead: they cross zero where the
        model's do, with h-slopes of the model's sign, but their values,
        their slopes and their band around zero are the dual's, as
        :func:`monotonicity_probe` sees them too."""
        from scipy.linalg import eigvalsh_tridiagonal

        spectra = []
        for matrix, layout in self.blocks:
            if isinstance(matrix, TridiagonalFamily):
                spectra += [np.tile(eigvalsh_tridiagonal(*block), count)
                            for block, count in zip(matrix.blocks(), layout)]
            elif matrix.ndim == 1:
                spectra.append(np.repeat(matrix, layout))
            else:
                spectra.append(np.linalg.eigvalsh(matrix))
        return np.sort(np.concatenate(spectra))


@functools.lru_cache(maxsize=None)
def _lapack():
    """``scipy.linalg.lapack``, imported on the first dense count.  Each
    factorization looks its routine up on the module, as a from-import
    would, but for a cached call instead of an import per block."""
    import scipy.linalg.lapack

    return scipy.linalg.lapack


@functools.lru_cache(maxsize=None)
def _factor_workspace(size):
    """LAPACK's optimal dsytrf workspace for order ``size``.  Without it
    LAPACK falls back to the unblocked factorization, about seven times
    slower at n ~ 1000; the answer depends on the order alone, so each
    order is queried once."""
    lwork, _ = _lapack().dsytrf_lwork(size, lower=1)
    return int(lwork)


def _inertia(matrix, shift):
    """(negative, zero) eigenvalue counts of symmetric matrix + shift * I.

    Sylvester's law of inertia gives them from the block diagonal D of a
    Bunch-Kaufman factorization P L D L^T P^T: a 1 x 1 pivot counts by its
    sign, and a 2 x 2 pivot holds one eigenvalue of each sign.  Bunch and
    Kaufman take the pivot [[a, c], [c, b]], |c| the largest entry below
    the diagonal in a's column, only when |a| w < alpha c^2 and
    |b| < alpha w, w the largest off-diagonal entry in b's row and
    alpha = (1 + sqrt(17)) / 8, so |ab| < alpha^2 c^2 < c^2 and its
    determinant ab - c^2 is negative.  Dense sections are built F-ordered,
    as LAPACK stores them, so the copy factored here is a plain memory
    copy.  The shift is added in place through the strided view of that
    copy's diagonal, the same additions to the same entries as through
    index arrays, so bit for bit; the workspace size is queried once per
    order (:func:`_factor_workspace`).
    """
    size = len(matrix)
    # factored in place, so this Fortran-ordered copy is the only new buffer
    shifted = np.array(matrix, order="F")
    shifted.reshape(-1, order="F")[::size + 1] += shift
    factor, pivots, _ = _lapack().dsytrf(
        shifted, lower=1, lwork=_factor_workspace(size), overwrite_a=1)
    # both rows of a 2 x 2 pivot carry a negative index, a 1 x 1 pivot's
    # row a positive one
    single = factor.diagonal()[pivots > 0]
    return (np.count_nonzero(single < 0.0) + (size - len(single)) // 2,
            np.count_nonzero(single == 0.0))


# rows swept between two checks of the pivot bound
CERTIFY_STRIDE = 8


def _running_counts(family, multiplicity, last, zero_tol):
    """(2, members, rows) running counts from one pivot sweep of a batch of
    tridiagonal families: [0, j, n] counts the eigenvalues of member j's
    section through degree n below -zero_tol, [1, j, n] those up to zero_tol.

    The section of a family through degree n is the direct sum of its blocks
    T_m, m <= n, each cut to rows m..n and repeated ``multiplicity[m]``
    times.  ``last`` holds each batch member's last degree counted, in
    ascending order, as a scan's ascending radii are.

    The LDL^T pivots of a tridiagonal T + s I obey the recurrence
    d(n) = T_nn + s - T_n,n-1^2 / d(n - 1), and the negative pivots count
    the eigenvalues of T below -s; only the squared off-diagonals enter.  A
    section's pivots are the leading pivots of every wider section, so each
    row n is swept once, for every block and every member holding it (a
    member only through its ``last``), at s = zero_tol and s = -zero_tol
    together, asking ``squares(n)`` once, on reaching row n, so memory
    stays linear in the rows.  An exactly zero pivot becomes +tiny at
    s = zero_tol and -tiny at s = -zero_tol, so an eigenvalue exactly at
    -zero_tol is not counted below it and one exactly at zero_tol is
    counted within it.

    A row costs five array calls: quotients, pivots, one tie check (the
    zero mask is built only for a tie), the negative pivots as 0/1 floats,
    and their dgemv with the multiplicities.  Row 2j + i of the tables is
    member j at shift i, so the members still swept are the trailing rows.
    The pivots start zero-filled, and order n's column is first written at
    row n.  Float row counts are exact: at most the sum of the
    multiplicities, far below 2^53.

    A dual family counts the model D - P^-1 + s I by the inertia of its
    dual at the same shift, P - (D + s)^-1, whose diagonal is
    a - (D + s)^-1.  By Haynsworth's additivity the two agree where D + s
    is positive definite; at s = -zero_tol every row n with D_n < zero_tol
    adds one negative eigenvalue to each block holding it, and a row with
    D_n = zero_tol has the diagonal -inf, one negative pivot.

    A family with a bound kappa leaves the sweep early, bit for
    bit.  Every CERTIFY_STRIDE rows, after row n, let delta be a member's
    smallest pivot over both shifts and the orders m <= n, sigma the
    smallest shifted diagonal over both shifts and its rows n + 1..last,
    read from a suffix minimum formed once per sweep, K = kappa^2 and
    x = min(delta, sigma / 2), all as computed.  The member is certified
    when x > 0 and fl(sigma - fl(K / x)) >= x, and the leading run of
    certified members leaves the sweep.  An infinite kappa certifies
    nothing: fl(sigma - inf) is -inf, or NaN at sigma = inf, never >= x.

    Proof that no later row of a certified member adds a negative pivot,
    for the recurrence as computed: d' = fl(s - fl(c / d)), with c a
    computed square, s a computed shifted diagonal and fl rounding to
    nearest, which is monotone.  Claim: every pivot from row n on is >= x.
    At row n every pivot is >= delta >= x.  At a later row, a pivot d >= x
    (+inf included) has c <= K, as ``bound`` promises, so
    fl(c / d) <= fl(K / x); and s >= sigma, so
    d' = fl(s - fl(c / d)) >= fl(sigma - fl(K / x)) >= x.  An order opening
    at that row has the first pivot fl(s - 0) = s >= sigma, and
    sigma >= fl(sigma - fl(K / x)) >= x.  So every later pivot is positive,
    no tie is replaced, and the running counts past row n stay those at n.
    The rows of a dual family counted outright are added outside the
    recurrence and are untouched; a -inf or negative shifted diagonal
    makes sigma <= 0, so x <= 0 and no certificate.  In exact arithmetic
    the test holds if and only if delta > 0, sigma > 0,
    sigma^2 >= 4 kappa^2 and delta >= (sigma - sqrt(sigma^2 - 4 kappa^2))
    / 2, the smaller fixed point of d -> sigma - kappa^2 / d.  A test
    against that root in closed form would need a rounding margin eta; the
    test above applies the computed map itself, so it needs none: eta = 0.
    """
    _require_tolerance(zero_tol)
    if (len(last) != family.diagonal.size // len(family)
            or np.any(np.diff(last) < 0)):
        raise ValueError("need one ascending last degree per batch member")
    last = np.asarray(last)
    # the first member still swept at row n; the members after it are too
    first = np.searchsorted(last, np.arange(last[-1] + 1)).tolist()
    rows = len(first)
    shifts = np.array([zero_tol, -zero_tol])

    def by_row(array):
        """(rows, members, 1): row n of every member."""
        return array.reshape(-1, len(family)).T[:rows, :, None]

    outright = 0
    if family.dual is None:
        shifted = by_row(family.diagonal) + shifts
    else:
        model = by_row(family.dual)
        moved = model + shifts
        # a - D^-1 + (D^-1 - (D + s)^-1) = a - (D + s)^-1, -inf at D = -s
        with np.errstate(divide="ignore"):
            shifted = by_row(family.diagonal) + (1.0 / model - 1.0 / moved)
        # row n lies in the blocks through it, multiplicity[:n + 1]
        outright = ((moved < 0.0).transpose(2, 1, 0)
                    * np.cumsum(multiplicity)[:rows])
    members = shifted.shape[1]
    # floor[n, j]: the smallest shifted diagonal of member j over both
    # shifts and its rows n..last, +inf past its last row
    lowest = shifted.min(axis=2)
    lowest[np.arange(rows)[:, None] > last] = np.inf
    lowest = np.vstack([lowest, np.full(members, np.inf)])
    floor = np.minimum.accumulate(lowest[::-1], axis=0)[::-1]
    # row 2j + i is member j at shift i
    shifted = shifted.reshape(rows, 2 * members, 1)
    pivots = np.zeros((2 * members, rows))
    negative = np.empty((2 * members, rows))
    weights = np.asarray(multiplicity[:rows], dtype=float)
    fresh = np.zeros((rows, 2 * members))
    ties = np.tile([1.0, -1.0], members)[:, None] * np.finfo(float).tiny
    square_bound = family.bound * family.bound
    certified = 0
    # a tiny pivot overflows the next quotient to inf, whose pivot is then
    # -inf, counted negative, and the pivot after it finite again; ties are
    # replaced before any pivot divides, so only K / x divides by zero
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for n in range(rows):
            start = max(first[n], certified)
            if start == members:
                break
            head = pivots[2 * start:, :n + 1]
            np.divide(family.squares(n), head[:, :n], out=head[:, :n])
            np.subtract(shifted[n, 2 * start:], head, out=head)
            if not head.all():
                np.copyto(head, ties[2 * start:], where=head == 0.0)
            below = np.less(head, 0.0, out=negative[2 * start:, :n + 1])
            np.matmul(below, weights[:n + 1], out=fresh[n, 2 * start:])
            # while the first member's sigma <= 0, no member can leave
            if (n % CERTIFY_STRIDE == CERTIFY_STRIDE - 1
                    and floor[n + 1, start] > 0.0):
                sigma = floor[n + 1, start:]
                x = np.minimum(head.reshape(-1, 2, n + 1).min(axis=(1, 2)),
                               0.5 * sigma)
                proved = (x > 0.0) & (sigma - square_bound / x >= x)
                # the first member past the leading certified run
                certified = start + (len(proved) if proved.all()
                                     else int(proved.argmin()))
    counts = fresh.reshape(rows, members, 2).T.astype(np.int64)
    counts += outright
    return np.cumsum(counts, axis=-1)


def _require_tolerance(zero_tol):
    if not zero_tol >= 0.0:
        raise UsageError(f"zero tolerance must be >= 0, got {zero_tol}")


def count_negative(operator, zero_tol=ZERO_TOL, *, _borderline=True):
    """Count eigenvalues < -zero_tol; |eigenvalue| <= zero_tol is borderline.

    Cluster values are counted directly.  A dense block is factored twice:
    the negative inertia of A + zero_tol I counts eigenvalues below
    -zero_tol, and the negative plus zero inertia of A - zero_tol I those up
    to zero_tol.  A tridiagonal family is counted by its pivot recurrence at
    the same two shifts, as one member of :func:`_running_counts`.

    ``_borderline=False`` is for :func:`scan`'s recount, of which a report
    reads only the count below -zero_tol: dense blocks are then factored at
    +zero_tol only and add nothing to the borderline.
    """
    _require_tolerance(zero_tol)
    negative = borderline = 0
    for matrix, layout in operator.blocks:
        if isinstance(matrix, TridiagonalFamily):
            top = len(matrix) - 1
            # the sweep weighs each block by its multiplicity itself
            below, up_to = _running_counts(matrix, layout, [top],
                                           zero_tol)[:, 0, top]
            within = up_to - below
        elif matrix.ndim == 1:
            below = np.sum((matrix < -zero_tol) * layout)
            within = np.sum((np.abs(matrix) <= zero_tol) * layout)
        else:
            below = _inertia(matrix, zero_tol)[0]
            within = sum(_inertia(matrix, -zero_tol)) - below \
                if _borderline else 0
        negative, borderline = negative + below, borderline + within
    return NegativeCount(int(negative), int(borderline))


def _last_cluster(basis, field, constants, h, cut_factor):
    """Index of the last eigenvalue cluster of the section at each h: the
    first cluster at or above ``cut_factor`` times the ellipticity threshold
    of ``constants``, or the basis top (constant damping needs no tail at
    all, so there only the threshold itself must be resolved).  Clusters
    are never split, so the section holds ``basis.ends[index]`` modes.

    ``h`` is one value or an array, planned in one pass: the thresholds,
    their checks and one search for all of them.  Raises
    InsufficientSpectrumError when the basis cannot resolve an h, as when
    the threshold or the cut target overflows; with several, the first in
    order is named, and for it the first check it fails, as checking each
    h in turn would."""
    with np.errstate(over="ignore"):
        lam_star = constants.ellipticity_threshold(np.asarray(h))
        need = cut_factor * lam_star
    required = lam_star if field.kind == "constant" else need
    failed = np.flatnonzero(~np.isfinite(need) | (basis.top < required)
                            | (lam_star > basis.trusted_horizon))
    if len(failed):
        i = failed[0]
        h, lam_star, need, required = (
            np.ravel(value)[i] for value in (h, lam_star, need, required))
        if not np.isfinite(need):
            raise InsufficientSpectrumError(
                f"counting at h = {h:g} needs eigenvalues up to {need}")
        basis.require_top(required, context=f"counting at h = {h:g}")
        raise InsufficientSpectrumError(
            f"threshold {lam_star:.6g} beyond the trusted horizon "
            f"{basis.trusted_horizon:.6g}")
    # need is finite and the basis top is its last cluster value, so the
    # threshold is at most that value and the index is always a cluster
    return basis.values.searchsorted(np.minimum(need, basis.top))


def _sphere_affine(basis, field, surface):
    """(offset, slope, dual) of an affine base profile a + b<axis, x> on the
    exact sphere, dual when the base range is below one, or None when the
    field needs the dense path.  Whatever the axis, a rotation taking it to
    +z maps each degree's harmonics onto themselves, where
    sqrt(1 + h^2 n(n+1)) is constant, so every section is unitarily
    equivalent to the one for a + b z."""
    if field.kind != "affine" or basis.source != "exact-sphere":
        return None
    return field.offset, field.slope, field.base_range(surface)[1] < 1.0


def _damping_gram(basis, field, last):
    """The h-independent part of a dense section through cluster ``last``:
    the Gram matrix of the effective damping gamma0 on the first
    ``basis.ends[last]`` modes of a mesh basis, as (columns, G_c) pairs,
    one per class of modes of equal parity under H, the group of the
    basis's reflections that leave gamma0 unchanged at the nodes, bit for
    bit.  The whole Gram matrix is W^T W with W = modes * sqrt(mass *
    gamma0) (gamma0 > 0); between two classes its entries are odd under
    some reflection of H, so zero, and within one they are sums over the
    vertices of terms that H leaves unchanged, so sums over the vertex
    orbits of H of the term at one vertex times the orbit's size.  So G_c
    is W_c^T W_c, W_c = modes[reps, columns] * sqrt(size * mass * gamma0)
    [reps], over the first vertex of each orbit, and exactly symmetric.
    Where H is trivial (an oblique field, a mesh without reflections) that
    is one pair, W^T W itself.

    Each W_c is gathered straight from the C-ordered mode table, through
    the flat indices reps * width + columns, into the leading part of one
    float buffer sized for the largest class and then scaled in place, so
    no (reps, cut) table is formed.  It holds the values and the
    C-contiguous (reps, k) layout that slicing a scaled table gave, so the
    product is the same call on the same operands.
    """
    if basis.modes is None:
        raise UsageError("dense assembly reads the field at the nodes of a "
                         "mesh basis; a vertex table holds one value per "
                         "mesh vertex, so it needs a mesh basis")
    cut = int(basis.ends[last])
    _, mass, modes, parity, reflections = basis.quadrature
    gamma0 = field.effective(basis.nodes)
    kept = [np.array_equal(gamma0[perm], gamma0) for perm in reflections]
    _, orbit, reps = _vertex_orbits(reflections[kept], len(mass))
    weight = np.sqrt(np.bincount(orbit)[reps] * mass[reps] * gamma0[reps])
    classes = parity[:cut] & sum(keep << bit for bit, keep in enumerate(kept))
    members = [np.flatnonzero(classes == character)
               for character in np.unique(classes)]
    size = len(reps) * max(len(columns) for columns in members)
    # shared by every class: the flat indices of W_c and then W_c itself
    flat = np.empty(size, dtype=np.intp)
    values = np.empty(size)
    # a view of the C-ordered table; any other order would be copied once
    table = modes.reshape(-1)
    grams = []
    for columns in members:
        count = len(reps) * len(columns)
        index = flat[:count].reshape(len(reps), len(columns))
        np.add(reps[:, None] * modes.shape[1], columns, out=index)
        part = values[:count].reshape(index.shape)
        # mode="clip" writes straight into ``part``; "raise" would buffer
        np.take(table, index, out=part, mode="clip")
        part *= weight[:, None]
        grams.append((columns, part.T @ part))
    return grams


def _polar_family(offset, slope, dual, h, degree):
    """(family, multiplicity) of a polar-affine section through ``degree``.

    Above one the blocks are diag(sqrt(1 + h^2 n(n+1)) - offset) - slope J_m,
    with J_m(n) = sqrt((n^2 - m^2) / ((2n - 1)(2n + 1))) the Jacobi entries
    of the orthonormal associated Legendre functions; a ``dual`` family,
    below one, has the blocks diag(offset - 1 / sqrt(1 + h^2 n(n+1)))
    + slope J_m.  Both serve row n's squares slope^2 J_m(n)^2 as
    (n^2 - m^2) * factor[n], factor[n] = slope^2 / ((2n - 1)(2n + 1)),
    from arrays of the degree's length.  A column of h values gives a batch
    of families, which share the squares.  Orders m >= 1 count twice, +-m.

    J_m(n)^2 <= n^2 / (4n^2 - 1) <= 1/3 for n >= 1, and the three
    roundings of a served square stay far inside the 2^-40 headroom of the
    family's bound |slope| / sqrt(3).
    """
    degrees = np.arange(degree + 1)
    powers = np.square(degrees, dtype=float)
    factor = slope * slope / ((2.0 * degrees - 1.0) * (2.0 * degrees + 1.0))

    def squares(n):
        return (powers[n] - powers[:n]) * factor[n]

    model = np.sqrt(1.0 + h * h * degrees * (degrees + 1.0))
    bound = abs(slope) * (1.0 + 2.0 ** -40) / np.sqrt(3.0)
    family = TridiagonalFamily(offset - 1.0 / model, squares, dual=model,
                               bound=bound) \
        if dual else TridiagonalFamily(model - offset, squares, bound=bound)
    return family, np.where(degrees == 0, 1, 2)


def _section(basis, field, surface, h, last, grams=None):
    """The section at h through cluster ``last``.

    Constant damping gives the cluster values sqrt(1 + h^2 lambda) - gamma0,
    read from the basis clusters alone.  A field with an affine base profile
    a + b<axis, x> on the exact sphere, along any axis, gives the section
    of a + b z, to which it is unitarily equivalent, one tridiagonal family
    through the last cluster's degree (:func:`_polar_family`), order m >= 1
    counted twice for +-m: per order m, over degrees n >= m, above one
    diag(sqrt(1 + h^2 n(n+1)) - a) - b J_m, with J_m the Jacobi matrix of
    the orthonormal associated Legendre functions, and below one its dual
    diag(a - 1 / sqrt(1 + h^2 n(n+1))) + b J_m.  Any other field gives one
    dense block diag(sqrt(1 + h^2 lambda)) - G_c per pair of ``grams``
    (:func:`_damping_gram` at this cut, or a wider one), over that class's
    modes below the cut."""
    cut = int(basis.ends[last])
    if field.kind == "constant":
        gamma0 = field.effective_range(surface)[0]
        values = np.sqrt(1.0 + h * h * basis.values[:last + 1]) - gamma0
        return GalerkinOperator(cut, [(values,
                                       basis.multiplicities[:last + 1])])
    affine = _sphere_affine(basis, field, surface)
    if affine is not None:
        # the exact sphere's cluster index is its degree
        return GalerkinOperator(cut, [_polar_family(*affine, h, last)])

    if grams is None:
        grams = _damping_gram(basis, field, last)
    diagonal = np.sqrt(1.0 + h * h * basis.leading(cut))
    blocks = []
    for columns, gram in grams:
        # a class's columns ascend, so those below the cut lead
        kept = int(np.searchsorted(columns, cut))
        if kept:
            # diag(d) - G_c, F-ordered for LAPACK: G_c^T is G_c in Fortran
            # order, and (0 - g) + d rounds as d - g, zeros keeping signs
            block = np.subtract(0.0, gram[:kept, :kept].T, order="F")
            block.reshape(-1, order="F")[::kept + 1] += \
                diagonal[columns[:kept]]
            blocks.append((block, columns[:kept]))
    return GalerkinOperator(cut, blocks)


def build_operator(basis, field, h, surface=None, cut_factor=CUT_FACTOR):
    """The section at h through the last cluster that ``cut_factor`` asks
    for: the one-radius entry to :func:`_section`."""
    _require_radii(h, "semiclassical parameter h")
    if field.kind != "constant" and surface is None:
        raise UsageError("variable damping needs the surface for its range")
    return _section(basis, field, surface, h, int(_last_cluster(
        basis, field, constants_for(field, surface), h, cut_factor)))


# ----------------------------------------------------------------------
# Weyl prediction
# ----------------------------------------------------------------------

def weyl_coefficient(surface, field):
    """(1/4 pi) * integral over the surface of (gamma0^2 - 1); DomainError
    when it is not finite, as on a degenerate surface or a huge field.

    The field's range is checked first, as for every count
    (:meth:`DampingField.effective_range`): a field that touches 1 or 0 on
    the surface raises InvalidFieldError, even where the rule has no node
    there.  The integrand squares and shifts the effective values in place,
    the same operations as gamma0 * gamma0 - 1.0, so bit for bit, and
    returns that fresh array, which an analytic surface's quadrature
    weights in place: on a rule's points the whole integral holds one
    array of the rule's size, the base values
    (:meth:`DampingField.effective`)."""
    def integrand(points):
        gamma0 = field.effective(points)
        gamma0 *= gamma0
        gamma0 -= 1.0
        return gamma0

    field.effective_range(surface)
    # refused below, so numpy need not warn of the overflow
    with np.errstate(all="ignore"):
        value = float(surface.integrate(integrand)) / (4.0 * np.pi)
    if not np.isfinite(value):
        raise DomainError(f"Weyl coefficient is not finite: {value}")
    return value


def _require_radii(r, what="radii"):
    """``r`` as a float array; UsageError unless every entry r is positive
    and r^2 and 1 / r^2 are finite and positive, as a section needs of the
    squares of both r and h = 1 / r."""
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        square = r * r
        if not np.all((r > 0.0) & (square < np.inf)
                      & (1.0 / square < np.inf)):
            raise UsageError(f"{what} must be positive with finite and "
                             f"positive squares and inverse squares, got {r}")
    return r


def weyl_prediction(surface, field, r):
    """Coefficient * r^2, the leading Weyl count; DomainError on overflow."""
    with np.errstate(over="ignore"):
        prediction = weyl_coefficient(surface, field) * _require_radii(r) ** 2
    if not np.all(np.isfinite(prediction)):
        raise DomainError(f"Weyl prediction is not finite: {prediction}")
    return prediction


# ----------------------------------------------------------------------
# scans and reports
# ----------------------------------------------------------------------

@dataclass
class CountReport:
    """Counts, predictions and fit diagnostics over an r grid."""

    r_grid: np.ndarray
    n_scalar: np.ndarray
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

    @property
    def n_system(self):
        return 2 * self.n_scalar

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
    rather than failing the scan.  The scan plans its sections first: the
    last cluster of every radius, at ``cut_factor`` and then at the
    recount, each plan one pass over all radii (:func:`_last_cluster`),
    which refuses the first radius it cannot plan as :func:`build_operator`
    would refuse it.  The sections of an affine field on the
    exact sphere, along any axis, above one or below, are members of one
    batch, one per radius, and one :func:`_running_counts` sweep takes each
    member through the degree of its widest cut once: every count, primary
    and recount, is one index into its table.  Constant damping builds no
    section: per radius its cluster values, computed as :func:`_section`
    computes them, ascend, since every rounding step is nondecreasing, so
    binary search finds the clusters below -zero_tol and up to zero_tol.
    Any other section is built from the plan and counted by
    :func:`count_negative`: a mesh basis as one F-ordered block per
    reflection class the field does not mix, from the class Gram matrices
    formed once at the widest cut.  A dense primary section is factored at
    +-zero_tol, and a dense recount, of which the report reads only the
    count below -zero_tol, at +zero_tol only.  Radii must be finite and
    positive, or UsageError is raised before any mode cut.
    """
    r_grid = _require_radii(r_grid)
    if r_grid.ndim != 1 or len(r_grid) == 0:
        raise UsageError("r grid must be a nonempty 1-d array")
    if np.any(np.diff(r_grid) <= 0.0):
        raise UsageError("r grid must be strictly ascending")

    h_grid = 1.0 / r_grid
    constants = constants_for(field, surface)
    last = [_last_cluster(basis, field, constants, h_grid, cut_factor)]
    try:
        last.append(_last_cluster(basis, field, constants, h_grid,
                                  cut_factor * STABILITY_FACTOR))
    except InsufficientSpectrumError:
        pass
    last = np.array(last)

    # each radius's widest cut
    widest = last.max(axis=0)
    affine = _sphere_affine(basis, field, surface)
    if affine is not None:
        # one batch member per radius, swept through its widest cut's degree
        table = _running_counts(*_polar_family(*affine, h_grid[:, None],
                                               widest[-1]), widest, zero_tol)
        below, up_to = table[:, np.arange(len(h_grid)), last]
        within = up_to - below
    elif field.kind == "constant":
        _require_tolerance(zero_tol)
        gamma0 = field.effective_range(surface)[0]
        # modes through each cluster, after none
        ends = np.append(0, basis.ends)
        counts = np.empty((2,) + last.shape, dtype=ends.dtype)
        for i, (h, top) in enumerate(zip(h_grid, widest.tolist())):
            # _section's values, ascending: both counts are leading runs
            values = np.sqrt(1.0 + h * h * basis.values[:top + 1]) - gamma0
            split = np.array([[values.searchsorted(-zero_tol)],
                              [values.searchsorted(zero_tol, "right")]])
            counts[..., i] = ends[np.minimum(split, last[:, i] + 1)]
        below, up_to = counts
        within = up_to - below
    else:
        grams = _damping_gram(basis, field, int(np.max(last)))
        counts = [[count_negative(_section(basis, field, surface, h, degree,
                                           grams),
                                  # no report reads a recount's borderline
                                  zero_tol=zero_tol, _borderline=row == 0)
                   for h, degree in zip(h_grid, degrees)]
                  for row, degrees in enumerate(last)]
        below, within = np.array(counts).transpose(2, 0, 1)

    stability_delta = None
    if len(last) == 2:
        stability_delta = int(np.max(np.abs(below[1] - below[0])))

    n_scalar = below[0]
    coefficient, exponent, exponent_reason = _fit_powers(r_grid, n_scalar)
    return CountReport(
        r_grid=r_grid,
        n_scalar=n_scalar,
        borderline=within[0],
        coefficient=weyl_coefficient(surface, field),
        mode_cuts=basis.ends[last[0]],
        fitted_coefficient=coefficient,
        fitted_exponent=exponent,
        exponent_reason=exponent_reason,
        stability_delta=stability_delta,
        gamma_label=field.kind,
        basis_source=basis.source,
    )


# ----------------------------------------------------------------------
# monotonicity probe
# ----------------------------------------------------------------------

@dataclass
class BranchEvent:
    """One in-band eigenvalue ``mu`` of one block at one h, with its exact
    slope h * dmu/dh; ``branch`` is its index in the block's ascending
    spectrum at that h."""

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
    violations: list

    @property
    def min_slope(self):
        return min((e.slope for e in self.events), default=None)


def _block_slopes(basis, operator, h):
    """(eigenvalues, slopes h * dmu/dh) of each block of the section at h,
    block by block: a tridiagonal family's blocks by order, cluster values
    one by one, a dense block by the basis modes it spans.

    Only the diagonal of a section depends on h, so by the Hellmann-Feynman
    theorem an eigenvalue mu with unit eigenvector v has
    h * dmu/dh = sum_i v_i^2 w_i, w_i = h * d(diagonal_i)/dh.  With
    D_i = sqrt(1 + h^2 lambda_i) from row i's basis eigenvalue, a model row's
    diagonal D_i - c has w_i = (D_i^2 - 1) / D_i, and a dual row's
    a - 1 / D_i has w_i = (D_i^2 - 1) / D_i^3.
    """
    from scipy.linalg import eigh_tridiagonal

    def weights(lam, dual=False):
        model = np.sqrt(1.0 + h * h * lam)
        return h * h * lam / model ** (3 if dual else 1)

    for matrix, layout in operator.blocks:
        if isinstance(matrix, TridiagonalFamily):
            # the exact sphere's cluster index is its degree
            w = weights(basis.values[:len(matrix)], matrix.dual is not None)
            for order, block in enumerate(matrix.blocks()):
                values, vectors = eigh_tridiagonal(*block)
                yield values, np.square(vectors).T @ w[order:]
        elif matrix.ndim == 1:
            yield from zip(matrix[:, None],
                           weights(basis.values[:len(matrix), None]))
        else:
            values, vectors = np.linalg.eigh(matrix)
            yield values, np.square(vectors).T @ weights(
                basis.leading(operator.mode_cut)[layout])


def monotonicity_probe(basis, field, h_window, surface=None, steps=7,
                       cut_factor=CUT_FACTOR):
    """Check h * dmu/dh > 0 for every eigenvalue mu in the band
    [-delta, delta], at every point of a grid of ``steps`` h values spanning
    the window, its ends included; ``steps`` must be an integer >= 2, or
    UsageError is raised before any section is built.

    In a model section D - G with G >= c0 and (v, D^-1 v) <= 1, a unit
    eigenvector v of mu has h * dmu/dh = (v, Dv) - (v, D^-1 v)
    >= mu + c0 - 1, so every |mu| <= delta = (c0 - 1)/2 has slope >= delta;
    the bound does not cover a dual section.

    Each section is eigendecomposed block by block, and each eigenvalue's
    exact slope read from its eigenvector (:func:`_block_slopes`), so no
    eigenvalue is followed from one h to the next.  A slope below eps/4 is
    recorded as a violation.  Where an eigenvalue is repeated within a block
    its eigenvector is any unit vector of the eigenspace, and its slope lies
    between the smallest and largest slope of the branches through it.  A
    field below one on the exact sphere is probed on its dual section, whose
    eigenvalues are not the model's: they cross zero where the model's do
    and their h-slopes have the model's sign, but the band and the slope
    sizes are the dual's.
    """
    h_lo, h_hi = float(h_window[0]), float(h_window[1])
    if not 0.0 < h_lo < h_hi:
        raise UsageError("h window must satisfy 0 < h_lo < h_hi")
    if not isinstance(steps, (int, np.integer)) or steps < 2:
        raise UsageError(f"probe steps must be an integer >= 2, got {steps!r}")
    constants = constants_for(field, surface)
    h_grid = np.linspace(h_lo, h_hi, steps)

    events = []
    for h in h_grid:
        operator = build_operator(basis, field, h, surface=surface,
                                  cut_factor=cut_factor)
        for block, (values, slopes) in enumerate(
                _block_slopes(basis, operator, h)):
            for branch in np.flatnonzero(np.abs(values) <= constants.delta):
                events.append(BranchEvent(block, int(branch), float(h),
                                          float(values[branch]),
                                          float(slopes[branch])))

    floor = constants.eps / 4.0
    return ProbeReport(h_grid=h_grid, delta=constants.delta,
                       eps=constants.eps, events=events,
                       violations=[e for e in events if e.slope < floor])
