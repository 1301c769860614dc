"""Pointwise symbol calculus on the cotangent bundle of a closed surface.

Everything here is a function of chart points and cotangent vectors, and
every function works on a batch: arrays carry the batch shape as their
leading axes, and a single sample is the batch of empty shape.  The
quantities are the tangential covector realization ``beta`` with its squared
length ``r0``, the elliptic root ``rho`` (the branch of sqrt(z^2 - r0) in the
upper half plane), the rank-one matrix B = beta beta^T, the boundary symbol
m = (rho I + B/rho)/z and its partner m1 = -m, the orthogonal frame U that
diagonalizes B, the dispersion matrix sqrt(1+h^2 r0)(I - h^2 B/(1+h^2 r0))
- gamma0 I, and the leading-order transport solutions on the electric and
magnetic sides.

``identity_suite`` checks all of the algebraic identities over a seeded
batch of random samples in one pass of array operations and reports the
worst residual per identity; the CLI exposes it as ``verify-symbols``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BranchError, ChartDegeneracyError, UsageError

SAMPLE_SEED = 42
DEFAULT_SAMPLES = 1000
TRANSITION_FD_STEP = 1e-3
MIN_XI_NORM = 1e-6
# random sample points keep this fraction of a chart's width off each edge
CHART_MARGIN = 0.05

_FIELDS = ("chart_index", "x", "xi", "point", "nu", "beta", "r0")


def _dot(a, b):
    """Inner product over the last axis, batched over the leading ones."""
    return np.einsum("...i,...i->...", a, b)


def _col(values):
    """Per-sample scalars as a column that scales per-sample vectors."""
    return np.asarray(values)[..., None]


def _mat(values):
    """Per-sample scalars shaped to scale per-sample 3x3 matrices."""
    return np.asarray(values)[..., None, None]


def _transpose(matrix):
    return np.swapaxes(matrix, -1, -2)


def _per_chart(charts, index, x, evaluate, *shapes):
    """Evaluate ``evaluate(chart, u, v)`` once per chart group of a batch.

    ``index`` has the batch shape and ``x`` the batch shape plus (2,);
    ``evaluate`` returns one array per entry of ``shapes``, each with the
    group as its leading axis and the given trailing shape.  The results
    come back in batch order and shape.
    """
    flat = index.reshape(-1)
    params = x.reshape(-1, 2)
    out = [np.empty((flat.size,) + shape) for shape in shapes]
    for k in np.unique(flat):
        group = flat == k
        values = evaluate(charts[k], params[group, 0], params[group, 1])
        for target, value in zip(out, values):
            target[group] = value
    return [o.reshape(index.shape + o.shape[1:]) for o in out]


def _frames(chart, u, v):
    return (chart.point(u, v), chart.normal(u, v), *chart.dual_frame(u, v))


class CotangentSample:
    """Chart points together with cotangent vectors and derived frames.

    ``chart_index`` and ``r0`` have the batch shape; ``x`` and ``xi`` add a
    trailing axis of 2, ``point``, ``nu`` and ``beta`` one of 3.  ``beta`` is
    the ambient realization of the covector (tangential, chart independent);
    ``r0 = <beta, beta>`` is the inverse-metric quadratic form.  The charts
    are evaluated once per chart group.  Indexing gives a sub-batch (or, with
    an integer on a 1-D batch, a single sample) and iteration the single
    samples.
    """

    def __init__(self, surface, chart_index, x, xi):
        self.surface = surface
        self.chart_index = np.asarray(chart_index, dtype=int)
        shape = self.chart_index.shape
        self.x = np.asarray(x, dtype=float).reshape(shape + (2,))
        self.xi = np.asarray(xi, dtype=float).reshape(shape + (2,))
        self.point, self.nu, dual_u, dual_v = _per_chart(
            surface.charts, self.chart_index, self.x, _frames,
            (3,), (3,), (3,), (3,))
        self.beta = self.xi[..., 0:1] * dual_u + self.xi[..., 1:2] * dual_v
        self.r0 = _dot(self.beta, self.beta)

    def __len__(self):
        return len(self.chart_index)

    def __getitem__(self, key):
        part = object.__new__(CotangentSample)
        part.surface = self.surface
        for name in _FIELDS:
            setattr(part, name, getattr(self, name)[key])
        return part

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def inverse_metric_form(self):
        """xi^T g^{-1} xi from the 2x2 chart metric (cross-check for r0)."""
        gram, = _per_chart(self.surface.charts, self.chart_index, self.x,
                           lambda chart, u, v: (chart.metric(u, v),), (2, 2))
        return _dot(self.xi, np.linalg.solve(gram, self.xi[..., None])[..., 0])


def random_samples(surface, count, seed=SAMPLE_SEED):
    """Seeded batch of nondegenerate cotangent samples, one chart each.

    Points are drawn uniformly in the chart parameter rectangle (shrunk by
    ``CHART_MARGIN`` of its width on both ends), covectors from a unit normal.
    Returns one :class:`CotangentSample` of batch shape (count,).
    """
    count = int(count)
    if count < 1:
        raise UsageError("sample count must be positive")
    rng = np.random.default_rng(seed)
    index = np.empty(count, dtype=int)
    x = np.empty((count, 2))
    xi = np.empty((count, 2))
    drawn = 0
    while drawn < count:
        k = int(rng.integers(len(surface.charts)))
        (ulo, uhi), (vlo, vhi) = surface.charts[k].domain
        du, dv = uhi - ulo, vhi - vlo
        u = rng.uniform(ulo + CHART_MARGIN * du, uhi - CHART_MARGIN * du)
        v = rng.uniform(vlo + CHART_MARGIN * dv, vhi - CHART_MARGIN * dv)
        covector = rng.standard_normal(2)
        if np.linalg.norm(covector) < MIN_XI_NORM:
            continue
        index[drawn], x[drawn], xi[drawn] = k, (u, v), covector
        drawn += 1
    return CotangentSample(surface, index, x, xi)


# ----------------------------------------------------------------------
# scalar and matrix symbols
# ----------------------------------------------------------------------

def elliptic_root(z, r0):
    """The root rho of rho^2 = z^2 - r0 with Im rho > 0."""
    square = np.asarray(z, dtype=complex) ** 2 - np.asarray(r0, dtype=float)
    rho = np.sqrt(square + 0j)
    rho = np.where(rho.imag < 0.0, -rho, rho)
    bad = rho.imag <= 0.0
    if np.any(bad):
        raise BranchError(
            f"branch undefined: z^2 - r0 = {square[bad].flat[0]} is "
            "nonnegative real")
    return rho[()]


def rank_one(sample):
    """B = beta beta^T, the rank-one symmetric PSD matrix of the sample."""
    return sample.beta[..., :, None] * sample.beta[..., None, :]


def _unit_beta(sample, what):
    if np.any(sample.r0 <= MIN_XI_NORM ** 2):
        raise UsageError(f"{what} undefined for a vanishing covector")
    return sample.beta / _col(np.sqrt(sample.r0))


def eigenstructure(sample):
    """The three eigenpairs of B: (0, nu), (0, nu x b), (r0, b), b = beta/|beta|."""
    b = _unit_beta(sample, "eigenstructure")
    return [
        (0.0, sample.nu),
        (0.0, np.cross(sample.nu, b)),
        (sample.r0, b),
    ]


def diagonalizing_frame(sample):
    """Orthogonal U with columns [nu | nu x b | b]; U^T B U = diag(0, 0, r0)."""
    b = _unit_beta(sample, "frame")
    return np.stack([sample.nu, np.cross(sample.nu, b), b], axis=-1)


def principal_m(sample, z):
    """Boundary symbol m = (rho I + B/rho)/z; complex symmetric 3x3."""
    rho = _mat(elliptic_root(z, sample.r0))
    z = _mat(np.asarray(z, dtype=complex))
    return (rho * np.eye(3) + rank_one(sample) / rho) / z


def principal_m1(sample, z):
    """Symbol of the swapped-side reduction; equals -m throughout the range."""
    return -principal_m(sample, z)


def m_reference_at_minus_i(sample):
    """Closed form of -m at z = -i: sqrt(1+r0) I - B / sqrt(1+r0)."""
    root = _mat(np.sqrt(1.0 + sample.r0))
    return root * np.eye(3) - rank_one(sample) / root


def dispersion_matrix(sample, h, gamma0):
    """sqrt(1+h^2 r0) (I - h^2 B / (1+h^2 r0)) - gamma0 I."""
    s = _mat(np.sqrt(1.0 + h * h * sample.r0))
    return (s * np.eye(3) - _mat(h * h) * rank_one(sample) / s
            - _mat(gamma0) * np.eye(3))


def dispersion_diagonal(sample, h, gamma0):
    """Eigenvalues of the dispersion matrix in the frame U."""
    s = np.sqrt(1.0 + h * h * sample.r0)
    return np.stack([s - gamma0, s - gamma0, 1.0 / s - gamma0], axis=-1)


# ----------------------------------------------------------------------
# leading-order transport solutions
# ----------------------------------------------------------------------

def _max_abs(values):
    return float(np.max(np.abs(values)))


@dataclass
class TransportPrincipal:
    """Leading-order transport solution for tangential boundary data g.

    ``side`` is "electric" (data nu x a00 = g) or "magnetic" (nu x b00 = g).
    """

    sample: CotangentSample
    z: complex
    g: np.ndarray
    side: str
    a00: np.ndarray
    b00: np.ndarray

    @property
    def rho(self):
        return elliptic_root(self.z, self.sample.r0)

    @property
    def psi0(self):
        """The phase gradient rho nu - beta."""
        return _col(self.rho) * self.sample.nu - self.sample.beta

    def residuals(self):
        """Max-norm residuals of the first-order system and its data row,
        each the worst over the batch."""
        nu = self.sample.nu
        psi0 = self.psi0
        z = _col(self.z)
        res_a = np.cross(psi0, self.a00) - z * self.b00
        res_b = np.cross(psi0, self.b00) + z * self.a00
        driven = self.a00 if self.side == "electric" else self.b00
        res_data = np.cross(nu, driven) - self.g
        return {
            "transport-a": _max_abs(res_a),
            "transport-b": _max_abs(res_b),
            "boundary-data": _max_abs(res_data),
        }


def transport_principal(sample, z, g, side="electric"):
    """Solve the leading-order transport system for tangential data g.

    The two sides share the same pair of cross-product equations; they differ
    only in which field carries the boundary data, and the closed forms swap
    roles under z -> -z (rho is even in z).
    """
    g = np.asarray(g, dtype=complex)
    nu = sample.nu.astype(complex)
    if np.any(np.abs(_dot(nu, g))
              > 1e-10 * np.maximum(1.0, np.linalg.norm(g, axis=-1))):
        raise UsageError("transport data must be tangential: <nu, g> != 0")
    if side not in ("electric", "magnetic"):
        raise UsageError(f"unknown transport side {side!r}")
    z = np.asarray(z, dtype=complex)[()]
    rho = elliptic_root(z, sample.r0)
    beta = sample.beta.astype(complex)
    psi0 = _col(rho) * nu - beta

    nu_cross_g = np.cross(nu, g)
    driven = -nu_cross_g + _col(_dot(nu, np.cross(beta, g)) / rho) * nu
    if side == "electric":
        a00 = driven
        b00 = np.cross(psi0, a00) / _col(z)
    else:
        b00 = driven
        a00 = -np.cross(psi0, b00) / _col(z)
    return TransportPrincipal(sample, z, g, side, a00, b00)


# ----------------------------------------------------------------------
# chart invariance
# ----------------------------------------------------------------------

def chart_transfer(sample, other_index):
    """Re-express samples in other charts, transforming xi covariantly.

    Returns ``(moved, interior)``.  ``interior`` has the batch shape and marks
    the samples whose image lies well inside the target chart; ``moved`` is
    a 1-D batch of those samples, in batch order, in their target charts.
    Close to a target's polar edge the inverse map is ill-conditioned and
    the comparison would measure roundoff amplification, not invariance.

    The transition Jacobian is taken by a fourth-order central difference of
    the chart transition map; covector components transform with its inverse
    transpose.  The result's beta and r0 must match the original's (global
    invariance), which the identity suite checks.
    """
    charts = sample.surface.charts
    source_index = sample.chart_index.reshape(-1)
    target_index = np.broadcast_to(np.asarray(other_index, dtype=int),
                                   sample.chart_index.shape).reshape(-1)
    x = sample.x.reshape(-1, 2)
    xi = sample.xi.reshape(-1, 2)
    x_target = np.empty_like(x)
    xi_target = np.empty_like(xi)
    interior = np.zeros(len(x), dtype=bool)
    for s, t in sorted(set(zip(source_index.tolist(), target_index.tolist()))):
        source, target = charts[s], charts[t]
        if target.inverse is None or source.inverse is None:
            raise UsageError("both charts need inverses for a transition")

        def transition(y):
            return np.stack(target.inverse(source.point(y[:, 0], y[:, 1])),
                            axis=-1)

        group = np.flatnonzero((source_index == s) & (target_index == t))
        landed = transition(x[group])
        (ulo, uhi), _ = target.domain
        inside = target.contains(landed[:, 0], landed[:, 1],
                                 tol=-0.1 * (uhi - ulo))
        group, landed = group[inside], landed[inside]

        def near(y):
            # undo 2 pi jumps of the angular coordinate across the seam
            value = transition(y)
            turns = np.round((value - landed) / (2.0 * np.pi))
            return value - 2.0 * np.pi * turns

        base = x[group]
        jac = np.empty((len(group), 2, 2))
        for j in range(2):
            step = np.zeros(2)
            step[j] = TRANSITION_FD_STEP
            jac[:, :, j] = (-near(base + 2 * step) + 8.0 * near(base + step)
                            - 8.0 * near(base - step) + near(base - 2 * step)
                            ) / (12.0 * TRANSITION_FD_STEP)
        x_target[group] = landed
        xi_target[group] = np.linalg.solve(_transpose(jac),
                                           xi[group][..., None])[..., 0]
        interior[group] = True
    moved = CotangentSample(sample.surface, target_index[interior],
                            x_target[interior], xi_target[interior])
    return moved, interior.reshape(sample.chart_index.shape)


def transfer_sample(sample, other_index):
    """Re-express one sample in chart ``other_index``.

    Raises ChartDegeneracyError where :func:`chart_transfer` would drop the
    sample.
    """
    moved, interior = chart_transfer(sample, other_index)
    if not np.all(interior):
        target = sample.surface.charts[other_index]
        raise ChartDegeneracyError(
            f"point not interior to chart {target.name!r}")
    return moved[0]


# ----------------------------------------------------------------------
# the identity suite
# ----------------------------------------------------------------------

def identity_suite(surface, samples=DEFAULT_SAMPLES, seed=SAMPLE_SEED):
    """Exercise every symbol identity over a seeded sample batch.

    Returns {"surface", "samples", "seed", "residuals": {name: max residual}}.
    The spectral parameter is drawn per sample as z = -i/(1 + i t) with
    |t| <= h^2 and h uniform in (0, 1]; gamma0 is uniform in (1.1, 5).
    Each residual is computed for the whole batch at once.
    """
    batch = random_samples(surface, samples, seed=seed)
    count = len(batch)
    rng = np.random.default_rng(seed + 1)
    h, t, gamma0 = np.empty(count), np.empty(count), np.empty(count)
    g = np.empty((count, 3), dtype=complex)
    for k in range(count):
        h[k] = rng.uniform(0.05, 1.0)
        t[k] = rng.uniform(-h[k] * h[k], h[k] * h[k])
        gamma0[k] = rng.uniform(1.1, 5.0)
        g[k] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = -1j / (1.0 + 1j * t)
    eye = np.eye(3)
    worst = {}

    def record(name, values):
        worst[name] = max(worst.get(name, 0.0), float(np.max(values)))

    def max_abs(values, axes):
        return np.max(np.abs(values), axis=axes)

    record("nu-beta-orthogonal", np.abs(_dot(batch.nu, batch.beta)))
    record("r0-inverse-metric", np.abs(batch.r0 - batch.inverse_metric_form()))
    doubled = CotangentSample(surface, batch.chart_index, batch.x,
                              2.0 * batch.xi)
    record("beta-homogeneous", max_abs(doubled.beta - 2.0 * batch.beta, -1))

    matrix = rank_one(batch)
    record("B-symmetric-psd", np.maximum.reduce([
        max_abs(matrix - _transpose(matrix), (-2, -1)),
        np.maximum(0.0, -np.min(np.linalg.eigvalsh(matrix), axis=-1)),
        np.abs(np.trace(matrix, axis1=-2, axis2=-1) - batch.r0)]))
    for value, vector in eigenstructure(batch):
        record("B-eigenstructure",
               max_abs(np.einsum("...ij,...j->...i", matrix, vector)
                       - _col(value) * vector, -1))

    frame = diagonalizing_frame(batch)
    frame_t = _transpose(frame)
    record("U-orthogonal",
           np.linalg.norm(frame_t @ frame - eye, axis=(-2, -1)))
    diag_b = np.zeros((count, 3))
    diag_b[:, 2] = batch.r0
    record("U-diagonalizes-B",
           max_abs(frame_t @ matrix @ frame - _col(diag_b) * eye, (-2, -1)))
    record("dispersion-diagonalization",
           max_abs(frame_t @ dispersion_matrix(batch, h, gamma0) @ frame
                   - _col(dispersion_diagonal(batch, h, gamma0)) * eye,
                   (-2, -1)))

    rho = elliptic_root(z, batch.r0)
    record("rho-square", np.abs(rho * rho - (z * z - batch.r0)))
    record("rho-branch-lower-bound", np.maximum(
        0.0, np.minimum(1.0, 0.5 * np.sqrt(1.0 + batch.r0)) - rho.imag))

    m = principal_m(batch, z)
    record("m-symmetric", max_abs(m - _transpose(m), (-2, -1)))
    m_at_i = principal_m(batch, -1j)
    record("m-at-minus-i",
           max_abs(-m_at_i - m_reference_at_minus_i(batch), (-2, -1)))
    record("m1-equals-minus-m",
           max_abs(principal_m1(batch, -1j) + m_at_i, (-2, -1)))

    g = np.cross(batch.nu, np.cross(g, batch.nu))  # project tangential
    for side in ("electric", "magnetic"):
        solution = transport_principal(batch, z, g, side=side)
        record(f"transport-{side}", max(solution.residuals().values()))

    moved, interior = chart_transfer(batch, 1 - batch.chart_index)
    if np.any(interior):
        record("chart-invariance", np.maximum(
            max_abs(moved.beta - batch.beta[interior], -1),
            np.abs(moved.r0 - batch.r0[interior])))

    return {
        "surface": surface.name,
        "samples": int(samples),
        "seed": int(seed),
        "residuals": {name: worst[name] for name in sorted(worst)},
    }
