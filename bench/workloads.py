"""The benchmark's workloads: inputs from a seed, ops, and their oracles.

Every op is a list of ``weylcount.cli.main`` argv lists.  The workload seed
picks the r-grid offset, the sample seed and the solver seed; the program
only ever sees the resulting argv.  Each workload's oracle is independent
of frozen output bytes, so any seed can be checked:

* constant damping on the exact sphere: closed-form cluster enumeration;
* z-axis affine damping: the inverted (below-one) field counts the same,
  and so do closed-form tridiagonal blocks built without the program;
* x-axis affine damping: rotation invariance, i.e. the z-axis counts of
  the program's blocks path and of the closed-form blocks;
* FEM modes: the closed-form exact-sphere counts within the borderline
  allowance of acceptance criterion 5;
* symbol identities: every identity reported, each residual below the gate.

Oracle expectations are computed outside the timed interval.  The seed
shifts each r grid within a window where no mode cut, no recount cut and no
auto-chosen sphere degree changes (on the mesh: where no cut crosses a mesh
eigenvalue), so every seed does the same work on different radii.  This
module imports ``weylcount`` and so runs only inside a workload process.
"""

import contextlib
import io
import json
import math
import os
import random
import traceback

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from weylcount import cli
from weylcount.lb_spectrum import cached_mesh_spectrum, exact_sphere_spectrum
from weylcount.semiclassical_count import build_operator
from weylcount.surface import AnalyticSurface, DampingField
from weylcount.surface.mesh import icosphere

AFFINE = (2.0, 0.5)  # gamma = 2 + 0.5 t along the named axis
Z_FIELD = "affine:2,0.5,z"
X_FIELD = "affine:2,0.5,x"
CONSTANT_GAMMA = 2.0
CUT_FACTOR = 2.0  # the scan's default mode cut, in ellipticity thresholds
ZERO_TOL = 1e-12
# acceptance criterion 5: a mode is borderline when its model eigenvalue
# lies within this band of zero, on either basis
BORDERLINE_BAND = 0.05
RESIDUAL_GATE = 1e-8
IDENTITIES = (
    "B-eigenstructure", "B-symmetric-psd", "U-diagonalizes-B", "U-orthogonal",
    "beta-homogeneous", "chart-invariance", "dispersion-diagonalization",
    "m-at-minus-i", "m-symmetric", "m1-equals-minus-m", "nu-beta-orthogonal",
    "r0-inverse-metric", "rho-branch-lower-bound", "rho-square",
    "transport-electric", "transport-magnetic",
)


def call_main(argv):
    """(exit code, stdout, stderr) of one ``cli.main`` call.

    An exception escaping ``main`` is an op failure, not a benchmark
    failure: it gives exit code None and its traceback on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - counted as a failed op
            code = None
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


def scan_argv(field, grid, output, *extra):
    r_min, r_max, steps = grid
    return ["scan", "--gamma", field, "--r-min", repr(r_min),
            "--r-max", repr(r_max), "--steps", str(steps),
            "--output", output, *extra]


def grid_values(grid):
    r_min, r_max, steps = grid
    return [float(r) for r in np.linspace(r_min, r_max, steps)]


def read_rows(directory):
    """[(r, N_scalar, N_system, borderline)] from report.csv, then delete
    the reports so a later op cannot pass on a stale file."""
    rows = []
    path = os.path.join(directory, "report.csv")
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle.read().splitlines()[1:]:
            r, n_scalar, n_system, _, borderline = line.split(",")
            rows.append((float(r), int(n_scalar), int(n_system),
                         int(borderline)))
    for name in ("report.csv", "report.json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(directory, name))
    return rows


def cluster_count(gamma0, r):
    """Negative modes of constant damping on the unit sphere, enumerated:
    degree n (multiplicity 2n+1) counts while n(n+1) < (gamma0^2 - 1) r^2,
    so K counted degrees hold K^2 modes."""
    threshold = (gamma0 * gamma0 - 1.0) * r * r
    degrees = 0
    while degrees * (degrees + 1) < threshold:
        degrees += 1
    return degrees * degrees


def axis_affine_counts(offset, slope, radii):
    """Negative-mode counts of gamma = offset + slope * z on the unit sphere.

    In the orthonormal associated Legendre basis of order m, multiplying by
    z is the Jacobi matrix with off-diagonal entries
    sqrt(((n+1)^2 - m^2) / ((2n+1)(2n+3))), so each order's block of the
    operator is tridiagonal: sqrt(1 + n(n+1)/r^2) - offset on the diagonal,
    minus slope times that Jacobi matrix.  Degrees run from m to the
    program's mode cut, the smallest N with N(N+1) >= CUT_FACTOR times the
    ellipticity threshold (c1^2 - 1) r^2; orders m > 0 count twice.
    Needs offset - |slope| > 1.
    """
    c1 = offset + abs(slope)
    counts = []
    for r in radii:
        need = CUT_FACTOR * (c1 * c1 - 1.0) * r * r
        top = 0
        while top * (top + 1) < need:
            top += 1
        total = 0
        for m in range(top + 1):
            n = np.arange(m, top + 1, dtype=float)
            diagonal = np.sqrt(1.0 + n * (n + 1.0) / (r * r)) - offset
            k = n[:-1]
            jacobi = np.sqrt(((k + 1.0) ** 2 - m * m)
                             / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
            values = eigvalsh_tridiagonal(diagonal, -slope * jacobi) \
                if len(k) else diagonal
            total += (1 if m == 0 else 2) * int(np.sum(values < -ZERO_TOL))
        counts.append(total)
    return counts


def _check_codes(codes):
    return ["call %d exited %r" % (i, code)
            for i, code in enumerate(codes) if code != 0]


def _check_rows(label, rows, grid):
    """Problems with the shape of a scan report."""
    expected_r = grid_values(grid)
    if rows is None:
        return ["%s: no report" % label]
    if len(rows) != len(expected_r):
        return ["%s: %d rows, expected %d" % (label, len(rows),
                                              len(expected_r))]
    problems = []
    for (r, n_scalar, n_system, _), want_r in zip(rows, expected_r):
        if not math.isclose(r, want_r, rel_tol=1e-12):
            problems.append("%s: r = %r, expected %r" % (label, r, want_r))
        if n_system != 2 * n_scalar:
            problems.append("%s: r = %g: N_system %d != 2 N_scalar %d"
                            % (label, r, n_system, n_scalar))
    return problems


def _compare(label, rows, expected, allowance=None):
    problems = []
    for i, (r, n_scalar, _, _) in enumerate(rows):
        slack = 0 if allowance is None else allowance[i]
        if abs(n_scalar - expected[i]) > slack:
            problems.append("%s: r = %g: N = %d, oracle %d (allowance %d)"
                            % (label, r, n_scalar, expected[i], slack))
    return problems


def _observe_scans(results, directories):
    codes = [code for code, _, _ in results]
    observed = {"codes": codes}
    for key, directory in directories.items():
        try:
            observed[key] = read_rows(directory)
        except (OSError, ValueError):
            observed[key] = None
    return observed


def _oracle_counts(field, grid, output, *extra):
    """Counts from an untimed oracle scan; raises if the scan fails."""
    argv = scan_argv(field, grid, output, *extra)
    code, _, err = call_main(argv)
    if code != 0:
        raise RuntimeError("oracle scan %r exited %r: %s" % (argv, code, err))
    return [n_scalar for _, n_scalar, _, _ in read_rows(output)]


class AxisBlocks:
    """Exact-sphere blocks path: Legendre moment blocks and per-order
    eigvalsh for z-affine damping to r ~ 48, plus constant damping to
    r ~ 300 on a degree-930 basis."""

    name = "axis-blocks"

    def inputs(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        # the constant scan's auto degree 930 becomes 931 at v = 0.048
        u, v = rng.uniform(0.0, 0.08), rng.uniform(0.0, 0.04)
        return {"z_grid": [12.32 + u, 48.32 + u, 4],
                "c_grid": [100.27 + v, 300.27 + v, 11]}

    def setup(self, params, work):
        pass

    def ops(self, params, work):
        return [scan_argv(Z_FIELD, params["z_grid"], os.path.join(work, "z")),
                scan_argv(repr(CONSTANT_GAMMA), params["c_grid"],
                          os.path.join(work, "c"))]

    def observe(self, params, work, results):
        return _observe_scans(results, {"z": os.path.join(work, "z"),
                                        "c": os.path.join(work, "c")})

    def oracle(self, params, work):
        return {
            "z": axis_affine_counts(*AFFINE, grid_values(params["z_grid"])),
            "z_inverted": _oracle_counts(Z_FIELD, params["z_grid"],
                                         os.path.join(work, "oracle"),
                                         "--invert"),
            "c": [cluster_count(CONSTANT_GAMMA, r)
                  for r in grid_values(params["c_grid"])],
        }

    def check(self, params, observed, expected):
        problems = _check_codes(observed["codes"])
        for key, oracles in (("z", ("z", "z_inverted")), ("c", ("c",))):
            rows = observed[key]
            shape = _check_rows(key, rows, params[key + "_grid"])
            problems += shape or [problem for oracle in oracles for problem
                                  in _compare(oracle, rows, expected[oracle])]
        return problems


class DenseGram:
    """x-affine damping on the exact sphere takes the dense path: harmonic
    tabulation, the Gram product and dense eigvalsh, r ~ 5..8."""

    name = "dense-gram"

    def inputs(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        u = rng.uniform(0.0, 0.07)
        return {"grid": [5.09 + u, 8.09 + u, 4]}

    def setup(self, params, work):
        pass

    def ops(self, params, work):
        return [scan_argv(X_FIELD, params["grid"], os.path.join(work, "x"))]

    def observe(self, params, work, results):
        return _observe_scans(results, {"x": os.path.join(work, "x")})

    def oracle(self, params, work):
        # rotation invariance: the same field along z
        return {
            "z_blocks": _oracle_counts(Z_FIELD, params["grid"],
                                       os.path.join(work, "oracle")),
            "z": axis_affine_counts(*AFFINE, grid_values(params["grid"])),
        }

    def check(self, params, observed, expected):
        problems = _check_codes(observed["codes"])
        rows = observed["x"]
        shape = _check_rows("x", rows, params["grid"])
        return problems + (shape or (_compare("z_blocks", rows,
                                              expected["z_blocks"])
                                     + _compare("z", rows, expected["z"])))


class FemWarm:
    """Set-up is the cold FEM solve and the cache store into a fresh cache
    directory; each op is a warm scan: cache load, mesh build and dense
    counting on 400 mesh modes.  Every op must hit the cache."""

    name = "fem-warm"

    def inputs(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        # the icosphere splits each sphere degree into nearby eigenvalues,
        # so the cuts move with almost any shift; on 400 level-4 modes none
        # moves for u in [0.114, 0.164), and the recount at the top radius
        # always runs out of basis
        u = rng.uniform(0.12, 0.158)
        return {"grid": [2.0 + u, 4.5 + u, 6], "level": 4, "modes": 400,
                "solver_seed": rng.randrange(1, 2 ** 31)}

    def _mesh_args(self, params, work):
        return ["--mesh", "icosphere:%d" % params["level"],
                "--cache-dir", os.path.join(work, "cache"),
                "--seed", str(params["solver_seed"])]

    def setup(self, params, work):
        code, _, err = call_main(["spectrum", "--count", str(params["modes"]),
                                  *self._mesh_args(params, work)])
        if code != 0:
            raise RuntimeError("cold FEM solve exited %r: %s" % (code, err))

    def ops(self, params, work):
        return [scan_argv(X_FIELD, params["grid"], os.path.join(work, "fem"),
                          "--modes", str(params["modes"]),
                          *self._mesh_args(params, work))]

    def observe(self, params, work, results):
        observed = _observe_scans(results, {"fem": os.path.join(work, "fem")})
        observed["hit"] = all("spectrum cache hit" in out.splitlines()
                              for _, out, _ in results)
        return observed

    def oracle(self, params, work):
        radii = grid_values(params["grid"])
        exact = axis_affine_counts(*AFFINE, radii)
        sphere = AnalyticSurface.unit_sphere()
        fem, _ = cached_mesh_spectrum(icosphere(params["level"]),
                                      params["modes"],
                                      directory=os.path.join(work, "cache"))
        pairs = ((fem, DampingField.affine(*AFFINE, (1.0, 0.0, 0.0))),
                 (exact_sphere_spectrum(40),
                  DampingField.affine(*AFFINE, (0.0, 0.0, 1.0))))
        allowance = []
        for r in radii:
            allowance.append(sum(
                int(np.sum(np.abs(build_operator(
                    basis, field, 1.0 / r, surface=sphere).eigenvalues())
                    <= BORDERLINE_BAND))
                for basis, field in pairs))
        return {"fem": exact, "allowance": allowance}

    def check(self, params, observed, expected):
        problems = _check_codes(observed["codes"])
        if not observed["hit"]:
            problems.append("warm scan missed the spectrum cache")
        rows = observed["fem"]
        shape = _check_rows("fem", rows, params["grid"])
        return problems + (shape or _compare("fem", rows, expected["fem"],
                                             expected["allowance"]))


class Symbols:
    """verify-symbols on the sphere and an ellipsoid: only symbol_algebra
    works, no counting code runs."""

    name = "symbols"

    SURFACES = ("unit-sphere", "ellipsoid:2,1,1")
    SAMPLES = 200

    def inputs(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        return {"sample_seed": rng.randrange(1, 2 ** 31),
                "samples": self.SAMPLES}

    def setup(self, params, work):
        pass

    def ops(self, params, work):
        return [["verify-symbols", "--surface", surface,
                 "--samples", str(params["samples"]),
                 "--seed", str(params["sample_seed"])]
                for surface in self.SURFACES]

    def observe(self, params, work, results):
        documents = []
        for _, out, _ in results:
            try:
                documents.append(json.loads(out))
            except ValueError:
                documents.append(None)
        return {"codes": [code for code, _, _ in results],
                "documents": documents}

    def oracle(self, params, work):
        return {"samples": params["samples"], "gate": RESIDUAL_GATE,
                "identities": list(IDENTITIES)}

    def check(self, params, observed, expected):
        problems = _check_codes(observed["codes"])
        for surface, document in zip(self.SURFACES, observed["documents"]):
            if document is None:
                problems.append("%s: no JSON report" % surface)
                continue
            if document.get("surface") != surface:
                problems.append("%s: report is for %r" % (
                    surface, document.get("surface")))
            if document.get("samples") != expected["samples"]:
                problems.append("%s: %r samples, expected %d" % (
                    surface, document.get("samples"), expected["samples"]))
            residuals = document.get("residuals") or {}
            if sorted(residuals) != expected["identities"]:
                problems.append("%s: identities %s, expected %s" % (
                    surface, sorted(residuals), expected["identities"]))
            for name, value in sorted(residuals.items()):
                if not (isinstance(value, (int, float))
                        and math.isfinite(value)
                        and value < expected["gate"]):
                    problems.append("%s: residual %s = %r" % (
                        surface, name, value))
            if document.get("failures"):
                problems.append("%s: failures %r" % (
                    surface, document["failures"]))
        return problems


WORKLOADS = {w.name: w for w in (AxisBlocks(), DenseGram(), FemWarm(),
                                 Symbols())}
