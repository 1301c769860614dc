"""Command line front end.

Six commands wire the library into a scriptable pipeline:

* ``spectrum``        compute or load a spectral basis, print a summary
* ``scan``            count negative modes over an r grid, emit CSV + JSON
* ``count``           single-radius count
* ``weyl``            predicted quadratic growth coefficient
* ``verify-symbols``  run the pointwise symbol identity suite
* ``regions``         complex-plane region membership and the real-axis bound

Exit codes: 0 success, 2 resource/precondition failure, 3 invariant-gate
failure, 64 usage error.  Each option is declared once, with its default,
in :func:`build_parser`.  Options may also be supplied through a flat
``key = value`` config file (``--config``), whose keys are option dests;
its values become the command's defaults, so explicit flags win.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .errors import UsageError, WeylcountError
from .lb_spectrum import (
    SOLVER_TOL,
    cached_mesh_spectrum,
    exact_sphere_spectrum,
    sphere_degree_for,
)
from .semiclassical_count import (
    CUT_FACTOR,
    ZERO_TOL,
    build_operator,
    constants_for,
    count_negative,
    scan,
    weyl_coefficient,
    weyl_prediction,
)
from .spectral_regions import (
    RegionParams,
    membership_report,
    real_eigenvalue_bound,
)
from .surface import AnalyticSurface, DampingField
from .surface.mesh import icosphere, read_off, read_vertex_values
from .symbol_algebra import DEFAULT_SAMPLES, SAMPLE_SEED, identity_suite

EXIT_OK = 0
EXIT_RESOURCE = 2
EXIT_GATE = 3
EXIT_USAGE = 64

RESIDUAL_GATE = 1e-8
MESH_SURFACE_TOL = 1e-6
# spectrum, scan and count share it, as the seed is part of the cache key
DEFAULT_SEED = 42

# UsageError is caught first, so it still exits 64
_RESOURCE_ERRORS = (WeylcountError, np.linalg.LinAlgError, OSError)


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad invocations as UsageError (exit 64)."""

    def error(self, message):
        raise UsageError(message)


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % (text,))


def _positive(text, or_zero=False):
    """A finite float > 0, or >= 0 with ``or_zero``."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (0.0 < value < np.inf or or_zero and value == 0.0):
        raise argparse.ArgumentTypeError(
            "expected a finite number %s 0, got %r"
            % (">=" if or_zero else ">", text))
    return value


def _nonnegative(text):
    return _positive(text, or_zero=True)


def read_config(path):
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    entries = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(
                    "%s:%d: expected 'key = value', got %r"
                    % (path, lineno, raw.rstrip("\n")))
            key, value = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _config_defaults(parser, path):
    """The config file's values, converted as the matching flags would be."""
    actions = {action.dest: action for action in parser._actions
               if action.dest not in ("config", "help")}
    values = {}
    for key, text in read_config(path).items():
        if key not in actions:
            raise UsageError("unknown config key %r" % (key,))
        action = actions[key]
        if action.type is not None:
            convert = action.type
        elif action.const is True:  # store_true flag
            convert = _parse_bool
        else:
            convert = str
        try:
            values[key] = convert(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as err:
            raise UsageError(
                "config key %r: %s" % (key, err)) from err
    return values


# ----------------------------------------------------------------------
# argument resolution
# ----------------------------------------------------------------------

def resolve_surface(spec):
    """'unit-sphere' or 'ellipsoid:A,B,C'."""
    spec = spec.strip()
    if spec == "unit-sphere":
        return AnalyticSurface.unit_sphere()
    if spec.startswith("ellipsoid:"):
        parts = spec[len("ellipsoid:"):].split(",")
        if len(parts) != 3:
            raise UsageError(
                "ellipsoid needs three semi-axes, got %r" % (spec,))
        try:
            a, b, c = (float(p) for p in parts)
        except ValueError as err:
            raise UsageError("bad ellipsoid axes in %r" % (spec,)) from err
        return AnalyticSurface.ellipsoid(a, b, c)
    raise UsageError("unknown surface %r" % (spec,))


_NAMED_AXES = {
    "x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0),
    "-x": (-1.0, 0.0, 0.0), "-y": (0.0, -1.0, 0.0), "-z": (0.0, 0.0, -1.0),
}


def _parse_axis(token):
    token = token.strip().lower()
    if token in _NAMED_AXES:
        return _NAMED_AXES[token]
    parts = token.split("/")
    if len(parts) != 3:
        raise UsageError("bad axis %r (use x|y|z or ax/ay/az)" % (token,))
    try:
        return tuple(float(p) for p in parts)
    except ValueError as err:
        raise UsageError("bad axis %r" % (token,)) from err


def resolve_field(spec, invert=False):
    """A float (constant), 'affine:OFFSET,SLOPE,AXIS', or 'table:PATH'."""
    spec = str(spec).strip()
    if spec.startswith("affine:"):
        parts = spec[len("affine:"):].split(",")
        if len(parts) != 3:
            raise UsageError(
                "affine field needs offset,slope,axis; got %r" % (spec,))
        try:
            offset, slope = float(parts[0]), float(parts[1])
        except ValueError as err:
            raise UsageError("bad affine field %r" % (spec,)) from err
        return DampingField.affine(offset, slope, _parse_axis(parts[2]),
                                   invert=invert)
    if spec.startswith("table:"):
        table = read_vertex_values(spec[len("table:"):])
        return DampingField.vertex_table(table, invert=invert)
    try:
        value = float(spec)
    except ValueError as err:
        raise UsageError("unknown damping field spec %r" % (spec,)) from err
    return DampingField.constant(value, invert=invert)


def resolve_mesh(spec):
    """'icosphere:LEVEL' or a path to an OFF file."""
    spec = spec.strip()
    if spec.startswith("icosphere:"):
        try:
            level = int(spec[len("icosphere:"):])
        except ValueError as err:
            raise UsageError("bad icosphere level in %r" % (spec,)) from err
        return icosphere(level)
    return read_off(spec)


def auto_degree(surface, field, r_max, cut_factor):
    """Sphere degree resolving 1.6 * cut_factor times the ellipticity
    threshold at r_max: the 1.5x truncation recount plus headroom, 3.2x at
    the default cut factor 2."""
    constants = constants_for(field, surface)
    target = 1.6 * cut_factor * constants.ellipticity_threshold(1.0 / r_max)
    return max(int(sphere_degree_for(target)), 1)


def _r_grid(args):
    if args.steps < 2:
        raise UsageError("steps must be >= 2, got %d" % args.steps)
    if not 0.0 < args.r_min < args.r_max:
        raise UsageError(
            "need 0 < r-min < r-max, got %g, %g" % (args.r_min, args.r_max))
    if args.log:
        return np.geomspace(args.r_min, args.r_max, args.steps)
    return np.linspace(args.r_min, args.r_max, args.steps)


def _require_exact_basis(args, surface, modes_flag):
    """The exact spectrum is the unit sphere's: refuse it for any other
    surface, and refuse the options that only shape a --mesh basis."""
    if surface.name != "unit-sphere":
        raise UsageError(
            "the exact spectrum is the unit sphere's; surface %r needs a "
            "--mesh basis" % (args.surface,))
    for flag in (modes_flag, "--cache-dir"):
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise UsageError("%s applies only to --mesh runs" % flag)


def _resolve_basis(args, surface, field, r_max):
    """(basis, cache_hit_or_None).  Mesh FEM when --mesh, else exact."""
    if args.mesh:
        if args.modes is None:
            raise UsageError("--mesh runs need --modes")
        mesh = resolve_mesh(args.mesh)
        # the Weyl integral and the damping range come from the analytic
        # surface, so the mesh must discretize that surface
        off = np.max(np.abs(np.sum((mesh.vertices / surface.axes) ** 2,
                                   axis=-1) - 1.0))
        if off > MESH_SURFACE_TOL:
            raise UsageError(
                "mesh %r does not lie on surface %r: max |sum (x_i/a_i)^2 - 1|"
                " = %.3g over its vertices" % (args.mesh, args.surface, off))
        basis, hit = cached_mesh_spectrum(
            mesh, args.modes, tol=args.tol, directory=args.cache_dir,
            seed=args.seed)
        return basis, hit
    _require_exact_basis(args, surface, "--modes")
    degree = args.max_degree
    if degree is None:
        degree = auto_degree(surface, field, r_max, args.cut_factor)
    return exact_sphere_spectrum(degree), None


def _echo_config(args, keys):
    resolved = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key.replace("_", "-")] = value
    return resolved


def _basis_keys(args):
    """Echoed basis options; the solver tolerance is part of the FEM cache
    key, so --mesh runs echo it too."""
    keys = ("max_degree", "mesh", "modes", "seed")
    return keys + ("tol",) if args.mesh else keys


def _emit_json(document):
    print(json.dumps(document, sort_keys=True, indent=2,
                     ensure_ascii=False))


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_spectrum(args):
    surface = resolve_surface(args.surface)
    if args.mesh:
        if args.exact:
            raise UsageError("--exact selects the closed-form sphere "
                             "spectrum; it cannot be combined with --mesh")
        if args.count is None:
            raise UsageError("--mesh needs --count (number of modes)")
        mesh = resolve_mesh(args.mesh)
        basis, hit = cached_mesh_spectrum(
            mesh, args.count, tol=args.tol, directory=args.cache_dir,
            seed=args.seed)
        note = " (cache hit)" if hit else ""
        print("%d modes, top lambda = %.12g%s"
              % (basis.mode_count, basis.top, note))
        print("area = %.12g, trusted horizon = %.12g, worst residual = %.3g"
              % (basis.area, basis.trusted_horizon, basis.residual))
    else:
        _require_exact_basis(args, surface, "--count")
        basis = exact_sphere_spectrum(args.max_degree)
        print("%d modes, top lambda = %g" % (basis.mode_count, basis.top))
        print("area = %.12g, trusted horizon = %.12g"
              % (basis.area, basis.trusted_horizon))
    return EXIT_OK


def cmd_scan(args):
    surface = resolve_surface(args.surface)
    field = resolve_field(args.gamma, invert=args.invert)
    grid = _r_grid(args)
    basis, hit = _resolve_basis(args, surface, field, args.r_max)
    report = scan(surface, field, grid, basis,
                  cut_factor=args.cut_factor, zero_tol=args.zero_tol)
    config = _echo_config(args, (
        "surface", "gamma", "invert", "r_min", "r_max", "steps", "log",
        "cut_factor", "zero_tol") + _basis_keys(args))
    os.makedirs(args.output, exist_ok=True)
    csv_path = os.path.join(args.output, "report.csv")
    json_path = os.path.join(args.output, "report.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(report.to_csv())
    with open(json_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(report.to_json(config=config, version=__version__))
        handle.write("\n")
    if hit:
        print("spectrum cache hit")
    print("wrote %s" % csv_path)
    print("wrote %s" % json_path)
    print("coefficient: predicted %.12g, fitted %s"
          % (report.coefficient,
             "n/a" if report.fitted_coefficient is None
             else "%.12g" % report.fitted_coefficient))
    gates = report.gates()
    reasons = report.gate_reasons()
    print("gates: " + ", ".join(
        "%s=%s" % (name, "n/a (%s)" % reasons[name] if value is None
                   else "pass" if value else "FAIL")
        for name, value in sorted(gates.items())))
    if not report.passed():
        failing = sorted(name for name, ok in gates.items() if ok is False)
        print("gate failure: %s" % ", ".join(failing), file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def cmd_count(args):
    if args.r is None:
        raise UsageError("count needs a positive --r")
    surface = resolve_surface(args.surface)
    field = resolve_field(args.gamma, invert=args.invert)
    basis, _ = _resolve_basis(args, surface, field, args.r)
    op = build_operator(basis, field, 1.0 / args.r, surface=surface,
                        cut_factor=args.cut_factor)
    outcome = count_negative(op, zero_tol=args.zero_tol)
    _emit_json({
        "r": args.r,
        "N_scalar": outcome.negative,
        "N_system": 2 * outcome.negative,
        "borderline": outcome.borderline,
        "W": weyl_prediction(surface, field, args.r),
        "mode_cut": op.mode_cut,
        "config": _echo_config(args, (
            "surface", "gamma", "invert", "r", "cut_factor", "zero_tol")
            + _basis_keys(args)),
        "version": __version__,
    })
    return EXIT_OK


def cmd_weyl(args):
    surface = resolve_surface(args.surface)
    field = resolve_field(args.gamma, invert=args.invert)
    coefficient = weyl_coefficient(surface, field)
    document = {
        "coefficient": coefficient,
        "config": _echo_config(args, ("surface", "gamma", "invert", "r")),
        "version": __version__,
    }
    if args.r is not None:
        document["r"] = args.r
        document["W"] = coefficient * args.r ** 2
    _emit_json(document)
    return EXIT_OK


def cmd_verify_symbols(args):
    surface = resolve_surface(args.surface)
    suite = identity_suite(surface, samples=args.samples, seed=args.seed)
    residuals = suite["residuals"]
    failures = sorted(
        name for name, value in residuals.items()
        if not np.isfinite(value) or value >= RESIDUAL_GATE)
    _emit_json({
        "surface": args.surface,
        "samples": args.samples,
        "seed": args.seed,
        "residual_gate": RESIDUAL_GATE,
        "residuals": residuals,
        "failures": failures,
        "config": _echo_config(args, ("surface", "samples", "seed")),
        "version": __version__,
    })
    if failures:
        print("identity residual breach: %s" % ", ".join(failures),
              file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def _read_points(path):
    points = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise UsageError(
                    "%s:%d: expected 're im', got %r"
                    % (path, lineno, raw.rstrip("\n")))
            try:
                points.append(complex(float(parts[0]), float(parts[1])))
            except ValueError as err:
                raise UsageError(
                    "%s:%d: bad number in %r" % (path, lineno, line)) from err
    return points


def cmd_regions(args):
    if args.check is None and args.bound is None:
        raise UsageError("regions needs --check FILE and/or --bound GAMMA0")
    params = RegionParams(**{field.name: getattr(args, field.name)
                             for field in fields(RegionParams)})
    document = {
        "params": asdict(params),
        "version": __version__,
    }
    if args.bound is not None:
        document["bound"] = {"gamma0": args.bound,
                             "value": real_eigenvalue_bound(args.bound)}
    if args.check is not None:
        document["points"] = membership_report(_read_points(args.check),
                                               params)
    _emit_json(document)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

def _add_command(commands, name, handler, help):
    sub = commands.add_parser(name, help=help)
    sub.add_argument("--config",
                     help="flat key = value file of option defaults")
    sub.set_defaults(handler=handler, _parser=sub)
    return sub


def _add_surface(sub):
    sub.add_argument("--surface", default="unit-sphere",
                     help="unit-sphere or ellipsoid:A,B,C "
                          "(default %(default)s)")


def _add_field(sub):
    sub.add_argument("--gamma", default="2.0",
                     help="constant VALUE, affine:OFFSET,SLOPE,AXIS, "
                          "or table:PATH (default %(default)s)")
    sub.add_argument("--invert", action="store_true",
                     help="use the reciprocal (below-one) field 1/gamma")


def _add_basis(sub, modes_flag, max_degree=None):
    """Exact sphere or mesh FEM basis; the FEM mode count is modes_flag."""
    sub.add_argument("--max-degree", type=int, default=max_degree,
                     help="exact sphere basis degree (default %s)"
                          % ("auto" if max_degree is None else max_degree))
    sub.add_argument("--mesh", help="icosphere:LEVEL or an OFF file")
    sub.add_argument(modes_flag, type=int,
                     help="number of FEM modes for --mesh runs")
    sub.add_argument("--cache-dir", help="spectrum cache directory")
    sub.add_argument("--tol", type=float, default=SOLVER_TOL,
                     help="FEM residual tolerance (default %(default)s)")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="FEM solver seed, part of the cache key "
                          "(default %(default)s)")


def _add_counting(sub):
    sub.add_argument("--cut-factor", type=_positive, default=CUT_FACTOR,
                     help="mode-cut multiple of the ellipticity threshold "
                          "(default %(default)s)")
    sub.add_argument("--zero-tol", type=_nonnegative, default=ZERO_TOL,
                     help="borderline tolerance (default %(default)s)")


def build_parser():
    parser = _Parser(prog="weylcount",
                     description="Spectral counting laboratory for damped "
                                 "wave models on closed surfaces.")
    parser.add_argument("--version", action="version",
                        version="weylcount " + __version__)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    spectrum = _add_command(commands, "spectrum", cmd_spectrum,
                            "compute or load a spectral basis")
    _add_surface(spectrum)
    spectrum.add_argument("--exact", action="store_true",
                          help="require the closed-form sphere spectrum")
    _add_basis(spectrum, "--count", max_degree=10)

    scan_cmd = _add_command(commands, "scan", cmd_scan,
                            "count negative modes over an r grid")
    _add_surface(scan_cmd)
    _add_field(scan_cmd)
    _add_basis(scan_cmd, "--modes")
    _add_counting(scan_cmd)
    scan_cmd.add_argument("--r-min", type=_positive, default=5.0,
                          help="grid start (default %(default)s)")
    scan_cmd.add_argument("--r-max", type=_positive, default=20.0,
                          help="grid end (default %(default)s)")
    scan_cmd.add_argument("--steps", type=int, default=4,
                          help="grid size (default %(default)s)")
    scan_cmd.add_argument("--log", action="store_true",
                          help="geometric instead of linear r grid")
    scan_cmd.add_argument("--output", default=".",
                          help="report directory (default %(default)s)")

    count_cmd = _add_command(commands, "count", cmd_count,
                             "single-radius negative-mode count")
    _add_surface(count_cmd)
    _add_field(count_cmd)
    _add_basis(count_cmd, "--modes")
    _add_counting(count_cmd)
    count_cmd.add_argument("--r", type=_positive, help="count radius")

    weyl_cmd = _add_command(commands, "weyl", cmd_weyl,
                            "predicted quadratic growth coefficient")
    _add_surface(weyl_cmd)
    _add_field(weyl_cmd)
    weyl_cmd.add_argument("--r", type=_positive,
                          help="also report the prediction at this radius")

    verify = _add_command(commands, "verify-symbols", cmd_verify_symbols,
                          "run the symbol identity suite")
    _add_surface(verify)
    verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                        help="cotangent samples (default %(default)s)")
    verify.add_argument("--seed", type=int, default=SAMPLE_SEED,
                        help="sample seed (default %(default)s)")

    regions_cmd = _add_command(commands, "regions", cmd_regions,
                               "region membership and the real-axis bound")
    regions_cmd.add_argument("--check",
                             help="file of complex points, one 're im' "
                                  "pair per line")
    regions_cmd.add_argument("--bound", type=float,
                             help="report the |Re z| bound for this gamma0")
    for field in fields(RegionParams):
        regions_cmd.add_argument("--" + field.name.replace("_", "-"),
                                 type=field.type, default=field.default,
                                 help="region constant (default %(default)s)")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("no command given (see --help)")
        if args.config:
            # config values become defaults, so explicit flags still win
            args._parser.set_defaults(
                **_config_defaults(args._parser, args.config))
            args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    except _RESOURCE_ERRORS as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
