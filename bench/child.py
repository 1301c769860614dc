"""One workload process: set-up, a closed loop of ops, then oracle checks.

Started by ``run.py`` with the BLAS thread count fixed in its environment
and ``weylcount`` importable from the checkout's ``src``.  A single client
runs the ops: the next op starts when the previous one returns.  Each op's
outputs are read outside its timed interval; the oracle expectations are
computed after the measuring window, so neither the set-up time nor the op
times include them.  The result goes to a JSON file for ``run.py``.

Before every op, outside its timed interval, the process also times a
fixed calibration snippet, and it times the snippet a few times right after
its set-up; ``run.py`` uses these calibration times to express op and
set-up times at a nominal machine speed.

With ``--trace 1`` the set-up and every second op run with span-recording
wrappers installed; the other ops run untraced, so the two op-time medians
of one run give the tracing overhead.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_CALIBRATIONS = 5
# peak RSS is read after this many ops, so that it covers the same work on
# every run: later ops grow the heap in steps of a few MB, and how many ops
# a run holds depends on the host's speed
RSS_OPS = 8


def peak_rss_mb():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kibibytes on Linux, bytes on macOS
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


def calibrate(np, matrix):
    """Seconds taken by a fixed mix of interpreter loops, small-array calls
    and LAPACK eigensolves, the kinds of work the workloads do."""
    began = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    for _ in range(9):
        np.linalg.eigvalsh(matrix)
    [float(np.dot(row, row)) for row in matrix]
    return time.perf_counter() - began


def library_versions():
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = "%s %s" % (info.get("name"), info.get("version"))
    except (TypeError, KeyError):
        pass
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def load_reference():
    with open(os.path.join(os.path.dirname(__file__), "reference.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() of the parent at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    return parser.parse_args(argv)


def pin_to_one_cpu():
    """Pin this process to the last CPU it may use; returns that CPU.

    One CPU keeps an op from migrating between CPUs; the last one is chosen
    because CPU 0 usually takes more of the kernel's housekeeping.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None):
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    import numpy as np
    import weylcount
    import workloads
    from tracing import Tracer, summarize

    source = os.path.join(ROOT, "src", "weylcount")
    if os.path.dirname(os.path.abspath(weylcount.__file__)) != source:
        raise SystemExit("weylcount imported from %s, not from %s"
                         % (weylcount.__file__, source))
    workload = workloads.WORKLOADS[args.workload]
    params = workload.inputs(args.seed)
    work = args.workdir
    tracer = Tracer() if args.trace else None

    if tracer:
        tracer.install("setup")
    try:
        workload.setup(params, work)
    finally:
        if tracer:
            tracer.uninstall()
    result = {"workload": workload.name, "seed": args.seed, "inputs": params,
              "setup_s": time.perf_counter() - args.spawned_at}
    matrix = np.random.default_rng(0).standard_normal((120, 120))
    # the host's speed just after the set-up, to scale the set-up time by
    result["setup_calibration"] = statistics.median(
        calibrate(np, matrix) for _ in range(SETUP_CALIBRATIONS))
    if args.setup_only:
        _write(args.result, result)
        return 0

    durations, traced, observations, calibration = [], [], [], []
    start = None
    # RSS_OPS ops at least, which also gives a traced run both kinds of op
    while len(durations) < RSS_OPS \
            or time.perf_counter() - start < args.seconds:
        argvs = workload.ops(params, work)
        calibration.append(calibrate(np, matrix))
        is_traced = tracer is not None and len(durations) % 2 == 1
        if is_traced:
            tracer.install(len(durations))
        began = time.perf_counter()
        if start is None:
            start = began
        outputs = [workloads.call_main(op) for op in argvs]
        elapsed = time.perf_counter() - began
        if is_traced:
            tracer.uninstall()
        durations.append(elapsed)
        traced.append(is_traced)
        observations.append(workload.observe(params, work, outputs))
        if len(durations) == RSS_OPS:
            result["peak_rss_mb"] = peak_rss_mb()
    result.update(run_peak_rss_mb=peak_rss_mb(), rss_ops=RSS_OPS)

    # an oracle that cannot be computed fails every op it should check
    reference = load_reference()
    try:
        expected = workload.oracle(params, work)
    except Exception as exc:  # noqa: BLE001 - reported per op below
        expected, drift = None, ["oracle failed: %s" % exc]
    else:
        recorded = reference["expected"][workload.name]
        drift = []
        if args.seed == reference["seed"] and expected != recorded:
            drift = ["oracle disagrees with the recorded reference: %r != %r"
                     % (expected, recorded)]
    failures = []
    for index, observed in enumerate(observations):
        problems = drift or workload.check(params, observed, expected)
        if problems:
            failures.append({"op": index, "problems": problems[:5]})

    result.update(durations=durations, traced=traced, failures=failures,
                  calibration=calibration,
                  environment=dict(library_versions(), cpu=cpu))
    if tracer:
        ops = [i for i, flag in enumerate(traced) if flag]
        result["layers"] = summarize(tracer.spans, ops)
        result["missing"] = tracer.missing_metrics()
        if args.trace_file:
            tracer.write(args.trace_file, {
                "workload": workload.name, "seed": args.seed,
                "inputs": params, "traced_ops": ops,
                "missing": result["missing"]})
    _write(args.result, result)
    return 0


def _write(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
