"""Benchmark of the weylcount CLI, driven from outside the program.

Usage, from the root of a checkout:

    python3 bench/run.py --workload axis-blocks --seed 1 --seconds 20 --trace 0

Each run starts a fresh workload process (``child.py``) with the BLAS and
OpenMP thread count fixed and address-space randomization off, in fresh
temporary cache and output directories that are removed afterwards.  The process imports ``weylcount.cli`` from the
checkout's ``src``, runs the workload's one-time set-up, then calls
``cli.main(argv)`` in a closed loop with a single client for ``--seconds``.
Every op is checked against an independent oracle; a failed op counts in
``fail_rate`` and does not stop the run.

With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics: ``op_s_p50``, ``op_s_tail``, ``setup_s`` (median over
several set-ups, each in its own process) and ``peak_rss_mb`` (over the
set-up and the first ops, see ``child.py``).  The three times are wall
seconds scaled to a nominal machine speed: each op time is multiplied by
CALIBRATION_NOMINAL_S over the median calibration time of the ops around
it, each set-up time by the same over the calibration time its process
measured right after it (see ``child.py``).  On a shared host the speed of
the same code drifts by tens of percent within seconds, and the scaling
removes most of that drift; the raw wall times are printed too.  With
``--trace 1`` it carries the per-layer metrics of a traced run instead (see
``tracing.py``) and the tracing overhead, as the ratio of the traced to
the untraced op-time median.  The lines before it name the inputs, the
environment, the tail percentile and sample count, and ``fail_rate``.

This file uses the standard library only.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
WORKLOADS = ("axis-blocks", "dense-gram", "fem-warm", "symbols")
# one BLAS thread: op times vary less than with two on a 2-vCPU host
BLAS_THREADS = 1
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
# a fixed scale, near the calibration's time on a quiet 2.1 GHz Xeon vCPU;
# only its ratio to a run's calibration time matters
CALIBRATION_NOMINAL_S = 0.007
# an op is scaled by the median of the calibrations timed before the
# CALIBRATION_REACH ops on each side of it, its own and the next one
CALIBRATION_REACH = 2
# personality(2) flag; see fixed_address_layout
ADDR_NO_RANDOMIZE = 0x0040000


def tail(durations):
    """(value, label): the highest percentile with at least TAIL_BEYOND
    samples above it, or the maximum when there are too few samples."""
    ordered = sorted(durations)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], "max"
    rank = count - TAIL_BEYOND
    return ordered[rank - 1], "p%.4g" % (100.0 * rank / count)


def environment():
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": str(threads),
        "OPENBLAS_NUM_THREADS": str(threads),
        "MKL_NUM_THREADS": str(threads),
        # a fixed glibc mmap threshold makes peak RSS repeat run to run;
        # the default adapts to earlier frees and flips it by ~8 MB
        "MALLOC_MMAP_THRESHOLD_": "131072",
        # numpy's huge-page advice on large arrays moves peak RSS by up to
        # ~10 MB from run to run
        "NUMPY_MADVISE_HUGEPAGE": "0",
    })
    return env, threads


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fixed_address_layout():
    """Turn address-space randomization off for this process and what it
    executes: with it on, the same ops reach a peak RSS that differs by up
    to ~10 MB from run to run.  Does nothing where personality(2) is not
    available."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def spawn(args, env, extra, timeout):
    """Run one workload process in a fresh work directory; its result."""
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        result_path = os.path.join(work, "result.json")
        command = [sys.executable, os.path.join(HERE, "child.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(args.trace), "--workdir", work,
                   "--result", result_path, *extra]
        spawned_at = time.perf_counter()
        process = subprocess.Popen(
            command + ["--spawned-at", repr(spawned_at)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=fixed_address_layout)
        try:
            out, err = process.communicate(timeout=timeout)
        except BaseException as exc:
            process.kill()
            process.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SystemExit("workload process timed out after %gs"
                                 % timeout) from exc
            raise
        if process.returncode != 0:
            sys.stderr.write(out + err)
            raise SystemExit("workload process exited %d"
                             % process.returncode)
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def at_nominal_speed(durations, calibration):
    """Op times scaled to the nominal speed by the calibrations around
    each op; ``calibration[i]`` was timed just before op ``i``."""
    scaled = []
    for i, duration in enumerate(durations):
        window = calibration[max(0, i - CALIBRATION_REACH):
                             i + CALIBRATION_REACH + 1]
        scaled.append(duration * CALIBRATION_NOMINAL_S
                      / statistics.median(window))
    return scaled


def end_to_end_metrics(p50, tail_value, setup, rss_mb):
    """The ``--trace 0`` metrics."""
    return {
        "op_s_p50": metric(p50, "s"),
        "op_s_tail": metric(tail_value, "s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def traced_metrics(layers, traced_p50, p50):
    """The ``--trace 1`` metrics: per-layer values and tracing overhead."""
    metrics = {name: metric(value, _unit(name))
               for name, value in sorted(layers.items())}
    metrics["trace.op_s_p50"] = metric(traced_p50, "s")
    # a ratio rather than a difference: on a noisy host the difference of
    # the two medians is often below zero
    metrics["trace.overhead_ratio"] = metric(traced_p50 / p50, "ratio")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    # on SIGTERM, unwind so the workload process is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    program = os.path.join(ROOT, "src", "weylcount", "cli.py")
    if not os.path.isfile(program):
        sys.stderr.write("no program to measure: %s is missing\n" % program)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env, threads = environment()

    setups = []
    extra = []
    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        extra = ["--trace-file", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args, env, ["--setup-only"],
                                SETUP_TIMEOUT_S))
    result = spawn(args, env, extra, CHILD_TIMEOUT_S)
    setups.append(result)

    durations = result["durations"]
    attempted = len(durations)
    failed = len(result["failures"])
    untraced = [d for d, t in zip(durations, result["traced"]) if not t]
    p50 = statistics.median(untraced)
    tail_value, tail_label = tail(untraced)

    info = dict(result["environment"], nproc=os.cpu_count(),
                blas_threads=threads, python=platform.python_version(),
                commit=git_commit())
    print("workload %s seed %d seconds %g trace %d, closed loop, 1 client"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("inputs %s" % json.dumps(result["inputs"], sort_keys=True))
    print("environment %s" % json.dumps(info, sort_keys=True))
    for failure in result["failures"][:5]:
        print("FAILED op %d: %s" % (failure["op"],
                                     "; ".join(failure["problems"])))

    if args.trace:
        traced = [d for d, t in zip(durations, result["traced"]) if t]
        traced_p50 = statistics.median(traced)
        metrics = traced_metrics(result["layers"], traced_p50, p50)
        print("traced ops %d, untraced ops %d, overhead %.6g s per op "
              "(traced p50 minus untraced p50)"
              % (len(traced), len(untraced), traced_p50 - p50))
        if result["missing"]:
            print("missing (reported as 0): %s"
                  % ", ".join(result["missing"]))
    else:
        scaled = at_nominal_speed(durations, result["calibration"])
        calibration = statistics.median(result["calibration"])
        setup = statistics.median(entry["setup_s"] for entry in setups)
        scaled_setup = statistics.median(
            entry["setup_s"] * CALIBRATION_NOMINAL_S
            / entry["setup_calibration"] for entry in setups)
        scaled_tail, _ = tail(scaled)
        metrics = end_to_end_metrics(statistics.median(scaled), scaled_tail,
                                     scaled_setup, result["peak_rss_mb"])
        print("op_s_tail is %s of ops=%d; setup_s is the median of %d "
              "set-ups" % (tail_label, len(untraced), len(setups)))
        print("times below are scaled to a calibration time of %g s "
              "(run median %.6g s); raw wall op_s_p50 %.6g s, op_s_tail "
              "%.6g s, setup_s %.6g s" % (CALIBRATION_NOMINAL_S, calibration,
                                          p50, tail_value, setup))
        print("peak_rss_mb is read after the first %d ops; over the whole "
              "run the peak was %.6g MB" % (result["rss_ops"],
                                            result["run_peak_rss_mb"]))
    for name, entry in metrics.items():
        print("%-40s %.6g %s" % (name, entry["value"], entry["unit"]))
    # always 0 when the program is right, so reported here and through
    # "failed"/"attempted" rather than as a metric with a relative bound
    print("%-40s %.6g ratio (%d of %d ops failed)"
          % ("fail_rate", failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
