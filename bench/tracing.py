"""Spans around the library's layers, recorded from outside the program.

The traced run wraps public functions of the ``weylcount`` modules.  Each
wrapper records a span (name, start, end, parent, op) in memory; the spans
are written out when the run ends.  A layer's self time is its span's
duration minus the time covered by its child spans.

Binding sites are found by searching every loaded ``weylcount`` module for
the traced name, so a function is patched wherever it is looked up: under
its own module, and under every module that imported it by name (for
example ``semiclassical_count.axis_moment_blocks`` and the names ``cli``
imports from ``semiclassical_count``).  A name that no module defines any
more is reported missing instead of failing the run.
"""

import functools
import inspect
import json
import os
import statistics
import sys
import time

# traced name -> the per-layer metric charged with its self time.
# ``Class.method`` names are patched on the class that defines them.
TRACED = {
    "main": "cli.self_s",
    "exact_sphere_spectrum": "lb_spectrum.exact_s",
    "_tabulate_sphere_modes": "lb_spectrum.tabulate_s",
    "axis_moment_blocks": "lb_spectrum.moments_s",
    "assemble_fem": "lb_spectrum.fem_assemble_s",
    "solve_lowest": "lb_spectrum.fem_solve_s",
    "cache_store": "lb_spectrum.cache_store_s",
    "cache_load": "lb_spectrum.cache_load_s",
    # its own work is the cache key and lookup around cache_load
    "cached_mesh_spectrum": "lb_spectrum.cache_load_s",
    "scan": "semiclassical_count.scan_s",
    "build_operator": "semiclassical_count.assemble_s",
    "count_negative": "semiclassical_count.count_s",
    "weyl_coefficient": "semiclassical_count.weyl_s",
    "weyl_prediction": "semiclassical_count.weyl_s",
    "CountReport.to_csv": "semiclassical_count.report_s",
    "CountReport.to_json": "semiclassical_count.report_s",
    "identity_suite": "symbol_algebra.suite_s",
    "random_samples": "symbol_algebra.sampling_s",
    "transport_principal": "symbol_algebra.transport_s",
    "transfer_sample": "symbol_algebra.transfer_s",
    "icosphere": "surface.mesh_build_s",
    "SurfaceMesh.content_hash": "surface.mesh_build_s",
    "DampingField.effective": "surface.field_eval_s",
}

# build and count calls of the truncation recount (enlarged cut_factor)
RECOUNT_METRIC = "semiclassical_count.recount_s"

# counters, each with the traced names it is read from
COUNTERS = {
    "semiclassical_count.modes_counted": ("build_operator",),
    "semiclassical_count.calls": ("count_negative",),
    "symbol_algebra.samples": ("identity_suite",),
    "lb_spectrum.cache_hit_ratio": ("cached_mesh_spectrum",),
    "lb_spectrum.cache_bytes": ("cache_store",),
}

# layers that run in the workload's one-time set-up; reported for the
# traced set-up rather than per op
SETUP_METRICS = (
    "lb_spectrum.fem_assemble_s",
    "lb_spectrum.fem_solve_s",
    "lb_spectrum.cache_store_s",
    "lb_spectrum.cache_bytes",
)

TIME_METRICS = tuple(sorted(set(TRACED.values()) | {RECOUNT_METRIC}))
LAYER_METRICS = tuple(sorted(set(TIME_METRICS) | set(COUNTERS)))


class Span:
    __slots__ = ("index", "name", "parent", "op", "start", "end", "attrs")

    def __init__(self, index, name, parent, op):
        self.index = index
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.attrs = None

    def as_dict(self):
        return {"index": self.index, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end,
                "attrs": self.attrs}


def _note_build(signature, args, kwargs, result):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    cut_factor = bound.arguments.get("cut_factor")
    return {"cut_factor": cut_factor,
            "mode_cut": int(getattr(result, "mode_cut", 0))}


def _note_cached(signature, args, kwargs, result):
    return {"hit": bool(result[1])}


def _note_store(signature, args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _note_suite(signature, args, kwargs, result):
    return {"samples": int(result["samples"])}


_NOTES = {
    "build_operator": _note_build,
    "cached_mesh_spectrum": _note_cached,
    "cache_store": _note_store,
    "identity_suite": _note_suite,
}


def _package_modules(package):
    prefix = package + "."
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == package
                                       or name.startswith(prefix))]


def _binding_sites(modules, name):
    """[(owner, attribute, function)] for every binding of ``name``."""
    sites = []
    if "." in name:
        class_name, method = name.split(".", 1)
        seen = set()
        for module in modules:
            cls = getattr(module, class_name, None)
            if not inspect.isclass(cls) or id(cls) in seen:
                continue
            seen.add(id(cls))
            function = cls.__dict__.get(method)
            if inspect.isfunction(function):
                sites.append((cls, method, function))
        return sites
    for module in modules:
        function = module.__dict__.get(name)
        if inspect.isfunction(function):
            sites.append((module, name, function))
    return sites


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._wrappers = {}
        self._patched = []
        modules = _package_modules("weylcount")
        self.found = {name: _binding_sites(modules, name) for name in TRACED}

    def missing_metrics(self):
        """Metrics none of whose traced names exists in the program."""
        present = {name for name, sites in self.found.items() if sites}
        sources = {}
        for name, metric in TRACED.items():
            sources.setdefault(metric, set()).add(name)
        sources[RECOUNT_METRIC] = {"build_operator", "count_negative"}
        for metric, names in COUNTERS.items():
            sources[metric] = set(names)
        return sorted(metric for metric, names in sources.items()
                      if not names & present)

    def _wrap(self, name, function):
        tracer = self
        note = _NOTES.get(name)
        signature = inspect.signature(function) if note else None

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), name,
                        stack[-1].index if stack else None, tracer.op)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.attrs = note(signature, args, kwargs, result)
            return result

        return traced

    def install(self, op):
        """Patch every binding site; spans recorded from now carry ``op``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.op = op
        for name, sites in self.found.items():
            for owner, attribute, function in sites:
                key = id(function)
                if key not in self._wrappers:
                    self._wrappers[key] = self._wrap(name, function)
                setattr(owner, attribute, self._wrappers[key])
                self._patched.append((owner, attribute, function))

    def uninstall(self):
        for owner, attribute, function in reversed(self._patched):
            setattr(owner, attribute, function)
        self._patched = []
        self.op = None

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


def _sweeps(spans):
    """index -> True for build/count spans of the truncation recount.

    Among the build_operator calls under one parent, those with a cut_factor
    above the smallest one form the recount; a count_negative call belongs
    to the sweep of the build_operator call before it.
    """
    by_parent = {}
    for span in spans:
        if span.name in ("build_operator", "count_negative"):
            by_parent.setdefault((span.op, span.parent), []).append(span)
    recount = {}
    for siblings in by_parent.values():
        siblings.sort(key=lambda s: s.start)
        cuts = [s.attrs["cut_factor"] for s in siblings
                if s.name == "build_operator" and s.attrs
                and s.attrs["cut_factor"] is not None]
        primary_cut = min(cuts) if cuts else None
        current = False
        for span in siblings:
            if span.name == "build_operator" and span.attrs \
                    and primary_cut is not None:
                current = span.attrs["cut_factor"] > primary_cut
            recount[span.index] = current
    return recount


def _empty_row():
    row = dict.fromkeys(LAYER_METRICS, 0.0)
    row.update(_root_s=0.0, _cache_calls=0, _cache_hits=0)
    return row


def layer_values(spans):
    """{op: {metric: value}}: per-layer self times and counters per op.

    The self times of one op partition the duration of its root spans, so
    they add up to the traced op time.
    """
    covered = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = (covered.get(span.parent, 0.0)
                                    + span.end - span.start)
    recount = _sweeps(spans)
    per_op = {}
    for span in spans:
        values = per_op.get(span.op)
        if values is None:
            values = per_op[span.op] = _empty_row()
        own = span.end - span.start - covered.get(span.index, 0.0)
        metric = RECOUNT_METRIC if recount.get(span.index) \
            else TRACED[span.name]
        values[metric] += own
        if span.parent is None:
            values["_root_s"] += span.end - span.start
        attrs = span.attrs or {}
        if span.name == "build_operator" and not recount.get(span.index):
            values["semiclassical_count.modes_counted"] += attrs["mode_cut"]
        elif span.name == "count_negative":
            values["semiclassical_count.calls"] += 1
        elif span.name == "identity_suite":
            values["symbol_algebra.samples"] += attrs["samples"]
        elif span.name == "cache_store":
            values["lb_spectrum.cache_bytes"] += attrs["bytes"]
        elif span.name == "cached_mesh_spectrum":
            values["_cache_calls"] += 1
            values["_cache_hits"] += attrs["hit"]
    return per_op


def summarize(spans, ops, setup="setup"):
    """Per-layer metrics of a traced run.

    Per-op metrics are medians over the traced ``ops``; the set-up layers
    in SETUP_METRICS come from the traced set-up.  The cache hit ratio
    pools every traced op (0 when no op looked the cache up).
    """
    per_op = layer_values(spans)
    rows = [per_op.get(op) or _empty_row() for op in ops]
    result = {}
    for metric in LAYER_METRICS:
        if metric in SETUP_METRICS:
            result[metric] = (per_op.get(setup) or _empty_row())[metric]
        elif metric == "lb_spectrum.cache_hit_ratio":
            calls = sum(row["_cache_calls"] for row in rows)
            hits = sum(row["_cache_hits"] for row in rows)
            result[metric] = hits / calls if calls else 0.0
        else:
            result[metric] = statistics.median(row[metric] for row in rows) \
                if rows else 0.0
    return result
