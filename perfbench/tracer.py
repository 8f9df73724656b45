"""Per-layer tracing from outside the program.

The tracer replaces public gainquad functions with timing wrappers in
every gainquad module namespace that binds them (``gainquad.search.
canonical_form`` as well as ``gainquad.iso.canonical_form``), and wraps
a few methods at class level (``GainGraph.__init__``, ``GF.mul``).
Calls made inside the program therefore pass through the wrappers and
spans nest.  Nothing under ``src/`` is edited; ``uninstall`` puts the
original objects back.

A span's self time is its duration minus the time covered by its child
spans.  Hot functions, called once per scanned assignment, are only
aggregated; every other call is kept as a span record in memory and
written out when the run ends.  Counted methods get a counter and no
timing, because a clock read would cost as much as the method.
"""

import os
import time
import tracemalloc
from collections import Counter, defaultdict

# (module, attribute, span name); every binding of the function object
# in any gainquad module is replaced.
TIMED = [
    ("cli", "main", "cli.main"),
    ("search", "run_search", "search.run_search"),
    ("iso", "canonical_form", "iso.canonical_form"),
    ("iso", "are_isomorphic", "iso.are_isomorphic"),
    ("construction", "expand", "construction.expand"),
    ("construction", "gq_criterion", "construction.gq_criterion"),
    ("construction", "bijective_pair_count", "construction.bijective_pair_count"),
    ("geometry", "is_linear_space", "geometry.is_linear_space"),
    ("geometry", "is_generalized_ngon", "geometry.is_generalized_ngon"),
    ("catalog", "symplectic_quadrangle", "catalog.symplectic_quadrangle"),
    ("catalog", "payne_derivation", "catalog.payne_derivation"),
    ("catalog", "affine_plane", "catalog.affine_plane"),
    ("catalog", "affine_gains", "catalog.affine_gains"),
]
# (module, class, method, span name)
TIMED_METHODS = [("gains", "GainGraph", "__init__", "gains.gain_graph")]
COUNTED = [("construction", "detour_gains", "construction.detour_gains")]
COUNTED_METHODS = [
    ("groups", "CyclicGroup", "compose", "groups.compose"),
    ("groups", "CyclicGroup", "act", "groups.act"),
    ("groups", "AdditiveGroup", "compose", "groups.compose"),
    ("groups", "AdditiveGroup", "act", "groups.act"),
    ("fields", "GF", "mul", "fields.mul"),
    ("fields", "GF", "inv", "fields.inv"),
]
HOT = {"construction.gq_criterion", "construction.bijective_pair_count",
       "geometry.is_linear_space", "gains.gain_graph"}
# Allocation peaks are taken around these calls when no search is open
# (inside a scan they run ten thousand times on tiny inputs).
ALLOC = {"construction.gq_criterion": "construction.criterion_peak_alloc_mb",
         "geometry.is_generalized_ngon": "geometry.ngon_peak_alloc_mb"}
# chain_census holds these dense n x n arrays at once: the adjacency
# matrix, the walk counts and their next power (float64), the counts
# (int64), the distances (int32) and the newly-reached mask (bool).
CENSUS_BYTES_PER_CELL = 8 + 8 + 8 + 8 + 4 + 1

MB = 1024 * 1024

# (metric, unit, better) of the traced run, in report order.
PER_LAYER = [
    ("iso.canonical_form_s", "s", "lower"),
    ("iso.canonical_form_calls", "count", "lower"),
    ("iso.are_isomorphic_s", "s", "lower"),
    ("iso.are_isomorphic_calls", "count", "lower"),
    ("search.run_search_s", "s", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.scanned", "count", "higher"),
    ("search.survivors", "count", "higher"),
    ("search.classes", "count", "higher"),
    ("search.canon_useful_ratio", "ratio", "higher"),
    ("construction.bijective_pair_count_s", "s", "lower"),
    ("construction.detour_gains_calls", "count", "lower"),
    ("construction.gq_criterion_s", "s", "lower"),
    ("construction.gq_criterion_calls", "count", "lower"),
    ("construction.criterion_peak_alloc_mb", "MB", "lower"),
    ("construction.expand_s", "s", "lower"),
    ("construction.expand_calls", "count", "lower"),
    ("gains.gain_graph_s", "s", "lower"),
    ("gains.gain_graph_calls", "count", "lower"),
    ("groups.compose_calls", "count", "lower"),
    ("groups.act_calls", "count", "lower"),
    ("geometry.is_linear_space_s", "s", "lower"),
    ("geometry.is_linear_space_calls", "count", "lower"),
    ("geometry.is_generalized_ngon_s", "s", "lower"),
    ("geometry.ngon_peak_alloc_mb", "MB", "lower"),
    ("geometry.census_bytes_computed", "bytes", "lower"),
    ("fields.mul_calls", "count", "lower"),
    ("fields.inv_calls", "count", "lower"),
    ("catalog.symplectic_quadrangle_s", "s", "lower"),
    ("catalog.payne_derivation_s", "s", "lower"),
    ("catalog.affine_plane_s", "s", "lower"),
    ("catalog.affine_gains_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.json_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _snapshot(directory):
    return {e.path: (e.stat().st_size, e.stat().st_mtime_ns)
            for e in os.scandir(directory) if e.is_file()}


class Tracer:
    """Spans and counters for one run.  With alloc=True the tracer also
    takes tracemalloc peaks around the ALLOC calls; its timings are then
    inflated and only the peaks are meant to be read."""

    def __init__(self, gq, out_dir, alloc=False):
        self.gq = gq
        self.out_dir = out_dir
        self.alloc = alloc
        self.stack = []  # open frames: [name, start, child seconds, span id]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()  # counters fed by hooks, e.g. search.scanned
        self.peaks = Counter()
        self.spans = []
        self.request = None  # label of the op being run; spans carry it
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for m in vars(self.gq).values()]
        for mod, attr, name in TIMED:
            orig = getattr(getattr(self.gq, mod), attr)
            self._rebind(modules, orig, self._timed(name, orig))
        for mod, attr, name in COUNTED:
            orig = getattr(getattr(self.gq, mod), attr)
            self._rebind(modules, orig, self._counted(name, orig))
        for mod, cls, attr, name in TIMED_METHODS:
            self._patch(getattr(getattr(self.gq, mod), cls), attr, name, self._timed)
        for mod, cls, attr, name in COUNTED_METHODS:
            self._patch(getattr(getattr(self.gq, mod), cls), attr, name, self._counted)
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _rebind(self, modules, orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _patch(self, cls, attr, name, make):
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, make(name, orig))

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        keep = name not in HOT
        alloc_metric = ALLOC.get(name) if self.alloc else None
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            state = self._before(name, args)
            measure = (alloc_metric is not None and not self._in_search()
                       and not tracemalloc.is_tracing())
            if measure:
                tracemalloc.start()
            frame = [name, clock(), 0.0, None]
            if keep:
                frame[3] = len(self.spans)
                self.spans.append(None)  # reserved, filled in on exit
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[alloc_metric] = max(self.peaks[alloc_metric], peak / MB)
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[2]
                if keep:
                    parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                    self.spans[frame[3]] = {
                        "id": frame[3], "parent": parent, "name": name,
                        "request": self.request, "start": frame[1], "end": end,
                        "self": duration - frame[2]}
                self._after(name, state, args, result)

        return wrapper

    def _in_search(self):
        return any(f[0] == "search.run_search" for f in self.stack)

    # -- counters measured where the work happens -----------------------------

    def _before(self, name, args):
        if name == "cli.main":
            return _file_bytes(args[0]), _snapshot(self.out_dir)
        if name == "iso.canonical_form" and self._in_search():
            self.counts["search.canon_calls"] += 1
        if name in ALLOC and not self._in_search():
            self.counts["alloc.outside_search"] += 1
        if name == "geometry.is_generalized_ngon":
            n = args[0].n_elements
            self.counts["geometry.census_bytes_computed"] += CENSUS_BYTES_PER_CELL * n * n
        return None

    def _after(self, name, state, args, result):
        if name == "cli.main":
            read, before = state
            written = sum(size for path, (size, mtime) in _snapshot(self.out_dir).items()
                          if before.get(path) != (size, mtime))
            self.counts["cli.json_bytes"] += read + written
        elif name == "search.run_search" and result is not None:
            self.counts["search.scanned"] += result.scanned
            self.counts["search.survivors"] += result.gq_count
            self.counts["search.classes"] += len(result.certificates)

    # -- results --------------------------------------------------------------

    def metrics(self, passes, overhead_s, peaks):
        """Per-pass means of every PER_LAYER metric."""
        per = 1.0 / passes
        values = {}
        for name in ("iso.canonical_form", "iso.are_isomorphic",
                     "construction.gq_criterion", "construction.expand",
                     "gains.gain_graph", "geometry.is_linear_space"):
            values[f"{name}_s"] = self.total[name] * per
            values[f"{name}_calls"] = self.calls[name] * per
        for name in ("construction.bijective_pair_count",
                     "geometry.is_generalized_ngon", "search.run_search",
                     "catalog.symplectic_quadrangle", "catalog.payne_derivation",
                     "catalog.affine_plane", "catalog.affine_gains"):
            values[f"{name}_s"] = self.total[name] * per
        values["search.self_s"] = self.self_time["search.run_search"] * per
        values["cli.self_s"] = self.self_time["cli.main"] * per
        for name in ("construction.detour_gains", "groups.compose", "groups.act",
                     "fields.mul", "fields.inv"):
            values[f"{name}_calls"] = self.calls[name] * per
        for name in ("search.scanned", "search.survivors", "search.classes",
                     "geometry.census_bytes_computed", "cli.json_bytes"):
            values[name] = self.counts[name] * per
        canon = self.counts["search.canon_calls"]
        values["search.canon_useful_ratio"] = (
            self.counts["search.classes"] / canon if canon else 0.0)
        for metric in ALLOC.values():
            values[metric] = peaks.get(metric, 0.0)
        values["trace.overhead_s"] = overhead_s
        return {m: {"value": values[m], "unit": unit} for m, unit, _ in PER_LAYER}

    def needs_alloc_probe(self):
        """Whether some ALLOC call ran outside a search in the traced passes."""
        return self.counts["alloc.outside_search"] > 0
