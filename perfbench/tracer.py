"""Outside-in tracer for mapcalc.

``Tracer.install`` rebinds the traced public functions in every
``mapcalc.*`` namespace that holds them, because modules import each other's
functions by name (``from .manifolds import exp_points``) and patching the
defining module alone would miss those callers.  Each call records a span
``[name, start, end, parent]`` in memory; ``uninstall`` restores the
originals.  The program's code and outputs are untouched.

Spans assume one thread, which is why the benchmark pins
``MAPCALC_THREADS=1``.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import math
import os
import pkgutil
import sys
import time
from collections import Counter
from functools import wraps

import numpy as np

from metrics import PER_LAYER

# (module, function) -> span name
SPANNED = {
    ("manifolds", "fiber_derivative_points"): "manifolds.fiber_derivative",
    ("atlas", "sample_map"): "atlas.sample_map",
    ("atlas", "chart_jet"): "atlas.chart_jet",
    ("atlas", "map_sup_distance"): "atlas.map_sup_distance",
    ("atlas", "overlap_residual"): "atlas.overlap_residual",
    ("sections", "make_section"): "sections.make_section",
    ("sections", "section_from_formula"): "sections.section_from_formula",
    ("sections", "section_sup"): "sections.section_sup",
    ("sections", "section_max_diff"): "sections.section_max_diff",
    ("charts", "chart_forward"): "charts.chart_forward",
    ("charts", "chart_inverse"): "charts.chart_inverse",
    ("charts", "transition"): "charts.transition",
    ("charts", "transition_derivative"): "charts.transition_derivative",
    ("charts", "metric_transition"): "charts.metric_transition",
    ("charts", "metric_transition_fiber"): "charts.metric_transition_fiber",
    ("charts", "omega_apply"): "charts.omega",
    ("charts", "omega_derivative"): "charts.omega",
    ("charts", "taylor_remainder"): "charts.taylor_remainder",
    ("topology", "canonical_cover"): "topology.canonical_cover",
    ("topology", "ck_distance"): "topology.ck_distance",
    ("topology", "section_norm"): "topology.section_norm",
    ("topology", "nbhd_contains"): "topology.nbhd_contains",
    ("topology", "composition_bound_probe"): "topology.composition_bound_probe",
    ("energy", "dirichlet_energy"): "energy.dirichlet_energy",
    ("energy", "energy_gradient"): "energy.energy_gradient",
    ("energy", "loop_values"): "energy.loop_values",
    ("energy", "descend"): "energy.descend",
    ("io", "canonical_json"): "io.canonical_json",
    ("io", "write_trace_csv"): "io.write_trace_csv",
}

# Point-array geodesic functions, whose spans are named by target and which
# also count nodes: function -> (span prefix, names of the two array arguments)
GEODESIC = {
    "exp_points": ("manifolds.exp", "base", "vec"),
    "log_points": ("manifolds.log", "base", "target"),
    "dist_points": ("manifolds.dist", "a", "b"),
}


def target_class(m) -> str:
    if m.kind == "torus":
        return "torus"
    return "round" if m.conformal is None else "conformal"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _nodes(a, b) -> int:
    return math.prod(np.broadcast_shapes(np.shape(a), np.shape(b))[:-1])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, span, after=None):
        """Record a span per call; ``span`` is a name or ``(args, kwargs) -> name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(name, args, kwargs, result)
            return result

        return traced

    def _geodesic(self, fn, prefix, first, second):
        counts = self.counts

        def name_of(args, kwargs):
            return f"{prefix}.{target_class(_arg(args, kwargs, 0, 'm'))}"

        def after(name, args, kwargs, result):
            counts[f"{name}.nodes"] += _nodes(
                _arg(args, kwargs, 1, first), _arg(args, kwargs, 2, second)
            )

        return self._wrap(fn, name_of, after)

    def _descend(self, fn):
        counts, signature = self.counts, inspect.signature(fn)

        def after(name, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            rows = result[1].rows
            # a final row at or under grad_tol records the stop, not a step
            stopped = bool(rows) and rows[-1][2] <= bound.arguments["grad_tol"]
            iters = len(rows) - stopped
            counts["energy.descend.iters"] += iters
            counts["energy.descend.cap_hits"] += iters == bound.arguments["steps"]

        return self._wrap(fn, "energy.descend", after)

    def _io(self, fn, name):
        counts = self.counts

        def after(_, args, kwargs, result):
            if name == "io.canonical_json":
                counts["io.bytes_written"] += len(result.encode())
            else:
                counts["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

        return self._wrap(fn, name, after)

    def _build_suite(self, fn):
        def traced(*args, **kwargs):
            checks = fn(*args, **kwargs)
            for check in checks:
                check.thunk = self._wrap(check.thunk, f"cli.check.{check.name}")
            return checks

        return wraps(fn)(traced)

    def _conformal_call(self, fn):
        counts = self.counts

        def traced(factor, coords):
            counts["manifolds.conformal_eval.calls"] += 1
            counts["manifolds.conformal_eval.points"] += math.prod(coords.shape[:-1])
            return fn(factor, coords)

        return wraps(fn)(traced)

    # -- patching --------------------------------------------------------

    def _rebind_everywhere(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import mapcalc

        for info in pkgutil.iter_modules(mapcalc.__path__):
            importlib.import_module(f"mapcalc.{info.name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mapcalc" or n.startswith("mapcalc.")]
        pkg = sys.modules

        def original(module, fn):
            return getattr(pkg[f"mapcalc.{module}"], fn)

        for fn, names in GEODESIC.items():
            orig = original("manifolds", fn)
            self._rebind_everywhere(modules, orig, self._geodesic(orig, *names))
        for (module, fn), name in SPANNED.items():
            orig = original(module, fn)
            if name == "energy.descend":
                wrapper = self._descend(orig)
            elif name.startswith("io."):
                wrapper = self._io(orig, name)
            else:
                wrapper = self._wrap(orig, name)
            self._rebind_everywhere(modules, orig, wrapper)
        orig = original("cli", "build_suite")
        self._rebind_everywhere(modules, orig, self._build_suite(orig))

        factor = pkg["mapcalc.manifolds"].ConformalFactor
        orig = vars(factor)["__call__"]
        self._patches.append((factor, "__call__", orig))
        factor.__call__ = self._conformal_call(orig)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)

    def restored(self) -> bool:
        """Whether every rebound name holds its original object again."""
        return all(vars(owner)[attr] is orig for owner, attr, orig in self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric; layers never called read 0."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        values = Counter(self.counts)
        descends = trials = 0
        for i, (name, start, end, parent) in enumerate(spans):
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += end - start - covered[i]
            if name.startswith("cli.check."):
                values[f"{name}.s"] += end - start
            elif name == "energy.descend":
                descends += 1
            elif name == "energy.dirichlet_energy" and parent >= 0:
                trials += spans[parent][0] == "energy.descend"
        # each descent evaluates its starting energy once before any trial
        trials -= descends
        values["energy.descend.trials"] = trials
        values["energy.descend.accept_ratio"] = (
            values["energy.descend.iters"] / trials if trials else 0.0
        )
        values["trace.overhead_s"] = overhead_s
        return {
            name: float(values[name]) if unit == "s" else values[name]
            for name, unit, _ in PER_LAYER
        }

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent"])
            writer.writerows(self.spans)
