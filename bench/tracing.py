"""Traced runs: spans at bclab's layer boundaries, recorded from outside.

The tracer wraps, while installed,

* public functions, at every module-level name they are bound to in the
  bclab package (so `bclab.solver.check_hyperbolicity`, the name the solver
  calls, is wrapped along with `bclab.check_hyperbolicity`);
* public methods: `Expr.evaluate` (outermost call only; nested node calls
  are counted), `MetricField.eval_g`, `SampledCoefficients.at`/`zeroth_at`;
* the scipy names `bclab.goursat` imports for fan resampling, by subclasses
  that time construction and evaluation.

Nothing under src/ changes.  A span records name, layer, start, end, parent
span and iteration; self time is a span's length minus its children's.
"""

import collections
import inspect
import statistics
import time

import bclab
import bclab.dn
import bclab.expr
import bclab.geometry
import bclab.goursat
import bclab.solver

_MODULES = (bclab, bclab.expr, bclab.geometry, bclab.solver, bclab.goursat, bclab.dn)
_INTERP_NAMES = ("Delaunay", "CloughTocher2DInterpolator", "RectBivariateSpline", "CubicSpline")

# (layer, function) pairs wrapped wherever the package binds them
_FUNCTIONS = (
    ("geometry", bclab.geometry.check_hyperbolicity),
    ("geometry", bclab.geometry.max_characteristic_speed),
    ("solver", bclab.solver.solve_ibvp),
    ("goursat", bclab.goursat.find_chart_depth),
    ("goursat", bclab.goursat.solve_eikonal),
    ("goursat", bclab.goursat.solve_transport_phi),
    ("goursat", bclab.goursat.build_chart),
    ("goursat", bclab.goursat.transform_operator),
    ("goursat", bclab.goursat.solve_transformed_ibvp),
    ("dn", bclab.dn.dn_trace),
    ("dn", bclab.dn.transform_dn),
    ("dn", bclab.dn.probe_symbol),
)

# span fields
NAME, LAYER, START, END, PARENT, ITERATION, CHILD = range(7)

PER_LAYER_UNITS = {
    "expr.eval_s": "s",
    "expr.eval_calls": "count",
    "expr.eval_nodes": "count",
    "geometry.check_hyperbolicity_s": "s",
    "geometry.max_characteristic_speed_s": "s",
    "geometry.preflight_calls": "count",
    "geometry.eval_g_s": "s",
    "geometry.eval_g_calls": "count",
    "geometry.self_s": "s",
    "solver.solve_self_s": "s",
    "solver.steps": "count",
    "solver.coeff_s": "s",
    "solver.sweeps_per_step": "1",
    "solver.self_s": "s",
    "goursat.find_chart_depth_s": "s",
    "goursat.eikonal_calls": "count",
    "goursat.fold_refusals": "count",
    "goursat.eikonal_useful_frac": "1",
    "goursat.solve_eikonal_s": "s",
    "goursat.interp_s": "s",
    "goursat.triangulations": "count",
    "goursat.solve_transport_phi_s": "s",
    "goursat.build_chart_s": "s",
    "goursat.transform_operator_s": "s",
    "goursat.solve_transformed_ibvp_s": "s",
    "goursat.self_s": "s",
    "dn.dn_trace_s": "s",
    "dn.transform_dn_s": "s",
    "dn.probe_self_s": "s",
    "dn.pipeline_calls": "count",
    "dn.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []
        self.iteration = -1
        self._stack = []
        self._patches = []
        self._in_expr = False

    # -- recording ---------------------------------------------------------
    def begin_iteration(self):
        self.iteration += 1
        self.counts.append(collections.Counter())

    def span(self, name, layer, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, time.perf_counter(), 0.0, parent, self.iteration, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][CHILD] += rec[END] - rec[START]

    def count(self, name, amount=1):
        self.counts[-1][name] += amount

    # -- installation --------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, fn in _FUNCTIONS:
            wrapper = self._wrap_function(layer, fn)
            for module in _MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)
        self._wrap_methods()
        for attr in _INTERP_NAMES:
            self._set(bclab.goursat, attr, self._traced_class(getattr(bclab.goursat, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _wrap_function(self, layer, fn):
        tracer = self
        name = f"{layer}.{fn.__name__}"
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            # compare names: while installed, the module attributes are wrappers
            if name == "solver.solve_ibvp":
                bound = signature.bind(*args, **kwargs)
                steps = bound.arguments["grid"].nt - 2
                tracer.count("solver.steps", steps)
                if isinstance(bound.arguments.get("provider"), bclab.SampledCoefficients):
                    tracer.count("solver.sampled_steps", steps)
            elif name == "goursat.solve_eikonal" and tracer._inside("goursat.find_chart_depth"):
                tracer.count("goursat.eikonal_calls")
                try:
                    result = tracer.span(name, layer, fn, *args, **kwargs)
                except bclab.CharacteristicCrossing:
                    tracer.count("goursat.fold_refusals")
                    raise
                tracer.count("goursat.eikonal_completed")
                return result
            elif name == "dn.probe_symbol":
                pipeline = args[0]

                def traced_pipeline(face_data):
                    tracer.count("dn.pipeline_calls")
                    return tracer.span("bench.pipeline", "bench", pipeline, face_data)

                args = (traced_pipeline,) + args[1:]
            elif name in ("geometry.check_hyperbolicity", "geometry.max_characteristic_speed"):
                tracer.count("geometry.preflight_calls")
            return tracer.span(name, layer, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _inside(self, name) -> bool:
        return any(self.spans[i][NAME] == name for i in self._stack)

    def _wrap_methods(self):
        tracer = self
        for cls in vars(bclab.expr).values():
            if isinstance(cls, type) and issubclass(cls, bclab.Expr) and "evaluate" in vars(cls):
                self._set(cls, "evaluate", self._wrap_evaluate(cls.evaluate))

        def method(layer, name, orig):
            def traced(obj, *args, **kwargs):
                tracer.count(name + "_calls")
                return tracer.span(name, layer, orig, obj, *args, **kwargs)
            return traced

        self._set(bclab.MetricField, "eval_g",
                  method("geometry", "geometry.eval_g", bclab.MetricField.eval_g))
        self._set(bclab.SampledCoefficients, "at",
                  method("solver", "solver.coeff_at", bclab.SampledCoefficients.at))
        self._set(bclab.SampledCoefficients, "zeroth_at",
                  method("solver", "solver.coeff_zeroth_at", bclab.SampledCoefficients.zeroth_at))

    def _wrap_evaluate(self, orig):
        tracer = self

        def evaluate(node, env):
            tracer.count("expr.eval_nodes")
            if tracer._in_expr:
                return orig(node, env)
            tracer._in_expr = True
            try:
                tracer.count("expr.eval_calls")
                return tracer.span("expr.evaluate", "expr", orig, node, env)
            finally:
                tracer._in_expr = False

        return evaluate

    def _traced_class(self, cls):
        tracer = self
        name = f"goursat.{cls.__name__}"
        attrs = {}

        def init(obj, *args, **kwargs):
            if cls.__name__ == "Delaunay":
                tracer.count("goursat.triangulations")
            tracer.span(name, "interp", cls.__init__, obj, *args, **kwargs)

        attrs["__init__"] = init
        for attr in ("__call__", "ev"):
            if any(attr in vars(base) for base in cls.__mro__[:-1]):
                attrs[attr] = self._wrap_interp_method(name, getattr(cls, attr))
        return type(cls.__name__, (cls,), attrs)

    def _wrap_interp_method(self, name, orig):
        tracer = self

        def traced(obj, *args, **kwargs):
            return tracer.span(name, "interp", orig, obj, *args, **kwargs)

        return traced

    # -- reduction -----------------------------------------------------------
    def iteration_metrics(self, iteration: int) -> dict:
        """Per-layer metrics of one traced iteration."""
        spans = [s for s in self.spans if s[ITERATION] == iteration]
        counts = self.counts[iteration]
        by_name = collections.defaultdict(list)
        layer_self = collections.Counter()
        for s in spans:
            by_name[s[NAME]].append(s)
            layer_self[s[LAYER]] += s[END] - s[START] - s[CHILD]

        def total(name, self_time=False, outside=None):
            out = 0.0
            for s in by_name[name]:
                if outside is not None and self._has_ancestor(s, outside):
                    continue
                out += s[END] - s[START] - (s[CHILD] if self_time else 0.0)
            return out

        attempted = counts["goursat.eikonal_calls"]
        sampled_steps = counts["solver.sampled_steps"]
        return {
            "expr.eval_s": total("expr.evaluate", self_time=True),
            "expr.eval_calls": counts["expr.eval_calls"],
            "expr.eval_nodes": counts["expr.eval_nodes"],
            "geometry.check_hyperbolicity_s": total("geometry.check_hyperbolicity"),
            "geometry.max_characteristic_speed_s": total("geometry.max_characteristic_speed"),
            "geometry.preflight_calls": counts["geometry.preflight_calls"],
            "geometry.eval_g_s": total("geometry.eval_g"),
            "geometry.eval_g_calls": counts["geometry.eval_g_calls"],
            "geometry.self_s": layer_self["geometry"],
            "solver.solve_self_s": total("solver.solve_ibvp", self_time=True),
            "solver.steps": counts["solver.steps"],
            "solver.coeff_s": total("solver.coeff_at"),
            "solver.sweeps_per_step": (counts["solver.coeff_zeroth_at_calls"] / sampled_steps
                                       if sampled_steps else 0.0),
            "solver.self_s": layer_self["solver"],
            "goursat.find_chart_depth_s": total("goursat.find_chart_depth"),
            "goursat.eikonal_calls": attempted,
            "goursat.fold_refusals": counts["goursat.fold_refusals"],
            "goursat.eikonal_useful_frac": (counts["goursat.eikonal_completed"] / attempted
                                            if attempted else 0.0),
            "goursat.solve_eikonal_s": total("goursat.solve_eikonal",
                                             outside="goursat.find_chart_depth"),
            "goursat.interp_s": layer_self["interp"],
            "goursat.triangulations": counts["goursat.triangulations"],
            "goursat.solve_transport_phi_s": total("goursat.solve_transport_phi"),
            "goursat.build_chart_s": total("goursat.build_chart"),
            "goursat.transform_operator_s": total("goursat.transform_operator"),
            "goursat.solve_transformed_ibvp_s": total("goursat.solve_transformed_ibvp"),
            "goursat.self_s": layer_self["goursat"],
            "dn.dn_trace_s": total("dn.dn_trace"),
            "dn.transform_dn_s": total("dn.transform_dn"),
            "dn.probe_self_s": total("dn.probe_symbol", self_time=True),
            "dn.pipeline_calls": counts["dn.pipeline_calls"],
            "dn.self_s": layer_self["dn"],
            "trace.spans": len(spans),
        }

    def _has_ancestor(self, span, name) -> bool:
        i = span[PARENT]
        while i >= 0:
            if self.spans[i][NAME] == name:
                return True
            i = self.spans[i][PARENT]
        return False

    def metrics(self, overhead_s: float) -> dict:
        """Median over traced iterations of each per-layer metric."""
        rows = [self.iteration_metrics(i) for i in range(self.iteration + 1)]
        out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
        out["trace.overhead_s"] = overhead_s
        return out

    def dump(self) -> dict:
        """Spans with times relative to the first one, for writing out."""
        origin = self.spans[0][START] if self.spans else 0.0
        return {
            "fields": ["name", "layer", "start_s", "end_s", "parent", "iteration"],
            "spans": [[s[NAME], s[LAYER], s[START] - origin, s[END] - origin,
                       s[PARENT], s[ITERATION]] for s in self.spans],
            "counts": [dict(c) for c in self.counts],
        }
