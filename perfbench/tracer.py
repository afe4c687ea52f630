'''Span tracer for g2calc, installed from outside the package.

`Tracer.install` replaces every public function and public method of the
g2calc layer modules with a wrapper, and also every copy of such a function
that another layer module imported by name (``cli.is_g2_type`` is
``g2core.is_g2_type``).  `Tracer.uninstall` puts every original back.

Each call of a wrapped function records one span: name id, parent span,
start and end.  Spans live in flat arrays and are written out only at the
end.  A span's self time is its duration minus the durations of its direct
children.  The helpers in `COUNT_ONLY` run millions of times per `verify`
pass (one call per coefficient or index pair), so they are counted and get
no span; their time lands in the self time of the span that called them.

The tracer keeps one call stack, so it assumes the traced code runs on one
thread (`G2CALC_THREADS` unset).
'''
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = ("rings", "forms", "liecdga", "g2core", "scaling", "catalog", "flow",
          "ehmetric", "collapse", "cli")

COUNT_ONLY = frozenset({
    "forms.merge_sign", "forms.sort_with_sign", "forms.check_multi_index",
    "forms.KForm.in_ring", "forms.KForm.is_zero", "forms.KForm.top_coefficient",
    "rings.ring_of", "rings.coerce_to", "rings.scalar_is_zero", "rings.ring_zero",
})

SUITES = ("forms", "liecdga", "g2core", "scaling", "catalog", "flow", "eh",
          "collapse")


# ---------------------------------------------------------------------------
# observers: per-call tallies that need the arguments or the result
# ---------------------------------------------------------------------------

def _is_g2_type(tally, args, kwargs, result):
    phi = args[0] if args else kwargs["phi"]
    if phi.ring == "float":
        tally["g2core.is_g2_type.calls.float"] += 1
    elif result.exact:
        tally["g2core.is_g2_type.calls.exact"] += 1
    else:
        tally["g2core.is_g2_type.calls.fallback"] += 1


def _nth_root_fraction(tally, args, kwargs, result):
    if result is not None:
        tally["rings.nth_root_fraction.hits"] += 1


def _solve_scaling(tally, args, kwargs, result):
    if result.exact:
        tally["scaling.solve_scaling.exact"] += 1


def _metric_batch(tally, args, kwargs, result):
    g, _ = result
    tally["g2core.metric_batch.rows"] += g.shape[0]


def _certificate(tally, args, kwargs, result):
    from g2calc import ehmetric
    bound = inspect.signature(ehmetric.positivity_and_volume_certificate).bind(
        *args, **kwargs)
    bound.apply_defaults()
    tally["ehmetric.positivity_and_volume_certificate.radii"] += bound.arguments["n_r"]


def _export_csv(tally, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tally["ehmetric.EHProfile.export_csv.bytes"] += os.path.getsize(path)


OBSERVERS = {
    "g2core.is_g2_type": _is_g2_type,
    "rings.nth_root_fraction": _nth_root_fraction,
    "scaling.solve_scaling": _solve_scaling,
    "g2core.metric_batch": _metric_batch,
    "ehmetric.positivity_and_volume_certificate": _certificate,
    "ehmetric.EHProfile.export_csv": _export_csv,
}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _public_callables(module, layer):
    """(name, owner, attr, function, rewrap) for each public function of the
    module and each public method of its classes; rewrap turns a wrapper
    back into what the owner's attribute held (e.g. a classmethod)."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", module, attr, obj, None
        elif inspect.isclass(obj):
            for mattr, member in vars(obj).items():
                if mattr.startswith("_"):
                    continue
                name = f"{layer}.{obj.__name__}.{mattr}"
                if inspect.isfunction(member):
                    yield name, obj, mattr, member, None
                elif isinstance(member, (classmethod, staticmethod)):
                    yield name, obj, mattr, member.__func__, type(member)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, list] = {}
        self.failed = Counter()
        self.tally = Counter()
        self._patches: list[tuple] = []

    # ----- recording ----------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span around a block rather than a function call."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self.end[idx] = self.clock()
            self._stack.pop()

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(self.clock())
        return idx

    def wrap(self, name: str, fn):
        """`fn` with a span per call (or only a count, for COUNT_ONLY)."""
        if name in COUNT_ONLY:
            cell = self.counts.setdefault(name, [0])

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        nid, observe, tally = self._id(name), OBSERVERS.get(name), self.tally
        failed, open_, end, stack, clock = (self.failed, self._open, self.end,
                                             self._stack, self.clock)

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed[name] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tally, args, kwargs, result)
            return result
        return functools.wraps(fn)(traced)

    # ----- installing ---------------------------------------------------
    def install(self) -> None:
        modules = {layer: importlib.import_module(f"g2calc.{layer}") for layer in LAYERS}
        wrappers = {}   # id(original function) -> wrapper
        for layer, module in modules.items():
            for name, owner, attr, fn, rewrap in _public_callables(module, layer):
                wrapper = self.wrap(name, fn)
                wrappers[id(fn)] = wrapper
                self._patch(owner, attr, rewrap(wrapper) if rewrap else wrapper)
        # copies imported by name into other layer modules
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----- reading ------------------------------------------------------
    def summary(self) -> dict:
        """name -> {calls, total_s, self_s, failed} over all spans, plus
        {calls} for the counted helpers."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                      "failed": self.failed[name]} for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        for name, cell in self.counts.items():
            out[name] = {"calls": cell[0]}
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans named `name` that have a span named `ancestor` above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        hits = 0
        for i in range(len(self.start)):
            if self.span_name[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.span_name[p] != aid:
                p = self.parent[p]
            hits += p >= 0
        return hits

    def write(self, path) -> None:
        """All spans, column-wise, as gzip-compressed JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "name": self.span_name.tolist(),
                       "parent": self.parent.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "counts": {k: v[0] for k, v in self.counts.items()}}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num, den) -> float:
    return num / den if den else 0.0


CALLS = ("forms.KForm.wedge", "forms.merge_sign", "forms.KForm.contract",
         "g2core.bilinear_from_3form", "g2core.hodge_star", "g2core.inner_product",
         "g2core.det_exact", "rings.nth_root_fraction", "liecdga.d_invariant",
         "scaling.hitchin_scaling_law", "flow.laplacian", "catalog.glued_form_at",
         "ehmetric.build_profile", "ehmetric.omega_at", "ehmetric.EHProfile.k",
         "ehmetric.EHProfile.h")

SELF_S = ("forms.KForm.wedge", "forms.KForm.contract", "forms.KForm.d_chart",
          "forms.PolynomialMap.pullback", "g2core.is_g2_type",
          "g2core.bilinear_from_3form", "g2core.hodge_star", "g2core.inner_product",
          "g2core.metric_batch", "g2core.det_exact", "rings.nth_root_fraction",
          "liecdga.d_invariant", "scaling.hitchin_scaling_law", "scaling.solve_scaling",
          "scaling.scaled_volume_factor", "flow.laplacian", "flow.flow_integrate",
          "catalog.glued_form_at", "catalog.ResolutionForms.margins",
          "catalog.measure_quadlem_constant", "ehmetric.build_profile",
          "ehmetric.positivity_and_volume_certificate", "ehmetric.omega_at",
          "ehmetric.EHProfile.export_csv", "collapse.fiber_diameter_probe",
          "collapse.measure_metric_comparison", "collapse.region_gap_decay")


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, by name (without the
    trace.* metrics, which need the untraced pass too)."""
    s = tracer.summary()
    t = tracer.tally

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    m = {f"{name}.calls": calls(name) for name in CALLS}
    m.update({f"{name}.self_s": s.get(name, {}).get("self_s", 0.0) for name in SELF_S})
    g2 = "g2core.is_g2_type"
    for kind in ("exact", "float", "fallback"):
        m[f"{g2}.calls.{kind}"] = t[f"{g2}.calls.{kind}"]
    m[f"{g2}.failed"] = tracer.failed[g2]
    m[f"{g2}.exact_ratio"] = _ratio(t[f"{g2}.calls.exact"], calls(g2))
    m["g2core.metric_batch.rows"] = t["g2core.metric_batch.rows"]
    m["rings.nth_root_fraction.hit_ratio"] = _ratio(t["rings.nth_root_fraction.hits"],
                                                    calls("rings.nth_root_fraction"))
    m["scaling.solve_scaling.exact_ratio"] = _ratio(t["scaling.solve_scaling.exact"],
                                                    calls("scaling.solve_scaling"))
    cert = "ehmetric.positivity_and_volume_certificate"
    m["ehmetric.omega_at.calls_per_radius"] = _ratio(
        tracer.calls_under("ehmetric.omega_at", cert), t[f"{cert}.radii"])
    m["ehmetric.EHProfile.export_csv.bytes"] = t["ehmetric.EHProfile.export_csv.bytes"]
    for suite in SUITES:
        m[f"cli.suite.{suite}.s"] = s.get(f"cli.suite.{suite}", {}).get("total_s", 0.0)
    return m
