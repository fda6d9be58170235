"""Span recording by rebinding names in the ``secrecy_sor`` modules.

The tracer replaces each traced function with a wrapper in every module
namespace that holds it: the defining module (so calls inside it, which
look the name up as a module global, are caught) and every module that
imports it.  Each call records a span: name, layer (the defining module),
start, end, parent span and the CLI row it belongs to.  Spans stay in
memory and are written out when the repetition ends.  Cheap, high-frequency
helpers (``s_kernel``, ``phi_max``, ``boundary_scale``, per-draw Monte
Carlo calls) are not traced.
"""

import functools
import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass, fields, is_dataclass

MODULES = ("crosstalk", "asymptotic", "sop", "alloc", "mc_oracle", "cli")

TRACED = ("optimize_phi_uniform", "algorithm1_directional",
          "algorithm2_iterative", "algorithm3_two_lobes", "sop_closed_form",
          "sop_intersection", "sor_boundary_uniform", "sor_boundary_nojam",
          "sor_boundary_directional", "sor_area", "empirical_sop",
          "_cdf_batch", "_kernel_tables", "_default_arcs")

BOUNDARY = ("sor_boundary_uniform", "sor_boundary_nojam",
            "sor_boundary_directional")
OBJECTIVES = ("sop_closed_form", "sop_intersection", "sor_area")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: "Span" = None
    row: tuple = (0, 0)
    info: object = None


def _freeze(obj):
    """Hashable structural key for call arguments (dataclasses, plain
    objects, arrays and numbers), so equal scenarios built by different
    manifests compare equal."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,
                tuple(_freeze(getattr(obj, f.name)) for f in fields(obj)))
    if hasattr(obj, "tolist"):
        return _freeze(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, _freeze(vars(obj)))
    return obj


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _info_levels(fn, args, kwargs, result):
    return int(getattr(result, "size", 1))


def _info_points(fn, args, kwargs, result):
    return len(result.thetas)


def _info_scenario_key(fn, args, kwargs, result):
    return hash(_freeze(_bound(fn, args, kwargs)))


def _info_visits(fn, args, kwargs, result):
    return len(result.trace)


def _info_mc(fn, args, kwargs, result):
    call = _bound(fn, args, kwargs)
    spec, cfg = call["spec"], call["cfg"]
    key = hash(_freeze((cfg, call["alloc"], call["region"], spec.n_samples,
                        spec.master_seed, spec.rician_k)))
    return {"samples": spec.n_samples, "threads": spec.threads,
            "receivers": 1 + cfg.n_eves, "key": key}


_INFO = {"_cdf_batch": _info_levels, "optimize_phi_uniform":
         _info_scenario_key, "algorithm2_iterative": _info_visits,
         "empirical_sop": _info_mc,
         **{name: _info_points for name in BOUNDARY}}


class Tracer:
    """Records spans for the traced functions of ``secrecy_sor``."""

    def __init__(self):
        self.spans = []
        self.row = (0, 0)
        self._local = threading.local()
        self._tables = None
        self._misses0 = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, layer):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, layer, 0.0, parent=stack[-1] if stack else None,
                        row=self.row)
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(fn, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Rebind every traced name in every module that holds it."""
        mods = {m: importlib.import_module(f"secrecy_sor.{m}") for m in MODULES}
        for name in TRACED:
            owners = [m for m in mods.values() if name in vars(m)]
            original = getattr(owners[0], name)
            layer = original.__module__.rsplit(".", 1)[-1]
            wrapper = self.wrap(original, name, layer)
            for mod in owners:
                setattr(mod, name, wrapper)
            if name == "_kernel_tables":
                self._tables = original
        self._misses0 = self._tables.cache_info().misses
        cli = mods["cli"]
        apply_sweep = cli._apply_sweep

        @functools.wraps(apply_sweep)
        def next_row(*args, **kwargs):
            self.row = (self.row[0], self.row[1] + 1)
            return apply_sweep(*args, **kwargs)
        cli._apply_sweep = next_row
        return self.wrap(cli.main, "main", "cli")

    def begin_invocation(self, index):
        self.row = (index, 0)

    def tables_built(self):
        return self._tables.cache_info().misses - self._misses0

    def dump(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer,
                    "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)), "row": list(s.row),
                    "info": s.info}) + "\n")


def self_times(spans):
    """Self time per span: its duration minus the part of its interval that
    its child spans cover (children may overlap, e.g. across threads)."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _has_ancestor(span, names):
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def layer_metrics(spans, tables_built):
    """Per-layer metrics (name -> (value, unit)) from one traced
    repetition's spans."""
    own = self_times(spans)
    by_name = {}
    for s, t in zip(spans, own):
        by_name.setdefault(s.name, []).append((s, t))

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def self_s(*names):
        return sum(t for n in names for _, t in by_name.get(n, ()))

    boundary_outer = [s for n in BOUNDARY for s, _ in by_name.get(n, ())
                      if s.parent is None or s.parent.name not in BOUNDARY]
    cf_calls = calls("sop_closed_form")
    cf_levels = sum(s.info for s, _ in by_name.get("_cdf_batch", ())
                    if _has_ancestor(s, ("sop_closed_form",)))
    uni = [s for s, _ in by_name.get("optimize_phi_uniform", ())]
    mc = by_name.get("empirical_sop", ())
    mc_self = self_s("empirical_sop")
    draws = sum(s.info["samples"] * s.info["receivers"] for s, _ in mc)
    per_thread = {}
    for s, t in mc:
        per_thread.setdefault(s.info["key"], {}).setdefault(
            s.info["threads"], []).append(t)
    paired = [v for v in per_thread.values() if 1 in v and 2 in v]
    t1 = sum(min(v[1]) for v in paired)
    t2 = sum(min(v[2]) for v in paired)
    return {
        "crosstalk.cdf_calls": (calls("_cdf_batch"), "count"),
        "crosstalk.cdf_levels": (sum(s.info for s, _ in
                                     by_name.get("_cdf_batch", ())), "count"),
        "crosstalk.cdf_self_s": (self_s("_cdf_batch"), "s"),
        "crosstalk.tables_built": (tables_built, "count"),
        "crosstalk.tables_s": (self_s("_kernel_tables"), "s"),
        "asymptotic.boundary_calls": (len(boundary_outer), "count"),
        "asymptotic.boundary_points": (sum(s.info for s in boundary_outer),
                                       "count"),
        "asymptotic.boundary_self_s": (self_s(*BOUNDARY), "s"),
        "asymptotic.area_calls": (calls("sor_area"), "count"),
        "asymptotic.area_self_s": (self_s("sor_area"), "s"),
        "asymptotic.arcs_built": (calls("_default_arcs"), "count"),
        "sop.closed_form_calls": (cf_calls, "count"),
        "sop.closed_form_self_s": (self_s("sop_closed_form"), "s"),
        "sop.levels_per_call": (cf_levels / cf_calls if cf_calls else 0.0,
                                "count"),
        "sop.intersection_calls": (calls("sop_intersection"), "count"),
        "sop.intersection_self_s": (self_s("sop_intersection"), "s"),
        "alloc.uniform_opt_calls": (len(uni), "count"),
        "alloc.uniform_opt_self_s": (self_s("optimize_phi_uniform"), "s"),
        "alloc.objective_evals": (sum(
            1 for n in OBJECTIVES for s, _ in by_name.get(n, ())
            if s.parent is not None
            and s.parent.name == "optimize_phi_uniform"), "count"),
        "alloc.uniform_opt_useful_ratio": (
            len({s.info for s in uni}) / len(uni) if uni else 0.0, "ratio"),
        "alloc.algo1_self_s": (self_s("algorithm1_directional"), "s"),
        "alloc.algo2_self_s": (self_s("algorithm2_iterative"), "s"),
        "alloc.algo2_visits": (sum(s.info for s, _ in
                                   by_name.get("algorithm2_iterative", ())),
                               "count"),
        "alloc.algo3_self_s": (self_s("algorithm3_two_lobes"), "s"),
        "mc_oracle.samples": (sum(s.info["samples"] for s, _ in mc), "count"),
        "mc_oracle.self_s": (mc_self, "s"),
        "mc_oracle.receiver_draws_per_s": (draws / mc_self if mc_self
                                           else 0.0, "1/s"),
        "mc_oracle.thread_speedup": (t1 / t2 if t2 else 0.0, "ratio"),
        "cli.self_s": (self_s("main"), "s"),
    }
