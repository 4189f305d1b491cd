"""Per-layer counts and self times, from wrappers around program functions.

A traced run replaces each function in SPANS by a wrapper that counts its
calls and times its span in processor time. Self time is the span minus the wrapped spans
inside it; inclusive time counts only the outermost span of a recursion.
A function is rebound in every nilcrystal module namespace that holds it
(`from ..linalg import rref` copies `rref` into `injectives`), so internal
calls cannot escape the count. `Tracer.restore` puts every original back.
"""

import importlib
import inspect
import sys
import time


def _cells(args, kwargs):
    m = args[0]
    return {"cells": m.nrows * m.ncols}


def _madds(args, kwargs):
    a, b = args[0], args[1]
    return {"madds": a.nrows * a.ncols * b.ncols}


def _unknowns(args, kwargs):
    sub, quot = args[0], args[1]
    n = sum(sub.dims[v - 1] * quot.dims[u - 1] + sub.dims[u - 1] * quot.dims[v - 1]
            for u, v in sub.graph.edges)
    return {"unknowns": n}


# (span name, module, class or None, attribute, counter of the arguments)
SPANS = (
    ("linalg.rref", "nilcrystal.linalg", None, "rref", _cells),
    ("linalg.mul", "nilcrystal.linalg", "Mat", "mul", _madds),
    ("module.validate", "nilcrystal.prepmod.module", "PModule", "validate", None),
    ("module.is_nilpotent", "nilcrystal.prepmod.module", "PModule", "is_nilpotent", None),
    ("module.arrows_of", "nilcrystal.prepmod.module", None, "arrows_of", None),
    ("functors.sigma", "nilcrystal.prepmod.functors", None, "sigma", None),
    ("functors.sigma_star", "nilcrystal.prepmod.functors", None, "sigma_star", None),
    ("functors.on_map", "nilcrystal.prepmod.functors", None, "sigma_on_map", None),
    ("functors.on_map", "nilcrystal.prepmod.functors", None, "sigma_star_on_map", None),
    ("families.m_module", "nilcrystal.prepmod.families", None, "m_module", None),
    ("families.v_module", "nilcrystal.prepmod.families", None, "v_module", None),
    ("hom.hom_space", "nilcrystal.prepmod.hom", None, "hom_space", None),
    ("hom.random_hom", "nilcrystal.prepmod.hom", None, "random_hom", None),
    ("strata.random_extension", "nilcrystal.prepmod.strata", None, "random_extension",
     _unknowns),
    ("strata.extract_datum", "nilcrystal.prepmod.strata", None, "extract_datum", None),
    ("injectives.injective_module", "nilcrystal.prepmod.injectives", None,
     "injective_module", None),
    ("rootsys.is_reduced", "nilcrystal.rootsys", None, "is_reduced", None),
)

# The reported metrics: (name, unit). Times are per traced pass, rescaled
# to the nominal host speed like the end-to-end metrics.
METRICS = (
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "count"),
    ("linalg.mul.calls", "count"), ("linalg.mul.self_s", "s"),
    ("linalg.mul.madds", "count"),
    ("module.validate.calls", "count"), ("module.validate.self_s", "s"),
    ("module.is_nilpotent.calls", "count"), ("module.is_nilpotent.self_s", "s"),
    ("module.arrows_of.calls", "count"), ("module.arrows_of.self_s", "s"),
    ("functors.sigma.calls", "count"), ("functors.sigma.self_s", "s"),
    ("functors.sigma_star.calls", "count"), ("functors.sigma_star.self_s", "s"),
    ("functors.on_map.calls", "count"), ("functors.on_map.self_s", "s"),
    ("families.m_module.calls", "count"), ("families.m_module.distinct", "count"),
    ("families.m_module.incl_s", "s"),
    ("families.v_module.calls", "count"), ("families.v_module.incl_s", "s"),
    ("hom.hom_space.calls", "count"), ("hom.hom_space.self_s", "s"),
    ("hom.random_hom.calls", "count"),
    ("strata.random_extension.calls", "count"), ("strata.random_extension.self_s", "s"),
    ("strata.random_extension.unknowns", "count"),
    ("strata.extract_datum.calls", "count"), ("strata.extract_datum.misses", "count"),
    ("injectives.injective_module.incl_s", "s"),
    ("rootsys.is_reduced.calls", "count"), ("rootsys.is_reduced.self_s", "s"),
    ("trace.overhead", "ratio"), ("trace.coverage", "ratio"),
)


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "depth", "counts", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0
        self.counts = {}
        self.keys = set()


class Tracer:
    def __init__(self):
        self.stats = {}
        self.top_s = 0.0  # time inside outermost wrapped spans
        self._stack = []
        self._rebound = []  # (namespace, attribute, original)

    def counts(self):
        """Every call count and computed count, by metric name."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls
            for key, n in sorted(st.counts.items()):
                out[f"{name}.{key}"] = n
            if name == "families.m_module":
                out[f"{name}.distinct"] = len(st.keys)
        return out

    def install(self):
        errors = importlib.import_module("nilcrystal.errors")
        for name, modname, clsname, attr, counter in SPANS:
            module = importlib.import_module(modname)
            st = self.stats.setdefault(name, _Stat())
            on_error = None
            if name == "strata.extract_datum":
                on_error = errors.NotInGenericStratum
            if clsname is not None:
                cls = getattr(module, clsname)
                orig = vars(cls)[attr]
                self._rebind(cls, attr, self._wrap(orig, st, counter, on_error, None))
                continue
            orig = getattr(module, attr)
            keyed = inspect.signature(orig) if name == "families.m_module" else None
            wrapper = self._wrap(orig, st, counter, on_error, keyed)
            for modname2, mod in list(sys.modules.items()):
                if modname2 == "nilcrystal" or modname2.startswith("nilcrystal."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, key, wrapper)

    def restore(self):
        while self._rebound:
            ns, attr, orig = self._rebound.pop()
            setattr(ns, attr, orig)

    def _rebind(self, ns, attr, wrapper):
        self._rebound.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, wrapper)

    def _wrap(self, fn, st, counter, miss_error, signature):
        stack = self._stack
        clock = time.process_time
        tracer = self

        def wrapper(*args, **kwargs):
            st.calls += 1
            if counter is not None:
                for key, n in counter(args, kwargs).items():
                    st.counts[key] = st.counts.get(key, 0) + n
            if signature is not None:
                b = signature.bind(*args, **kwargs)
                b.apply_defaults()
                a = b.arguments
                st.keys.add((a["g"], tuple(a["w"]), a["k"], a["route"]))
            if miss_error is not None:
                st.counts.setdefault("misses", 0)
            child = [0.0]
            stack.append(child)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if miss_error is not None and isinstance(exc, miss_error):
                    st.counts["misses"] += 1
                raise
            finally:
                dt = clock() - t0
                st.depth -= 1
                stack.pop()
                st.self_s += dt - child[0]
                if st.depth == 0:
                    st.incl_s += dt
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.top_s += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def metrics(self, scale, overhead, coverage):
        """Every METRICS value; times are multiplied by `scale`."""
        counts = self.counts()
        out = {}
        for name, unit in METRICS:
            span, _, field = name.rpartition(".")
            if span == "trace":
                value = overhead if field == "overhead" else coverage
            elif field in ("self_s", "incl_s"):
                st = self.stats.get(span)
                value = getattr(st, field) * scale if st else 0.0
            else:
                value = counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out
