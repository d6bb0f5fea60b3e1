"""Layer spans for the traced mode, recorded from outside the library.

``Tracer.install`` wraps every public function of each layer module at
each of its import sites (the other library modules and the benchmark's
own modules) and every public method of each class a layer defines.  A
call made while a case is being recorded that enters a different layer
than the caller's opens a span and bumps the wrapped name's call
counter; a call within one layer passes straight through.  Spans are
kept in flat arrays and reduced when the pass ends.  A span's self time
is its duration minus the durations of the spans nested directly inside
it, so the self times of one case add up to the duration of its root
span.

Calls made between cases (the benchmark's checks) are neither counted
nor timed.  ``uninstall`` puts every original back, so untraced passes
run the library unchanged.
"""

import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("groups", "orbigraph", "paths", "toprep", "moves", "pf",
          "traintrack")
BENCH = len(LAYERS)  # layer index of the root span around each case

# Wrapped names whose returned path or circuit length is also summed.
ITEM_COUNTERS = ("paths.tighten", "paths.tighten_circuit")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_layer = []
        self.calls = []
        self.items = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = []
        self._layers = []
        self._patches = []
        self._installed = False

    def reset(self):
        """Forget recorded spans and counts, keeping the wrappers."""
        for arr in (self.span_name, self.span_parent, self.t0, self.t1):
            del arr[:]
        self.calls[:] = [0] * len(self.calls)
        for nid in self.items:
            self.items[nid] = 0
        self._stack.clear()
        self._layers.clear()

    # -- installing ----------------------------------------------------------

    def _wrap(self, fn, name, layer):
        self.names.append(name)
        self.name_layer.append(layer)
        self.calls.append(0)
        nid = len(self.names) - 1
        count_items = name in ITEM_COUNTERS
        if count_items:
            self.items[nid] = 0
        calls, items, stack, layers = (self.calls, self.items, self._stack,
                                       self._layers)
        span_name, span_parent, t0, t1 = (self.span_name, self.span_parent,
                                          self.t0, self.t1)

        def traced(*args, **kwargs):
            if not layers or layers[-1] == layer:
                return fn(*args, **kwargs)
            calls[nid] += 1
            i = len(t0)
            span_name.append(nid)
            span_parent.append(stack[-1])
            t1.append(0.0)
            stack.append(i)
            layers.append(layer)
            t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[i] = perf_counter()
                stack.pop()
                layers.pop()
            if count_items:
                items[nid] += len(result.items)
            return result

        traced.__wrapped__ = fn
        return traced

    def _plan(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr], wrapper))

    def install(self, sites):
        """Wrap the layers' public functions at their import sites (every
        library module other than the defining one, plus the modules in
        ``sites``) and
        the public methods of the layers' classes.  The wrappers are built
        on the first call and reused afterwards."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._patches:
            self._build(sites)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True
        self.reset()

    def _build(self, sites):
        modules = [importlib.import_module("orbitrain." + name)
                   for name in LAYERS]
        all_sites = modules + list(sites)
        for layer, mod in enumerate(modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__",
                                                    None) != mod.__name__:
                    continue
                qual = f"{LAYERS[layer]}.{name}"
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, qual, layer)
                    for site in all_sites:
                        if site is not mod and vars(site).get(name) is obj:
                            self._plan(site, name, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, qual, layer)

    def _wrap_methods(self, cls, qual, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(
                    self._wrap(attr.__func__, f"{qual}.{name}", layer))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(attr, f"{qual}.{name}", layer)
            else:
                continue
            self._plan(cls, name, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False

    # -- recording -------------------------------------------------------------

    def begin_case(self):
        """Open the root span of one case."""
        i = len(self.t0)
        self.span_name.append(-1)
        self.span_parent.append(-1)
        self.t1.append(0.0)
        self._stack.append(i)
        self._layers.append(BENCH)
        self.t0.append(perf_counter())

    def end_case(self):
        i = self._stack.pop()
        self.t1[i] = perf_counter()
        self._layers.pop()
        if self._stack:
            raise RuntimeError("a span was left open")

    # -- reducing ----------------------------------------------------------------

    def self_times(self):
        """Self time of every span, in recording order."""
        t0, t1, parent = self.t0, self.t1, self.span_parent
        out = [t1[i] - t0[i] for i in range(len(t0))]
        for i, p in enumerate(parent):
            if p >= 0:
                out[p] -= t1[i] - t0[i]
        return out

    def summary(self):
        """Per-layer self time and span count, per-name calls and self time,
        summed item counts, and the wall time covered by root spans."""
        selfs = self.self_times()
        layer_self = [0.0] * (len(LAYERS) + 1)
        layer_spans = [0] * (len(LAYERS) + 1)
        name_self = [0.0] * len(self.names)
        wall = 0.0
        for i, nid in enumerate(self.span_name):
            if nid < 0:
                layer_self[BENCH] += selfs[i]
                wall += self.t1[i] - self.t0[i]
                continue
            layer = self.name_layer[nid]
            layer_self[layer] += selfs[i]
            layer_spans[layer] += 1
            name_self[nid] += selfs[i]
        return {
            "wall": wall,
            "layer_self": dict(zip(LAYERS + ("bench",), layer_self)),
            "layer_spans": dict(zip(LAYERS + ("bench",), layer_spans)),
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "name_self": {n: s for n, s in zip(self.names, name_self) if s},
            "items": {self.names[nid]: c for nid, c in self.items.items()},
        }

    def spans_from(self, parent_layer, name):
        """How many spans of ``name`` were opened directly by a span of
        ``parent_layer``."""
        target = self.names.index(name)
        want = LAYERS.index(parent_layer)
        count = 0
        for i, nid in enumerate(self.span_name):
            p = self.span_parent[i]
            if nid == target and p >= 0:
                pn = self.span_name[p]
                if pn >= 0 and self.name_layer[pn] == want:
                    count += 1
        return count
