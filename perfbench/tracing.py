"""Runtime tracing of lepart's layers from outside the package.

``Tracer.install`` wraps the public functions of each lepart module (the
layer) in every *other* lepart module's namespace where they are bound, since
``cli`` and ``estimators`` bind names with ``from .x import y``. Classes are
wrapped on the class itself (``ForestSampler``, ``TreePairCorrelation``), the
``Random`` constructor is wrapped where replicas are seeded, and the numpy
dense factorizations are counted while a ``spectral`` span is open.

Each call records a span (id, name, start, end, parent id, request id). Self
time is a span's duration minus its children's. Spans are kept in memory up to
a cap and written out at the end; beyond the cap, calls are still aggregated
into per-function and per-layer totals but not stored one by one.

``ForestSampler.sample`` is handed a proxy RNG that counts uniform draws: one
draw per walk step.
"""

from __future__ import annotations

import importlib
import inspect
import json
import random
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "graphs", "spectral", "wilson", "estimators", "enumeration", "closed_forms", "checks")
_FACTORIZATIONS = ("slogdet", "det", "solve", "inv")


class CountingRandom:
    """Stands in for ``random.Random`` in ``ForestSampler.sample``; counts draws."""

    __slots__ = ("_draw", "steps")

    def __init__(self, rng: random.Random):
        self._draw = rng.random
        self.steps = 0

    def random(self) -> float:
        self.steps += 1
        return self._draw()


class _Site:
    """Totals for one traced function."""

    __slots__ = ("name", "layer", "active", "calls", "incl_ns", "self_ns")

    def __init__(self, name: str, layer: "_Site | None"):
        self.name = name
        self.layer = layer  # None for a layer's own totals
        self.active = self.calls = self.incl_ns = self.self_ns = 0


class Tracer:
    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.dropped = 0
        self.request_id = 0
        self.layers = {name: _Site(name, None) for name in LAYERS}
        self.sites: dict[str, _Site] = {}
        self.counters = {
            "graphs.edges_built": 0,
            "spectral.factorizations": 0,
            "spectral.lu_flops_computed": 0.0,
            "spectral.lu_bytes_computed": 0.0,
            "wilson.walk_steps": 0,
            "wilson.vertices_sampled": 0,
            "enumeration.forests_enumerated": 0,
        }
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def site(self, name: str, layer: str) -> _Site:
        if name not in self.sites:
            self.sites[name] = _Site(name, self.layers[layer])
        return self.sites[name]

    def open(self, site: _Site) -> None:
        site.active += 1
        site.layer.active += 1
        self._stack.append([site, perf_counter_ns(), 0, self._next_id])
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter_ns()
        site, start, child_ns, span_id = self._stack.pop()
        duration = end - start
        own = duration - child_ns
        layer = site.layer
        site.calls += 1
        site.active -= 1
        site.self_ns += own
        layer.active -= 1
        layer.self_ns += own
        if site.active == 0:  # outermost call: recursion is not counted twice
            site.incl_ns += duration
        if layer.active == 0:
            layer.incl_ns += duration
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, site.name, start, end, parent_id, self.request_id))
        else:
            self.dropped += 1

    def _wrap(self, fn, site: _Site, after=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(site)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(result)
            return result

        traced.__name__ = getattr(fn, "__name__", site.name)
        traced.__doc__ = fn.__doc__
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions where other modules call them."""
        modules = {name: importlib.import_module(f"lepart.{name}") for name in LAYERS}
        counters = self.counters

        def count_edges(g):
            counters["graphs.edges_built"] += len(g.edges)

        def count_forests(ensemble):
            counters["enumeration.forests_enumerated"] += len(ensemble)

        after = {"graphs.make_family": count_edges, "enumeration.enumerate_forests": count_forests}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(fn, self.site(name, layer), after.get(name))
                for other in modules.values():
                    if other is not mod and getattr(other, attr, None) is fn:
                        self._patch(other, attr, wrapped)

        wilson, spectral = modules["wilson"], modules["spectral"]
        sampler_cls, pair_cls = wilson.ForestSampler, spectral.TreePairCorrelation
        self._patch(sampler_cls, "__init__", self._wrap(sampler_cls.__init__, self.site("wilson.ForestSampler.__init__", "wilson")))
        self._patch(pair_cls, "__init__", self._wrap(pair_cls.__init__, self.site("spectral.TreePairCorrelation.__init__", "spectral")))
        self._patch(pair_cls, "at", self._wrap(pair_cls.at, self.site("spectral.TreePairCorrelation.at", "spectral")))

        sample = sampler_cls.sample
        sample_site = self.site("wilson.ForestSampler.sample", "wilson")
        tracer = self

        def traced_sample(sampler, rng):
            proxy = CountingRandom(rng)
            tracer.open(sample_site)
            try:
                forest = sample(sampler, proxy)
            finally:
                tracer.close()
            counters["wilson.walk_steps"] += proxy.steps
            counters["wilson.vertices_sampled"] += len(forest.parent)
            return forest

        self._patch(sampler_cls, "sample", traced_sample)

        seeding = self._wrap(random.Random, self.site("wilson.Random", "wilson"))
        for layer in ("wilson", "estimators", "checks"):
            self._patch(modules[layer], "Random", seeding)

        spectral_layer = self.layers["spectral"]
        for attr in _FACTORIZATIONS:
            self._patch(np.linalg, attr, self._counted_factorization(getattr(np.linalg, attr), spectral_layer))

    def _counted_factorization(self, fn, spectral_layer: _Site):
        counters = self.counters

        def counted(a, *args, **kwargs):
            if spectral_layer.active:
                n = np.shape(a)[-1]
                counters["spectral.factorizations"] += 1
                counters["spectral.lu_flops_computed"] += 2.0 * n**3 / 3.0
                counters["spectral.lu_bytes_computed"] += 8.0 * n * n
            return fn(a, *args, **kwargs)

        return counted

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def request(self, request_id: int, call):
        """Run ``call()`` as the root span of one request (cli layer)."""
        self.request_id = request_id
        self.open(self.site("cli.request", "cli"))
        try:
            return call()
        finally:
            self.close()

    def incl_s(self, *names: str) -> float:
        return sum(self.sites[n].incl_ns for n in names if n in self.sites) / 1e9

    def calls(self, *names: str) -> int:
        return sum(self.sites[n].calls for n in names if n in self.sites)

    def self_s(self, *names: str) -> float:
        return sum(self.sites[n].self_ns for n in names if n in self.sites) / 1e9

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "request": request}))
                fh.write("\n")
