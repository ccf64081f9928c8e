"""In-memory span tracing of locmix's layers, from outside the program.

A :class:`Tracer` wraps the public functions of each locmix module by
patching the name where the *calling* module looks it up (``cli`` looks
up ``run_experiment`` in its own namespace, ``products`` looks up
``sample_nu`` in its own, and so on), so no file of the program changes.
Each call records one span (name, start, end, parent) in flat arrays; the
spans are reduced to per-layer totals, self times and counts when the
pass ends, and can be written out with their self times.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module that looks the name up, attribute, span name).  Only spans that
# some metric of LAYER_METRICS reads, as a total or through a parent's
# self time, are patched; every span costs tracing overhead.
PATCHES = [
    ("locmix.cli", "figure_config", "figures.figure_config"),
    ("locmix.cli", "run_experiment", "harness.run_experiment"),
    ("locmix.cli", "summarize_experiment", "harness.summarize_experiment"),
    ("locmix.cli", "load_model", "modelfile.load_model"),
    ("locmix.harness", "generate_paper_model", "harness.generate_paper_model"),
    ("locmix.harness", "precompute_quadratics", "products.precompute_quadratics"),
    ("locmix.harness", "sample_cov_product", "products.sample_cov_product"),
    ("locmix.harness", "sample_precision_product", "products.sample_precision_product"),
    ("locmix.harness", "standardize", "asymptotics.standardize"),
    ("locmix.harness", "summarize", "kde.summarize"),
    ("locmix.asymptotics", "precompute_quadratics", "products.precompute_quadratics"),
    ("locmix.products", "decompose_sigma", "model.decompose_sigma"),
    ("locmix.products", "sample_nu", "distributions.sample_nu"),
    ("locmix.products", "sample_chi_squared", "distributions.sample_chi_squared"),
    ("locmix.products", "sample_noncentral_f", "distributions.sample_noncentral_f"),
    ("locmix.distributions", "sample_chi_squared", "distributions.sample_chi_squared"),
    ("locmix.kde", "lscv_bandwidth", "kde.lscv_bandwidth"),
    ("locmix.kde", "lscv_scores", "kde.lscv_scores"),
    ("locmix.kde", "epanechnikov_kde", "kde.epanechnikov_kde"),
    ("locmix.kde", "ks_statistic", "kde.ks_statistic"),
    ("locmix.density", "build_workspace", "density.build_workspace"),
    ("locmix.density", "log_density", "density.log_density"),
    ("locmix.density", "mvn_orthant_cdf", "density.mvn_orthant_cdf"),
]
# Modules whose ``RngStream`` lookups are replaced by a counting subclass.
STREAM_USERS = ["locmix.harness", "locmix.density"]

CLI_SPAN = "cli.main"


def _count_candidates(tracer, args, kwargs, result):
    tracer.counts["kde.lscv.candidates"] += len(result)


def _count_edge_hit(tracer, args, kwargs, result):
    grid = np.asarray(args[1] if len(args) > 1 else kwargs["grid"], dtype=float)
    if result == float(grid.max()):
        tracer.counts["kde.lscv.edge_hits"] += 1


AFTER_HOOKS = {
    "kde.lscv_scores": _count_candidates,
    "kde.lscv_bandwidth": _count_edge_hit,
}


class Tracer:
    """Records spans of every patched call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the benchmark's own boundary)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def _stream_class(self, base):
        tracer = self
        create = self.wrap("rng.generator", base.generator.fget)

        class TracedStream(base):
            """Counts stream constructions and spans the lazy generator set-up."""

            __slots__ = ()

            def __init__(self, *args, **kwargs):
                tracer.counts["rng.streams"] += 1
                super().__init__(*args, **kwargs)

            @property
            def generator(self):
                if self._generator is None:
                    return create(self)
                return self._generator

        return TracedStream

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, AFTER_HOOKS.get(name)))
        for module_name in STREAM_USERS:
            module = importlib.import_module(module_name)
            self._restore.append((module, "RngStream", module.RngStream))
            module.RngStream = self._stream_class(module.RngStream)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays, with each span's self time."""
        nid = np.frombuffer(self.name_id, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name_id": nid,
            "start": start,
            "end": end,
            "parent": parent,
            "self": dur - child,
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total seconds and self seconds."""
        sp = self.spans()
        k = len(self.names)
        calls = np.bincount(sp["name_id"], minlength=k)
        total = np.bincount(sp["name_id"], weights=sp["end"] - sp["start"], minlength=k)
        self_s = np.bincount(sp["name_id"], weights=sp["self"], minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }


def _total(layer: str, field: str):
    return lambda totals, counts: totals.get(layer, {}).get(field, 0)


def _self_prefix(prefix: str):
    return lambda totals, counts: sum(
        v["self_s"] for k, v in totals.items() if k.startswith(prefix)
    )


def _count(key: str):
    return lambda totals, counts: counts.get(key, 0)


# Per-layer metric -> (unit, better, how to read it from one traced pass).
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", _total(CLI_SPAN, "self_s")),
    "modelfile.load_model.s": ("s", "lower", _total("modelfile.load_model", "s")),
    "harness.run_experiment.s": ("s", "lower", _total("harness.run_experiment", "s")),
    "harness.self_s": ("s", "lower", _self_prefix("harness.")),
    "harness.generate_paper_model.calls": (
        "count", "lower", _total("harness.generate_paper_model", "calls")),
    "model.decompose_sigma.calls": ("count", "lower", _total("model.decompose_sigma", "calls")),
    "products.precompute_quadratics.calls": (
        "count", "lower", _total("products.precompute_quadratics", "calls")),
    "products.precompute_quadratics.s": (
        "s", "lower", _total("products.precompute_quadratics", "s")),
    "rng.streams": ("count", "lower", _count("rng.streams")),
    "rng.generator_s": ("s", "lower", _total("rng.generator", "s")),
    "distributions.sample_nu.calls": ("count", "lower", _total("distributions.sample_nu", "calls")),
    "distributions.sample_nu.s": ("s", "lower", _total("distributions.sample_nu", "s")),
    "distributions.sample_chi_squared.s": (
        "s", "lower", _total("distributions.sample_chi_squared", "s")),
    "distributions.sample_noncentral_f.s": (
        "s", "lower", _total("distributions.sample_noncentral_f", "s")),
    "products.sample_cov_product.calls": (
        "count", "lower", _total("products.sample_cov_product", "calls")),
    "products.sample_cov_product.self_s": (
        "s", "lower", _total("products.sample_cov_product", "self_s")),
    "products.sample_precision_product.calls": (
        "count", "lower", _total("products.sample_precision_product", "calls")),
    "products.sample_precision_product.self_s": (
        "s", "lower", _total("products.sample_precision_product", "self_s")),
    "asymptotics.standardize.s": ("s", "lower", _total("asymptotics.standardize", "s")),
    "kde.lscv_bandwidth.s": ("s", "lower", _total("kde.lscv_bandwidth", "s")),
    "kde.lscv.candidates": ("count", "lower", _count("kde.lscv.candidates")),
    "kde.lscv.edge_hits": ("count", "lower", _count("kde.lscv.edge_hits")),
    "kde.epanechnikov_kde.s": ("s", "lower", _total("kde.epanechnikov_kde", "s")),
    "kde.ks_statistic.s": ("s", "lower", _total("kde.ks_statistic", "s")),
    "density.build_workspace.calls": (
        "count", "lower", _total("density.build_workspace", "calls")),
    "density.build_workspace.s": ("s", "lower", _total("density.build_workspace", "s")),
    "density.log_density.self_s": ("s", "lower", _total("density.log_density", "self_s")),
    "density.mvn_orthant_cdf.calls": (
        "count", "lower", _total("density.mvn_orthant_cdf", "calls")),
    "density.mvn_orthant_cdf.s": ("s", "lower", _total("density.mvn_orthant_cdf", "s")),
}
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass (0 for a layer not reached)."""
    totals = tracer.layer_totals()
    return {name: float(read(totals, tracer.counts)) for name, (_, _, read) in LAYER_METRICS.items()}
