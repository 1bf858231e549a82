"""In-memory span tracer that patches concbound's public functions.

Every traced library function is replaced, at every module attribute
that binds it, by a wrapper that opens a span. The library's modules
import names directly (``bounds_bipartite.psd_sqrt`` is the same object
as ``numerics.psd_sqrt``), so patching the defining module alone would
miss most calls. ``numpy.linalg`` kernels are far too frequent for one
span per call (one ``search-bipartite`` item makes ~1e4 SVDs, ~1.3e5 at
the ``demo horodecki`` configuration); they
are folded into counters on the innermost open span instead.

A layer's self time is its span's duration minus its child spans and
the ``numpy.linalg`` time folded into it, so the self times of all
layers, ``linalg.*`` included, sum to the wall time of the root spans.
"""
from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

# Layer name -> (module, attribute) of each public function it covers.
LAYERS = {
    "numerics.psd_sqrt": [("numerics", "psd_sqrt")],
    "generators.build": [
        ("generators", "bipartite_generators"),
        ("generators", "tripartite_generators"),
        ("generators", "canonical_triple"),
        ("generators", "example_operators"),
    ],
    "states.construct": [
        ("states", name)
        for name in (
            "bell_state",
            "ghz_state",
            "w_state",
            "horodecki_state",
            "white_noise_mix",
            "maximally_mixed",
            "random_density",
            "random_pure",
        )
    ],
    "states.partial_transpose": [("states", "partial_transpose")],
    "bounds_bipartite.observation1_bound": [("bounds_bipartite", "observation1_bound")],
    "bounds_bipartite.wootters_concurrence": [("bounds_bipartite", "wootters_concurrence")],
    "bounds_bipartite.ppt_min_eigenvalue": [("bounds_bipartite", "ppt_min_eigenvalue")],
    "bounds_multipartite.observation2_bound": [("bounds_multipartite", "observation2_bound")],
    "bounds_multipartite.observation3_bound": [("bounds_multipartite", "observation3_bound")],
    "optimizer.optimize_bound_bipartite": [("optimizer", "optimize_bound_bipartite")],
    "optimizer.optimize_bound_multipartite": [("optimizer", "optimize_bound_multipartite")],
    "optimizer.threshold_scan": [("optimizer", "threshold_scan")],
    "cli.main": [("cli", "main")],
}

KERNELS = ("svd", "eigh", "eigvalsh")

MODULES = (
    "numerics",
    "generators",
    "states",
    "bounds_bipartite",
    "bounds_multipartite",
    "optimizer",
    "cli",
)

_OPTIMIZE = ("optimizer.optimize_bound_bipartite", "optimizer.optimize_bound_multipartite")


class Span:
    __slots__ = ("index", "name", "parent", "item", "start", "end", "kernels")

    def __init__(self, index, name, parent, item, start):
        self.index = index
        self.name = name
        self.parent = parent
        self.item = item
        self.start = start
        self.end = None
        # kernel -> [calls, seconds, matrices]
        self.kernels = {}

    def to_dict(self) -> dict:
        return {
            "id": self.index,
            "name": self.name,
            "parent": self.parent,
            "item": self.item,
            "start": self.start,
            "end": self.end,
            "kernels": self.kernels,
        }


class Tracer:
    """Patch the library on ``install``, record spans, restore on ``remove``.

    Use as a context manager so that every patched name is restored even
    when a workload raises.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = 0
        # Per optimize_* call: (span index, subsets, nonzero subsets).
        self.searches: list[tuple[int, int, int]] = []
        self.scan_evaluations: list[int] = []

    # -- patching ---------------------------------------------------------

    def owners(self):
        """Every module whose attributes may bind a traced function."""
        mods = [self.package] + [getattr(self.package, m) for m in MODULES]
        return mods + [np.linalg]

    def originals(self):
        """(layer, original function) for every traced function."""
        out = []
        for layer, targets in LAYERS.items():
            for mod, attr in targets:
                out.append((layer, getattr(getattr(self.package, mod), attr)))
        for name in KERNELS:
            out.append((f"linalg.{name}", getattr(np.linalg, name)))
        return out

    def install(self) -> None:
        for layer, fn in self.originals():
            if layer.startswith("linalg."):
                wrapper = self._kernel_wrapper(layer[len("linalg."):], fn)
            else:
                wrapper = self._span_wrapper(layer, fn)
            for owner in self.owners():
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._patches.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _span_wrapper(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused or not tracer._stack:
                return fn(*args, **kwargs)
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._observe(layer, span, result)
            return result

        return wrapper

    def _kernel_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer._paused or not tracer._stack:
                return fn(a, *args, **kwargs)
            start = time.perf_counter()
            result = fn(a, *args, **kwargs)
            elapsed = time.perf_counter() - start
            shape = np.shape(a)
            matrices = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            counter = tracer._stack[-1].kernels.setdefault(name, [0, 0.0, 0])
            counter[0] += 1
            counter[1] += elapsed
            counter[2] += matrices
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def _open(self, name, item=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            name,
            parent.index if parent else None,
            parent.item if parent else item,
            time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def item(self, index: int):
        """Root span around one workload item."""
        if self._stack:
            raise RuntimeError("item span opened inside another span")
        span = self._open("item", index)
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def paused(self):
        """Run library calls (the harness's own checks) without spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _observe(self, layer, span, result) -> None:
        if layer in _OPTIMIZE:
            entries = result.per_subset
            self.searches.append(
                (span.index, len(entries), sum(1 for e in entries if e.delta > 0.0))
            )
        elif layer == "optimizer.threshold_scan":
            self.scan_evaluations.append(int(result.evaluations))

    # -- results ----------------------------------------------------------

    def check_tree(self) -> list[str]:
        """Structural problems in the recorded spans; empty when well formed."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
        for span in self.spans:
            if span.end is None or span.end < span.start:
                problems.append(f"span {span.index} ({span.name}) has no valid end")
                continue
            if span.parent is None:
                if span.name != "item":
                    problems.append(f"root span {span.index} is {span.name}, not an item")
                continue
            parent = self.spans[span.parent]
            if parent.end is None or span.start < parent.start or span.end > parent.end:
                problems.append(f"span {span.index} ({span.name}) escapes its parent")
            if span.item != parent.item:
                problems.append(f"span {span.index} changes item id")
        for layer, value in self.self_times().items():
            if value < -1e-6:
                problems.append(f"negative self time {value} in {layer}")
        return problems

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return child

    def self_times(self) -> dict[str, float]:
        child = self._child_time()
        out: dict[str, float] = {}
        for span in self.spans:
            kernel_time = sum(c[1] for c in span.kernels.values())
            own = (span.end - span.start) - child[span.index] - kernel_time
            out[span.name] = out.get(span.name, 0.0) + own
            for name, c in span.kernels.items():
                key = f"linalg.{name}"
                out[key] = out.get(key, 0.0) + c[1]
        return out

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def _inclusive_svd_matrices(self) -> list[int]:
        total = [s.kernels.get("svd", [0, 0.0, 0])[2] for s in self.spans]
        for span in reversed(self.spans):
            if span.parent is not None:
                total[span.parent] += total[span.index]
        return total

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls = {name: 0 for name in LAYERS}
        kernel_calls = {name: 0 for name in KERNELS}
        svd_matrices = 0
        for span in self.spans:
            if span.name in calls:
                calls[span.name] += 1
            for name, c in span.kernels.items():
                kernel_calls[name] += c[0]
                if name == "svd":
                    svd_matrices += c[2]
        selfs = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for name in KERNELS:
            out[f"linalg.{name}.calls"] = (kernel_calls[name], "count")
            out[f"linalg.{name}.self_s"] = (selfs.get(f"linalg.{name}", 0.0), "s")
        out["linalg.svd.matrices"] = (svd_matrices, "count")
        for name in LAYERS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
        inclusive = self._inclusive_svd_matrices()
        subsets = sum(n for _, n, _ in self.searches)
        nonzero = sum(z for _, _, z in self.searches)
        search_svd = sum(inclusive[i] for i, _, _ in self.searches)
        scans = self.scan_evaluations
        out["optimizer.subsets_searched"] = (subsets, "count")
        out["optimizer.svd_per_subset"] = (search_svd / subsets if subsets else 0.0, "count")
        out["optimizer.nonzero_subset_ratio"] = (nonzero / subsets if subsets else 0.0, "ratio")
        out["optimizer.scan_evals_per_scan"] = (sum(scans) / len(scans) if scans else 0.0, "count")
        return out
