"""Spans around the program's public functions, recorded without editing src/.

`Tracer.install` replaces every public function of each fibcobweb module,
and every public method of the classes those modules define, with a wrapper
that records a span (name, layer, start, end, parent) in memory. A function
is replaced in every namespace that holds it, the package's re-exports and
the `exactcover` module attribute that `tiling` calls through included.
The layer of a span is the module that defines the function.

Leaf helpers called inside the program's inner loops (SKIP) stay unwrapped:
a span costs more than one of their calls, and their time belongs to the
function that loops over them.

A span's self time in its layer is its duration minus the time of the
outermost spans of other layers beneath it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("seqcore", "cobweb", "tiling", "exactcover", "weighted", "gvpaths", "fence", "cli")
SKIP = {"fib", "exact_div", "binomial", "ensure_within"}
DENSE_BUILDS = {"zeta_from_order", "zeta_explicit", "mobius", "count_all_chains"}

# Span fields. OUTERMOST is False for a call made inside another call of
# the same function, so recursion is counted once.
NAME, LAYER, START, END, PARENT, INFO, OUTERMOST = range(7)


def _bits(value) -> int:
    if isinstance(value, int):
        return value.bit_length()
    coeffs = getattr(value, "coeffs", ())
    return sum(c.bit_length() for c in coeffs)


def _height(args) -> tuple:
    """Which poset (or matrix) a cobweb call is about."""
    if args:
        first = args[0]
        if hasattr(first, "max_level"):
            return ("N", first.max_level)
        if hasattr(first, "rows"):
            return ("dim", len(first.rows))
        if isinstance(first, int):
            return ("N", first)
    return ("N", 0)


def _info(layer: str, name: str, args, result):
    if layer == "cobweb":
        return _height(args)
    if layer == "seqcore":
        return _bits(result)
    if name == "find_tiling":
        return -1 if result is None else len(result.copies)
    if name == "enumerate_copies":
        return len(result)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = {}

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name, layer)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        depth = self._active.get((layer, name), 0)
        self._active[layer, name] = depth + 1
        self.spans.append([name, layer, perf_counter_ns(), 0, parent, None, depth == 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[END] = perf_counter_ns()
        self._active[span[LAYER], span[NAME]] -= 1

    def wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
                tracer.spans[idx][INFO] = _info(layer, name, args, result)
                return result
            finally:
                tracer._close(idx)

        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "fibcobweb" or name.startswith("fibcobweb.")
        }
        for layer in LAYERS:
            mod = modules.get(f"fibcobweb.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in SKIP:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self.wrap(layer, name, obj)
                    for other in modules.values():
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                setattr(other, key, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self.wrap(layer, f"{name}.{attr}", member))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "start_ns", "end_ns", "parent", "info", "outermost"],
                    "spans": self.spans,
                },
                fh,
            )


def layer_metrics(spans: list) -> dict:
    """Per-layer self times (s) and work counts of one traced round."""
    n = len(spans)
    foreign = [0] * n  # time in other layers' spans beneath each span
    for idx in range(n - 1, -1, -1):
        parent = spans[idx][PARENT]
        if parent >= 0:
            dur = spans[idx][END] - spans[idx][START]
            same = spans[parent][LAYER] == spans[idx][LAYER]
            foreign[parent] += foreign[idx] if same else dur
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    seen_heights = set()
    for idx, span in enumerate(spans):
        name, layer = span[NAME], span[LAYER]
        self_s = (span[END] - span[START] - foreign[idx]) / 1e9
        parent = span[PARENT]
        entry = parent < 0 or spans[parent][LAYER] != layer
        if layer == "seqcore":
            if name == "fibonomial":
                add("seqcore.fibonomial.calls", 1)
            if span[OUTERMOST] and name in ("fibonomial", "fibonomial_rec", "q_binomial"):
                add(f"seqcore.{name}.s", self_s)
            if entry and span[INFO] is not None:
                add("seqcore.result_bits", span[INFO])
        elif layer == "weighted" and span[OUTERMOST] and name in ("c_coeff", "s_coeff"):
            add("weighted.coeff.s", self_s)
        elif layer == "gvpaths":
            if name == "fibonomial_via_paths" and span[OUTERMOST]:
                add("gvpaths.fibonomial_via_paths.s", self_s)
            if name == "det_exact":
                add("gvpaths.determinants", 1)
        elif layer == "fence" and name == "count_ideals" and span[OUTERMOST]:
            add("fence.count_ideals.s", self_s)
        elif layer == "cobweb":
            if entry:
                key = (name, span[INFO])
                cold = key not in seen_heights
                seen_heights.add(key)
                add("cobweb.build_cold.s" if cold else "cobweb.query_warm.s", self_s)
                if cold and name in DENSE_BUILDS:
                    dim = _dim(span[INFO])
                    add("cobweb.dense_entries", dim * dim)
            if name == "enumerate_max_chains" and span[OUTERMOST]:
                add("cobweb.enumerate_max_chains.s", self_s)
        elif layer == "tiling" and span[OUTERMOST]:
            if name == "find_tiling":
                found = span[INFO] is not None and span[INFO] >= 0
                add(f"tiling.find_tiling.{'found' if found else 'nocover'}.s", self_s)
                if found:
                    add("tiling.copies_found", span[INFO])
            elif name == "enumerate_copies":
                add("tiling.enumerate_copies.s", self_s)
                add("tiling.candidates", span[INFO] or 0)
            elif name == "verify_tiling":
                add("tiling.verify_tiling.s", self_s)
        elif layer == "exactcover" and name in ("solve_first", "count_covers") and span[OUTERMOST]:
            add(f"exactcover.{name}.s", self_s)
        elif layer == "cli" and name == "main" and span[OUTERMOST]:
            add("cli.main.s", (span[END] - span[START]) / 1e9)
    return out


def _dim(info) -> int:
    """Vertex count F_(N+2) - 1 of the height-N poset."""
    kind, value = info
    if kind == "dim":
        return value
    a, b = 0, 1
    for _ in range(value + 2):
        a, b = b, a + b
    return a - 1
