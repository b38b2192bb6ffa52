"""Outside-in layer tracing: spans recorded around each package module's entry points.

A layer is a module of the package. Its entry points are the module's public
functions plus ``Group.conjugation_tables``. The per-element methods
(``multiply``, ``inverse``, ``conjugate``) are never wrapped: they are the
hot loop, and their time is charged to the layer that calls them.

A span is recorded only where a call crosses from one layer into another, so
a layer's helpers calling each other cost nothing extra. Spans stay in
memory as parallel arrays and are written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

PACKAGE = "hurwitzorbits"
LAYERS = ("cli", "equalities", "hurwitz", "groups", "toddcoxeter", "presentations", "words")
# Entry points that the per-layer counters read; a missing one is reported absent.
ENUMERATE = ("toddcoxeter", "enumerate_cosets")
TABLES = ("groups", "conjugation_tables")
SIZED = (("hurwitz", "orbit_size"), ("hurwitz", "orbit"))


def _rss_now_kb() -> Optional[int]:
    """Resident set size now, from /proc/self/statm; None where that is missing."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * resource.getpagesize() // 1024


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Patches the package's entry points with span-recording wrappers.

    ``install`` replaces every module attribute and class attribute bound to
    an entry point, including re-exports such as ``cli.enumerate_cosets``
    and ``equalities.orbit_size``; ``uninstall`` puts the originals back.
    """

    def __init__(self):
        self.names: List[str] = []  # "layer.function", indexed by name id
        self.name_layer: List[int] = []
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.call = array("l")
        self.stack: List[int] = []  # open span indices
        self.stack_layer: List[int] = []
        self.call_id = 0
        self.call_index = -1  # position in the workload's call list of the current call
        self.found: Dict[tuple, bool] = {}
        self._restore: List[tuple] = []
        self.elements = 0
        self.enumerations_capped = 0
        self.tables_unavailable = 0
        self.states = 0
        self.orbits_capped = 0
        self.orbit_queries = 0
        # (states, RSS growth in KB, call index) of the largest sized call
        self.largest = (0, None, None)

    # --- installing ----------------------------------------------------------

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:  # a layer that no longer exists is reported absent
                pass
        wrappers = {}
        for layer, module in modules.items():
            layer_id = LAYERS.index(layer)
            self.found[layer] = True
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrappers[fn] = self._wrap(layer_id, name, fn)
                self.found[(layer, name)] = True
        group_cls = getattr(modules.get("groups"), "Group", None)
        tables = vars(group_cls).get(TABLES[1]) if group_cls is not None else None
        self.found[TABLES] = tables is not None
        if tables is not None:
            self._patch(group_cls, TABLES[1], self._wrap(LAYERS.index("groups"), TABLES[1], tables))
        for name in (*LAYERS, ENUMERATE, *SIZED):
            self.found.setdefault(name, False)
        for module in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def begin_call(self, index: int):
        """Start the workload's call ``index``: the spans it causes share one call id."""
        self.call_id += 1
        self.call_index = index

    # --- the wrapper ---------------------------------------------------------

    def _wrap(self, layer_id: int, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(f"{LAYERS[layer_id]}.{name}")
        self.name_layer.append(layer_id)
        on_result = self._counter((LAYERS[layer_id], name))
        sized = (LAYERS[layer_id], name) in SIZED
        stack, stack_layer = self.stack, self.stack_layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack_layer and stack_layer[-1] == layer_id:
                return fn(*args, **kwargs)  # inside the layer already: no boundary
            index = len(self.start)
            parent_layer = stack_layer[-1] if stack_layer else -1
            self.span_name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.call.append(self.call_id)
            self.end.append(0.0)
            rss_before = _rss_now_kb() if sized else None
            stack.append(index)
            stack_layer.append(layer_id)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
                stack_layer.pop()
            if on_result is not None:
                on_result(result, index, parent_layer, rss_before)
            return result

        return wrapper

    def _counter(self, key):
        if key == ENUMERATE:
            return self._on_enumerate
        if key == TABLES:
            return self._on_tables
        if key in SIZED:
            return self._on_sized
        return None

    def _on_enumerate(self, result, index, parent_layer, rss_before):
        order = getattr(result, "order", None)
        if order is None:
            self.enumerations_capped += 1
        else:
            self.elements += order

    def _on_tables(self, result, index, parent_layer, rss_before):
        if result is None:
            self.tables_unavailable += 1

    def _on_sized(self, result, index, parent_layer, rss_before):
        name = self.names[self.span_name[index]]
        if name == "hurwitz.orbit_size" and parent_layer == LAYERS.index("equalities"):
            self.orbit_queries += 1
        exact = type(result).__name__ == "Finite" or (
            type(result).__name__ == "Orbit" and not result.capped
        )
        if not exact:
            self.orbits_capped += 1
            return
        self.states += result.size
        if result.size > self.largest[0]:
            growth = None if rss_before is None else max(_peak_rss_kb() - rss_before, 0)
            self.largest = (result.size, growth, self.call_index)

    # --- reading the spans ---------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span duration minus the time its child spans cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            layer = LAYERS[self.name_layer[self.span_name[i]]]
            out[layer] += self.end[i] - self.start[i] - child[i]
        return out

    def layer_calls(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for i in range(len(self.start)):
            out[LAYERS[self.name_layer[self.span_name[i]]]] += 1
        return out

    def span_seconds(self, qualified: str) -> float:
        """Total duration of the spans of one entry point, e.g. 'groups.conjugation_tables'."""
        ids = {k for k, name in enumerate(self.names) if name == qualified}
        return sum(self.end[i] - self.start[i] for i in range(len(self.start)) if self.span_name[i] in ids)

    def write_spans(self, path):
        """One line per span: name, start, end, parent span, call id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tcall\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.call[i]}\n"
                )
