"""Spans and work counts around the public functions of coverideal's layers.

The tracer is installed from outside the program.  Every public function
of each layer module (the names in its ``__all__``) is replaced by a
wrapper, in every module namespace that bound it: the modules import each
other with ``from .x import y``, so ``ideals.multiply`` as called by
``ideals.power`` and ``coloring.delete_vertex`` as called by
``coloring.is_critical`` are separate bindings and both are patched.

A span's self time is its duration minus the durations of the spans it
contains.  A layer's self time is the sum over its functions.  Work counts
are read off each call's arguments and result, after the span has closed,
so computing them is never charged to the function being measured.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "correspondence", "ideals", "coloring", "lp", "graphs", "corpus")


def _multiply(tr, args, kwargs, result):
    I, J = args[0], args[1]
    tr.counts["ideals.multiply.products"] += len(I.gens) * len(J.gens)
    tr.counts["ideals.multiply.gens_out"] += len(result.gens)


def _decomposition(tr, args, kwargs, result):
    I = args[0]
    tr.decomp_inputs.add((I.nvars, I.gens))
    tr.counts["ideals.irreducible_decomposition.components_out"] += len(result)


def _cover_lp(tr, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    sets = args[1] if len(args) > 1 else kwargs["sets"]
    tr.counts["lp.solve_cover_lp.columns"] += len(sets)
    tr.counts["lp.solve_cover_lp.rows"] += n


def _independent_sets(tr, args, kwargs, result):
    tr.counts["graphs.maximal_independent_sets.sets_out"] += len(result)


def _corpus(tr, args, kwargs, result):
    tr.counts["corpus.graphs_out"] += len(result)


COUNTERS = {
    "ideals.multiply": _multiply,
    "ideals.irreducible_decomposition": _decomposition,
    "lp.solve_cover_lp": _cover_lp,
    "graphs.maximal_independent_sets": _independent_sets,
    "corpus.all_graphs": _corpus,
    "corpus.connected_graphs": _corpus,
    "corpus.graphs_with_min_degree": _corpus,
    "corpus.critical_graphs": _corpus,
}


class Tracer:
    """Accumulated self times, call counts and work counts of one process."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.decomp_inputs: set = set()
        # Child-duration accumulators of the open spans; slot 0 is the
        # total duration of the top-level spans closed so far.
        self._stack = [0.0]
        self._chromatic = None
        self._chromatic_hits0 = 0

    def _wrap(self, key: str, fn):
        counter = COUNTERS.get(key)
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[key] += dur - stack.pop()
                stack[-1] += dur
                calls[key] += 1
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every public function of every layer, wherever it is bound."""
        package = importlib.import_module("coverideal")
        modules = {name: importlib.import_module(f"coverideal.{name}") for name in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, attr, wrapped)
        self._chromatic = modules["coloring"].chromatic_number.__wrapped__
        self._chromatic_hits0 = self._chromatic.cache_info().hits

    def snapshot(self) -> dict:
        """Self times, calls and counts so far, as plain JSON-ready data."""
        counts = dict(self.counts)
        counts["ideals.irreducible_decomposition.distinct_inputs"] = len(self.decomp_inputs)
        if self._chromatic is not None:
            hits = self._chromatic.cache_info().hits - self._chromatic_hits0
            counts["coloring.chromatic_number.cache_hits"] = hits
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": counts,
            "covered_s": self._stack[0],
        }


def diff(after: dict, before: dict) -> dict:
    """Self times of one item: the change between two snapshots."""
    return {
        key: val - before["self_s"].get(key, 0.0)
        for key, val in after["self_s"].items()
        if val != before["self_s"].get(key, 0.0)
    }
