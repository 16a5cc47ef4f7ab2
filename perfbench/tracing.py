"""Timing wrappers installed around the package from outside it.

``install`` wraps every public function of each layer module and rebinds
the wrapper in every package module that holds the function (``verify``
and ``algebra`` import ``compose`` and ``enumerate_group`` by name, so each
reference is replaced).  Generator functions are timed only inside
``next()``.  A call of a HOT function (one call per group element or per
word) is counted and timed into its layer but stores no span; every other call
stores a span ``(id, name, start, end, parent, command)`` in memory.  Self
time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import inspect
import itertools
import time
from collections import defaultdict

LAYERS = ("algebra", "group", "posets", "ppartitions", "verify", "schemas", "cli")

# Called once per group element or word: timed and counted, no span kept.
HOT = {
    "group.compose", "group.inverse", "group.descent_positions", "group.word_des",
    "group.word_intdes", "group.word_str", "group.parse_letter", "group.group_order",
    "group.enumerate_group", "group.descent_profile", "group.mr_key",
    "group.permutation_to_json", "posets.shuffles", "posets.decompose_anchored",
    "ppartitions.binom", "ppartitions.omega_word",
}
# Only ever called from a wrapped function of the same layer; wrapping
# them would add cost without moving time between layers.
SKIP = {"group.internal_descent_positions"}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _candidate_maps(args, kwargs) -> int:
    """(r(j+1))^|free|: the maps count_ppartitions_bruteforce enumerates."""
    poset, j = _arg(args, kwargs, 0, "poset"), _arg(args, kwargs, 1, "j")
    return 0 if poset.unsatisfiable else (poset.r * (j + 1)) ** len(poset.nonzero)


# name -> [(counter, f(args, kwargs, result) -> amount)], applied after a
# successful call.
COUNTERS = {
    "algebra.verify_closure": [
        ("products", lambda a, k, res: len(_arg(a, k, 0, "partition").order) ** 2)],
    "algebra.partition_by": [("elements", lambda a, k, res: len(res.order))],
    "algebra.algebra_multiply": [
        ("pairs", lambda a, k, res: _arg(a, k, 0, "a").support_size()
         * _arg(a, k, 1, "b").support_size())],
    "group.enumerate_group": [("elements", lambda a, k, res: 1)],
    "posets.colored_linear_extensions": [("words", lambda a, k, res: len(res))],
    "ppartitions.count_ppartitions_bruteforce": [
        ("maps", lambda a, k, res: _candidate_maps(a, k)), ("hits", lambda a, k, res: res)],
    "verify.run_suite": [("checks", lambda a, k, res: res.checks)],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = defaultdict(int)
        self.command = -1
        self._stack: list[list] = [[0.0, None]]  # [child time, span id]
        self._ids = itertools.count()

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()

    def wrap(self, name: str, fn):
        """A timing wrapper for ``fn``; generators are timed per ``next()``."""
        if not inspect.isgeneratorfunction(fn):
            return self._timer(name, fn)
        step = self._timer(name, next)

        class TimedIterator:
            __slots__ = ("_it",)

            def __init__(self, it) -> None:
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                return step(self._it)

        def generator(*args, **kwargs):
            return TimedIterator(fn(*args, **kwargs))

        return generator

    def _timer(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        counters = [(f"{name}.{c}", f) for c, f in COUNTERS.get(name, ())]
        stack, spans, counts, ids = self._stack, self.spans, self.counts, self._ids
        push, pop, clock = stack.append, stack.pop, time.perf_counter
        hot = name in HOT

        def timed(*args, **kwargs):
            frame = [0.0, None if hot else next(ids)]
            parent = stack[-1][1]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                duration = end - start
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if not hot:
                    spans.append((frame[1], name, start, end, parent, self.command))
            if counters:
                for counter, amount in counters:
                    counts[counter] += amount(args, kwargs, result)
            return result

        return timed


def install(tracer: Tracer) -> list:
    """Wrap the layers' public functions; returns what ``uninstall`` needs."""
    package = importlib.import_module("colored_descents")
    modules = [package] + [importlib.import_module(f"colored_descents.{m}") for m in LAYERS]
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"colored_descents.{layer}")
        for attr, fn in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            wrappers[fn] = tracer.wrap(name, fn)
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                undo.append((module, attr, value))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, value in undo:
        setattr(module, attr, value)
