"""Spans and counters recorded at vest's layer boundaries.

The benchmark never edits vest. For a traced round, ``instrument`` replaces
the entry points of each layer (in every vest module that imported them)
with wrappers that record a span per call, and puts the originals back
afterwards. Spans therefore sit exactly where one layer calls another:
``reduce_graph`` calling ``new_instance``, ``m_sequence`` calling
``engine_for``, the CLI calling ``dumps_instance``. A layer's self time is
its spans' duration minus the part covered by spans it caused.
"""

from __future__ import annotations

import functools
import math
import sys
from contextlib import contextmanager
from time import perf_counter

VEST_MODULES = (
    "vest", "vest.core", "vest.graphs", "vest.reduction",
    "vest.documents", "vest.evaluate", "vest.cli",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]; counters by
    name; ``own_s``, the seconds the wrappers spent on their own bookkeeping
    between spans (work counts and the mass check of each level)."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.own_s = 0.0
        self._stack = []

    @contextmanager
    def span(self, name):
        index = self.record(name, perf_counter(), None)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def record(self, name, start, end):
        """Add a span below the open one (its end may be filled in later);
        returns its index."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else None])
        return len(self.spans) - 1

    def count(self, name, n=1):
        if name.endswith("_peak"):
            self.counts[name] = max(self.counts.get(name, 0), n)
        else:
            self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def covered_seconds(self):
        """Wall time covered by at least one top-level span (spans of
        processes that ran at the same time count once)."""
        covered, reach = 0.0, float("-inf")
        for start, end in sorted((s, e) for _, s, e, parent in self.spans if parent is None):
            covered += max(0.0, end - max(start, reach))
            reach = max(reach, end)
        return covered


def _subsets(counts, args, kwargs, result):
    g, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
    # count_dominating_sets enumerates C(n, k) subsets for 1 <= k <= n.
    if 1 <= k <= g.n:
        counts("graphs.subsets_checked", math.comb(g.n, k))


def _brute_sequences(counts, args, kwargs, result):
    instance, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
    counts("evaluate.brute_sequences", instance.m ** k)


def _document_bytes(counts, args, kwargs, result):
    counts("documents.bytes", len(result.encode()))


# (home module, function, span name, counter fed from the call)
WRAPPED = (
    ("vest.graphs", "parse_graph", "graphs.parse", None),
    ("vest.graphs", "count_dominating_sets", "graphs.domsets", _subsets),
    ("vest.reduction", "reduce_graph", "reduction.reduce", None),
    ("vest.core", "new_instance", "core.new_instance", None),
    ("vest.core", "instance_fingerprint", "core.fingerprint", None),
    ("vest.documents", "dumps_instance", "documents.dump", _document_bytes),
    ("vest.documents", "loads_instance", "documents.load", None),
    ("vest.evaluate", "engine_for", "evaluate.engine_build", None),
    ("vest.evaluate", "annihilated_mass", "evaluate.annihilate", None),
    ("vest.evaluate", "m_k_bruteforce", "evaluate.brute", _brute_sequences),
    ("vest.evaluate", "check_sequence", "evaluate.check", None),
    ("vest.evaluate", "m_sequence", "evaluate.m_sequence", None),
)


def _timed(tracer, fn, name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer.count, args, kwargs, result)
        return result
    return wrapper


def _timed_levels(tracer, fn):
    """Wrap ``dedup_levels``: one span per level step, plus the work counts
    of that level and the mass invariant total == m**level."""
    @functools.wraps(fn)
    def wrapper(instance, k_max):
        levels = fn(instance, k_max)
        previous = None
        while True:
            with tracer.span("evaluate.step"):
                dist = next(levels, None)
            if dist is None:
                return
            t0 = perf_counter()
            distinct = len(dist.entries)
            tracer.count("evaluate.states", distinct)
            tracer.count(f"evaluate.states.d{instance.d}.level{dist.level}", distinct)
            tracer.count("evaluate.states_peak", distinct)
            if previous is not None:
                tracer.count("evaluate.successors", previous * instance.m)
                tracer.count("evaluate.successor_states", distinct)
            tracer.count("evaluate.levels_mass_checked")
            if dist.total() != instance.m ** dist.level:
                tracer.count("evaluate.mass_violations")
            previous = distinct
            tracer.own_s += perf_counter() - t0
            yield dist
    return wrapper


def span_cost(calls=20_000, samples=7):
    """Seconds one traced call costs beyond the call itself: a wrapped no-op
    against the bare no-op, alternating, the fastest of *samples*."""
    def noop():
        return None
    tracer = Tracer()
    wrapped = _timed(tracer, noop, "noop", None)
    best = float("inf")
    for _ in range(samples):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


def instrument(tracer):
    """Route vest's layer entry points through *tracer*; returns a function
    that restores the originals."""
    import vest.cli  # noqa: F401  (loads every vest module)

    modules = [sys.modules[name] for name in VEST_MODULES]
    replaced = []

    def replace(home, attr, wrapped):
        original = getattr(sys.modules[home], attr)
        for module in modules:
            if getattr(module, attr, None) is original:
                replaced.append((module, attr, original))
                setattr(module, attr, wrapped)

    for home, attr, name, counter in WRAPPED:
        replace(home, attr, _timed(tracer, getattr(sys.modules[home], attr), name, counter))
    replace("vest.evaluate", "dedup_levels",
            _timed_levels(tracer, sys.modules["vest.evaluate"].dedup_levels))

    def restore():
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)
    return restore
