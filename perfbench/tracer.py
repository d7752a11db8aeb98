"""Span tracing around the calls into ctdopt's layers, from outside the package.

A :class:`Tracer` replaces every module-level binding of a traced function in
the loaded ``ctdopt`` modules with a timing wrapper (so ``maxentry.hadamard``
and ``reduction.inner`` are caught as well as ``ctd.hadamard`` and
``ctd.inner``), records one span per call, and restores the original bindings
when the ``with`` block ends.  Spans are kept in memory; self time is a span's
duration minus the time covered by its child spans.  The exact counts are kept
per operation, so two runs of one operation can be compared count for count.
"""

import functools
import inspect
import os
import statistics
import sys
import time

# Traced functions, named "<module>.<function>" after the module that defines
# them.
LAYERS = (
    "ctd.hadamard",
    "ctd.inner",
    "ctd.frobenius_norm",
    "ctd.load_ctd",
    "ctd.save_ctd",
    "reduction.reduce",
    "reduction.norm_of_difference",
    "reduction.rank_one_approx",
    "maxentry.squaring_max",
    "maxentry.power_method_max",
    "maxentry.extract_candidates",
    "sepfunc.build_gaussian_expansion",
    "sepfunc.sample_to_ctd",
    "sepfunc.certify_expansion",
    "sepfunc.compass_search",
    "sepfunc.optimize_function",
    "experiments.run_ackley",
    "cli.main",
)

# The lazy-column Gram factorisation inside ``reduction.reduce``; its calls are
# counted as ``reduction.reduce.lazy_calls``, without a span of their own.
LAZY_GRAM = "_pivoted_cholesky_lazy"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_hadamard(t, args, kwargs, out):
    t.counts["ctd.hadamard.out_rank_max"] = max(t.counts["ctd.hadamard.out_rank_max"], out.rank)


def _count_inner(t, args, kwargs, out):
    U, V = _arg(args, kwargs, 0, "U"), _arg(args, kwargs, 1, "V")
    t.counts["ctd.inner.pair_terms"] += U.rank * V.rank


def _count_load(t, args, kwargs, out):
    t.counts["ctd.json_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_save(t, args, kwargs, out):
    t.counts["ctd.json_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_reduce(t, args, kwargs, out):
    U = _arg(args, kwargs, 0, "U")
    c = t.counts
    c["reduction.reduce.in_rank_max"] = max(c["reduction.reduce.in_rank_max"], U.rank)
    c["reduction.reduce.out_rank_max"] = max(c["reduction.reduce.out_rank_max"], out.rank)
    c["reduction.reduce.not_met"] += not out.tolerance_met
    c["reduction.reduce.fallback_to_als"] += bool(out.fallback_to_als)
    if out.algorithm == "als":
        c["reduction.reduce.als_sweeps"] += out.sweeps


def _count_rank_one(t, args, kwargs, out):
    cap = args[1] if len(args) > 1 else kwargs.get("max_sweeps", t.sweep_cap)
    t.counts["reduction.rank_one_approx.sweeps"] += out.sweeps
    t.counts["reduction.rank_one_approx.cap_hits"] += out.sweeps >= cap


def _count_iterations(name):
    def count(t, args, kwargs, out):
        t.counts[f"{name}.iterations"] += out.iterations
    return count


# Per-layer counts, computed from (tracer, args, kwargs, result) after a call.
COUNTERS = {
    "ctd.hadamard": _count_hadamard,
    "ctd.inner": _count_inner,
    "ctd.load_ctd": _count_load,
    "ctd.save_ctd": _count_save,
    "reduction.reduce": _count_reduce,
    "reduction.rank_one_approx": _count_rank_one,
    "maxentry.squaring_max": _count_iterations("maxentry.squaring_max"),
    "maxentry.power_method_max": _count_iterations("maxentry.power_method_max"),
}

# Counts that must repeat exactly between runs of the same code and input.
# Names ending in "_max" are maxima; the others add up over calls.
EXACT_COUNTS = (
    "ctd.hadamard.out_rank_max",
    "ctd.inner.pair_terms",
    "reduction.reduce.in_rank_max",
    "reduction.reduce.out_rank_max",
    "reduction.reduce.lazy_calls",
    "reduction.reduce.not_met",
    "reduction.reduce.fallback_to_als",
    "reduction.reduce.als_sweeps",
    "reduction.rank_one_approx.sweeps",
    "reduction.rank_one_approx.cap_hits",
    "maxentry.squaring_max.iterations",
    "maxentry.power_method_max.iterations",
    "ctd.json_bytes",
)


class Tracer:
    """Context manager that wraps the traced bindings and records spans.

    ``spans`` holds ``(name, start, end, parent, op)`` tuples in call order;
    ``parent`` is the index of the enclosing span or -1, ``op`` the operation
    id set by :meth:`op`.  ``counts`` is the current operation's exact-count
    dict; ``op_counts`` maps each operation id to its dict.
    """

    def __init__(self):
        self.spans = []
        self.op_counts = {}
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self.op(-1)

    def __enter__(self):
        reduction = sys.modules["ctdopt.reduction"]
        self.sweep_cap = (
            inspect.signature(reduction.rank_one_approx).parameters["max_sweeps"].default
        )
        originals = {}
        for layer in LAYERS:
            module, func = layer.split(".")
            originals[id(getattr(sys.modules[f"ctdopt.{module}"], func))] = layer
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "ctdopt" and not modname.startswith("ctdopt."):
                continue
            for attr, value in list(vars(module).items()):
                layer = originals.get(id(value))
                if layer is None:
                    continue
                if layer not in wrappers:
                    wrappers[layer] = self._wrap(layer, value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[layer])
        lazy = getattr(reduction, LAZY_GRAM)

        @functools.wraps(lazy)
        def counted(*args, **kwargs):
            self.counts["reduction.reduce.lazy_calls"] += 1
            return lazy(*args, **kwargs)

        self._patched.append((reduction, LAZY_GRAM, lazy))
        setattr(reduction, LAZY_GRAM, counted)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def op(self, op_id):
        """Tag the spans and counts recorded from now on with operation ``op_id``."""
        self._op = op_id
        self.counts = self.op_counts.setdefault(op_id, dict.fromkeys(EXACT_COUNTS, 0))

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        return traced

    def self_times(self):
        """Per-span self time, in span order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def exact_counts(self):
        """Per operation id: the exact counts and the calls of every layer."""
        out = {}
        for op_id, counts in self.op_counts.items():
            out[op_id] = dict(counts, **{f"{layer}.calls": 0 for layer in LAYERS})
        for name, _, _, _, op_id in self.spans:
            out[op_id][f"{name}.calls"] += 1
        return out

    def layer_metrics(self):
        """The per-layer table over all operations: calls and self seconds per
        traced function, the exact counts, and the median inclusive time of
        each search call."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        durations = {}
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            out[f"{name}.self_s"] += self_s
            durations.setdefault(name, []).append(end - start)
        for name in ("maxentry.squaring_max", "maxentry.power_method_max"):
            out[f"{name}.p50_s"] = statistics.median(durations.get(name, [0.0]))
        for counts in self.exact_counts().values():
            for key, value in counts.items():
                if key.endswith("_max"):
                    out[key] = max(out.get(key, 0), value)
                else:
                    out[key] = out.get(key, 0) + value
        return out
