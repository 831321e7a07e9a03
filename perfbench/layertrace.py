"""Out-of-program tracing of the multipot layers.

The tracer wraps the public functions of each package module from
outside: every module attribute bound to a wrapped function is re-bound
to its wrapper, so callers that imported the name pick the wrapper up.
Spans are aggregated in memory per name (calls, total time, self time).
The tracer writes no file: run.py puts its
snapshots in the run's side file, and the package's own outputs are
untouched.

Self time is a span's duration minus the part covered by its child
spans.  Only wrapped callables open spans, so private helpers count
towards the public function that called them.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("grid", "orlicz", "kernels", "operators", "dyadic", "weights", "verify", "cli")


class Tracer:
    """Span and counter aggregates for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counters = defaultdict(int)
        self._stack = []  # open spans: [name, time covered by children]

    def reset(self) -> None:
        """Drop what was recorded; wrappers stay installed."""
        self.spans.clear()
        self.counters.clear()

    def snapshot(self) -> dict:
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(self.spans.items())},
            "counters": dict(sorted(self.counters.items())),
        }

    def wrap(self, fn, name, count=None):
        """A wrapper of fn that records a span; count(args, kwargs, result)
        yields (counter, increment) pairs after each call."""
        clock, stack = self.clock, self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec = self.spans.get(name)
                if rec is None:
                    rec = self.spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if count is not None:
                for key, inc in count(args, kwargs, result):
                    self.counters[key] += inc
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def tally(self, fn, counter):
        """A wrapper of fn that only counts calls (for very hot callables)."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def public_callables(module) -> dict:
    """Module-level functions named in __all__, or, without __all__, the
    public functions the module defines."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [k for k, v in vars(module).items()
                 if not k.startswith("_") and callable(v)
                 and getattr(v, "__module__", None) == module.__name__]
    out = {}
    for name in names:
        obj = getattr(module, name)
        if callable(obj) and not isinstance(obj, type):
            out[name] = obj
    return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _luxemburg_counts(args, kwargs, result):
    spec = _arg(args, kwargs, 2, "spec")
    yield ("orlicz.luxemburg_lr_calls" if spec.young is None
           else "orlicz.luxemburg_young_calls"), 1


def _potential_counts(args, kwargs, result):
    g, m = result.grid, _arg(args, kwargs, 0, "K").m
    # one multiply-accumulate per (output cell, input m-tuple of cells)
    yield "operators.potential_macs", g.N ** g.n * g.N ** (g.n * m)


def _maximal_counts(args, kwargs, result):
    yield "operators.maximal_cubes", len(_arg(args, kwargs, 4, "family"))


def _cz_counts(args, kwargs, result):
    yield "dyadic.levels", len(result.levels)
    yield "dyadic.cubes_selected", sum(len(lev.cubes) for lev in result.levels)


def _family_counts(args, kwargs, result):
    yield "grid.family_cubes", len(result)


def _radial_counts(args, kwargs, result):
    yield "kernels.radial_points", int(getattr(result, "size", 1))


def _cache_hit_counter(cached, counter):
    """Counts lru_cache hits as the change in cache_info().hits per call."""
    last = [cached.cache_info().hits]

    def count(args, kwargs, result):
        hits = cached.cache_info().hits
        yield counter, hits - last[0]
        last[0] = hits

    return count


_COUNTS = {
    "orlicz.luxemburg_norm": _luxemburg_counts,
    "operators.apply_potential": _potential_counts,
    "operators.maximal": _maximal_counts,
    "dyadic.cz_decompose": _cz_counts,
    "grid.cube_family": _family_counts,
}


def install(tracer: Tracer, package, modules: dict) -> None:
    """Wrap the public functions of freshly imported layer modules.

    `modules` maps layer names to module objects.  Every attribute of the
    package or a layer module that is bound to a wrapped function is
    re-bound to the wrapper, so both qualified and imported names trace.
    """
    replace = {}
    for layer, module in modules.items():
        for name, fn in public_callables(module).items():
            span = f"{layer}.{name}"
            count = _COUNTS.get(span)
            if hasattr(fn, "cache_info"):
                count = _cache_hit_counter(fn, f"{span}_hits")
            replace[id(fn)] = tracer.wrap(fn, span, count)
    for module in [package, *modules.values()]:
        for attr, val in list(vars(module).items()):
            wrapper = replace.get(id(val))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    kernel_cls = modules["kernels"].Kernel
    kernel_cls.radial = tracer.wrap(kernel_cls.radial, "kernels.Kernel.radial",
                                    _radial_counts)
    young_cls = modules["orlicz"].YoungFunction
    young_cls.__call__ = tracer.tally(young_cls.__call__, "orlicz.young_evals")
