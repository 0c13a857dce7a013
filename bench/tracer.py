"""Span tracing around calls into the polydiag modules, from outside.

``Tracer.install()`` replaces every public function of each layer module
(and a few named private ones) with a wrapper, wherever the function object
is bound: its own module attribute, names other modules imported from it,
and module-level dicts such as ``checks.SUITES``.  Because module globals
are replaced too, calls inside a module are traced as well.  Each wrapped
call is a span (name, start, end, parent span, op id); a span's self time is
its length minus the part its child spans cover.  For generators each
``next()`` is a span.

Spans of the hottest leaf functions are aggregated into per-name totals
instead of being kept one by one (``HOT``), and ``COUNT_ONLY`` functions are
counted but not timed, so their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("partitions", "linalg", "graph", "invariance", "counting", "dynamics", "checks", "cli")

# Private functions the per-layer metrics need.
EXTRA = {
    "counting": ("_census", "_rec_seq"),
    "checks": ("_random_constant_column_sum_matrix", "_random_unimodular"),
}
METHODS = {"dynamics": (("CoupledSystem", "rhs"),)}

# Called up to ~10^6 times per pass: timed, but aggregated rather than kept.
HOT = {
    "partitions.enumerate_tagged_partitions",
    "partitions.classify",
    "partitions.typical_element",
    "partitions.type_label",
    "partitions.relabel",
    "partitions.basis",
    "linalg.dot",
    "dynamics.CoupledSystem.rhs",
}
# Cheaper than a timer: counted only.
COUNT_ONLY = {"partitions.contains", "partitions.tagged", "linalg.frac", "graph.perm_compose"}

SUITE_PREFIX = "checks.suite_"
INSTANCE_DRAWS = {
    "graph.random_connected_graph",
    "graph.random_weight_balanced_digraph",
    "graph.random_in_regular_digraph",
    "checks._random_constant_column_sum_matrix",
    "checks._random_unimodular",
}


class Tracer:
    """Frames on the stack are lists: [child seconds, name] for aggregated
    spans, [child seconds, name, span id, instance draws] for kept ones."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.stack = []
        self.next_sid = 0
        self.spans = []  # (span id, name, start, end, parent span id, op id)
        self.stats = {}  # name -> [calls, self seconds, total seconds]
        self.items = defaultdict(int)  # generator items by "generator<caller"
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)  # baseline cross-check durations
        self._patches = []

    def stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _count_draw(self):
        for f in reversed(self.stack):
            if len(f) > 2 and f[1].startswith(SUITE_PREFIX):
                f[3] += 1
                return

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        tr = self
        stack = self.stack
        stat = self.stat(name)
        hook = HOOKS.get(name)
        draws = name in INSTANCE_DRAWS

        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                if tr.active:
                    stat[0] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not tr.active:
                    return it
                return tr._timed_iter(name, it, stat, "%s<%s" % (name, stack[-1][1] if stack else ""))

            return functools.update_wrapper(gen_wrapper, fn)

        if name in HOT:

            def hot(*args, **kwargs):
                if not tr.active:
                    return fn(*args, **kwargs)
                frame = [0.0, name]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - start
                    stack.pop()
                    stat[0] += 1
                    stat[1] += dur - frame[0]
                    stat[2] += dur
                    if stack:
                        stack[-1][0] += dur

            return functools.update_wrapper(hot, fn)

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            if draws:
                tr._count_draw()
            sid = tr.next_sid
            tr.next_sid += 1
            parent = next((f[2] for f in reversed(stack) if len(f) > 2), None)
            frame = [0.0, name, sid, 0]
            stack.append(frame)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error, result = exc, None
            end = perf_counter()
            dur = end - start
            stack.pop()
            stat[0] += 1
            stat[1] += dur - frame[0]
            stat[2] += dur
            if stack:
                stack[-1][0] += dur
            tr.spans.append((sid, name, start, end, parent, tr.op))
            if hook is not None:
                hook(tr, args, kwargs, result, dur, frame, error)
            if error is not None:
                raise error
            return result

        return functools.update_wrapper(wrapper, fn)

    def _timed_iter(self, name, it, stat, key):
        stack = self.stack
        items = self.items
        while True:
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dur = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += dur - frame[0]
                stat[2] += dur
                if stack:
                    stack[-1][0] += dur
            items[key] += 1
            yield item

    # -- install / remove ---------------------------------------------------

    def install(self):
        """Wrap the package functions; counts accumulate across installs."""
        modules = {m: importlib.import_module("polydiag." + m) for m in LAYERS}
        package = importlib.import_module("polydiag")
        originals = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") and (
                    inspect.isfunction(obj) or hasattr(obj, "cache_clear")
                )
                if (public or attr in EXTRA.get(short, ())) and _defined_in(obj, mod):
                    originals[id(obj)] = (obj, self._wrap("%s.%s" % (short, attr), obj))
            for cls_name, meth in METHODS.get(short, ()):
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig, False))
                setattr(cls, meth, self._wrap("%s.%s.%s" % (short, cls_name, meth), orig))
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj, False))
                    setattr(mod, attr, originals[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in originals and originals[id(val)][0] is val:
                            self._patches.append((obj, key, val, True))
                            obj[key] = originals[id(val)][1]
        return self

    def remove(self):
        for target, key, orig, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False


def _defined_in(obj, mod):
    target = getattr(obj, "__wrapped__", obj)
    return getattr(target, "__module__", None) == mod.__name__


# ---------------------------------------------------------------------------
# hooks: counts read off results at the layer boundary


def _scan_hook(tr, args, kwargs, result, dur, frame, exc):
    if exc is None:
        tr.counts["invariance.scan.hits"] += len(result.subspaces)
        if len(args[0]) == 8:
            tr.samples["scan_n8_s"].append(dur)


def _lattice_hook(tr, args, kwargs, result, dur, frame, exc):
    if exc is None:
        tr.counts["invariance.lattice.nodes"] += len(result.nodes)
        tr.counts["invariance.lattice.covers"] += len(result.covers)
        m = args[0].matrix
        if len(m) == 5 and not any(x for row in m for x in row):
            tr.samples["lattice_zero5_s"].append(dur)


def _orbits_hook(tr, args, kwargs, result, dur, frame, exc):
    m = args[0].matrix
    off = {m[i][j] for i in range(len(m)) for j in range(len(m)) if i != j}
    if exc is None and len(m) == 6 and len(off) == 1 and 0 not in off and not any(m[i][i] for i in range(6)):
        tr.samples["orbits_k6_s"].append(dur)


def _autos_hook(tr, args, kwargs, result, dur, frame, exc):
    if exc is None:
        tr.counts["graph.automorphisms.found"] += len(result)


def _count_table_hook(tr, args, kwargs, result, dur, frame, exc):
    if exc is None and (args[0] if args else kwargs.get("max_n")) == 8:
        tr.samples["count8_s"].append(dur)


def _integrate_hook(tr, args, kwargs, result, dur, frame, exc):
    if exc is None:
        tr.counts["dynamics.rk4_steps"] += len(result.times) - 1
    elif type(exc).__name__ == "BlowupError":
        tr.counts["dynamics.blowups"] += 1
        tr.counts["dynamics.rk4_steps"] += round(exc.time / args[2])


def _suite_hook(tr, args, kwargs, result, dur, frame, exc):
    if exc is None:
        tr.counts["checks.instances"] += result.trials
        tr.counts["checks.attempts"] += max(frame[3], result.trials)


HOOKS = {
    "invariance.invariant_polydiagonals": _scan_hook,
    "invariance.build_lattice": _lattice_hook,
    "invariance.orbits": _orbits_hook,
    "graph.automorphisms": _autos_hook,
    "counting.count_table": _count_table_hook,
    "dynamics.integrate": _integrate_hook,
}
for _suite in (
    "conjecture53",
    "column_sums",
    "main_lemma",
    "input_output",
    "frobenius_perron",
    "strong_connectivity",
    "dynamics_vdp",
    "dynamics_lorenz",
    "dynamics_attractors",
):
    HOOKS[SUITE_PREFIX + _suite] = _suite_hook
