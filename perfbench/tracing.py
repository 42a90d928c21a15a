"""Outside-in tracing of colorhom: spans and counts recorded from the
benchmark's own files, by patching the library's functions in place.

Two instruments, used in separate passes because the second inflates the
first:

* :class:`SpanTracer` wraps the public functions of every layer module (and
  a few ``GradedMap`` methods) and records a span per call: name, start,
  end and the index of the enclosing span.  Spans stay in memory.
* :class:`Counter` wraps the hot leaves -- ``CycScalar`` arithmetic, the
  bicharacter, ``straighten``, ``rref`` -- and only counts.

A function object is often bound under several names: ``cohomology``
imports ``exterior_basis``, ``straighten`` and others by name, ``cli``
imports ``build_lsca_complex``, and the package re-exports everything.
:func:`_patch_everywhere` therefore replaces every module attribute that is
the original function, not only the one in the defining module.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter

# called so often that a span per call would swamp the trace; the scalar
# layer is measured by operation counts instead
SPAN_EXCLUDED = {
    "scalars": None,                         # every function of the layer
    "grading": {"degree_sum", "bichar_eval"},
    "glinalg": {"straighten", "letter_key", "zeros"},
}
SPAN_METHODS = {"glinalg": {"GradedMap": ("compose", "rank_at", "nullity_at",
                                          "kernel_at")}}


def _colorhom_modules():
    return [m for name, m in sys.modules.items()
            if (name == "colorhom" or name.startswith("colorhom.")) and m is not None]


def _patch_everywhere(original, replacement, undo):
    """Rebind every module-level reference to ``original``."""
    for mod in _colorhom_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def unpatched_bindings(originals):
    """Module attributes still bound to one of ``originals`` (should be none
    while an instrument is installed)."""
    ids = {id(f) for f in originals}
    return [f"{mod.__name__}.{attr}" for mod in _colorhom_modules()
            for attr, value in vars(mod).items() if id(value) in ids]


def public_functions(mods, layer):
    """Public module-level functions defined in the layer's own module."""
    mod = mods[layer]
    return [(name, fn) for name, fn in sorted(vars(mod).items())
            if isinstance(fn, types.FunctionType) and not name.startswith("_")
            and fn.__module__ == mod.__name__]


class _Instrument:
    def __init__(self):
        self._undo = []
        self.originals = []

    def _patch_function(self, original, replacement):
        self.originals.append(original)
        _patch_everywhere(original, replacement, self._undo)

    def _patch_method(self, cls, name, replacement):
        self._undo.append((cls, name, cls.__dict__[name]))
        self.originals.append(cls.__dict__[name])
        setattr(cls, name, replacement)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class SpanTracer(_Instrument):
    """Span per call of each layer-boundary function.

    ``spans`` holds ``[name, start, end, parent]`` lists; ``parent`` is the
    index of the enclosing span or -1."""

    def __init__(self, mods):
        super().__init__()
        self.mods = mods
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def install(self):
        for layer in self.mods:
            if layer == "colorhom":
                continue
            excluded = SPAN_EXCLUDED.get(layer, set())
            if excluded is None:
                continue
            for name, fn in public_functions(self.mods, layer):
                if name not in excluded:
                    self._patch_function(fn, self._wrap(f"{layer}.{name}", fn))
            for cls_name, methods in SPAN_METHODS.get(layer, {}).items():
                cls = getattr(self.mods[layer], cls_name)
                for meth in methods:
                    self._patch_method(cls, meth, self._wrap(
                        f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))


class Counter(_Instrument):
    """Counts at the hot leaves; ``counts`` maps a counter name to a number.

    Scalar operations are counted where a caller invokes them: an operation
    that delegates to another (division multiplies by an inverse, reflected
    subtraction subtracts) counts once."""

    SCALAR_OPS = {"__add__": "addsub", "__radd__": "addsub", "__sub__": "addsub",
                  "__rsub__": "addsub", "__neg__": "addsub",
                  "__mul__": "mul", "__rmul__": "mul",
                  "__truediv__": "div", "__rtruediv__": "div"}

    def __init__(self, mods):
        super().__init__()
        self.mods = mods
        self.counts = defaultdict(int)
        self._ranked = {}     # id(block) -> block, kept alive so ids stay unique
        self._in_verify = 0

    def install(self):
        mods, counts = self.mods, self.counts
        cyc = mods["scalars"].CycScalar
        depth = [0]

        def scalar_op(kind, fn):
            @functools.wraps(fn)
            def counted(self, *other):
                if depth[0] == 0:
                    counts[f"scalars.{kind}_ops"] += 1
                    if self.m > 1 or (other and getattr(other[0], "m", 1) > 1):
                        counts["scalars.cyclotomic_ops"] += 1
                depth[0] += 1
                try:
                    return fn(self, *other)
                finally:
                    depth[0] -= 1
            return counted

        for name, kind in self.SCALAR_OPS.items():
            self._patch_method(cyc, name, scalar_op(kind, cyc.__dict__[name]))

        bichar = mods["grading"].Bicharacter
        call = bichar.__dict__["__call__"]

        def eps_call(self, a, b):
            counts["grading.eps_calls"] += 1
            return call(self, a, b)
        self._patch_method(bichar, "__call__", eps_call)

        glinalg, coh, variety = mods["glinalg"], mods["cohomology"], mods["variety"]
        straighten = glinalg.straighten

        def counted_straighten(*args, **kwargs):
            counts["glinalg.straighten_calls"] += 1
            return straighten(*args, **kwargs)
        self._patch_function(straighten, counted_straighten)

        rref, ranked = glinalg.rref, self._ranked

        def counted_rref(rows, ncols=None):
            counts["glinalg.rref_calls"] += 1
            cols = ncols if ncols is not None else (len(rows[0]) if rows else 0)
            counts["glinalg.rref_entries"] += len(rows) * cols
            counts["glinalg.rref_nnz"] += sum(1 for row in rows for v in row
                                              if not v.is_zero())
            ranked[id(rows)] = rows
            return rref(rows, ncols)
        self._patch_function(rref, counted_rref)

        for name in ("lsca_coboundary", "lie_coboundary"):
            self._patch_function(getattr(coh, name), self._count_calls(
                "cohomology.differentials_built", getattr(coh, name)))

        verify, table = coh.verify_main_theorem, coh.cohomology_table

        def counted_verify(*args, **kwargs):
            self._in_verify += 1
            try:
                report = verify(*args, **kwargs)
            finally:
                self._in_verify -= 1
            # the report reads d_n, d_{n+1}, delta_{n-1} and delta_n only
            counts["cohomology.differentials_read"] += 4
            return report
        self._patch_function(verify, counted_verify)

        def counted_table(cx, *args, **kwargs):
            entries = table(cx, *args, **kwargs)
            if not self._in_verify:
                counts["cohomology.differentials_read"] += len(cx.diffs)
            return entries
        self._patch_function(table, counted_table)

        scan = variety.scan_family

        def counted_scan(*args, **kwargs):
            results = scan(*args, **kwargs)
            counts["variety.scan_points"] += len(results)
            return results
        self._patch_function(scan, counted_scan)

    def _count_calls(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    @property
    def distinct_blocks_ranked(self):
        return len(self._ranked)


# ---------------------------------------------------------------------------
# reducing spans to per-layer numbers

def span_summary(spans):
    """Per span name: calls, inclusive seconds of outermost calls, and self
    seconds (duration minus the part covered by direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, parent) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["incl_s"] += end - start
    return out


def nested_calls(spans, inner, outer):
    """Number of ``inner`` spans that have an ``outer`` span as an ancestor."""
    count = 0
    for name, _, _, parent in spans:
        if name != inner:
            continue
        p = parent
        while p >= 0 and spans[p][0] != outer:
            p = spans[p][3]
        count += p >= 0
    return count
