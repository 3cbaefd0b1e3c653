"""Spans around the public functions of the `nlie` layers, installed from
outside the package.

`Tracer.install` replaces each public function of the layer modules by a
wrapper, under every name an `nlie` module looks it up by (for example
`nlie.classify.check_jacobi` as well as `nlie.algebra.check_jacobi`), so
nested calls inside the library are recorded too.  Only calls made inside
an operation span are recorded.  A span has a name, a start, an end and a
parent; self time is its duration minus the durations of its children.
Aggregates are kept for every span; the spans themselves are kept for the
first pass over the workload and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("exactlin", "algebra", "transform", "catalog", "classify", "io", "cli")

# Small helpers called inside the inner loops; their time stays in the caller.
UNTRACED = {"rat", "zero_vec", "unit_vec", "add_vec", "scale_vec", "sort_with_sign"}

OP = "bench.op"


class Stat:
    __slots__ = ("calls", "self_s", "outer_s")

    def __init__(self):
        self.calls, self.self_s, self.outer_s = 0, 0.0, 0.0


class Tracer:
    def __init__(self):
        self.stack = []          # open frames: [name, module, start, child_s, outer_fn, outer_mod, span]
        self.active = {}         # open span count per function and per module
        self.functions = {}      # "module.function" -> Stat
        self.modules = {}        # module -> Stat (self time, outermost inclusive time)
        self.spans = []          # [name, start, end, parent] while `keep` is set
        self.keep = True
        self.op_s = 0.0
        self.counters = {"io.bytes_read": 0, "io.bytes_written": 0,
                         "classify.steps": 0, "classify.witness_bits_max": 0}
        self.originals = []      # (module, attribute, original) to restore

    # -- recording -------------------------------------------------------

    def _enter(self, name, module):
        span = None
        if self.keep:
            span = len(self.spans)
            parent = self.stack[-1][6] if self.stack else None
            self.spans.append([name, 0.0, 0.0, parent])
        outer_fn = not self.active.get(name)
        outer_mod = not self.active.get(module)
        self.active[name] = self.active.get(name, 0) + 1
        self.active[module] = self.active.get(module, 0) + 1
        frame = [name, module, 0.0, 0.0, outer_fn, outer_mod, span]
        self.stack.append(frame)
        frame[2] = perf_counter()
        if span is not None:
            self.spans[span][1] = frame[2]
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self.stack.pop()
        name, module, start, child_s, outer_fn, outer_mod, span = frame
        duration = end - start
        if span is not None:
            self.spans[span][2] = end
        if self.stack:
            self.stack[-1][3] += duration
        self.active[name] -= 1
        self.active[module] -= 1
        stat = self.functions.setdefault(name, Stat())
        stat.calls += 1
        stat.self_s += duration - child_s
        if outer_fn:
            stat.outer_s += duration
        mod = self.modules.setdefault(module, Stat())
        mod.self_s += duration - child_s
        if outer_mod:
            mod.outer_s += duration
        return duration

    def op(self, fn):
        """Run `fn` (one step of an operation) inside a root span; returns
        its result."""
        frame = self._enter(OP, "bench")
        try:
            return fn()
        finally:
            self.op_s += self._exit(frame)

    def _wrap(self, name, module, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            frame = self._enter(name, module)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if hook is not None:
                hook(self, frame, args, result)
            return result
        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every public function of the layer modules."""
        import nlie  # noqa: F401  (loads the layers)
        import nlie.cli  # noqa: F401
        packages = [m for k, m in sys.modules.items() if k == "nlie" or k.startswith("nlie.")]
        for layer in LAYERS:
            module = sys.modules[f"nlie.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or attr in UNTRACED or inspect.isclass(fn):
                    continue
                if not callable(fn) or getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, layer, fn, HOOKS.get(name))
                for owner in packages:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self.originals.append((owner, key, value))
                            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self.originals):
            setattr(owner, key, value)
        self.originals.clear()

    # -- output ----------------------------------------------------------

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[index[n], round(a, 9), round(b, 9), p]
                                 for n, a, b, p in self.spans]}, handle)


def _count_read(tracer, frame, args, result):
    if frame[4]:
        tracer.counters["io.bytes_read"] += len(args[0])


def _count_written(tracer, frame, args, result):
    if frame[4]:
        tracer.counters["io.bytes_written"] += len(result.encode("utf-8"))


def _verdict(tracer, frame, args, result):
    if not frame[4]:
        return
    tracer.counters["classify.steps"] += len(result.steps)
    if result.witness is not None:
        height = max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                     for row in result.witness.entries for x in row)
        tracer.counters["classify.witness_bits_max"] = max(
            tracer.counters["classify.witness_bits_max"], height)


HOOKS = {"io.parse_algebra": _count_read, "io.parse_matrix": _count_read,
         "io.serialize_algebra": _count_written, "io.serialize_matrix": _count_written,
         "classify.classify": _verdict}
