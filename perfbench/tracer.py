"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``install`` rebinds every
public function of every ``sagnacsim`` module in each module namespace that
holds it, so both the benchmark's calls and the calls one library module
makes into another (or into its own public functions) go through a wrapper.
The scene-building methods of ``SceneConfig`` are wrapped on the class as the
``config.scene_build`` span. Nothing in the library itself changes.

The process is single-threaded, so spans nest strictly: a span's parent is
the span open when it started, and no layer ever waits on another.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "config", "loop", "elements", "polarization", "bench", "circuit")
SCENE_METHODS = ("loop_layout", "drive_circuit", "crystal_spec")

# Loop entry points: the parameter holding their voltage array, or None
# when they take a single drive voltage.
_VOLTAGE_ARG = {
    "loop.device_matrix_batch": "voltages",
    "loop.independence_scan": "voltages",
    "loop.device_matrix": None,
    "loop.trace": None,
    "loop.trace_ports": None,
}


def _sizer(name: str, fn):
    """The work size recorded with a span of ``fn``, as a function of the
    call's arguments and result: voltages for loop entry points, samples
    for the circuit simulation, 0 otherwise."""
    if name in _VOLTAGE_ARG:
        param = _VOLTAGE_ARG[name]
        if param is None:
            return lambda args, kwargs, result: 1
        signature = inspect.signature(fn)
        return lambda args, kwargs, result: int(np.size(signature.bind(*args, **kwargs).arguments[param]))
    if name == "circuit.simulate":
        return lambda args, kwargs, result: len(result.samples)
    return lambda args, kwargs, result: 0


class Tracer:
    """Records spans as ``[name, start, end, parent, size, failed]`` lists.

    ``parent`` is the index of the enclosing span, or -1 for a span opened
    by the benchmark itself.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter
        size = _sizer(name, fn)

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, open_[-1] if open_ else -1, 0, False]
            spans.append(record)
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = clock()
                open_.pop()
            record[4] = size(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span opened by the benchmark."""
        return self.wrap(name, fn)(*args, **kwargs)

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        if self._open:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def _public_functions(module):
    for attr in getattr(module, "__all__", ()):
        value = getattr(module, attr)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield attr, value


def install(tracer: Tracer):
    """Rebind every public ``sagnacsim`` function wherever a library module
    looks it up; return a callable that restores the originals."""
    modules = [m for n, m in list(sys.modules.items()) if n == "sagnacsim" or n.startswith("sagnacsim.")]
    undo = []
    wrappers = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        for attr, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                undo.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)][1])
    scene = sys.modules["sagnacsim.config"].SceneConfig
    for attr in SCENE_METHODS:
        fn = vars(scene)[attr]
        undo.append((scene, attr, fn))
        setattr(scene, attr, tracer.wrap("config.scene_build", fn))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    reach = start
    for a, b in clipped:
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def reduce_spans(spans: list[list]) -> dict:
    """Additive aggregate of one batch of spans.

    Per span name: ``calls``, ``self_s`` (duration minus the part covered by
    its child spans) and ``size``. Cross-span counts: ``scan.trace_ports``
    (trace_ports calls made inside independence_scan), ``loop.voltages``
    (voltages handed to outermost loop spans), ``fit.trials``
    (switching_trace calls made inside fit_mosfet_on_r) and per-layer
    ``errors``.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))

    def has_ancestor(index: int, predicate) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if predicate(spans[parent][0]):
                return True
            parent = spans[parent][3]
        return False

    names: dict[str, dict] = {}
    counts = Counter()
    for index, (name, start, end, _parent, size, failed) in enumerate(spans):
        entry = names.setdefault(name, {"calls": 0, "self_s": 0.0, "size": 0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered(start, end, children.get(index, ()))
        entry["size"] += size
        layer = name.partition(".")[0]
        counts[f"{layer}.errors"] += int(failed)
        if name == "loop.trace_ports" and has_ancestor(index, "loop.independence_scan".__eq__):
            counts["scan.trace_ports"] += 1
        if name in _VOLTAGE_ARG and not has_ancestor(index, lambda n: n.startswith("loop.")):
            counts["loop.voltages"] += size
        if name == "bench.switching_trace" and has_ancestor(index, "bench.fit_mosfet_on_r".__eq__):
            counts["fit.trials"] += 1
    return {"names": names, "counts": dict(counts)}


def merge(total: dict, part: dict) -> dict:
    """Add aggregate ``part`` into ``total`` (both from ``reduce_spans``)."""
    for name, entry in part["names"].items():
        into = total["names"].setdefault(name, {"calls": 0, "self_s": 0.0, "size": 0})
        for key, value in entry.items():
            into[key] += value
    for key, value in part["counts"].items():
        total["counts"][key] = total["counts"].get(key, 0) + value
    return total


def empty() -> dict:
    return {"names": {}, "counts": {}}


def count_signature(aggregate: dict) -> dict:
    """The exact counts of an aggregate: calls and sizes per span name and
    the cross-span counts. Two rounds of the same structure must agree."""
    signature = {f"{n}.calls": e["calls"] for n, e in aggregate["names"].items()}
    signature.update({f"{n}.size": e["size"] for n, e in aggregate["names"].items()})
    signature.update(aggregate["counts"])
    return {k: v for k, v in signature.items() if v}
