"""Per-layer spans and counters around csiqa's public functions.

Nothing inside ``src/`` is edited: each traced function is replaced, for
the duration of a phase, at every name a caller looks it up by. That is
every binding of the same function object in the ``csiqa`` package and its
modules (``pipeline.sample`` and ``sampling.sample`` are the same object
under two names), or the class attribute for a method such as
``GradTape.backward``.

A span wrapper adds its call's duration to the layer's self time and
subtracts it from the enclosing span's, so each layer reports self time
and the top-level total shows how much of an op the spans cover. Garbage
collector pauses, seen through ``gc.callbacks``, are spans of their own,
so a collection that interrupts the encoder is charged to ``gc.pause``,
not to ``encoder.encode``. Counter wrappers record work done (rows
gathered, multiply-add FLOPs computed from operand shapes, tape records
replayed) without timing anything, so the many small numerics calls do not
inflate the spans around them.
"""

from __future__ import annotations

import functools
import gc
import math
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path) of the function it times
SPANS = {
    "pipeline.forward": ("csiqa.pipeline", "forward"),
    "pipeline.load_model": ("csiqa.pipeline", "load_model"),
    "pipeline.save_model": ("csiqa.pipeline", "save_model"),
    "sampling.sample": ("csiqa.sampling", "sample"),
    "sampling.csnet_reconstruct": ("csiqa.sampling", "csnet_reconstruct"),
    "gridops.conv3x3": ("csiqa.gridops", "conv3x3"),
    "embedding.embed": ("csiqa.embedding", "embed"),
    "encoder.encode": ("csiqa.encoder", "encode"),
    "encoder.window_refine": ("csiqa.encoder", "window_refine"),
    "head.score": ("csiqa.head", "score"),
    "data.random_crop": ("csiqa.data", "random_crop"),
    "numerics.backward": ("csiqa.numerics", "GradTape.backward"),
    "numerics.adam_step": ("csiqa.numerics", "adam_step"),
}


def _matmul_flops(a, b, *bias) -> int:
    """2*m*k*n per product; ``bmm`` multiplies by its batch extent."""
    return 2 * math.prod(a.shape) * b.shape[-1]


def _gathered_rows(x, index) -> int:
    """Index entries, zero-padding rows (-1) included."""
    return len(index)


def _tape_records(tape, loss) -> int:
    return len(tape)


# counter name -> [(module, attribute path, amount(*args))]
COUNTERS = {
    "numerics.matmul.flops": [
        ("csiqa.numerics", "matmul", _matmul_flops),
        ("csiqa.numerics", "bmm", _matmul_flops),
        ("csiqa.numerics", "affine", _matmul_flops),
    ],
    "numerics.gather_rows.rows": [("csiqa.numerics", "gather_rows", _gathered_rows)],
    "numerics.tape_ops": [("csiqa.numerics", "GradTape.backward", _tape_records)],
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) for a dotted attribute path."""
    owner = sys.modules.get(module_name)
    if owner is None:
        raise AttributeError(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def rebind(module_name: str, path: str, make_wrapper):
    """Replace a function at every name callers look it up by.

    Returns a callable that restores the original bindings. Raises
    ``AttributeError`` if the target does not exist.
    """
    owner, attr, original = _resolve(module_name, path)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        sites = [(owner, attr)]
    else:
        sites = [
            (mod, name)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "csiqa" or mod_name.startswith("csiqa.")
            for name, value in list(vars(mod).items())
            if value is original
        ]
    for mod, name in sites:
        setattr(mod, name, wrapper)

    def undo():
        for mod, name in sites:
            setattr(mod, name, original)

    return undo


class Tracer:
    """Self time and call count per span, plus work counters.

    ``install`` wraps every target that exists and returns the names of
    those that do not, so a renamed function is reported rather than
    crashing the run; ``uninstall`` restores the original bindings.
    """

    def __init__(self, spans=SPANS, counters=COUNTERS):
        self.spans = spans
        self.counters = counters
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # child time of each open span; entry 0 sums the top-level spans
        self._open = [0.0]
        self._undo: list = []
        self._gc_start = None

    @property
    def top_level_s(self) -> float:
        return self._open[0]

    def _close(self, name: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        children = self._open.pop()
        self.self_s[name] += elapsed - children
        self._open[-1] += elapsed
        self.calls[name] += 1

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, started)

        return wrapper

    def _counter(self, name: str, amount, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += amount(*args)
            return fn(*args, **kwargs)

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open.append(0.0)
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self._close("gc.pause", self._gc_start)
            self._gc_start = None

    def install(self) -> list[str]:
        missing = []
        targets = [(name, mod, path, functools.partial(self._span, name))
                   for name, (mod, path) in self.spans.items()]
        targets += [(name, mod, path, functools.partial(self._counter, name, amount))
                    for name, sites in self.counters.items()
                    for mod, path, amount in sites]
        for name, mod, path, make in targets:
            try:
                self._undo.append(rebind(mod, path, make))
            except AttributeError:
                missing.append(f"{name} ({mod}:{path})")
        gc.callbacks.append(self._on_gc)
        return missing

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            self._undo.pop()()
