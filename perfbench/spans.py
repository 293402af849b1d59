"""Span tracing of the lsrseg layers from outside the package.

A ``Tracer`` replaces every public function of the traced modules with a
wrapper that records one span per call (name, start, end, parent, problem
size n) plus per-layer counters, and puts the originals back on exit.
Calls made inside the package go through module attributes, so nested
layer calls are seen as child spans. With ``memory=True`` each span also
records its tracemalloc peak above the allocation level at its start.
Tracing allocations slows every call, so tracemalloc runs only inside the
layers named in ``memory_layers``, in a pass of its own whose timings are
discarded.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

# Layers are named "<module>.<function>", with the module's short name.
TRACED_MODULES = ("ingest", "solvers", "linalg", "spectral", "metrics", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    n: int  # sample count of the call's first argument, 0 when it has none
    peak: int = 0  # tracemalloc bytes above the start level, in memory passes


def _sample_count(arg) -> int:
    """Number of samples n of a layer call, read from its first argument."""
    for attr in ("n_samples", "n"):
        value = getattr(arg, attr, None)
        if isinstance(value, int):
            return value
    if isinstance(arg, np.ndarray) and arg.ndim == 2:
        return arg.shape[1]
    return 0


def _as_matrix_copy(args, kwargs, result) -> dict:
    """Bytes of the validation copy, when as_matrix had to make one."""
    if np.may_share_memory(result, args[0]):
        return {}
    return {"linalg.as_matrix.copy_bytes": result.nbytes}


def _solve_spd_flops(args, kwargs, result) -> dict:
    """Cholesky plus two triangular solves: n^3/3 + 2 n^2 m (computed)."""
    n = np.shape(args[0])[0]
    rhs = np.shape(args[1])
    m = rhs[1] if len(rhs) == 2 else 1
    return {"linalg.solve_spd.flops": n**3 / 3 + 2 * n**2 * m}


def _load_csv_bytes(args, kwargs, result) -> dict:
    path = getattr(args[0], "path", args[0])
    return {"ingest.load_csv.bytes": os.path.getsize(path)}


def _sym_eigen_pairs(args, kwargs, result) -> dict:
    return {"linalg.sym_eigen.eigpairs": result.values.shape[0]}


def _ncuts_pairs_used(args, kwargs, result) -> dict:
    # k vectors for the embedding plus one more for the eigen-tie flag
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"linalg.sym_eigen.eigpairs_used": min(k + 1, _sample_count(args[0]))}


METERS = {
    "linalg.as_matrix": _as_matrix_copy,
    "linalg.solve_spd": _solve_spd_flops,
    "ingest.load_csv": _load_csv_bytes,
    "linalg.sym_eigen": _sym_eigen_pairs,
    "spectral.normalized_cuts": _ncuts_pairs_used,
}


class Tracer:
    """Context manager that wraps the public functions of ``modules``.

    ``modules`` maps a short layer prefix to the module object. Spans and
    counters accumulate across uses, one pass per ``with`` block.
    Allocation peaks are taken while a layer of ``memory_layers`` runs.
    """

    def __init__(self, modules: dict, memory_layers=()):
        self.modules = modules
        self.memory_layers = frozenset(memory_layers)
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.pass_starts: list[int] = []  # index of each pass's first span
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._floor: list[int] = []  # [start level, running peak] per open span

    def __enter__(self) -> "Tracer":
        for prefix, module in self.modules.items():
            for attr, func in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(func)
                    or func.__module__ != module.__name__
                ):
                    continue
                self._originals.append((module, attr, func))
                setattr(module, attr, self._wrap(f"{prefix}.{attr}", func))
        self.pass_starts.append(len(self.spans))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, func in reversed(self._originals):
            setattr(module, attr, func)
        self._originals.clear()
        self._stack.clear()
        self._floor.clear()

    def _wrap(self, name: str, func):
        meter = METERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        starts_memory = name in self.memory_layers

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            n = _sample_count(args[0]) if args else 0
            span = Span(name, 0.0, 0.0, parent, n)
            spans.append(span)
            stack.append(index)
            owner = starts_memory and not self._floor
            if owner:
                tracemalloc.start()
            measured = bool(self._floor) or owner
            if measured:
                self._open_memory()
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if measured:
                    span.peak = self._close_memory()
                if owner:
                    tracemalloc.stop()
                stack.pop()
            counters[name + ".calls"] = counters.get(name + ".calls", 0) + 1
            if meter is not None:
                for key, value in meter(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return functools.wraps(func)(traced)

    # tracemalloc keeps one global peak; nested spans share it by folding the
    # peak seen so far into the enclosing span before resetting it.
    def _open_memory(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._floor:
            self._floor[-1] = max(self._floor[-1], peak)
        tracemalloc.reset_peak()
        self._floor += [current, current]

    def _close_memory(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        running = max(self._floor.pop(), peak)
        start = self._floor.pop()
        if self._floor:
            self._floor[-1] = max(self._floor[-1], running)
        tracemalloc.reset_peak()
        return running - start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the parts covered by its direct children.

    Computed as the sum of the gaps between consecutive children, so every
    term is a difference of ordered clock readings and never negative.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        cursor, total = span.start, 0.0
        for child in children.get(index, ()):
            total += spans[child].start - cursor
            cursor = spans[child].end
        out.append(total + (span.end - cursor))
    return out


def layer_totals(spans: list[Span], indices=None) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive and self seconds per layer name, over ``indices`` (default all).

    A span nested in a span of the same name (recursion) adds no inclusive
    time, so busy seconds are never counted twice.
    """
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    self_s = self_times(spans)
    for index in range(len(spans)) if indices is None else indices:
        span = spans[index]
        own[span.name] = own.get(span.name, 0.0) + self_s[index]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            inclusive[span.name] = inclusive.get(span.name, 0.0) + (span.end - span.start)
    return inclusive, own


def peak_nxn(spans: list[Span]) -> dict[str, float]:
    """Per layer: tracemalloc peak over 8 n^2 bytes at its largest-n call.

    That is the number of live n x n float64 buffers the call needed.
    """
    best: dict[str, tuple[int, float]] = {}
    for span in spans:
        if span.n <= 0:
            continue
        ratio = span.peak / (8.0 * span.n**2)
        key = (span.n, ratio)
        if span.name not in best or key > best[span.name]:
            best[span.name] = key
    return {name: ratio for name, (_, ratio) in best.items()}
