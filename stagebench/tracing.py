"""Spans around calls into the program's layers, recorded from outside.

The program is never edited: :func:`instrumented` replaces public
functions and methods of each layer module with wrappers that open a
span, call the original and restore the module attribute on exit.
Spans stay in memory (:class:`Tracer`) and are written out once, when
the benchmark ends.  A layer's self time is its span's duration minus
the part of that interval its child spans cover (:func:`self_times`).

Self-time arithmetic, :class:`RowReads` and :class:`Tracer` import
nothing from ``repro``, so the tests exercise them without the package.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import os
import threading
import time
import weakref
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, ``op``
    names the campaign, sweep or job it belongs to."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        inside = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        result.append(span.end - span.start - covered_length(inside))
    return result


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time of every span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


class Tracer:
    """In-memory span and counter recorder shared by every thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "stagebench-span", default=None
        )

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        parent = self._current.get()
        if op is None and parent is not None:
            op = self.spans[parent].op
        record = Span(name, time.perf_counter(), float("nan"), parent, op)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        token = self._current.set(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._current.reset(token)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def durations(self, name: str) -> List[float]:
        return [span.end - span.start for span in self.spans if span.name == name]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": [asdict(span) for span in self.spans],
                    "counts": dict(self.counts),
                },
                handle,
            )


def _root(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


class RowReads:
    """Distinct trace rows the selection layer returned, per acquisition.

    Every acquired matrix registers its rows; each index drawn while an
    averaging call reads a matrix counts against that matrix's root
    buffer (a cached prefix view shares its root, and its row indices).
    A matrix's distinct count is folded in when the matrix is freed.
    """

    def __init__(self) -> None:
        self.generated = 0
        self._folded = 0
        self._live: Dict[int, set] = {}
        self._reading: contextvars.ContextVar = contextvars.ContextVar(
            "stagebench-reading", default=None
        )

    def acquired(self, matrix: np.ndarray) -> None:
        root = _root(matrix)
        self.generated += matrix.shape[0]
        self._live[id(root)] = set()
        weakref.finalize(root, self._fold, id(root))

    def _fold(self, key: int) -> None:
        self._folded += len(self._live.pop(key, ()))

    @contextlib.contextmanager
    def reading(self, matrix: np.ndarray) -> Iterator[None]:
        token = self._reading.set(self._live.get(id(_root(matrix))))
        try:
            yield
        finally:
            self._reading.reset(token)

    def selected(self, indices: np.ndarray) -> None:
        rows = self._reading.get()
        if rows is not None:
            rows.update(np.asarray(indices).ravel().tolist())

    @property
    def distinct(self) -> int:
        return self._folded + sum(len(rows) for rows in self._live.values())

    @property
    def ratio(self) -> float:
        return self.distinct / self.generated if self.generated else 0.0


def _wrap(tracer: Tracer, name: str, original, before=None, after=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with contextlib.ExitStack() as stack:
            stack.enter_context(tracer.span(name))
            if before is not None:
                stack.enter_context(before(*args, **kwargs))
            result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

    return wrapper


def _layer_points(tracer: Tracer, reads: RowReads) -> list:
    """``(owner, attribute, replacement factory)`` for every wrapped call.

    A function imported by name into another module is wrapped where
    it is looked up, so each call site that reaches the layer is listed.
    """
    import repro.acquisition.device as device
    import repro.core.process as process
    import repro.core.selection as selection
    import repro.experiments.designs as designs
    import repro.experiments.runner as runner
    import repro.hdl.batch_pool as batch_pool
    import repro.sweeps.executor as executor
    from repro.acquisition.oscilloscope import Oscilloscope
    from repro.core.distinguishers import Distinguisher
    from repro.core.verification import WatermarkVerifier
    from repro.hdl.simulator import Simulator
    from repro.power.noise import NoiseModel
    from repro.sweeps.store import SweepStore

    def acquired(result, *args, **kwargs):
        tracer.count("oscilloscope.rows", result.matrix.shape[0])
        tracer.count("oscilloscope.bytes", result.matrix.nbytes)
        reads.acquired(result.matrix)

    def reading(traces, *args, **kwargs):
        return reads.reading(traces.matrix)

    def selected(result, *args, **kwargs):
        reads.selected(result)

    def stored(result, store, scenario_id, *args, **kwargs):
        for path in (store.record_path(scenario_id), store.arrays_path(scenario_id)):
            with contextlib.suppress(FileNotFoundError):
                tracer.count("store.bytes", os.path.getsize(path))

    def span(name, before=None, after=None):
        return lambda original: _wrap(tracer, name, original, before, after)

    def count_only(after):
        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                after(result, *args, **kwargs)
                return result

            return wrapper

        return factory

    return [
        (runner, "build_device_fleet", span("designs.fleet")),
        (designs, "parse_verilog_file", span("verilog_parse.parse")),
        (runner, "prime_fleet_activity", span("device.prime")),
        (designs, "prime_fleet_activity", span("device.prime")),
        (executor, "prime_fleet_activity", span("device.prime")),
        (device, "simulate_batch", span("simulator.batch")),
        (batch_pool, "simulate_batch", span("simulator.batch")),
        (Simulator, "__init__", span("simulator.build")),
        (Simulator, "run", span("simulator.run")),
        (device.Device, "deterministic_waveform", span("device.waveform")),
        (Oscilloscope, "acquire", span("oscilloscope.acquire", after=acquired)),
        (NoiseModel, "sample", span("noise.sample")),
        (batch_pool.BatchPool, "flush", span("batch_pool.flush")),
        (process, "k_averaged_set", span("averaging.average", before=reading)),
        (process, "k_averaged_trace", span("averaging.average", before=reading)),
        (selection, "uniform_distinct_indices", count_only(selected)),
        (process, "pearson_many", span("correlation.pearson")),
        (process, "pearson_rows", span("correlation.pearson")),
        (Distinguisher, "identify", span("distinguishers.verdict")),
        (WatermarkVerifier, "identify", span("verification.identify")),
        (executor, "run_scenario", span("scenario.run")),
        (SweepStore, "put", span("store.put", after=stored)),
        (SweepStore, "get", span("store.get")),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer, reads: RowReads) -> Iterator[None]:
    """Wrap every layer entry point for the duration of the block."""
    patched = []
    try:
        for owner, attribute, factory in _layer_points(tracer, reads):
            original = owner.__dict__[attribute]
            setattr(owner, attribute, factory(original))
            patched.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
