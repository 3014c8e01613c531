"""Cross-campaign batched execution: a shared pool of simulation requests.

:func:`~repro.hdl.engine.run_batch` (PR 4) executes N shape-compatible
netlists in one generated step loop, but every caller so far batches
only *its own* lanes: :func:`~repro.acquisition.device.prime_fleet_activity`
groups one fleet, one campaign at a time.  A scenario sweep runs many
campaigns back to back, so shape-compatible lanes from *different*
scenarios still execute in separate engine runs.

:class:`BatchPool` closes that gap.  It collects pending
``(simulator, cycles)`` requests from any number of callers —
campaigns, scenarios, whole sweeps — and defers execution until
a *flush*: one :func:`~repro.hdl.simulator.simulate_batch` call that
groups every pending lane by the engine's shape key **across campaign
boundaries** and executes each shape group in a single batched run
(unbatchable lanes fall back to the scalar path inside the same
flush).  Callers get a :class:`BatchFuture` back; resolving a pending
future forces a flush, so nothing ever deadlocks on an unflushed pool.

Flushes are size- and byte-budgeted (:class:`BatchPoolOptions`): a
submission that pushes the pool past ``max_lanes`` pending requests or
past ``max_bytes`` of estimated recorded-value tensors flushes
immediately, which bounds the memory of one batched execution no
matter how many scenarios feed the pool.

Callers decide *when* to drain, and in-process sweeps exploit that to
overlap flushing with acquisition: a prefetch flushes only the first
scenario's lanes so its campaign starts measuring at once, leaves the
rest of the wave pending, and the first campaign whose priming finds
unresolved lanes drains the accumulated wave in one cross-campaign
flush (see :class:`~repro.sweeps.executor.InlineAttempts`, the
in-process attempt runner; sweeps on worker processes do not pool).
Because batch boundaries never change trace bytes, that scheduling
freedom is free.

**Invariant — pooling never changes trace bytes.**  The pool is pure
deferral plus grouping on top of :func:`simulate_batch`, whose results
are byte-identical to calling ``simulator.run`` in a loop (the
engine's batching invariant).  Pool on or off, batch boundaries moved
by budget flushes, lanes interleaved from many campaigns: every
consumer observes identical :class:`~repro.hdl.activity.ActivityTrace`
bytes, which is why sweep stores keep byte-identical digests for any
pool configuration (``tests/test_batch_pool.py``).

Error handling is all-or-nothing per flush: if any lane of a flush
raises (e.g. a transition table without an entry for a reached state),
the error propagates out of :meth:`BatchPool.flush` *and* is recorded
on every future of that flush, so a caller that polls its future later
sees the same exception instead of a silent gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.hdl.activity import ActivityTrace
from repro.hdl.simulator import Simulator, simulate_batch

#: Default cap on pending requests before a submission auto-flushes.
DEFAULT_MAX_LANES = 256

#: Default budget (bytes) of estimated recorded wire-value tensors a
#: single flush may execute: 256 MiB keeps even a wide pooled sweep
#: chunk comfortably inside a laptop-sized heap.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class BatchPoolOptions:
    """Picklable pool configuration (travels in sweep-worker payloads).

    ``max_lanes`` bounds how many pending requests accumulate before a
    submission triggers a flush; ``max_bytes`` bounds the estimated
    memory of the recorded value tensors of one flush.  Both budgets
    only move flush boundaries — results are byte-identical for any
    setting.
    """

    max_lanes: int = DEFAULT_MAX_LANES
    max_bytes: int = DEFAULT_MAX_BYTES

    def __post_init__(self) -> None:
        if self.max_lanes <= 0:
            raise ValueError("max_lanes must be positive")
        if self.max_bytes <= 0:
            raise ValueError("max_bytes must be positive")


@dataclass
class BatchPoolStats:
    """Submission/flush accounting of one :class:`BatchPool`."""

    submitted: int = 0
    deduped: int = 0
    flushes: int = 0
    auto_flushes: int = 0
    flushed_lanes: int = 0


class BatchFuture:
    """Handle to one pooled simulation request.

    Resolves when the owning pool flushes; :meth:`result` on a pending
    future forces that flush.  ``add_done_callback`` registers a
    ``fn(trace)`` hook run on successful resolution (immediately when
    already resolved) — the fleet-activity layer uses it to install
    pooled traces into its caches the moment they exist.
    """

    __slots__ = ("_pool", "_trace", "_error", "_callbacks")

    def __init__(self, pool: "BatchPool"):
        self._pool = pool
        self._trace: Optional[ActivityTrace] = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[[ActivityTrace], None]] = []

    def done(self) -> bool:
        """True once the request resolved (successfully or not)."""
        return self._trace is not None or self._error is not None

    def add_done_callback(self, fn: Callable[[ActivityTrace], None]) -> None:
        if self._trace is not None:
            fn(self._trace)
        elif self._error is None:
            self._callbacks.append(fn)

    def result(self) -> ActivityTrace:
        """The simulated activity trace (flushes the pool if pending)."""
        if not self.done():
            self._pool.flush()
        if self._error is not None:
            raise self._error
        assert self._trace is not None
        return self._trace

    def _resolve(self, trace: ActivityTrace) -> None:
        self._trace = trace
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(trace)

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._callbacks = []


class BatchPool:
    """Collects simulation requests and flushes them in shared batches.

    One pool instance is meant to span many campaigns: an in-process
    sweep holds one per run and threads it through
    :func:`~repro.experiments.runner.run_campaign` down to
    :func:`~repro.acquisition.device.prime_fleet_activity`.  All
    submissions simulate from reset — exactly what every activity /
    waveform consumer in the acquisition chain requests.
    """

    def __init__(self, options: Optional[BatchPoolOptions] = None):
        self.options = options if options is not None else BatchPoolOptions()
        self.stats = BatchPoolStats()
        self._pending: List[Tuple[Simulator, int, BatchFuture]] = []
        self._by_key: Dict[object, BatchFuture] = {}
        self._pending_bytes = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        """Estimated recorded-tensor bytes of the pending requests."""
        return self._pending_bytes

    @staticmethod
    def _estimate_bytes(simulator: Simulator, cycles: int) -> int:
        """Rough size of one lane's recorded wire-value matrix.

        The batched engine records ``(cycles + 1, n_wires)`` uint64
        values per lane; this deliberately ignores memoised early
        stops, so the budget errs on the safe (flush-earlier) side.
        """
        n_wires = max(len(simulator.netlist.wires), 1)
        return (cycles + 1) * n_wires * 8

    def submit(
        self,
        simulator: Simulator,
        cycles: int,
        key: Optional[object] = None,
    ) -> BatchFuture:
        """Enqueue one from-reset simulation request.

        ``key`` (optional) dedupes within the current flush window: a
        second submission with the same key — typically another
        campaign priming the same ``(structure, cycles)`` entry before
        the pool flushed — returns the first request's future instead
        of queueing a redundant lane.  Auto-flushes when the pending
        set exceeds the lane or byte budget.
        """
        cycles = int(cycles)
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        if key is not None:
            existing = self._by_key.get(key)
            if existing is not None:
                self.stats.deduped += 1
                return existing
        future = BatchFuture(self)
        self._pending.append((simulator, cycles, future))
        self._pending_bytes += self._estimate_bytes(simulator, cycles)
        if key is not None:
            self._by_key[key] = future
        self.stats.submitted += 1
        if (
            len(self._pending) >= self.options.max_lanes
            or self._pending_bytes > self.options.max_bytes
        ):
            self.stats.auto_flushes += 1
            self.flush()
        return future

    def flush(self) -> int:
        """Execute every pending request in shared shape-grouped batches.

        Returns the number of lanes executed.  On any lane failure the
        whole flush fails: every pending future records the exception
        and it propagates to the caller.
        """
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        self._by_key.clear()
        self._pending_bytes = 0
        self.stats.flushes += 1
        self.stats.flushed_lanes += len(pending)
        simulators = [entry[0] for entry in pending]
        cycles = [entry[1] for entry in pending]
        try:
            traces = simulate_batch(simulators, cycles, reset=True)
        except BaseException as error:
            for _simulator, _cycles, future in pending:
                future._fail(error)
            raise
        for (_simulator, _cycles, future), trace in zip(pending, traces):
            future._resolve(trace)
        return len(pending)


__all__ = [
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_LANES",
    "BatchFuture",
    "BatchPool",
    "BatchPoolOptions",
    "BatchPoolStats",
]
