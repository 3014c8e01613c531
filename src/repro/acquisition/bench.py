"""Measurement campaigns: the paper's ``Pw(device, n)`` step.

:func:`acquire_traces` is the library-level entry point for power
acquisition; :class:`MeasurementBench` bundles an oscilloscope and a
randomness policy so a whole experiment shares one reproducible
measurement chain.

A bench has two seeding modes:

* **Sequential** (``seed=...``) — one RNG stream consumed in
  acquisition order, as on a real bench where measurement order
  matters.  Two benches with the same seed reproduce each other only
  if they measure the same devices in the same order.
* **Keyed** (``key=...``) — every ``(device, cycle-count)`` pair gets
  its own generator seeded from
  :func:`derive_acquisition_seed`, so acquiring DUT#3 alone yields
  byte-identical traces to acquiring it inside a full campaign.  This
  is what makes trace sets *sharing-safe*: the artifact cache
  (:mod:`repro.experiments.artifacts`) can reuse one acquisition
  across scenarios because its bytes do not depend on what else was
  measured.  Keyed acquisition is also *prefix-stable*: the first
  ``n`` traces of a large acquisition equal a direct ``n``-trace
  acquisition (see :class:`~repro.power.noise.NoiseModel`).

Because a keyed device's bytes depend on nothing but its own stream,
keyed trace sets can also be acquired *concurrently*:
:func:`acquire_keyed` fans a list of ``(device, n_traces)`` requests
out over a thread pool and returns byte-for-byte what one-at-a-time
acquisition would.  Two things keep that exact: every device's
deterministic waveform is rendered on the calling thread before any
worker starts (rendering fills shared caches; acquiring only reads
them), and each worker owns its generator and its output matrix.  A
sequential bench is never fanned out — its single stream is consumed
in request order by definition.
"""

from __future__ import annotations

import contextvars
import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.acquisition.device import Device, prime_fleet_activity
from repro.acquisition.oscilloscope import Oscilloscope
from repro.acquisition.traces import TraceSet

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike) -> np.random.Generator:
    """Normalise a seed / generator / None into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_acquisition_seed(key: str, device_name: str, n_cycles: int) -> int:
    """Per-device acquisition seed from a bench key.

    ``key`` is an opaque string identifying the measurement context
    (the artifact layer uses the measurement base key of the campaign
    config); the device name and resolved cycle count are mixed in so
    every (device, measurement-length) pair draws an independent,
    order-free noise stream.
    """
    digest = hashlib.sha256(
        f"acquisition:{key}|{device_name}|{n_cycles}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def acquire_traces(
    device: Device,
    n_traces: int,
    oscilloscope: Optional[Oscilloscope] = None,
    rng: RngLike = None,
    n_cycles: Optional[int] = None,
) -> TraceSet:
    """The paper's ``T_device = Pw(device, n)``."""
    scope = oscilloscope if oscilloscope is not None else Oscilloscope()
    return scope.acquire(device, n_traces, make_rng(rng), n_cycles)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def acquire_keyed(
    oscilloscope: Oscilloscope,
    key: str,
    requests: Sequence[Tuple[Device, int]],
    n_cycles: Optional[int] = None,
) -> List[TraceSet]:
    """Keyed acquisition of several ``(device, n_traces)`` requests.

    Each request draws from its own generator seeded by
    :func:`derive_acquisition_seed` (``key``, device name, resolved
    cycle count), so the result — in request order — is byte-identical
    to acquiring the requests one by one.  Requests run on a thread
    pool of ``min(len(requests), usable CPUs)`` threads (inline when
    that is one) after all waveforms are rendered on this thread; each
    task runs in a copy of the caller's :mod:`contextvars` context.
    """
    cycles = [device.resolve_cycles(n_cycles) for device, _ in requests]
    for (device, _), count in zip(requests, cycles):
        device.deterministic_waveform(count)

    def acquire(device: Device, n_traces: int, count: int) -> TraceSet:
        seed = derive_acquisition_seed(key, device.name, count)
        return oscilloscope.acquire(
            device, n_traces, np.random.default_rng(seed), count
        )

    jobs = [
        (device, n_traces, count)
        for (device, n_traces), count in zip(requests, cycles)
    ]
    workers = min(len(jobs), _usable_cpus())
    if workers <= 1:
        return [acquire(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, acquire, *job)
            for job in jobs
        ]
        return [future.result() for future in futures]


class MeasurementBench:
    """One measurement setup shared across a whole experiment.

    Holds the oscilloscope and the seeding policy (see the module
    docstring) so campaigns are exactly reproducible, and caches
    acquired trace sets per device.  Cached matrices are frozen
    (``writeable = False``) and served as zero-copy views — consumers
    must treat trace sets as immutable, which everything in
    :mod:`repro.core` already does.
    """

    def __init__(
        self,
        oscilloscope: Optional[Oscilloscope] = None,
        seed: RngLike = None,
        key: Optional[str] = None,
    ):
        self.oscilloscope = oscilloscope if oscilloscope is not None else Oscilloscope()
        self.rng = make_rng(seed)
        self.key = key
        self._cache: Dict[str, TraceSet] = {}

    @staticmethod
    def _cache_key(device: Device, n_cycles: Optional[int]) -> str:
        return f"{device.name}:{device.resolve_cycles(n_cycles)}"

    def measure(
        self,
        device: Device,
        n_traces: int,
        n_cycles: Optional[int] = None,
        cache: bool = True,
    ) -> TraceSet:
        """Acquire (or reuse) ``n_traces`` traces for ``device``.

        The cache keys on the *resolved* cycle count so that
        ``n_cycles=None`` and an explicit ``n_cycles=default_cycles``
        hit the same entry instead of acquiring twice.  Hits are served
        as read-only prefix views of the cached matrix — no per-hit
        copy of multi-MB trace matrices.
        """
        cache_key = self._cache_key(device, n_cycles)
        if cache and cache_key in self._cache:
            cached = self._cache[cache_key]
            if cached.n_traces >= n_traces:
                if cached.n_traces == n_traces:
                    return cached
                return TraceSet(cached.device_name, cached.matrix[:n_traces])
        if self.key is not None:
            (traces,) = acquire_keyed(
                self.oscilloscope, self.key, [(device, n_traces)], n_cycles
            )
        else:
            traces = self.oscilloscope.acquire(device, n_traces, self.rng, n_cycles)
        if cache:
            traces.matrix.flags.writeable = False
            self._cache[cache_key] = traces
        return traces

    def measure_all(
        self,
        devices: Iterable[Device],
        n_traces: int,
        n_cycles: Optional[int] = None,
        pool=None,
    ) -> Dict[str, TraceSet]:
        """Acquire the same number of traces on several devices.

        The fleet's switching activity is primed first
        (:func:`~repro.acquisition.device.prime_fleet_activity`): all
        devices sharing a netlist shape simulate in one batched engine
        execution instead of one scalar run each.  ``pool`` optionally
        routes that priming through a shared
        :class:`~repro.hdl.batch_pool.BatchPool`, so lanes other
        callers already submitted batch together with this fleet's;
        the pool is flushed before acquisition starts, but only when
        this fleet's priming left lanes unresolved — an already-primed
        fleet measures immediately without draining other callers'
        pending lanes.  Acquired bytes are unchanged either way —
        batching only fills the activity caches faster.

        A keyed bench acquires every device its cache cannot serve in
        one :func:`acquire_keyed` call, concurrently; a sequential
        bench measures one device after another, in iteration order.
        """
        devices = list(devices)
        submitted = prime_fleet_activity(devices, n_cycles, pool=pool)
        if pool is not None and submitted:
            pool.flush()
        if self.key is not None:
            missing: Dict[str, Device] = {}
            for device in devices:
                cache_key = self._cache_key(device, n_cycles)
                cached = self._cache.get(cache_key)
                if cached is None or cached.n_traces < n_traces:
                    missing.setdefault(cache_key, device)
            acquired = acquire_keyed(
                self.oscilloscope,
                self.key,
                [(device, n_traces) for device in missing.values()],
                n_cycles,
            )
            for cache_key, traces in zip(missing, acquired):
                traces.matrix.flags.writeable = False
                self._cache[cache_key] = traces
        return {
            device.name: self.measure(device, n_traces, n_cycles)
            for device in devices
        }

    def clear_cache(self) -> None:
        self._cache.clear()
