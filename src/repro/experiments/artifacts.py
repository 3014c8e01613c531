"""Cross-campaign artifact sharing: keyed caches for fleets and traces.

A campaign's cost is dominated by the acquisition step ``Pw(device,
n)`` — 400 reference + 4 x 10 000 DUT traces — yet a scenario sweep
whose axes are *analysis-side* (``parameters.k/m/n1/n2``,
distinguishers, ``analysis_seed``) re-manufactures the fleet and
re-acquires every trace set per scenario.  This module closes that
gap by deriving two cache keys from a
:class:`~repro.experiments.runner.CampaignConfig`:

* **fleet key** (:func:`fleet_key`) — everything that determines the
  manufactured silicon: power model, variation model, waveform
  rendering, ``fleet_seed``, ``watermarked``, ``engine``.  Two configs
  with equal fleet keys describe byte-identical device fleets.
* **measurement key** (:func:`measurement_key`) — the fleet key plus
  the measurement chain (noise model, ADC, ``measurement_seed``) and
  the resolved ``n1``/``n2`` trace ceilings.  It identifies one
  concrete set of acquired trace matrices.  The ceiling-free prefix of
  this key (:func:`measurement_base_key`) seeds the per-device
  acquisition streams, so trace sets are *prefix-reusable*: a scenario
  needing ``n2 = 2 500`` traces slices the first 2 500 rows of a
  cached ``n2 = 10 000`` matrix and gets exactly the bytes a direct
  2 500-trace acquisition would produce.

Analysis (k-averaging, correlation, verdicts) is never cached: it is
cheap next to acquisition and always re-runs on the shared fleet and
traces.

Campaigns run inside a sweep may additionally tamper with the DUTs
(the ``attack`` axis); the transform name is folded into every key as
the ``fleet_tag``, so attacked and pristine fleets never share
artifacts.

:class:`ArtifactCache` is the two-tier store built on those keys: a
process-wide byte-budgeted LRU over trace matrices (plus a small fleet
LRU), optionally backed by an on-disk content-addressed tier that
reuses the :class:`~repro.sweeps.store.SweepStore` machinery
(deterministic array bundles, atomic completion-marker writes) so
sweep workers — or separate runs — share acquisitions through the
filesystem.  Sharing is *transparent*: because per-device acquisition
seeds derive from the measurement base key rather than from a
sequential bench RNG, a cache hit returns byte-for-byte what a cold
acquisition would have produced.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.acquisition.bench import acquire_keyed
from repro.acquisition.oscilloscope import Oscilloscope
from repro.acquisition.traces import TraceSet

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.experiments.runner import CampaignConfig

#: Version folded into every artifact key; bump when key semantics or
#: the acquisition byte stream change incompatibly.
ARTIFACT_SCHEMA = 1

#: Default byte budget of the in-memory trace-matrix LRU (256 MiB —
#: two paper-sized DUT acquisitions).
DEFAULT_TRACE_BUDGET = 256 * 1024 * 1024

#: Default number of manufactured fleets kept alive per process.
DEFAULT_FLEET_SLOTS = 8

def _canonical_json(value: object) -> str:
    """Canonical (sorted, compact) JSON used for key digests."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _payload(value: object) -> object:
    """JSON-able canonical form of a config fragment (dataclasses
    become sorted field dicts; mappings are sorted by key)."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _payload(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, Mapping):
        return {str(key): _payload(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_payload(item) for item in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise {value!r} into an artifact key")


def _digest(kind: str, payload: object) -> str:
    body = _canonical_json({"schema": ARTIFACT_SCHEMA, kind: payload})
    return hashlib.sha256(body.encode()).hexdigest()[:32]


def _fleet_payload(config: "CampaignConfig", fleet_tag: str) -> Dict[str, object]:
    """The *physical* fleet identity: what the silicon and its
    deterministic waveforms depend on."""
    payload = {
        "power_model": _payload(config.power_model),
        "variation": _payload(config.variation),
        "waveform": _payload(config.waveform),
        "fleet_seed": config.fleet_seed,
        "watermarked": config.watermarked,
        "fleet_tag": fleet_tag,
    }
    # Only non-default designs join the payload, so every digest minted
    # before the ``design`` field existed stays byte-identical.
    if config.design != "paper":
        payload["design"] = config.design
    return payload


def fleet_key(config: "CampaignConfig", fleet_tag: str = "none") -> str:
    """Digest of everything that determines the manufactured fleet.

    ``fleet_tag`` names the DUT transform applied after manufacture
    (the sweep ``attack`` axis); ``"none"`` is the pristine fleet.
    ``engine`` is part of this key — not because it changes any
    waveform byte (compiled and interpreted simulation are
    bit-identical), but because cached :class:`~repro.acquisition.device.Device`
    objects pin their simulation path, so a fleet must only be reused
    by configs asking for the same engine.
    """
    return _digest(
        "fleet",
        dict(_fleet_payload(config, fleet_tag), engine=config.engine),
    )


def measurement_base_key(config: "CampaignConfig", fleet_tag: str = "none") -> str:
    """Ceiling-free measurement key: fleet key + noise/ADC/seed.

    This is the seed material for the per-device acquisition streams
    (see :func:`~repro.acquisition.bench.derive_acquisition_seed`); it
    deliberately excludes two things:

    * the ``n1``/``n2`` ceilings, so trace matrices acquired at
      different budgets share one noise stream and can be reused by
      prefix;
    * the ``engine``, so campaigns differing only in simulation path
      keep byte-identical measurements (the engines are bit-equivalent
      on the waveforms).
    """
    return _digest(
        "measurement_base",
        {
            "fleet": _fleet_payload(config, fleet_tag),
            "noise": _payload(config.noise),
            "adc": _payload(config.adc),
            "measurement_seed": config.measurement_seed,
        },
    )


def measurement_key(config: "CampaignConfig", fleet_tag: str = "none") -> str:
    """Digest identifying one concrete set of acquired trace matrices:
    the base key plus the resolved ``n1``/``n2`` trace ceilings."""
    return _digest(
        "measurement",
        {
            "base": measurement_base_key(config, fleet_tag),
            "n1": config.parameters.n1,
            "n2": config.parameters.n2,
        },
    )


@dataclass(frozen=True)
class ArtifactOptions:
    """Picklable sharing configuration (travels in pool payloads).

    ``root`` enables the on-disk tier under that directory; ``None``
    keeps sharing process-local.  ``max_trace_bytes`` bounds the
    in-memory trace LRU.
    """

    root: Optional[str] = None
    max_trace_bytes: int = DEFAULT_TRACE_BUDGET
    max_fleets: int = DEFAULT_FLEET_SLOTS

    def __post_init__(self) -> None:
        if self.max_trace_bytes <= 0:
            raise ValueError("max_trace_bytes must be positive")
        if self.max_fleets <= 0:
            raise ValueError("max_fleets must be positive")


@dataclass
class ArtifactStats:
    """Hit/miss and memory accounting of one :class:`ArtifactCache`."""

    fleet_hits: int = 0
    fleet_misses: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    disk_hits: int = 0
    bytes_acquired: int = 0
    bytes_in_memory: int = 0
    peak_bytes: int = 0

    def note_bytes(self, delta: int) -> None:
        self.bytes_in_memory += delta
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_memory)


class ArtifactCache:
    """Two-tier (memory + optional disk) cache of campaign artifacts.

    The cache never *computes* fleets itself — callers pass a factory
    so manufacture (and any attack transform) stays where it belongs —
    but it owns acquisition end-to-end, because reproducing the keyed
    per-device streams is exactly what makes a hit byte-identical to a
    cold run.  One instance per process is the intended shape (see
    :func:`process_artifact_cache`); sweep workers each hold their own
    and meet, if configured, in the shared disk tier.
    """

    def __init__(self, options: Optional[ArtifactOptions] = None):
        self.options = options if options is not None else ArtifactOptions()
        self.stats = ArtifactStats()
        self._fleets: "OrderedDict[str, object]" = OrderedDict()
        self._traces: "OrderedDict[Tuple[str, str, int], TraceSet]" = OrderedDict()
        self._store = None
        if self.options.root is not None:
            # Deferred import: repro.sweeps pulls in the runner module,
            # which imports this one.
            from repro.sweeps.store import SweepStore

            self._store = SweepStore(self.options.root)

    # -- fleets ------------------------------------------------------------

    def fleet(
        self,
        config: "CampaignConfig",
        fleet_tag: str = "none",
        factory: Optional[Callable[[], object]] = None,
    ) -> object:
        """The manufactured (and possibly attacked) fleet for a config.

        ``factory`` builds the fleet on a miss; it must already apply
        the transform named by ``fleet_tag``.  Cached devices carry
        their simulated waveforms, so a hit skips manufacture *and*
        deterministic-waveform simulation.
        """
        key = fleet_key(config, fleet_tag)
        cached = self._fleets.get(key)
        if cached is not None:
            self._fleets.move_to_end(key)
            self.stats.fleet_hits += 1
            return cached
        if factory is None:
            raise KeyError(f"fleet {key} not cached and no factory given")
        self.stats.fleet_misses += 1
        built = factory()
        self._fleets[key] = built
        while len(self._fleets) > self.options.max_fleets:
            self._fleets.popitem(last=False)
        return built

    # -- traces ------------------------------------------------------------

    def _artifact_id(self, base_key: str, device_name: str, cycles: int) -> str:
        return _digest(
            "traces",
            {"base": base_key, "device": device_name, "cycles": cycles},
        )

    def _freeze(self, traces: TraceSet) -> TraceSet:
        if traces.matrix.flags.writeable:
            traces.matrix.flags.writeable = False
        return traces

    def _prefix(self, cached: TraceSet, n_traces: int) -> TraceSet:
        if cached.n_traces == n_traces:
            return cached
        return TraceSet(cached.device_name, cached.matrix[:n_traces])

    def _forget(self, key: Tuple[str, str, int]) -> None:
        old = self._traces.pop(key, None)
        if old is not None:
            self.stats.note_bytes(-old.matrix.nbytes)

    def _evict(self, room: int = 0) -> None:
        """Drop least-recently-used matrices until ``room`` more bytes
        fit the budget (with ``room == 0``, the newest entry stays even
        when it alone exceeds the budget)."""
        keep = 0 if room else 1
        while (
            self.stats.bytes_in_memory + room > self.options.max_trace_bytes
            and len(self._traces) > keep
        ):
            _, evicted = self._traces.popitem(last=False)
            self.stats.note_bytes(-evicted.matrix.nbytes)

    def _remember(self, key: Tuple[str, str, int], traces: TraceSet) -> None:
        self._forget(key)
        self._traces[key] = traces
        self.stats.note_bytes(traces.matrix.nbytes)
        self._evict()

    def traces(
        self,
        config: "CampaignConfig",
        device,
        n_traces: int,
        n_cycles: Optional[int] = None,
        fleet_tag: str = "none",
    ) -> TraceSet:
        """Acquire-or-reuse ``n_traces`` traces of ``device``.

        Lookup order: memory LRU, disk tier, cold acquisition.  A hit
        whose matrix holds at least ``n_traces`` rows is served as a
        read-only prefix view; a larger request re-acquires from the
        same keyed stream (the old entry is a prefix of the new one)
        and replaces the cache entry.
        """
        return self.traces_many(config, [(device, n_traces)], n_cycles, fleet_tag)[0]

    def traces_many(
        self,
        config: "CampaignConfig",
        requests: Sequence[Tuple[object, int]],
        n_cycles: Optional[int] = None,
        fleet_tag: str = "none",
    ) -> List[TraceSet]:
        """:meth:`traces` for several ``(device, n_traces)`` requests.

        Memory and disk hits are resolved first, in request order;
        every miss is then acquired in one concurrent
        :func:`~repro.acquisition.bench.acquire_keyed` call, and the
        acquired sets are remembered and saved in request order.  For
        a batch of distinct misses the LRU order and every stat but
        ``peak_bytes`` end up exactly as one :meth:`traces` call per
        request would leave them.  Room for the whole batch is made
        before it is acquired, so ``peak_bytes`` counts the batch as
        resident at once — which it is.  The bytes are the same for
        any batch.
        """
        for _, n_traces in requests:
            if n_traces <= 0:
                raise ValueError(f"n_traces must be positive, got {n_traces}")
        base_key = measurement_base_key(config, fleet_tag)
        keys = [
            (base_key, device.name, device.resolve_cycles(n_cycles))
            for device, _ in requests
        ]
        served: List[Optional[TraceSet]] = []
        misses: List[int] = []
        for index, (device, n_traces) in enumerate(requests):
            key = keys[index]
            cached = self._traces.get(key)
            if cached is not None and cached.n_traces >= n_traces:
                self._traces.move_to_end(key)
                self.stats.trace_hits += 1
                served.append(self._prefix(cached, n_traces))
                continue
            loaded = self._load_from_store(key, device.name, n_traces)
            if loaded is not None:
                self.stats.disk_hits += 1
                self._remember(key, loaded)
                served.append(self._prefix(loaded, n_traces))
                continue
            served.append(None)
            misses.append(index)
        # Make room before acquiring, so the cache and the new float64
        # matrices together stay within the budget.  Evicting up front
        # leaves the same entries as evicting after each insertion.
        room = 0
        for index in misses:
            device, n_traces = requests[index]
            self._forget(keys[index])
            room += 8 * n_traces * device.trace_length(n_cycles)
        if room:
            self._evict(room)
        acquired = acquire_keyed(
            Oscilloscope(config.noise, config.adc),
            base_key,
            [requests[index] for index in misses],
            n_cycles,
        )
        for index, traces in zip(misses, acquired):
            self.stats.trace_misses += 1
            self.stats.bytes_acquired += traces.matrix.nbytes
            self._remember(keys[index], self._freeze(traces))
            self._save_to_store(keys[index], traces)
            served[index] = traces
        return served

    # -- disk tier ---------------------------------------------------------

    def _load_from_store(
        self, key: Tuple[str, str, int], device_name: str, n_traces: int
    ) -> Optional[TraceSet]:
        if self._store is None:
            return None
        artifact_id = self._artifact_id(*key)
        if not self._store.has(artifact_id):
            return None
        record = self._store.get(artifact_id)
        if int(record.get("n_traces", 0)) < n_traces:
            return None
        arrays = self._store.get_arrays(artifact_id)
        matrix = arrays.get("traces")
        if matrix is None or matrix.shape[0] < n_traces:
            return None
        return self._freeze(TraceSet(device_name, matrix))

    def _save_to_store(self, key: Tuple[str, str, int], traces: TraceSet) -> None:
        # Concurrent workers may interleave the has()/put() pair, so a
        # smaller acquisition can transiently clobber a larger one on
        # disk.  That is benign for correctness — loads check the row
        # count and fall back to re-acquiring the keyed stream — it only
        # costs a redundant acquisition on the losing side.
        if self._store is None:
            return
        base_key, device_name, cycles = key
        artifact_id = self._artifact_id(*key)
        if self._store.has(artifact_id):
            existing = self._store.get(artifact_id)
            if int(existing.get("n_traces", 0)) >= traces.n_traces:
                return
        record = {
            "artifact": "traces",
            "schema": ARTIFACT_SCHEMA,
            "base_key": base_key,
            "device": device_name,
            "cycles": cycles,
            "n_traces": traces.n_traces,
        }
        self._store.put(artifact_id, record, {"traces": traces.matrix})

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        """Drop every in-memory artifact (the disk tier is untouched)."""
        self._fleets.clear()
        self._traces.clear()
        self.stats = ArtifactStats()

    def __len__(self) -> int:
        return len(self._fleets) + len(self._traces)


#: The per-process cache behind :func:`process_artifact_cache`.
_PROCESS_CACHE: Optional[ArtifactCache] = None


def process_artifact_cache(
    options: Optional[ArtifactOptions] = None,
) -> ArtifactCache:
    """The process-wide :class:`ArtifactCache` (created on first use).

    Passing ``options`` different from the live cache's replaces it —
    sweep workers call this with the payload's options, so a forked
    worker inherits the parent's warm cache whenever the configuration
    matches.
    """
    global _PROCESS_CACHE
    wanted = options if options is not None else ArtifactOptions()
    if _PROCESS_CACHE is None or _PROCESS_CACHE.options != wanted:
        _PROCESS_CACHE = ArtifactCache(wanted)
    return _PROCESS_CACHE


def clear_process_artifact_cache() -> None:
    """Forget the process-wide cache entirely (mainly for tests)."""
    global _PROCESS_CACHE
    _PROCESS_CACHE = None


__all__ = [
    "ARTIFACT_SCHEMA",
    "DEFAULT_TRACE_BUDGET",
    "ArtifactCache",
    "ArtifactOptions",
    "ArtifactStats",
    "clear_process_artifact_cache",
    "fleet_key",
    "measurement_base_key",
    "measurement_key",
    "process_artifact_cache",
]
