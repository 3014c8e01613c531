"""The one public entry point for executing a sweep.

    ``run(spec, store, options=SweepOptions(...), progress=...)``

:class:`SweepOptions` carries every execution knob.  Execution never
changes results: whatever the options, the store is byte-identical to
a clean single-worker run.

Every sweep runs through one loop,
:func:`repro.sweeps.scheduler.supervise`, which owns attempts,
retries, quarantine and progress.  The options only choose where
attempts run:

* ``n_workers == 1`` and no ``scheduler``: in process, on the calling
  thread, with the cross-campaign batch pool when ``pool`` is set;
* otherwise: on ``n_workers`` long-lived, lease-scheduled worker
  processes, with scenario timeouts and safe concurrency of many runs
  on one store root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from repro.sweeps.scheduler import RetryPolicy, SchedulerOptions, supervise
from repro.sweeps.spec import SweepSpec
from repro.sweeps.store import SweepStore

if TYPE_CHECKING:  # imported lazily at call time to avoid module cycles
    from repro.experiments.artifacts import ArtifactOptions
    from repro.hdl.batch_pool import BatchPoolOptions
    from repro.sweeps.executor import SweepReport


@dataclass(frozen=True)
class SweepOptions:
    """Every execution knob of one sweep run, in one place.

    ``n_workers``
        Parallelism.  More than one runs attempts on that many
        long-lived, lease-scheduled worker processes.

    ``artifacts``
        :class:`~repro.experiments.artifacts.ArtifactOptions` enabling
        cross-scenario fleet and trace sharing (an options ``root``
        adds the on-disk tier shared across workers, runs and service
        instances).

    ``pool``
        :class:`~repro.hdl.batch_pool.BatchPoolOptions` enabling the
        cross-campaign batch pool.  Applies to in-process sweeps only
        (``n_workers == 1`` and no ``scheduler``); worker processes
        ignore it.

    ``retry``
        Per-scenario attempt budget and backoff.  ``None`` means the
        stock :class:`~repro.sweeps.scheduler.RetryPolicy`.

    ``scheduler``
        :class:`~repro.sweeps.scheduler.SchedulerOptions` (lease TTL,
        scenario timeout, status log interval).  Setting it runs the
        sweep on leased worker processes even with one worker;
        ``None`` uses the defaults when ``n_workers > 1``.

    Results never depend on any of these: every combination converges
    on a byte-identical store.
    """

    n_workers: int = 1
    artifacts: Optional["ArtifactOptions"] = None
    pool: Optional["BatchPoolOptions"] = None
    retry: Optional[RetryPolicy] = None
    scheduler: Optional[SchedulerOptions] = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")


def run(
    spec: SweepSpec,
    store: SweepStore,
    options: Optional[SweepOptions] = None,
    progress: Optional[Callable[[str, bool], None]] = None,
) -> "SweepReport":
    """Execute every missing scenario of ``spec`` into ``store``.

    ``progress`` (if given) is called as ``progress(scenario_id,
    executed)`` once per scenario — immediately for scenarios already
    in the store, on completion for executed ones.  Returns a
    :class:`~repro.sweeps.executor.SweepReport`; aggregate tables are
    read back from the store (:mod:`repro.sweeps.aggregate`) and
    progress snapshots from :func:`repro.sweeps.status.sweep_status`.
    """
    return supervise(spec, store, options or SweepOptions(), progress)


__all__ = ["SweepOptions", "run"]
