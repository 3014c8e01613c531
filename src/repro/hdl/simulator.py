"""Cycle-accurate simulation front-end (compile-then-execute).

:class:`Simulator` keeps the public ``run`` / ``state_sequence`` API of
the original object-walking loop but delegates to one of two engines
from :mod:`repro.hdl.engine`:

* ``"compiled"`` — the netlist is lowered once into a flat,
  table-driven program: a code-generated loop steps only the
  sequential residue (registers on feedback cycles, transition tables,
  ports and their fan-in) cycle by cycle, numpy kernels rebuild every
  feed-forward wire column for all cycles at once, and switching
  activity is accumulated into the ``(cycles, channels)`` matrix with
  vectorised Hamming weights, with zero per-cycle object allocation.
  Raises when the netlist cannot be compiled.
* ``"interpreted"`` — the original per-object loop, retained as the
  reference oracle.  ``tests/test_engine.py`` asserts bit-identical
  activity matrices between engines for every paper design.

``"auto"`` (the default) tries the compiled engine and silently falls
back to the interpreted loop for netlists the lowering pass does not
support (custom component classes, >63-bit buses, wires not
registered in the netlist).  Both engines produce bit-identical
activity; the choice is purely an execution strategy.

Fleet-scale workloads use :func:`simulate_batch`: it groups many
simulators by the compiled engine's *shape key* and executes each
group in one :func:`~repro.hdl.engine.run_batch` call, falling back to
per-simulator ``run`` for lanes the batched path does not cover.
Batched results are byte-identical to per-simulator runs — batching is
purely an execution strategy, never a semantic choice.

Each simulated cycle models one clock period of the synchronous design:
wires latch their settled values as "previous", registers capture and
commit, input ports advance their stimulus, combinational logic
settles in topological order, and every component's switching activity
for the cycle is recorded.  The recorded
:class:`~repro.hdl.activity.ActivityTrace` is the raw material the
power chain turns into oscilloscope-like traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hdl.activity import ActivityTrace
from repro.hdl.engine import (
    CompileError,
    CyclesLike,
    InterpretedEngine,
    _lane_cycles,
    compile_netlist,
    run_batch,
)
from repro.hdl.netlist import Netlist

#: Engine selectors accepted by :class:`Simulator`.
ENGINES = ("auto", "compiled", "interpreted")


class Simulator:
    """Runs a netlist for a number of cycles and records activity.

    ``engine`` selects the execution strategy: ``"auto"`` (compiled
    with interpreted fallback), ``"compiled"`` (raise
    :class:`~repro.hdl.engine.CompileError` when lowering fails) or
    ``"interpreted"`` (always use the reference loop).
    """

    def __init__(self, netlist: Netlist, engine: str = "auto"):
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        netlist.validate()
        self.netlist = netlist
        self._engine_choice = engine
        self._shape: Optional[Tuple[int, int, int]] = None
        self._engine = None
        self._refresh_engine()

    def _refresh_engine(self) -> None:
        """(Re)build the engine; recompiles if the netlist grew.

        The shape tuple includes the netlist's compile generation, so a
        component that announced a mutation via ``invalidate_compiled``
        triggers a recompile here instead of a stale-program error.
        """
        shape = (
            len(self.netlist.wires),
            len(self.netlist.components),
            self.netlist.compile_generation,
        )
        if self._engine is not None and shape == self._shape:
            return
        self._shape = shape
        if self._engine_choice == "interpreted":
            self._engine = InterpretedEngine(self.netlist)
            return
        try:
            self._engine = compile_netlist(self.netlist)
        except CompileError:
            if self._engine_choice == "compiled":
                raise
            self._engine = InterpretedEngine(self.netlist)

    @property
    def engine_name(self) -> str:
        """Which engine is active: ``"compiled"`` or ``"interpreted"``."""
        return self._engine.name

    @property
    def structural_key(self) -> Optional[str]:
        """Structural fingerprint of the lowered netlist.

        Two netlists with the same key are bit-for-bit guaranteed to
        produce the same :class:`~repro.hdl.activity.ActivityTrace`;
        ``None`` when the netlist cannot be fingerprinted (interpreted
        engine, input ports, opaque lookup callables).
        """
        return self._engine.structural_key

    def run(self, cycles: int, reset: bool = True) -> ActivityTrace:
        """Simulate ``cycles`` clock periods and return the activity.

        With ``reset=True`` (the default) the design starts from its
        power-on state — the paper places all FSMs "in the exact same
        state before starting any power consumption measurements".
        """
        self._refresh_engine()
        return self._engine.run(cycles, reset)

    def state_sequence(self, register_name: str, cycles: int) -> List[int]:
        """Convenience: the Q values of one register over ``cycles`` cycles.

        Runs a fresh simulation (with reset) and samples the register
        after each clock edge; useful for functional tests.  Both
        engines express this through the same cycle machinery as
        :meth:`run`, so the two paths cannot drift.
        """
        register = self.netlist.component(register_name)
        q_wire = register.output_wires[0]
        self._refresh_engine()
        return self._engine.wire_sequence(q_wire, cycles)


def simulate_batch(
    simulators: Sequence[Simulator],
    cycles: CyclesLike,
    reset: bool = True,
) -> List[ActivityTrace]:
    """Run many simulators, batching shape-compatible compiled engines.

    ``cycles`` is one count shared by every simulator or a per-simulator
    sequence.  Simulators whose compiled engines share a
    :attr:`~repro.hdl.engine.CompiledNetlist.shape_key` execute in one
    :func:`~repro.hdl.engine.run_batch` call per group; singleton
    groups, interpreted engines and unbatchable netlists run through the
    ordinary per-simulator ``run``.  Results come back in input order and are
    byte-identical — traces and post-run netlist state — to calling
    ``simulator.run(cycles, reset)`` in a loop.
    """
    sims = list(simulators)
    lane_cycles = _lane_cycles(sims, cycles)
    results: List[Optional[ActivityTrace]] = [None] * len(sims)
    groups: Dict[str, List[int]] = {}
    seen_netlists = set()
    for position, simulator in enumerate(sims):
        simulator._refresh_engine()
        engine = simulator._engine
        shape_key = getattr(engine, "shape_key", None)
        # A netlist appearing twice (same simulator listed again, or
        # two simulators sharing one netlist) batches only once; its
        # later positions run through ``run`` below *after*
        # the batch wrote the first run's state back, which preserves
        # the sequential loop's continuation semantics exactly.
        if shape_key is not None and id(simulator.netlist) not in seen_netlists:
            seen_netlists.add(id(simulator.netlist))
            groups.setdefault(shape_key, []).append(position)
    for members in groups.values():
        if len(members) < 2:
            continue
        traces = run_batch(
            [sims[i]._engine for i in members],
            [lane_cycles[i] for i in members],
            reset=reset,
        )
        for position, trace in zip(members, traces):
            results[position] = trace
    for position, simulator in enumerate(sims):
        if results[position] is None:
            results[position] = simulator.run(lane_cycles[position], reset=reset)
    return results
