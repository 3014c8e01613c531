"""Digital-logic substrate: wires, components, netlists and a
compile-then-execute cycle-accurate simulator that records
per-component switching activity.

This package stands in for the paper's Altera Cyclone III FPGAs: the
verification scheme only consumes switching activity, which the
simulator records exactly.  Netlists are assembled from component
objects (:mod:`repro.hdl.component` and friends), validated by
:mod:`repro.hdl.netlist`, then *lowered* by :mod:`repro.hdl.engine`
into a flat, table-driven program — a generated loop that steps only
the sequential residue (feedback registers and their fan-in), numpy
kernels that rebuild every feed-forward wire for all cycles at once,
and switching activity as vectorised Hamming weights over the recorded
wire-value matrix.  :class:`~repro.hdl.simulator.Simulator` fronts both
the compiled engine (default) and the original interpreted loop, which
is retained as the reference oracle; the two are bit-identical on
every supported netlist.
"""

from repro.hdl.activity import ActivityTrace, Channel
from repro.hdl.combinational import (
    BinaryToGray,
    Constant,
    GrayToBinary,
    Incrementer,
    LookupLogic,
    Mux2,
    TransitionTable,
    XorArray,
)
from repro.hdl.component import (
    ACTIVITY_KINDS,
    ActivityEvent,
    CombinationalComponent,
    Component,
    KIND_CLOCK,
    KIND_COMB,
    KIND_IO,
    KIND_RAM,
    KIND_REGISTER,
    SequentialComponent,
)
from repro.hdl.engine import (
    CompiledNetlist,
    CompileError,
    InterpretedEngine,
    compile_netlist,
    run_batch,
)
from repro.hdl.io import ClockTree, InputPort, OutputPort
from repro.hdl.memory import SyncROM
from repro.hdl.netlist import Netlist, NetlistError
from repro.hdl.register import DRegister
from repro.hdl.simulator import Simulator, simulate_batch
from repro.hdl.vcd import record_vcd, write_vcd
from repro.hdl.verilog import VerilogExportError, export_testbench, export_verilog
from repro.hdl.wires import Wire, bit, hamming_distance, hamming_weight, mask

__all__ = [
    "ActivityTrace",
    "Channel",
    "ActivityEvent",
    "ACTIVITY_KINDS",
    "KIND_REGISTER",
    "KIND_COMB",
    "KIND_RAM",
    "KIND_IO",
    "KIND_CLOCK",
    "Component",
    "CombinationalComponent",
    "SequentialComponent",
    "Constant",
    "XorArray",
    "Incrementer",
    "BinaryToGray",
    "GrayToBinary",
    "Mux2",
    "LookupLogic",
    "TransitionTable",
    "DRegister",
    "SyncROM",
    "OutputPort",
    "InputPort",
    "ClockTree",
    "Netlist",
    "NetlistError",
    "Simulator",
    "simulate_batch",
    "CompiledNetlist",
    "CompileError",
    "InterpretedEngine",
    "compile_netlist",
    "run_batch",
    "export_verilog",
    "export_testbench",
    "VerilogExportError",
    "record_vcd",
    "write_vcd",
    "Wire",
    "bit",
    "mask",
    "hamming_weight",
    "hamming_distance",
]
