"""Structural Verilog export (the write half of the HDL frontend).

The netlists in this library are behavioural Python objects, but a
downstream user of the watermarking scheme ultimately wants RTL they
can synthesise onto the FPGA the paper used.  This module emits
synthesisable Verilog-2001 for every component type the substrate
provides; the generated module has a clock, an active-high synchronous
reset and the leakage component's pads as outputs.

The export is structural and deliberately boring: one ``always`` block
per register, one ``assign`` per combinational block, a ``case`` table
for ROMs and transition tables.  Component names ride in trailing
``// <name>`` comments and clock-tree loads in ``// repro:`` pragma
comments, which makes the emitted text *round-trippable*:
:func:`repro.hdl.verilog_parse.parse_verilog` reads this exact subset
back into a validated :class:`~repro.hdl.netlist.Netlist`, and for
every paper design ``parse_verilog(export_verilog(n))`` simulates
bit-identically to ``n`` (state and activity) on both engines — the
invariant pinned in ``tests/test_verilog_parse.py``.
Running the text through a real tool (Icarus, Verilator, vendor flows)
still works; the constructs used are the plainest possible.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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
from repro.hdl.component import Component
from repro.hdl.io import ClockTree, InputPort, OutputPort
from repro.hdl.memory import SyncROM
from repro.hdl.netlist import Netlist
from repro.hdl.register import DRegister


class VerilogExportError(Exception):
    """A component has no Verilog translation."""


def _identifier(name: str) -> str:
    """Sanitise a wire/component name into a Verilog identifier."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned or "_anon"


class _IdentifierScope:
    """Collision-free name → identifier mapping for one module.

    Sanitisation is lossy (``a.b`` and ``a_b`` both clean to ``a_b``),
    which used to silently alias two distinct wires in the emitted
    text.  The scope detects the collision and uniquifies
    deterministically in first-use order (``a_b``, ``a_b_2``, ...), so
    equal names always map to equal identifiers and distinct names
    never collide.
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, str] = {}
        self._taken: set = set()

    def __call__(self, name: str) -> str:
        mapped = self._by_name.get(name)
        if mapped is not None:
            return mapped
        base = _identifier(name)
        candidate = base
        suffix = 1
        while candidate in self._taken:
            suffix += 1
            candidate = f"{base}_{suffix}"
        self._by_name[name] = candidate
        self._taken.add(candidate)
        return candidate


def _range(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


def _emit_register(component: DRegister, ident: _IdentifierScope) -> List[str]:
    d = ident(component.d.name)
    q = ident(component.q.name)
    return [
        f"  always @(posedge clk) begin // {component.name}",
        "    if (rst)",
        f"      {q} <= {component.width}'d{component.reset_value};",
        "    else",
        f"      {q} <= {d};",
        "  end",
    ]


def _emit_case_table(
    selector: str, target: str, table: Dict[int, int], width: int, name: str
) -> List[str]:
    lines = [f"  always @(*) begin // {name}", f"    case ({selector})"]
    for key in sorted(table):
        lines.append(f"      {width}'d{key}: {target} = {width}'d{table[key]};")
    lines.append(f"      default: {target} = {width}'d0;")
    lines.append("    endcase")
    lines.append("  end")
    return lines


def _emit_rom(component: SyncROM, ident: _IdentifierScope) -> List[str]:
    address = ident(component.address.name)
    data = ident(component.data.name)
    data_width = component.data.width
    addr_width = component.address.width
    lines = [f"  always @(*) begin // {component.name} (ROM)", f"    case ({address})"]
    for index, word in enumerate(component.contents):
        lines.append(
            f"      {addr_width}'d{index}: {data} = "
            f"{data_width}'h{word:0{(data_width + 3) // 4}x};"
        )
    lines.append(f"      default: {data} = {data_width}'d0;")
    lines.append("    endcase")
    lines.append("  end")
    return lines


def _emit_component(component: Component, ident: _IdentifierScope) -> List[str]:
    if isinstance(component, DRegister):
        return _emit_register(component, ident)
    if isinstance(component, Constant):
        out = ident(component.output.name)
        return [
            f"  assign {out} = {component.output.width}'d{component.value}; "
            f"// {component.name}"
        ]
    if isinstance(component, XorArray):
        out = ident(component.output.name)
        a = ident(component.a.name)
        b = ident(component.b.name)
        return [f"  assign {out} = {a} ^ {b}; // {component.name}"]
    if isinstance(component, Incrementer):
        out = ident(component.output.name)
        a = ident(component.a.name)
        return [
            f"  assign {out} = {a} + {component.a.width}'d1; // {component.name}"
        ]
    if isinstance(component, BinaryToGray):
        out = ident(component.output.name)
        a = ident(component.a.name)
        return [f"  assign {out} = {a} ^ ({a} >> 1); // {component.name}"]
    if isinstance(component, GrayToBinary):
        out = ident(component.output.name)
        a = ident(component.a.name)
        width = component.a.width
        terms = " ^ ".join(f"({a} >> {shift})" for shift in range(width))
        return [f"  assign {out} = {terms}; // {component.name}"]
    if isinstance(component, Mux2):
        out = ident(component.output.name)
        return [
            f"  assign {out} = {ident(component.select.name)} ? "
            f"{ident(component.b.name)} : {ident(component.a.name)}; "
            f"// {component.name}"
        ]
    if isinstance(component, TransitionTable):
        return _emit_case_table(
            ident(component.state.name),
            ident(component.next_state.name),
            component.table,
            component.state.width,
            component.name,
        )
    if isinstance(component, SyncROM):
        return _emit_rom(component, ident)
    if isinstance(component, LookupLogic):
        # A generic Python function has no structural translation;
        # tabulate it when it has a single input of tractable width.
        if len(component.input_wires) == 1 and component.input_wires[0].width <= 16:
            wire = component.input_wires[0]
            table = {
                value: component.function(value) for value in range(1 << wire.width)
            }
            return _emit_case_table(
                ident(wire.name),
                ident(component.output.name),
                table,
                wire.width,
                component.name,
            )
        raise VerilogExportError(
            f"LookupLogic {component.name!r} is not tabulatable "
            "(multiple inputs or input wider than 16 bits)"
        )
    if isinstance(component, ClockTree):
        # No structural equivalent; a pragma comment carries the load so
        # the import frontend can reconstruct the component (and keep
        # the activity-channel order) on a round-trip.
        return [f"  // repro: clocktree {component.name} load={component.load!r}"]
    if isinstance(component, (OutputPort, InputPort)):
        return []  # handled at the port level
    raise VerilogExportError(
        f"no Verilog translation for component type {type(component).__name__}"
    )


def export_verilog(netlist: Netlist, module_name: Optional[str] = None) -> str:
    """Emit one synthesisable Verilog module for a netlist."""
    netlist.validate()
    name = _identifier(module_name if module_name is not None else netlist.name)
    ident = _IdentifierScope()

    registers = [c for c in netlist.components if isinstance(c, DRegister)]
    reg_wires = {id(c.q) for c in registers}
    output_ports = [c for c in netlist.components if isinstance(c, OutputPort)]
    input_ports = [c for c in netlist.components if isinstance(c, InputPort)]

    lines: List[str] = [
        f"// Generated by repro.hdl.verilog from netlist {netlist.name!r}",
        f"module {name} (",
    ]
    port_decls = ["  input  wire clk", "  input  wire rst"]
    for port in input_ports:
        port_decls.append(
            f"  input  wire {_range(port.target.width)}{ident(port.name + '_in')}"
        )
    for port in output_ports:
        port_decls.append(
            f"  output wire {_range(port.source.width)}"
            f"{ident(port.name + '_out')}"
        )
    lines.append(",\n".join(port_decls))
    lines.append(");")
    lines.append("")

    # Wire declarations: regs for register outputs and case-assigned
    # wires, plain wires for assign targets.
    case_targets = set()
    for component in netlist.components:
        if isinstance(component, (TransitionTable, SyncROM)):
            case_targets.add(id(component.output_wires[0]))
        if isinstance(component, LookupLogic):
            case_targets.add(id(component.output))
    for wire in netlist.wires.values():
        kind = "reg " if id(wire) in reg_wires or id(wire) in case_targets else "wire"
        lines.append(f"  {kind} {_range(wire.width)}{ident(wire.name)};")
    lines.append("")

    for port in input_ports:
        lines.append(
            f"  assign {ident(port.target.name)} = {ident(port.name + '_in')};"
        )
    if input_ports:
        lines.append("")
    for component in netlist.components:
        emitted = _emit_component(component, ident)
        if emitted:
            lines.extend(emitted)
            lines.append("")

    for port in output_ports:
        lines.append(
            f"  assign {ident(port.name + '_out')} = {ident(port.source.name)};"
        )
    lines.append("")
    lines.append("endmodule")
    return "\n".join(lines)


def export_testbench(
    netlist: Netlist,
    module_name: Optional[str] = None,
    cycles: int = 256,
    clock_period: int = 10,
) -> str:
    """Emit a self-checking-free smoke testbench for the module.

    The testbench instantiates the exported module, drives the clock
    and a two-cycle reset, runs ``cycles`` clock periods and dumps a
    VCD — enough to eyeball the design in any Verilog simulator
    (Icarus, Verilator, the vendor tools).
    """
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    if clock_period <= 1:
        raise ValueError("clock_period must exceed 1")
    netlist.validate()
    name = _identifier(module_name if module_name is not None else netlist.name)
    # Same first-use order as export_verilog's port section, so the
    # testbench pin identifiers match the module's uniquified ports.
    ident = _IdentifierScope()
    output_ports = [c for c in netlist.components if isinstance(c, OutputPort)]
    input_ports = [c for c in netlist.components if isinstance(c, InputPort)]

    lines = [
        f"// Smoke testbench for {name}, generated by repro.hdl.verilog",
        "`timescale 1ns/1ps",
        f"module {name}_tb;",
        "  reg clk = 1'b0;",
        "  reg rst = 1'b1;",
    ]
    for port in input_ports:
        lines.append(
            f"  reg {_range(port.target.width)}{ident(port.name + '_in')} = 0;"
        )
    for port in output_ports:
        lines.append(
            f"  wire {_range(port.source.width)}{ident(port.name + '_out')};"
        )
    connections = ["    .clk(clk)", "    .rst(rst)"]
    for port in input_ports:
        pin = ident(port.name + "_in")
        connections.append(f"    .{pin}({pin})")
    for port in output_ports:
        pin = ident(port.name + "_out")
        connections.append(f"    .{pin}({pin})")
    lines.append(f"  {name} dut (")
    lines.append(",\n".join(connections))
    lines.append("  );")
    lines.append("")
    lines.append(f"  always #{clock_period // 2} clk = ~clk;")
    lines.append("")
    lines.append("  initial begin")
    lines.append(f'    $dumpfile("{name}_tb.vcd");')
    lines.append(f"    $dumpvars(0, {name}_tb);")
    lines.append(f"    repeat (2) @(posedge clk);")
    lines.append("    rst = 1'b0;")
    lines.append(f"    repeat ({cycles}) @(posedge clk);")
    lines.append("    $finish;")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines)
