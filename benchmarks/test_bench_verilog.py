"""Verilog frontend benchmark — parse throughput and imported circuits.

Times :func:`repro.hdl.verilog_parse.parse_verilog` on the largest
vendored corpus circuit, the full export→parse round trip of a paper
design, and the simulation throughput of an imported gate-level
netlist on both engines, then writes ``BENCH_verilog.json``
next to the repo root (gated by ``benchmarks/check_bench.py`` like
every other BENCH file).  The correctness guarantees behind these
numbers live in ``tests/test_verilog_parse.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.experiments.designs import build_paper_ip
from repro.hdl.simulator import Simulator
from repro.hdl.verilog import export_verilog
from repro.hdl.verilog_parse import parse_verilog

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_verilog.json"
CORPUS_DIR = Path(__file__).resolve().parent / "netlists"

#: The largest vendored circuit — the parse / simulate workhorse.
BIG_CIRCUIT = "c640_synth.v"

#: Cycles simulated per engine in the imported-circuit benchmark.
SIM_CYCLES = 256

#: Floor on the compiled engine's speedup over the interpreted oracle on
#: an imported gate-level netlist.  Kept deliberately conservative —
#: the gate, not this assertion, tracks the real trajectory.
MIN_ASSERTED_SPEEDUP = 2.0


def _best_of(callable_, repeats: int) -> float:
    """Best wall time over ``repeats`` calls (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _merge_results(update: dict) -> dict:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data.update(update)
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def test_bench_parse_throughput(benchmark, capsys):
    source = (CORPUS_DIR / BIG_CIRCUIT).read_text()
    netlist = parse_verilog(source)
    n_lines = source.count("\n")

    seconds = _best_of(lambda: parse_verilog(source), 5)
    benchmark.pedantic(parse_verilog, args=(source,), rounds=5, iterations=1)

    update = {
        "parse": {
            "file": BIG_CIRCUIT,
            "lines": n_lines,
            "components": len(netlist.components),
            "lines_per_sec": n_lines / seconds,
            "chars_per_sec": len(source) / seconds,
        }
    }
    _merge_results(update)
    print(
        f"\nparse_verilog({BIG_CIRCUIT}): {n_lines} lines, "
        f"{len(netlist.components)} components in {seconds * 1e3:.1f} ms "
        f"-> {n_lines / seconds:,.0f} lines/s"
    )
    assert len(netlist.components) > 600


def test_bench_round_trip(benchmark, capsys):
    netlist = build_paper_ip("IP_A").netlist
    text = export_verilog(netlist)

    def round_trip():
        return parse_verilog(export_verilog(netlist))

    seconds = _best_of(round_trip, 10)
    benchmark.pedantic(round_trip, rounds=10, iterations=1)

    update = {
        "round_trip": {
            "design": "IP_A",
            "verilog_lines": text.count("\n"),
            "round_trips_per_sec": 1.0 / seconds,
        }
    }
    _merge_results(update)
    print(
        f"\nexport+parse round trip of IP_A: {seconds * 1e3:.2f} ms "
        f"-> {1.0 / seconds:,.0f} round trips/s"
    )
    recovered = round_trip()
    assert [c.name for c in recovered.components] == [
        c.name for c in netlist.components
    ]


def test_bench_imported_simulation(benchmark, capsys):
    """Simulation throughput of an imported gate-level circuit per engine."""
    path = str(CORPUS_DIR / BIG_CIRCUIT)
    source = Path(path).read_text()

    seconds = {}
    traces = {}
    for engine, repeats in (("interpreted", 1), ("compiled", 5)):
        simulator = Simulator(parse_verilog(source), engine=engine)
        seconds[engine] = _best_of(lambda s=simulator: s.run(SIM_CYCLES), repeats)
        traces[engine] = simulator.run(SIM_CYCLES)

    compiled_sim = Simulator(parse_verilog(source), engine="compiled")
    benchmark.pedantic(
        compiled_sim.run, args=(SIM_CYCLES,), rounds=5, iterations=1
    )

    speedup_compiled = seconds["interpreted"] / seconds["compiled"]
    update = {
        "imported_simulation": {
            "file": BIG_CIRCUIT,
            "cycles": SIM_CYCLES,
            "interpreted_cycles_per_sec": SIM_CYCLES / seconds["interpreted"],
            "compiled_cycles_per_sec": SIM_CYCLES / seconds["compiled"],
            "compiled_speedup": speedup_compiled,
        }
    }
    _merge_results(update)
    print(
        f"\nimported {BIG_CIRCUIT} at {SIM_CYCLES} cycles: "
        f"interpreted {SIM_CYCLES / seconds['interpreted']:,.0f} cyc/s, "
        f"compiled {SIM_CYCLES / seconds['compiled']:,.0f} cyc/s "
        f"({speedup_compiled:.1f}x)"
    )
    assert speedup_compiled >= MIN_ASSERTED_SPEEDUP
    # Engine agreement rides along with the timing.
    assert np.array_equal(
        traces["compiled"].matrix, traces["interpreted"].matrix
    )
