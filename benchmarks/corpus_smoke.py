#!/usr/bin/env python
"""Import-corpus smoke: parse and simulate every vendored circuit.

CI runs this script to prove the whole ``benchmarks/netlists/``
corpus still parses, validates and simulates bit-identically on both
engines — one netlist at a time, and batched: the four keyed
watermarked IPs built from each circuit run through one
``simulate_batch`` call and must match the interpreted oracle lane by
lane.  It is intentionally dependency-light (numpy only) so it can run
before the test suite as a fast tripwire.

Exit status is 0 when every circuit agrees across engines, 1 otherwise.

Usage::

    PYTHONPATH=src python benchmarks/corpus_smoke.py [cycles]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.experiments.designs import IMPORTED_KEYS, build_imported_ip
from repro.hdl.simulator import Simulator, simulate_batch
from repro.hdl.verilog_parse import parse_verilog_file

CORPUS_DIR = Path(__file__).resolve().parent / "netlists"
ENGINES = ("interpreted", "compiled")


def _mismatches(path: Path, cycles: int) -> list:
    """Names of the runs that disagree with the interpreted oracle."""
    traces = {}
    for engine in ENGINES:
        netlist = parse_verilog_file(str(path))
        netlist.validate()
        traces[engine] = Simulator(netlist, engine=engine).run(cycles)
    reference = traces["interpreted"].matrix
    bad = [
        engine
        for engine in ENGINES[1:]
        if not np.array_equal(traces[engine].matrix, reference)
    ]

    def keyed_ip(ip: str, engine: str) -> Simulator:
        ip_build = build_imported_ip(str(path), ip, IMPORTED_KEYS[ip])
        return Simulator(ip_build.netlist, engine=engine)

    keyed = [keyed_ip(ip, "compiled") for ip in IMPORTED_KEYS]
    shape_keys = {simulator._engine.shape_key for simulator in keyed}
    if len(shape_keys) != 1 or None in shape_keys:
        bad.append("keyed IPs do not share one batch shape")
    for ip, trace in zip(IMPORTED_KEYS, simulate_batch(keyed, cycles)):
        oracle = keyed_ip(ip, "interpreted").run(cycles)
        if not np.array_equal(trace.matrix, oracle.matrix):
            bad.append(f"batched {ip}")
    return bad


def main(cycles: int = 64) -> int:
    paths = sorted(CORPUS_DIR.glob("*.v"))
    if not paths:
        print(f"no corpus circuits found under {CORPUS_DIR}", file=sys.stderr)
        return 1

    failures = 0
    for path in paths:
        try:
            disagreeing = _mismatches(path, cycles)
        except Exception as error:
            print(f"FAIL {path.name}: {error}")
            failures += 1
            continue
        if disagreeing:
            print(f"FAIL {path.name}: mismatch on {disagreeing}")
            failures += 1
        else:
            print(
                f"ok   {path.name}: {cycles} cycles bit-identical on "
                f"{len(ENGINES)} engines and {len(IMPORTED_KEYS)} batched "
                "keyed IPs"
            )

    if failures:
        print(f"{failures}/{len(paths)} circuits failed", file=sys.stderr)
        return 1
    print(f"all {len(paths)} corpus circuits agree across engines")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 64))
