"""Golden equivalence tests for the compiled engine's kernel path.

The compiled engine steps only the *sequential residue* (registers on
feedback cycles, transition tables, ports and their fan-in) cycle by
cycle and reconstructs every feed-forward wire column for all cycles
at once with numpy kernels.  That is an execution strategy, never a
semantic choice: every test here proves byte-identity against the
interpreted oracle — for every paper design, a design that is all
residue, ragged cycle counts, memoised long runs, forced-core
components and the batch axis — or pins the invalidation contract.
"""

import numpy as np
import pytest

from repro.experiments.designs import (
    PAPER_IP_NAMES,
    PERIOD_CYCLES,
    build_ip,
    build_paper_ip,
)
from repro.fsm.counters import build_lfsr
from repro.hdl import (
    CompileError,
    DRegister,
    Incrementer,
    InputPort,
    LookupLogic,
    Netlist,
    Simulator,
    TransitionTable,
    XorArray,
    compile_netlist,
    run_batch,
)
from repro.hdl.component import Component
from repro.hdl.engine import MEMO_MIN_CYCLES


def paper_netlist(ip_name):
    return build_paper_ip(ip_name).netlist


def engine_pair(build):
    """(compiled, interpreted) simulators of one design."""
    return tuple(
        Simulator(build(), engine=choice)
        for choice in ("compiled", "interpreted")
    )


def assert_traces_equal(a, b):
    assert a.channels == b.channels
    assert a.matrix.shape == b.matrix.shape
    np.testing.assert_array_equal(a.matrix, b.matrix)


def assert_wire_states_equal(a, b):
    for name, wire in a.netlist.wires.items():
        other = b.netlist.wires[name]
        assert (wire.value, wire.previous) == (other.value, other.previous)


def feedback_only_netlist():
    """A design that is *all* sequential residue: FSM loop, no slices."""
    netlist = Netlist("residue")
    state = netlist.wire("st", 3)
    nxt = netlist.wire("nx", 3)
    netlist.add(TransitionTable("tt", state, nxt, {i: (i + 1) % 5 for i in range(5)}))
    netlist.add(DRegister("reg", nxt, state))
    return netlist


def peeled_chain_netlist():
    """Registers *off* the feedback cycle become shift kernels.

    A counter loop drives a three-deep register pipeline; only the
    loop register is sequential residue, the pipeline is peeled onto
    the cycle axis (plan depth 3).
    """
    netlist = Netlist("peeled")
    count = netlist.wire("count", 4)
    nxt = netlist.wire("nxt", 4)
    s1 = netlist.wire("s1", 4)
    s2 = netlist.wire("s2", 4)
    s3 = netlist.wire("s3", 4)
    mixed = netlist.wire("mixed", 4)
    netlist.add(Incrementer("inc", count, nxt))
    netlist.add(DRegister("loop", nxt, count))
    netlist.add(DRegister("p1", count, s1))
    netlist.add(DRegister("p2", s1, s2))
    netlist.add(DRegister("p3", s2, s3))
    netlist.add(XorArray("mix", count, s3, mixed))
    return netlist


#: Golden-equivalence inputs: the paper designs plus one design whose
#: residue is the whole netlist, so nothing is left for the kernels.
GOLDEN_DESIGNS = {
    name: (lambda n=name: paper_netlist(n)) for name in PAPER_IP_NAMES
}
GOLDEN_DESIGNS["residue"] = feedback_only_netlist


class TestPaperDesignGoldenEquivalence:
    @pytest.mark.parametrize("ip_name", list(GOLDEN_DESIGNS))
    @pytest.mark.parametrize("cycles", [1, 7, PERIOD_CYCLES, 3 * PERIOD_CYCLES + 5])
    def test_activity_matches_both_oracles(self, ip_name, cycles):
        # Fresh runs and a continuation run both match the oracle.
        compiled, interpreted = engine_pair(GOLDEN_DESIGNS[ip_name])
        assert_traces_equal(compiled.run(cycles), interpreted.run(cycles))
        assert_traces_equal(
            compiled.run(cycles, reset=False),
            interpreted.run(cycles, reset=False),
        )

    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    def test_post_run_wire_state_matches_scalar(self, ip_name):
        # The interpreted oracle is the per-cycle scalar reference.
        compiled, interpreted = engine_pair(lambda: paper_netlist(ip_name))
        cycles = PERIOD_CYCLES + 3
        compiled.run(cycles)
        interpreted.run(cycles)
        assert_wire_states_equal(compiled, interpreted)

    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    def test_register_sequences_match_interpreted(self, ip_name):
        compiled, interpreted = engine_pair(lambda: paper_netlist(ip_name))
        registers = [
            c.name
            for c in compiled.netlist.components
            if isinstance(c, DRegister)
        ]
        assert registers
        for name in registers:
            assert compiled.state_sequence(
                name, 2 * PERIOD_CYCLES
            ) == interpreted.state_sequence(name, 2 * PERIOD_CYCLES)

    def test_nonpositive_cycles_rejected_identically(self):
        for simulator in engine_pair(lambda: paper_netlist("IP_A")):
            with pytest.raises(ValueError, match="cycles must be positive"):
                simulator.run(0)



class TestTierSelection:
    def test_paper_designs_select_the_vectorised_tier(self):
        # The cycle-axis kernel path is the only compiled execution;
        # every paper design reconstructs some wires with kernels.
        for ip_name in PAPER_IP_NAMES:
            simulator = Simulator(paper_netlist(ip_name))
            simulator.run(8)
            assert simulator.engine_name == "compiled"
            kernels = simulator._engine._vector_plan.kernels
            assert any(kernel[0] != "hold" for kernel in kernels)

    def test_pure_residue_design_runs_the_residue_path_without_kernels(self):
        # Every wire sits on the FSM feedback path: "auto" still picks
        # the compiled engine, whose kernel plan is empty.
        simulator = Simulator(feedback_only_netlist())
        simulator.run(16)
        assert simulator.engine_name == "compiled"
        plan = simulator._engine._vector_plan
        assert plan.kernels == ()
        assert plan.depth == 0

    def test_vectorised_choice_raises_on_uncompilable_netlists(self):
        class Opaque(Component):
            pass

        netlist = Netlist("custom")
        netlist.add(Opaque("mystery"))
        # "vectorised" is no longer an engine choice at all.
        with pytest.raises(ValueError, match="unknown engine 'vectorised'"):
            Simulator(netlist, engine="vectorised")
        # "compiled" runs the kernel path and raises instead of falling back.
        with pytest.raises(CompileError):
            Simulator(netlist, engine="compiled")
        # "auto" quietly falls back to the interpreted loop instead.
        assert Simulator(netlist).engine_name == "interpreted"


class TestRaggedAndContinuation:
    @pytest.mark.parametrize("cycles", [2, 3, 5, 63, 255, 257])
    def test_odd_cycle_counts(self, cycles):
        compiled, interpreted = engine_pair(lambda: paper_netlist("IP_B"))
        assert_traces_equal(compiled.run(cycles), interpreted.run(cycles))

    def test_continuation_without_reset(self):
        compiled, interpreted = engine_pair(lambda: paper_netlist("IP_C"))
        for cycles, reset in ((100, True), (50, False), (7, False)):
            assert_traces_equal(
                compiled.run(cycles, reset=reset),
                interpreted.run(cycles, reset=reset),
            )

    def test_continuation_with_input_ports(self):
        def build():
            netlist = Netlist("ports")
            stim = netlist.wire("stim", 4)
            mixed = netlist.wire("mixed", 4)
            state = netlist.wire("state", 4)
            netlist.add(InputPort("pad", stim, stimulus=lambda c: (3 * c) & 0xF))
            netlist.add(XorArray("mix", stim, state, mixed))
            netlist.add(DRegister("reg", mixed, state))
            return netlist

        compiled, interpreted = engine_pair(build)
        for cycles, reset in ((33, True), (21, False)):
            assert_traces_equal(
                compiled.run(cycles, reset=reset),
                interpreted.run(cycles, reset=reset),
            )


class TestMemoisedLongRuns:
    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    def test_periodic_designs_tile_bit_identically(self, ip_name):
        compiled, interpreted = engine_pair(lambda: paper_netlist(ip_name))
        cycles = 16 * PERIOD_CYCLES
        assert cycles >= MEMO_MIN_CYCLES
        assert_traces_equal(compiled.run(cycles), interpreted.run(cycles))

    def test_memo_threshold_boundaries(self):
        compiled, interpreted = engine_pair(lambda: paper_netlist("IP_A"))
        for cycles in (MEMO_MIN_CYCLES - 1, MEMO_MIN_CYCLES, MEMO_MIN_CYCLES + 1):
            assert_traces_equal(compiled.run(cycles), interpreted.run(cycles))

    def test_long_nonperiodic_run_matches(self):
        # A maximal-length LFSR does not re-enter its state within the
        # run, so the memoised stepping never tiles; the kernel
        # reconstruction must cope with a full-length core trace.
        def build():
            netlist = Netlist("lfsr")
            build_lfsr(netlist, 16, [15, 14, 12, 3], seed=1)
            return netlist

        compiled, interpreted = engine_pair(build)
        assert_traces_equal(compiled.run(2048), interpreted.run(2048))

    def test_peeled_register_chain_tiles_with_depth(self):
        # Peeled (acyclic) registers delay periodicity by the chain
        # depth; tiling must start at re-entry + depth, not re-entry.
        compiled, interpreted = engine_pair(peeled_chain_netlist)
        for cycles in (40, MEMO_MIN_CYCLES + 37, 4 * MEMO_MIN_CYCLES):
            assert_traces_equal(compiled.run(cycles), interpreted.run(cycles))
        assert compiled._engine._vector_plan.depth == 3


class TestForcedCoreComponents:
    def test_opaque_lookup_logic_stays_on_the_scalar_path(self):
        # An opaque callable is forced into the per-cycle residue loop.
        def build():
            netlist = Netlist("opaque")
            count = netlist.wire("count", 4)
            nxt = netlist.wire("nxt", 4)
            twisted = netlist.wire("twisted", 4)
            netlist.add(Incrementer("inc", count, nxt))
            netlist.add(DRegister("reg", nxt, count))
            netlist.add(
                LookupLogic("lut", [count], twisted, lambda v: (v * 7 + 3) & 0xF)
            )
            return netlist

        compiled, interpreted = engine_pair(build)
        assert_traces_equal(compiled.run(200), interpreted.run(200))

    def test_lookup_error_raises_identically(self):
        def build():
            netlist = Netlist("doomed")
            count = netlist.wire("count", 4)
            nxt = netlist.wire("nxt", 4)
            out = netlist.wire("out", 4)

            def explode(v):
                if v == 5:
                    raise RuntimeError("boom at 5")
                return v ^ 3

            netlist.add(Incrementer("inc", count, nxt))
            netlist.add(DRegister("reg", nxt, count))
            netlist.add(LookupLogic("lut", [count], out, explode))
            return netlist

        for simulator in engine_pair(build):
            with pytest.raises(RuntimeError, match="boom at 5"):
                simulator.run(32)

    def test_partial_transition_table_raises_key_error(self):
        def build():
            netlist = Netlist("partial")
            state = netlist.wire("st", 3)
            nxt = netlist.wire("nx", 3)
            netlist.add(TransitionTable("tt", state, nxt, {0: 1, 1: 2}))
            netlist.add(DRegister("reg", nxt, state))
            return netlist

        with pytest.raises(KeyError, match="no transition entry"):
            Simulator(build(), engine="compiled").run(16)
        with pytest.raises(KeyError):
            Simulator(build(), engine="interpreted").run(16)


class TestBatchComposition:
    def lanes(self, n=5):
        return [
            compile_netlist(build_ip(f"ip_{k}", "gray", k).netlist)
            for k in range(n)
        ]

    def reference(self, k, engine="interpreted"):
        return Simulator(build_ip("ref", "gray", k).netlist, engine=engine)

    def test_memoised_batch_composition(self):
        cycles = [16 * PERIOD_CYCLES, MEMO_MIN_CYCLES, 3, 8 * PERIOD_CYCLES, 77]
        traces = run_batch(self.lanes(), cycles)
        for k, (trace, count) in enumerate(zip(traces, cycles)):
            assert_traces_equal(trace, self.reference(k).run(count))

    def test_batch_write_back_matches_scalar_run(self):
        batched = self.lanes(3)
        run_batch(batched, 100)
        for k, engine in enumerate(batched):
            reference = self.reference(k)
            reference.run(100)
            assert_wire_states_equal(engine, reference)

    def test_pure_residue_batch_matches_interpreted(self):
        # Lanes with an empty kernel plan step only the residue loop.
        lanes = [compile_netlist(feedback_only_netlist()) for _ in range(3)]
        cycles = [64, 5, MEMO_MIN_CYCLES + 3]
        traces = run_batch(lanes, cycles)
        for trace, count in zip(traces, cycles):
            reference = Simulator(feedback_only_netlist(), engine="interpreted")
            assert_traces_equal(trace, reference.run(count))

    def test_auto_batch_matches_per_engine_runs(self):
        traces = run_batch(self.lanes(), PERIOD_CYCLES)
        for k, trace in enumerate(traces):
            assert_traces_equal(trace, self.reference(k).run(PERIOD_CYCLES))
            assert_traces_equal(
                trace, self.reference(k, "compiled").run(PERIOD_CYCLES)
            )


class TestInvalidationToken:
    def test_mutation_after_compile_raises(self):
        netlist = paper_netlist("IP_A")
        engine = compile_netlist(netlist)
        engine.run(8)
        netlist.components[0].invalidate_compiled()
        assert netlist.compile_generation == 1
        with pytest.raises(CompileError, match="modified after compilation"):
            engine.run(8)

    def test_stale_engine_refuses_batch_execution(self):
        netlists = [build_ip(f"ip_{k}", "gray", k).netlist for k in range(2)]
        engines = [compile_netlist(n) for n in netlists]
        netlists[1].components[0].invalidate_compiled()
        with pytest.raises(CompileError, match="modified after compilation"):
            run_batch(engines, 16)

    def test_simulator_self_heals_by_recompiling(self):
        simulator = Simulator(paper_netlist("IP_B"))
        before = simulator.run(32)
        simulator.netlist.components[0].invalidate_compiled()
        after = simulator.run(32)  # refresh recompiles, no error
        assert_traces_equal(before, after)

    def test_fresh_compile_after_invalidation_works(self):
        netlist = feedback_only_netlist()
        engine = compile_netlist(netlist)
        netlist.component("tt").invalidate_compiled()
        with pytest.raises(CompileError):
            engine.run(4)
        recompiled = compile_netlist(netlist)
        assert_traces_equal(
            recompiled.run(16),
            Simulator(feedback_only_netlist(), engine="interpreted").run(16),
        )
