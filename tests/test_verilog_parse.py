"""Tests for the structural Verilog import frontend.

The pinned invariant: ``parse_verilog(export_verilog(n))`` simulates
bit-identically — same activity matrix, same channel order, same state
sequences — on every engine, for every paper design.  The vendored
corpus under ``benchmarks/netlists/`` must agree across engines too.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.attacks.removal import strip_watermark
from repro.experiments.designs import (
    IMPORTED_KEYS,
    PAPER_IP_NAMES,
    build_device_fleet,
    build_imported_ip,
    build_paper_ip,
    resolve_imported_design,
)
from repro.hdl.combinational import Constant, LookupLogic, XorArray
from repro.hdl.io import ClockTree, InputPort, OutputPort
from repro.hdl.netlist import Netlist
from repro.hdl.register import DRegister
from repro.hdl.simulator import Simulator
from repro.hdl.verilog import export_verilog
from repro.hdl.verilog_parse import (
    VerilogParseError,
    parse_verilog,
    parse_verilog_file,
)

ENGINES = ("interpreted", "compiled")
CORPUS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "netlists"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.v"))


def round_trip(netlist):
    return parse_verilog(export_verilog(netlist))


def inventory(netlist):
    return [(c.name, type(c).__name__) for c in netlist.components]


class TestRoundTripPaperDesigns:
    """Golden tests: exporter output parses back to the same machine."""

    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    def test_component_inventory_preserved(self, ip_name):
        ip = build_paper_ip(ip_name)
        recovered = round_trip(ip.netlist)
        assert inventory(recovered) == inventory(ip.netlist)

    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_activity_bit_identical(self, ip_name, engine):
        original = build_paper_ip(ip_name).netlist
        recovered = round_trip(original)
        t_orig = Simulator(original, engine=engine).run(48)
        t_back = Simulator(recovered, engine=engine).run(48)
        assert t_back.channels == t_orig.channels
        assert np.array_equal(t_back.matrix, t_orig.matrix)

    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    def test_state_sequence_preserved(self, ip_name):
        original = build_paper_ip(ip_name).netlist
        recovered = round_trip(original)
        seq_orig = Simulator(original).state_sequence("ctr_reg", 32)
        seq_back = Simulator(recovered).state_sequence("ctr_reg", 32)
        assert seq_back == seq_orig

    def test_clocktree_pragma_round_trips(self):
        original = build_paper_ip("IP_A").netlist
        recovered = round_trip(original)
        trees = {
            c.name: c.load
            for c in recovered.components
            if isinstance(c, ClockTree)
        }
        expected = {
            c.name: c.load
            for c in original.components
            if isinstance(c, ClockTree)
        }
        assert trees == expected

    def test_input_port_pattern_recovered(self):
        netlist = Netlist("stim")
        a = netlist.wire("a", 4)
        b = netlist.wire("b", 4)
        y = netlist.wire("y", 4)
        netlist.add(InputPort("a_port", a, [1, 2, 3]))
        netlist.add(Constant("c", b, 9))
        netlist.add(XorArray("x", a, b, y))
        netlist.add(OutputPort("res", y))
        recovered = round_trip(netlist)
        ports = [c for c in recovered.components if isinstance(c, InputPort)]
        assert [p.name for p in ports] == ["a_port"]
        # Stimulus values live outside the netlist; imports default to 0.
        trace = Simulator(recovered).run(4)
        assert trace.matrix.shape[0] == 4


class TestIdentifierScope:
    """Names that sanitise to the same identifier must stay distinct."""

    def build_colliding(self):
        netlist = Netlist("collide")
        a = netlist.wire("a.b", 4)
        b = netlist.wire("a_b", 4)
        y = netlist.wire("res", 4)
        netlist.add(Constant("c1", a, 3))
        netlist.add(Constant("c2", b, 5))
        netlist.add(XorArray("x1", a, b, y))
        netlist.add(OutputPort("out", y))
        return netlist

    def test_collision_gets_unique_suffix(self):
        text = export_verilog(self.build_colliding())
        assert "wire [3:0] a_b;" in text
        assert "wire [3:0] a_b_2;" in text

    def test_colliding_constants_stay_attached(self):
        # Regression: both wires used to alias to ``a_b``, silently
        # merging two drivers.  The values must survive the round trip
        # on the right components.
        recovered = round_trip(self.build_colliding())
        values = {
            c.name: c.value
            for c in recovered.components
            if isinstance(c, Constant)
        }
        assert values == {"c1": 3, "c2": 5}

    def test_collision_export_is_deterministic(self):
        netlist = self.build_colliding()
        assert export_verilog(netlist) == export_verilog(netlist)


class TestParserErrors:
    """Diagnostics carry line/col and point at the offending token."""

    def parse_error(self, source):
        with pytest.raises(VerilogParseError) as excinfo:
            parse_verilog(source)
        return excinfo.value

    def test_unknown_construct(self):
        err = self.parse_error(
            "module m (input wire clk);\ninitial begin end\nendmodule\n"
        )
        assert err.line == 2 and err.col == 1
        assert "unsupported construct 'initial'" in str(err)

    def test_malformed_declaration(self):
        err = self.parse_error(
            "module m (input wire clk);\n  wire [7:0 a;\nendmodule\n"
        )
        assert err.line == 2
        assert "expected ']'" in str(err)

    def test_literal_too_wide(self):
        err = self.parse_error(
            "module m (input wire clk);\n"
            "  wire [3:0] a;\n"
            "  assign a = 4'd20;\n"
            "endmodule\n"
        )
        assert err.line == 3
        assert "does not fit in 4 bits" in str(err)

    def test_case_width_mismatch(self):
        err = self.parse_error(
            "module m (input wire clk, input wire rst);\n"
            "  wire [3:0] s;\n"
            "  reg [7:0] n;\n"
            "  always @(*) begin\n"
            "    case (s)\n"
            "      4'd0: n = 8'd1;\n"
            "      default: n = 8'd0;\n"
            "    endcase\n"
            "  end\n"
            "endmodule\n"
        )
        assert "4 -> 8 bits" in str(err)

    def test_duplicate_case_label(self):
        err = self.parse_error(
            "module m (input wire clk);\n"
            "  wire [1:0] s;\n"
            "  reg [1:0] n;\n"
            "  always @(*) begin\n"
            "    case (s)\n"
            "      2'd0: n = 2'd1;\n"
            "      2'd0: n = 2'd2;\n"
            "      default: n = 2'd0;\n"
            "    endcase\n"
            "  end\n"
            "endmodule\n"
        )
        assert "duplicate case label" in str(err)

    def test_gate_arity_checked(self):
        err = self.parse_error(
            "module m (input wire a, output wire y);\n"
            "  not g1 (y, a, a);\n"
            "endmodule\n"
        )
        assert "'not' takes exactly one output and one input" in str(err)

    def test_undeclared_wire(self):
        err = self.parse_error(
            "module m (input wire clk);\n  assign q = w + 4'd1;\nendmodule\n"
        )
        assert "undeclared wire 'q'" in str(err)

    def test_file_errors_name_the_file(self, tmp_path):
        bad = tmp_path / "bad.v"
        bad.write_text("module m (input wire clk);\ninitial x;\nendmodule\n")
        with pytest.raises(VerilogParseError) as excinfo:
            parse_verilog_file(str(bad))
        assert "bad.v" in str(excinfo.value)
        assert "line 2" in str(excinfo.value)


class TestLexerDetails:
    def test_underscored_and_based_literals(self):
        netlist = parse_verilog(
            "module m (input wire clk, output wire [7:0] y_out);\n"
            "  wire [7:0] y;\n"
            "  assign y = 8'b0101_0011;\n"
            "  assign y_out = y;\n"
            "endmodule\n"
        )
        const = netlist.component("y_const")
        assert isinstance(const, Constant)
        assert const.value == 0b01010011

    def test_gate_primitives_build_lookup_logic(self):
        netlist = parse_verilog(
            "module m (input wire a, input wire b, output wire y);\n"
            "  wire w;\n"
            "  nand g1 (w, a, b);\n"
            "  not g2 (y, w);\n"
            "endmodule\n"
        )
        gates = [c for c in netlist.components if isinstance(c, LookupLogic)]
        assert {g.name for g in gates} >= {"g1", "g2"}


class TestCorpus:
    """Every vendored benchmark parses and agrees across engines."""

    def test_corpus_is_vendored(self):
        names = {path.name for path in CORPUS_FILES}
        assert "c17.v" in names
        assert len(CORPUS_FILES) >= 3

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.name for p in CORPUS_FILES]
    )
    def test_parses_and_validates(self, path):
        netlist = parse_verilog_file(str(path))
        netlist.validate()
        assert netlist.components

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.name for p in CORPUS_FILES]
    )
    def test_tier_agreement(self, path):
        traces = {}
        for engine in ENGINES:
            netlist = parse_verilog_file(str(path))
            traces[engine] = Simulator(netlist, engine=engine).run(32)
        assert np.array_equal(
            traces["compiled"].matrix, traces["interpreted"].matrix
        )


class TestImportedWorkloads:
    C17 = "benchmarks/netlists/c17.v"

    def test_resolve_imported_design(self):
        path = resolve_imported_design(f"imported:{self.C17}")
        assert path.name == "c17.v" and path.exists()
        with pytest.raises(ValueError):
            resolve_imported_design("paperish")
        with pytest.raises(FileNotFoundError):
            resolve_imported_design("imported:no/such/file.v")

    def test_imported_ip_carries_watermark(self):
        ip = build_imported_ip(self.C17, "IP_A", IMPORTED_KEYS["IP_A"])
        names = {c.name for c in ip.netlist.components}
        assert {"wm_key", "wm_xor", "wm_sbox", "wm_hreg"} <= names
        assert ip.fsm_kind == "imported"

    def test_imported_ip_strippable(self):
        ip = build_imported_ip(self.C17, "IP_A", IMPORTED_KEYS["IP_A"])
        report = strip_watermark(ip)
        assert report.removed_components
        assert not any(
            c.name.startswith("wm_") for c in ip.netlist.components
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_imported_ip_tier_agreement(self, engine):
        ip = build_imported_ip(self.C17, "IP_A", IMPORTED_KEYS["IP_A"])
        trace = Simulator(ip.netlist, engine=engine).run(48)
        ref_ip = build_imported_ip(self.C17, "IP_A", IMPORTED_KEYS["IP_A"])
        ref = Simulator(ref_ip.netlist, engine="interpreted").run(48)
        assert np.array_equal(trace.matrix, ref.matrix)

    def test_fleet_uses_distinct_keys(self):
        refds, duts = build_device_fleet(design=f"imported:{self.C17}")
        assert set(refds) == set(PAPER_IP_NAMES)
        assert len(duts) == 4
        keys = {
            name: refds[name].ip.netlist.component("wm_key").value
            for name in refds
        }
        assert keys == IMPORTED_KEYS
        assert len(set(keys.values())) == 4

    def test_paper_fleet_unchanged(self):
        refds, _ = build_device_fleet()
        kinds = {name: refds[name].ip.fsm_kind for name in refds}
        assert kinds["IP_A"] == "binary"
        assert kinds["IP_B"] == "gray"


class TestImportedCampaignAndSweep:
    DESIGN = "imported:benchmarks/netlists/c17.v"

    def test_campaign_detects_imported_watermarks(self):
        from repro.core.process import ProcessParameters
        from repro.experiments.runner import CampaignConfig, run_campaign

        config = CampaignConfig(
            parameters=ProcessParameters(k=8, m=2, n1=12, n2=16),
            design=self.DESIGN,
        )
        outcome = run_campaign(config)
        assert outcome.accuracy("higher-mean") == 1.0

    def test_sweep_spec_accepts_design_axis(self):
        from repro.sweeps.spec import (
            expand_scenarios,
            scenario_config,
            spec_from_dict,
        )

        spec = spec_from_dict(
            {
                "name": "design-axis",
                "base": {"parameters.k": 8, "parameters.m": 2,
                         "parameters.n1": 12, "parameters.n2": 16},
                "grid": [
                    {"field": "design", "values": ["paper", self.DESIGN]},
                    {"field": "attack", "values": ["none", "strip"]},
                ],
            }
        )
        scenarios = expand_scenarios(spec)
        assert len(scenarios) == 4
        designs = {scenario_config(s).design for s in scenarios}
        assert designs == {"paper", self.DESIGN}

    def test_design_field_keeps_paper_digests_stable(self):
        from repro.experiments.artifacts import fleet_key
        from repro.experiments.runner import CampaignConfig

        paper = fleet_key(CampaignConfig())
        imported = fleet_key(CampaignConfig(design=self.DESIGN))
        assert paper != imported
        # The paper-design key must not mention the new field at all,
        # so digests minted before it existed stay byte-identical.
        assert fleet_key(CampaignConfig(design="paper")) == paper


class TestNetlistRemove:
    def test_remove_component(self):
        netlist = Netlist("rm")
        a = netlist.wire("a", 4)
        netlist.add(Constant("c", a, 1))
        removed = netlist.remove("c")
        assert removed.name == "c"
        assert not netlist.components
        # The name is free for reuse.
        netlist.add(Constant("c", a, 2))
        assert netlist.component("c").value == 2

    def test_remove_unknown_raises(self):
        netlist = Netlist("rm")
        with pytest.raises(KeyError):
            netlist.remove("missing")


class TestRegisterRoundTrip:
    def test_dregister_reset_value(self):
        netlist = Netlist("regs")
        d = netlist.wire("d", 4)
        q = netlist.wire("q", 4)
        netlist.add(Constant("c", d, 7))
        netlist.add(DRegister("r", d, q, reset_value=5))
        netlist.add(OutputPort("out", q))
        recovered = round_trip(netlist)
        reg = recovered.component("r")
        assert isinstance(reg, DRegister)
        assert reg.reset_value == 5
