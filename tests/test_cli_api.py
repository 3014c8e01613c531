"""Tests for the CLI, the public API surface and the report module."""

import pytest

import repro
from repro.cli import build_parser, main
from repro.core.report import (
    render_comparison,
    render_matrix_table,
    render_means_table,
    render_variances_table,
    render_verdicts,
    summarize_scores,
)
from repro.hdl.simulator import ENGINES


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_alls_resolve(self):
        import repro.acquisition
        import repro.analysis
        import repro.attacks
        import repro.baselines
        import repro.core
        import repro.crypto
        import repro.experiments
        import repro.fsm
        import repro.hdl
        import repro.power

        for module in (
            repro.core,
            repro.crypto,
            repro.hdl,
            repro.fsm,
            repro.power,
            repro.acquisition,
            repro.experiments,
            repro.analysis,
            repro.baselines,
            repro.attacks,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_paper_plan_exported(self):
        assert repro.PAPER_PLAN.parameters.n2 == 10_000


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["plan", "--alpha", "5", "--k", "25"])
        assert args.command == "plan"
        assert args.alpha == 5.0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_command(self, capsys):
        assert main(["plan", "--alpha", "10", "--k", "50"]) == 0
        out = capsys.readouterr().out
        assert "P(zeta) limit" in out
        assert "n2 (DUT traces)" in out

    def test_figure5_command(self, capsys):
        assert main(["figure5"]) == 0
        out = capsys.readouterr().out
        assert "f_alpha(m)" in out
        assert "paper: 0.0045" in out

    def test_figure5_custom_alpha(self, capsys):
        assert main(["figure5", "--alpha", "3"]) == 0
        assert "alpha = 3" in capsys.readouterr().out

    def test_collisions_command(self, capsys):
        assert main(["collisions"]) == 0
        out = capsys.readouterr().out
        assert "32640" in out
        assert "worst pair" in out

    def test_keysearch_command(self, capsys):
        assert main(["keysearch", "--traces", "150"]) == 0
        out = capsys.readouterr().out
        assert "recovered: True" in out


class TestReportRendering:
    MATRIX = {
        "IP_X": {"DUT#1": 0.95, "DUT#2": 0.50},
        "IP_Y": {"DUT#1": 0.40, "DUT#2": 0.90},
    }

    def test_means_table(self):
        text = render_means_table(self.MATRIX, ["DUT#1", "DUT#2"])
        assert "0.950" in text
        assert "Delta_mean" in text

    def test_variances_table(self):
        matrix = {
            "IP_X": {"DUT#1": 1e-6, "DUT#2": 1e-4},
        }
        text = render_variances_table(matrix, ["DUT#1", "DUT#2"])
        assert "1.000e-06" in text
        assert "99.00%" in text

    def test_matrix_table_rejects_unknown_style(self):
        with pytest.raises(ValueError):
            render_matrix_table(self.MATRIX, ["DUT#1", "DUT#2"], "bogus", "x")

    def test_comparison_line(self):
        line = render_comparison("P(zeta)", 0.0045, 0.004474)
        assert "paper=0.0045" in line
        assert "measured=0.004474" in line

    def test_summarize_scores(self):
        text = summarize_scores({"DUT#1": 0.9}, style="mean")
        assert text == "DUT#1=0.900"

    def test_render_verdicts(self, paper_campaign):
        text = render_verdicts(paper_campaign.reports["IP_A"])
        assert "IP_A" in text
        assert "higher-mean" in text
        assert "unanimous" in text


class TestSweepCLI:
    def test_parser_accepts_sweep_options(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "--engine", "interpreted",
                "sweep",
                "--axis", "noise.sigma=0.5,1.0",
                "--base", "parameters.k=8",
                "--store", "somewhere",
                "--workers", "2",
            ]
        )
        assert args.command == "sweep"
        assert args.engine == "interpreted"
        assert args.axis == [("noise.sigma", [0.5, 1.0])]
        assert args.base == [("parameters.k", 8)]
        assert args.workers == 2

    def test_parser_rejects_malformed_axis(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--axis", "noise.sigma"])
        capsys.readouterr()

    def test_engine_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "warp", "campaign"])
        capsys.readouterr()

    def test_engine_flag_rejects_removed_vectorised_choice(self, capsys):
        # The --engine choices follow the simulator's ENGINES.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "vectorised", "campaign"])
        capsys.readouterr()
        for engine in ENGINES:
            args = build_parser().parse_args(["--engine", engine, "campaign"])
            assert args.engine == engine

    def test_sweep_command_runs_and_resumes(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = [
            "sweep",
            "--axis", "noise.sigma=0.5,1.0",
            "--axis", "attack=none,strip",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n1=32",
            "--base", "parameters.n2=64",
            "--store", store,
            "--workers", "1",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 scenarios" in out
        assert "executed 4" in out
        assert "accuracy[lower-variance]" in out
        assert "screening AUC" in out
        # Second invocation is served entirely from the store.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed 0" in out
        assert "reused 4" in out

    def test_default_sweep_grid_is_at_least_24_scenarios(self):
        from repro.cli import DEFAULT_SWEEP_AXES

        total = 1
        for values in DEFAULT_SWEEP_AXES.values():
            total *= len(values)
        assert total >= 24

    def test_default_sweep_runs_and_store_serves_rerun(self, tmp_path, capsys):
        # Acceptance: the stock `repro-watermark sweep` covers >= 24
        # scenarios, and a rerun executes nothing.
        store = str(tmp_path / "store")
        argv = ["sweep", "--store", store, "--workers", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "24 scenarios" in out
        assert "executed 24" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed 0" in out
        assert "reused 24" in out

    def test_random_only_sweep_has_no_default_grid(self, tmp_path, capsys):
        assert main([
            "sweep",
            "--random", "noise.sigma=0.2:2.0:log",
            "--samples", "2",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n1=32",
            "--base", "parameters.n2=64",
            "--store", str(tmp_path / "store"),
            "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 scenarios" in out

    def test_random_axis_rejects_unknown_modifier(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--random", "noise.sigma=0.1:2.0:LOG"]
            )
        capsys.readouterr()

    def test_duplicate_axis_option_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="twice"):
            main([
                "sweep",
                "--axis", "noise.sigma=0.5",
                "--axis", "noise.sigma=1.0,2.0",
                "--store", str(tmp_path / "store"),
            ])

    def test_quarantined_scenario_reported_and_exit_nonzero(
        self, tmp_path, capsys
    ):
        # n1 = 2 < k = 4 can never run; with the retry budget exhausted
        # the scenario is quarantined, the sibling completes, and the
        # command signals degradation through its exit code.
        status = main([
            "sweep",
            "--axis", "parameters.n1=32,2",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n2=64",
            "--store", str(tmp_path / "store"),
            "--workers", "1",
            "--max-retries", "0",
        ])
        assert status == 1
        out = capsys.readouterr().out
        assert "QUARANTINED 1 scenario(s)" in out
        assert "executed 1" in out

    def test_scheduler_flags_run_lease_mode(self, tmp_path, capsys):
        assert main([
            "sweep",
            "--axis", "noise.sigma=0.5,1.0",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n1=32",
            "--base", "parameters.n2=64",
            "--store", str(tmp_path / "store"),
            "--workers", "2",
            "--lease-ttl", "10",
            "--scenario-timeout", "120",
            "--scrub",
        ]) == 0
        out = capsys.readouterr().out
        assert "lease scheduler" in out
        assert "executed 2" in out

    def test_random_int_modifier_for_integer_fields(self, tmp_path, capsys):
        assert main([
            "sweep",
            "--random", "parameters.n2=128:512:int",
            "--samples", "2",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n1=32",
            "--store", str(tmp_path / "store"),
            "--workers", "1",
        ]) == 0
        assert "2 scenarios" in capsys.readouterr().out

    def test_invalid_axis_field_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="invalid sweep"):
            main(["sweep", "--axis", "bogus=1",
                  "--store", str(tmp_path / "store")])

    def test_reversed_random_bounds_exit_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="invalid sweep"):
            main(["sweep", "--random", "noise.sigma=2.0:0.5", "--samples", "2",
                  "--store", str(tmp_path / "store")])
