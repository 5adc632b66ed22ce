"""Experiment reports and CLI: every table/figure regenerates and carries
the expected headline facts."""

import pytest

from helpers import count_calls
from repro import experiments
from repro.cli import main


class TestExperimentData:
    def test_figure1_all_baselines_exceed_80gb(self):
        data = experiments.figure1_data()
        for name, d in data.items():
            assert not d["fits_baseline"], name
            assert d["fits_present"], name
        # activations dominate at the largest scales (the motivation)
        for name in ("530B", "1T"):
            assert (data[name]["activations_baseline_gib"]
                    > data[name]["weights_optimizer_gib"]), name

    def test_figure7_orderings(self):
        data = experiments.figure7_data()
        for name, fr in data.items():
            assert fr["seq-par + selective recompute"] < fr["sequence parallelism"] < 1
            assert fr["seq-par + selective recompute"] < fr["selective recompute"] < 1
            assert fr["full recompute"] < fr["seq-par + selective recompute"]

    def test_figure8_recompute_components(self):
        data = experiments.figure8_data()
        for name, schemes in data.items():
            assert schemes["baseline"][2] == 0.0           # no recompute time
            assert schemes["full recompute"][2] > schemes["selective recompute"][2] > 0
            # full rebuilds ~one forward; selective only the attention core
            assert schemes["full recompute"][2] > 0.8 * schemes["baseline"][0]
            assert (schemes["selective recompute"][2]
                    < 0.35 * schemes["full recompute"][2]), name

    def test_table5_rows_complete(self):
        rows = experiments.table5_data()
        assert [r["model"] for r in rows] == ["22B", "175B", "530B", "1T"]
        for r in rows:
            assert 0.25 < r["throughput_increase"] < 0.40
            assert r["present_work_s"] == pytest.approx(
                r["paper"]["present"], rel=0.15)

    def test_appendix_c_improves_mfu(self, monkeypatch):
        from repro.pipeline_sim import schedule
        schedule.level_plan.cache_clear()
        built = count_calls(monkeypatch, schedule, "schedule_table")
        data = experiments.appendix_c_data()
        for d in data:
            assert d["mfu_microbatch"] > d["mfu_base"]
        # Baseline and plan of a model walk one schedule, and sharing it
        # (and their traces) leaves both MFUs at their previous bits.
        assert built == [(8, 64, 3), (35, 280, 3)]
        assert {d["model"]: (d["mfu_base"].hex(), d["mfu_microbatch"].hex())
                for d in data} == {
            "175B": ("0x1.003193fd93c56p-1", "0x1.078eb2677c8e8p-1"),
            "530B": ("0x1.1ac8fcef83850p-1", "0x1.1edead25b1825p-1"),
        }


class TestReports:
    @pytest.mark.parametrize("fn,needle", [
        (experiments.figure1_report, "80GB"),
        (experiments.table2_report, "sbh(34 + 5as/h)"),
        (experiments.figure7_report, "tensor-parallel baseline"),
        (experiments.table4_report, "Baseline no recompute"),
        (experiments.figure8_report, "recompute"),
        (experiments.table5_report, "MFU"),
        (experiments.figure9_report, "2.73"),
        (experiments.section5_report, "5as/h"),
        (experiments.appendix_c_report, "microbatch"),
    ])
    def test_report_generates_with_content(self, fn, needle):
        text = fn()
        assert needle in text
        assert len(text.splitlines()) >= 4


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["table", "2"],
        ["table", "4"],
        ["figure", "7"],
        ["figure", "9"],
        ["memory-report", "--model", "175B"],
        ["flops-report", "--model", "530B"],
        ["plan", "--model", "1T"],
        ["simulate-pipeline", "--model", "22B", "--recompute", "full",
         "--no-sequence-parallel"],
        ["section5"],
    ])
    def test_commands_run(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert len(out) > 50

    def test_unknown_model_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["memory-report", "--model", "9T"])

    @pytest.mark.parametrize("argv,needle", [
        (["table", "3"], "reproducible tables: 2, 4, 5, 6"),
        (["figure", "2", "--json"], "reproducible figures: 1, 7, 8, 9, 10"),
    ])
    def test_unknown_number_is_a_usage_error(self, argv, needle, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"repro: error: {needle}\n"

    def test_plan_walks_the_exact_ladder(self, capsys):
        """105 layers have no divisor near L/16: at 34.8 GB the exact ladder
        chooses 103 full layers, a prime no coarsened ladder has (the
        L // 16 = 6 one the command used to pass falls through to all 105)."""
        assert main(["plan", "--model", "530B", "--memory-gb", "34.8"]) == 0
        assert ("SP + full recomputation of 103/105 layers (selective "
                "elsewhere)") in capsys.readouterr().out

    def test_simulate_reports_bubble_and_mfu(self, capsys):
        main(["simulate-pipeline", "--model", "175B"])
        out = capsys.readouterr().out
        assert "MFU" in out and "bubble" in out


class TestSweepCli:
    @pytest.mark.parametrize("kind", ["seq", "tp", "fit", "overhead"])
    def test_sweep_commands_emit_csv(self, kind, capsys):
        from repro.cli import main
        argv = ["sweep", kind, "--model", "22B",
                "--seq-lengths", "2048", "4096"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"# {kind} sweep")
        assert "," in out.splitlines()[1]  # CSV header

    def test_figure_10_command(self, capsys):
        from repro.cli import main
        assert main(["figure", "10"]) == 0
        out = capsys.readouterr().out
        assert "microbatch-level" in out and "rank 0" in out
