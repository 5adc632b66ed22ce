"""Performance model: Table 4 orderings, Figure 8 trends, Table 5 shape.

Absolute times are calibrated only on the 22B baseline row (see DESIGN.md);
these tests assert the *relations* the paper reports, which are predictions
of the model, not fit targets.
"""

import pytest

from helpers import count_calls
from repro.config import PAPER_CONFIGS
from repro.experiments import PAPER_TABLE4, PAPER_TABLE5
from repro.hardware import GPUSpec
from repro.layers.transformer import Recompute
from repro.perf_model import (
    KernelCostModel, figure8, iteration_time, layer_oplog, layer_times,
    table4, table5_row,
)
from repro.tensor.oplog import OpKind, Phase


CFG22 = PAPER_CONFIGS["22B"]


@pytest.fixture(scope="module")
def t4rows():
    return {r.experiment: r.times for r in
            table4(CFG22.model, CFG22.training.micro_batch_size, 8)}


class TestKernelCostModel:
    def test_gemm_time_monotone_in_flops(self):
        cost = KernelCostModel()
        assert cost.gemm_time(1e12) > cost.gemm_time(1e10)

    def test_elementwise_bandwidth_bound(self):
        cost = KernelCostModel()
        t1 = cost.elementwise_time(1e9)
        t2 = cost.elementwise_time(2e9)
        launch = cost.gpu.kernel_launch_overhead
        assert (t2 - launch) == pytest.approx(2 * (t1 - launch))

    def test_overlap_toggle(self):
        log = layer_oplog(CFG22.model, 4, 8)
        on = KernelCostModel(overlap_backward_comm=True).price(log)
        off = KernelCostModel(overlap_backward_comm=False).price(log)
        assert off.backward > on.backward
        assert off.forward == pytest.approx(on.forward)

    def test_phase_times_properties(self):
        lt = layer_times(CFG22.model, 4, 8, recompute=Recompute.SELECTIVE)
        assert lt.backward_total == pytest.approx(lt.backward + lt.recompute)
        assert lt.combined == pytest.approx(lt.forward + lt.backward_total)


class TestTable4Relations:
    def test_sp_speeds_up_forward(self, t4rows):
        assert t4rows["Sequence Parallelism"].forward < \
            t4rows["Baseline no recompute"].forward
        assert t4rows["Sequence Parallelism"].combined < \
            t4rows["Baseline no recompute"].combined

    def test_sp_speedup_is_modest(self, t4rows):
        """Paper: ~6% forward speedup from LN/dropout on 1/t of the data."""
        gain = 1 - (t4rows["Sequence Parallelism"].forward
                    / t4rows["Baseline no recompute"].forward)
        assert 0.02 < gain < 0.12

    def test_full_recompute_overhead_30_to_45(self, t4rows):
        ov = t4rows["Baseline with recompute"].overhead_vs(
            t4rows["Baseline no recompute"])
        assert 0.30 < ov < 0.45

    def test_full_recompute_exceeds_expected_33_due_to_overlap(self):
        """With backward comm overlap off, the overhead falls back toward
        the naive 33% (the paper's explanation for 39% > 33%)."""
        with_overlap = {r.experiment: r.times for r in table4(
            CFG22.model, 4, 8, cost=KernelCostModel(overlap_backward_comm=True))}
        without = {r.experiment: r.times for r in table4(
            CFG22.model, 4, 8, cost=KernelCostModel(overlap_backward_comm=False))}
        ov_with = with_overlap["Baseline with recompute"].overhead_vs(
            with_overlap["Baseline no recompute"])
        ov_without = without["Baseline with recompute"].overhead_vs(
            without["Baseline no recompute"])
        assert ov_with > ov_without

    def test_selective_much_cheaper_than_full(self, t4rows):
        base = t4rows["Baseline no recompute"]
        sel = t4rows["Selective Recompute"].overhead_vs(base)
        full = t4rows["Baseline with recompute"].overhead_vs(base)
        assert sel < full / 3
        assert 0.0 < sel < 0.10  # paper: 7%

    def test_selective_plus_sequence_cheapest_recompute(self, t4rows):
        base = t4rows["Baseline no recompute"]
        both = t4rows["Selective + Sequence"].overhead_vs(base)
        assert both < t4rows["Selective Recompute"].overhead_vs(base)
        assert both < 0.08  # paper: 4%

    def test_recompute_time_only_under_checkpointing(self, t4rows):
        assert t4rows["Baseline no recompute"].recompute == 0.0
        assert t4rows["Selective Recompute"].recompute > 0.0
        assert t4rows["Baseline with recompute"].recompute > \
            t4rows["Selective Recompute"].recompute

    def test_forward_unchanged_by_recompute(self, t4rows):
        assert t4rows["Selective Recompute"].forward == pytest.approx(
            t4rows["Baseline no recompute"].forward)

    def test_calibration_against_paper_within_8_percent(self, t4rows):
        base = t4rows["Baseline no recompute"]
        forward_ms, backward_ms, _, _ = PAPER_TABLE4["Baseline no recompute"]
        assert base.forward * 1e3 == pytest.approx(forward_ms, rel=0.08)
        assert base.backward_total * 1e3 == pytest.approx(backward_ms, rel=0.08)


class TestFigure8Trends:
    def test_overhead_shrinks_with_model_size(self):
        """Paper: present-work overhead falls from 4% (22B) to 2% (530B/1T)."""
        overheads = []
        for name in ("22B", "175B", "530B", "1T"):
            cfg = PAPER_CONFIGS[name]
            data = figure8(cfg.model, cfg.training.micro_batch_size, 8)
            overheads.append(data["present work"].overhead_vs(data["baseline"]))
        assert overheads[0] > overheads[2]
        assert overheads[0] > overheads[-1]
        assert overheads[-1] < 0.02
        assert overheads[0] < 0.08

    def test_full_recompute_overhead_stable_around_a_third(self):
        for name in ("22B", "530B", "1T"):
            cfg = PAPER_CONFIGS[name]
            data = figure8(cfg.model, cfg.training.micro_batch_size, 8)
            ov = data["full recompute"].overhead_vs(data["baseline"])
            assert 0.30 < ov < 0.45


class TestTable5Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        return {name: table5_row(PAPER_CONFIGS[name])
                for name in ("22B", "175B", "530B", "1T")}

    def test_present_work_always_wins(self, rows):
        for row in rows.values():
            assert row.present_work_time < row.full_recompute_time

    def test_throughput_increase_around_30_percent(self, rows):
        """Paper: between 29.0% and 32.1% for every configuration."""
        for row in rows.values():
            assert 0.25 < row.throughput_increase < 0.40

    def test_mfu_increases_with_scale_up_to_530b(self, rows):
        assert rows["22B"].mfu < rows["175B"].mfu < rows["530B"].mfu

    def test_mfu_in_paper_range(self, rows):
        for name, (lo, hi) in {"22B": (0.38, 0.50), "175B": (0.45, 0.56),
                               "530B": (0.50, 0.60), "1T": (0.48, 0.60)}.items():
            assert lo < rows[name].mfu < hi, name
            assert rows[name].mfu == pytest.approx(PAPER_TABLE5[name][3],
                                                   abs=0.05), name

    def test_hfu_exceeds_mfu(self, rows):
        for row in rows.values():
            assert row.hfu > row.mfu

    def test_iteration_times_within_15_percent_of_paper(self, rows):
        for name, row in rows.items():
            assert row.present_work_time == pytest.approx(
                PAPER_TABLE5[name][1], rel=0.15)

    def test_iteration_times_keep_every_bit(self, rows):
        """(full recompute, present work) as printed by ``float.hex`` before
        the two iterations of a row shared a schedule and the simulator read
        per-group tables: sharing and tabulating must not move a bit."""
        assert {name: (row.full_recompute_time.hex(),
                       row.present_work_time.hex())
                for name, row in rows.items()} == {
            "22B": ("0x1.5934ba748c048p+0", "0x1.00f1c246f00acp+0"),
            "175B": ("0x1.2f2a55bc8d0f6p+4", "0x1.c3dfe5ea4c463p+3"),
            "530B": ("0x1.9bcc9a12d431ap+5", "0x1.331aaec0ea2d1p+5"),
            "1T": ("0x1.9617cbea34131p+6", "0x1.31d125b7487cfp+6"),
        }

    def test_a_row_builds_one_schedule(self, monkeypatch):
        from repro.perf_model import iteration
        built = count_calls(monkeypatch, iteration, "schedule_table")
        table5_row(PAPER_CONFIGS["530B"])
        assert built == [(35, 280, 3)]


class TestDataParallelExtension:
    def test_530b_dp8_close_to_paper(self):
        r = iteration_time(PAPER_CONFIGS["530B"], data_parallel=8)
        assert r.iteration_time == pytest.approx(39.15, rel=0.10)
        assert r.dp_allreduce_time > 0

    def test_dp_overhead_is_small(self):
        base = iteration_time(PAPER_CONFIGS["530B"])
        dp = iteration_time(PAPER_CONFIGS["530B"], data_parallel=8)
        # "the time per iteration increases slightly" — a few percent.
        assert 1.0 < dp.iteration_time / base.iteration_time < 1.10

    def test_mfu_drop_not_substantial(self):
        base = iteration_time(PAPER_CONFIGS["530B"])
        dp = iteration_time(PAPER_CONFIGS["530B"], data_parallel=8)
        assert 0.0 < base.mfu - dp.mfu < 0.04  # paper: 56.0% -> 54.2%


class TestIterationBreakdown:
    def test_components_sum(self):
        r = iteration_time(PAPER_CONFIGS["175B"], data_parallel=2)
        assert r.iteration_time == pytest.approx(
            r.pipeline_time + r.optimizer_time + r.dp_allreduce_time)

    def test_bubble_positive_with_pipeline(self):
        r = iteration_time(PAPER_CONFIGS["175B"])
        assert 0 < r.bubble_fraction < 0.2

    def test_no_bubble_without_pipeline(self):
        r = iteration_time(PAPER_CONFIGS["22B"])
        assert r.bubble_fraction == pytest.approx(0.0)


class TestSimulatorVsAnalyticPipeline:
    """The event-driven makespan matches the closed-form pipeline model
    (ideal work + bubble) for every paper configuration."""

    @pytest.mark.parametrize("name", ["175B", "530B", "1T"])
    def test_makespan_matches_formula(self, name):
        cfg = PAPER_CONFIGS[name]
        r = iteration_time(cfg)
        par, train = cfg.parallel, cfg.training
        n_mb = train.num_microbatches(1)
        per_rank_layers = cfg.model.num_layers // par.pipeline_parallel
        per_mb = per_rank_layers * r.per_layer.combined
        ideal = n_mb * per_mb
        expected = ideal + (par.pipeline_parallel - 1) / par.interleave_stages * per_mb
        # within 10%: the formula ignores p2p latency and embedding/head
        # extras the simulator includes.
        assert r.pipeline_time == pytest.approx(expected, rel=0.10)

    def test_bubble_fraction_at_least_theory(self):
        """Uniform-cost 1F1B theory gives (p-1)/(n+p-1); the real config
        adds structural imbalance (the LM head slows the last stage, p2p
        hops stretch the ramps), so the measured bubble sits at or above
        the theoretical floor but in the same regime.  (The exact uniform
        case is asserted in tests/test_pipeline_simulator.py.)"""
        cfg = PAPER_CONFIGS["1T"]  # m=1: clean 1F1B
        r = iteration_time(cfg)
        p = cfg.parallel.pipeline_parallel
        n = cfg.training.num_microbatches(1)
        theory = (p - 1) / (n + p - 1)
        assert theory - 0.01 <= r.bubble_fraction <= theory + 0.08


class TestWhatIfHardware:
    def test_h100_prediction_is_faster_but_lower_mfu(self):
        from repro.hardware import H100, h100_cluster
        cfg = PAPER_CONFIGS["175B"]
        a100 = iteration_time(cfg)
        h100 = iteration_time(cfg, cost=KernelCostModel(
            gpu=H100, cluster=h100_cluster(cfg.num_gpus)))
        # faster in absolute terms...
        assert h100.iteration_time < a100.iteration_time
        # ...but below the 3.2x peak-FLOPs ratio, so MFU drops
        speedup = a100.iteration_time / h100.iteration_time
        assert 1.5 < speedup < 3.17
        assert h100.mfu < a100.mfu


class TestPriceBreakdown:
    def test_breakdown_sums_to_phase_totals(self):
        cost = KernelCostModel()
        log = layer_oplog(CFG22.model, 4, 8, sequence_parallel=True,
                          recompute=Recompute.SELECTIVE)
        times = cost.price(log)
        breakdown = cost.price_breakdown(log)
        for phase, total in (("forward", times.forward),
                             ("backward", times.backward),
                             ("recompute", times.recompute)):
            attributed = sum(v for k, v in breakdown[phase].items()
                             if k != "overlapped")
            assert attributed == pytest.approx(total, rel=1e-12)

    def test_gemm_dominates_compute(self):
        cost = KernelCostModel()
        log = layer_oplog(CFG22.model, 4, 8)
        breakdown = cost.price_breakdown(log)
        fwd = breakdown["forward"]
        assert fwd["gemm"] > fwd["elementwise"]
        assert fwd["gemm"] > fwd["collective"]

    def test_overlapped_comm_surfaced_separately(self):
        cost = KernelCostModel()
        log = layer_oplog(CFG22.model, 4, 8)  # TP: f.bwd ARs are overlapped
        breakdown = cost.price_breakdown(log)
        assert breakdown["backward"].get("overlapped", 0) > 0

    def test_cli_breakdown_flag(self, capsys):
        from repro.cli import main
        main(["simulate-pipeline", "--model", "22B", "--breakdown"])
        out = capsys.readouterr().out
        assert "time attribution" in out and "gemm" in out
