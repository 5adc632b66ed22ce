"""Sweep framework and the reproducible cost-model calibration."""

import pytest

from repro.config import PAPER_CONFIGS
from repro.experiments import PAPER_TABLE4, PAPER_TABLE5
from repro.perf_model.calibrate import (
    CalibrationTarget, calibrate, paper_targets,
)
from repro.layers.transformer import Recompute
from repro.sweeps import (
    crossover_sequence_length,
    recompute_overhead_sweep,
    sequence_length_sweep,
    strategy_fit_sweep,
    tensor_parallel_sweep,
    to_csv,
)

M175 = PAPER_CONFIGS["175B"].model


class TestSequenceLengthSweep:
    def test_selective_grows_linearly_baseline_quadratically(self):
        rows = sequence_length_sweep(M175, 1, 8, seq_lengths=(2048, 4096, 8192))
        sel = [r["sp_selective"] for r in rows]
        base = [r["baseline"] for r in rows]
        assert sel[1] == pytest.approx(2 * sel[0])
        assert sel[2] == pytest.approx(4 * sel[0])
        assert base[1] > 2 * base[0]
        assert base[2] > 4 * base[0]

    def test_saving_grows_with_context_to_32k(self):
        """Eq. 6 at the default lengths: selective stays exactly linear in
        s, so its saving over the baseline grows with every doubling."""
        rows = sequence_length_sweep(M175, 1, 8)
        by_s = {r["seq_length"]: r["sp_selective"] for r in rows}
        assert by_s[32768] == pytest.approx(16 * by_s[2048])
        ratios = [r["baseline"] / r["sp_selective"] for r in rows]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_attention_factor_column(self):
        rows = sequence_length_sweep(M175, 1, 8, seq_lengths=(2048,))
        assert rows[0]["attention_factor"] == 80.0


class TestTensorParallelSweep:
    def test_sp_divides_everything_baseline_has_floor(self):
        rows = {r["tensor_parallel"]: r for r in tensor_parallel_sweep(M175, 1)}
        sbh = M175.seq_length * 1 * M175.hidden_size
        # SP at t=8 is exactly 1/8 of t=1.
        assert rows[8]["sp_selective"] == pytest.approx(rows[1]["sp_selective"] / 8)
        # Baseline never drops below the replicated 10sbh floor.
        assert rows[8]["baseline"] > 10 * sbh
        assert rows[16]["selective"] > 10 * sbh

    def test_skips_indivisible_widths(self):
        rows = tensor_parallel_sweep(M175, 1, sizes=(1, 7, 8))
        assert [r["tensor_parallel"] for r in rows] == [1, 8]


class TestStrategyFit:
    def test_baseline_stops_fitting_before_sp_selective(self):
        cfg = PAPER_CONFIGS["175B"]
        rows = strategy_fit_sweep(cfg, seq_lengths=(2048, 4096, 8192, 16384))
        by_s = {r["seq_length"]: r for r in rows}
        assert not by_s[2048]["baseline"]       # Figure 1: already >80GB
        assert by_s[2048]["sp_selective"]
        assert by_s[4096]["sp_selective"]       # 2x context still fits...
        assert not by_s[4096]["selective"]      # ...but not without SP
        assert not by_s[2048]["seq_parallel"]   # SP alone never fit 175B
        assert by_s[8192]["full"]               # full recompute goes furthest
        assert not by_s[16384]["full"]

    def test_csv_rendering(self):
        cfg = PAPER_CONFIGS["22B"]
        rows = strategy_fit_sweep(cfg, seq_lengths=(2048,))
        text = to_csv(rows)
        assert text.splitlines()[0].startswith("seq_length,")
        assert "True" in text or "False" in text


class TestRecomputeOverheadSweep:
    def test_selective_stays_cheap_as_context_grows(self):
        rows = recompute_overhead_sweep(M175, 1, 8,
                                        seq_lengths=(2048, 4096, 8192))
        for r in rows:
            assert r["selective_overhead"] < r["full_overhead"] / 2
        # selective's overhead grows with s (more core to re-run) but stays
        # far below one extra forward pass.
        assert rows[-1]["selective_overhead"] > rows[0]["selective_overhead"]
        assert rows[-1]["selective_overhead"] < 0.20


class TestCrossover:
    def test_paper_models_are_past_crossover_at_2048(self):
        for name in ("175B", "530B"):
            model = PAPER_CONFIGS[name].model
            assert crossover_sequence_length(model) < model.seq_length

    def test_crossover_formula(self):
        m = PAPER_CONFIGS["175B"].model
        s_star = crossover_sequence_length(m)
        assert 5 * m.num_heads * s_star / m.hidden_size == pytest.approx(34, rel=0.01)


class TestCalibration:
    def test_shipped_defaults_sit_in_the_optimum_basin(self):
        """The library defaults fit the paper targets within a few percent
        of the grid optimum (the basin is shallow; several knob combos tie)."""
        from repro.perf_model import KernelCostModel
        from repro.perf_model.calibrate import error_of
        result = calibrate()
        shipped = error_of(KernelCostModel())
        assert result.gemm_efficiency == pytest.approx(0.70)
        assert result.nvlink_bandwidth == pytest.approx(300e9)
        assert shipped <= result.error + 0.05

    @pytest.mark.parametrize("name, ms", [
        ("175B", 17.274), ("530B", 43.284), ("1T", 62.165)])
    def test_table5_targets_follow_from_the_paper(self, name, ms):
        """Each present-work target is Table 5's iteration time spread
        over n microbatches through L/p layers per rank, stretched by the
        interleaved bubble (p - 1)/(n v) of the model's own schedule."""
        cfg = PAPER_CONFIGS[name]
        p, v = cfg.parallel.pipeline_parallel, cfg.parallel.interleave_stages
        n, layers = cfg.training.num_microbatches(), cfg.model.num_layers
        want = PAPER_TABLE5[name][1] / (n * layers / p * (1 + (p - 1) / (n * v)))
        (target,) = [t for t in paper_targets() if t.model is cfg.model]
        assert target.combined_only and target.recompute is Recompute.SELECTIVE
        assert target.forward + target.backward == pytest.approx(want, rel=1e-12)
        assert round(want * 1e3, 3) == ms

    def test_best_fit_hits_table4_baseline(self):
        result = calibrate()
        from repro.perf_model import layer_times
        lt = layer_times(PAPER_CONFIGS["22B"].model, 4, 8,
                         cost=result.cost_model)
        forward_ms, backward_ms, _, _ = PAPER_TABLE4["Baseline no recompute"]
        assert lt.forward * 1e3 == pytest.approx(forward_ms, rel=0.05)
        assert lt.backward_total * 1e3 == pytest.approx(backward_ms, rel=0.08)

    def test_custom_target(self):
        """Calibrating against a slower fictitious machine moves the knobs."""
        m22 = PAPER_CONFIGS["22B"].model
        slow = [CalibrationTarget(m22, 4, 8, False, Recompute.NONE,
                                  forward=12e-3, backward=19e-3)]
        result = calibrate(targets=slow,
                           gemm_efficiencies=(0.40, 0.70),
                           half_sats=(2.0e10,),
                           fusion_factors=(0.55,),
                           nvlink_bandwidths=(300e9,))
        assert result.gemm_efficiency == pytest.approx(0.40)
