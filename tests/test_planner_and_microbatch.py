"""Recompute planner (Section 5) and microbatch-level recompute (App. C)."""

import pytest

from helpers import count_calls
from repro.config import PAPER_CONFIGS
from repro.errors import ConfigError, PlanningError
from repro.layers.transformer import Recompute
from repro.perf_model import iteration_time
from repro.pipeline_sim.microbatch_recompute import (
    iteration_time_with_plan,
    plan_microbatch_recompute,
)
from repro.planner import enumerate_options, plan
from repro.units import GIB


class TestPlanner:
    def test_paper_configs_choose_sp_selective_at_80gb(self):
        """The paper's operating point: SP + selective fits all four models."""
        for name in ("22B", "175B", "530B", "1T"):
            cfg = PAPER_CONFIGS[name]
            option = plan(cfg, full_layer_step=max(1, cfg.model.num_layers // 8))
            assert option.sequence_parallel
            assert option.recompute == Recompute.SELECTIVE
            assert option.overhead_fraction < 0.06, name

    def test_generous_memory_chooses_no_recompute(self):
        option = plan(PAPER_CONFIGS["530B"], device_memory_bytes=200 * GIB)
        assert option.recompute == Recompute.NONE
        assert option.sequence_parallel

    def test_tight_memory_mixes_full_layers(self):
        option = plan(PAPER_CONFIGS["530B"], device_memory_bytes=54 * GIB)
        assert option.recompute == Recompute.FULL
        assert 0 < option.recompute_num_layers < 105

    def test_shrinking_device_climbs_the_ladder(self):
        """Section 5: as memory shrinks the choice escalates nothing ->
        selective -> more and more full layers, at a rising cost."""
        gbs = (200, 80, 54, 45, 35)
        chosen = [plan(PAPER_CONFIGS["530B"], device_memory_bytes=gb * GIB,
                       full_layer_step=3) for gb in gbs]
        assert [o.recompute for o in chosen[:3]] == [
            Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL]
        assert 0 < chosen[2].recompute_num_layers < 105
        assert chosen[3].recompute_num_layers > chosen[2].recompute_num_layers
        overheads = [o.overhead_fraction for o in chosen]
        assert overheads == sorted(overheads)

    def test_layer_checkpointing_costs_more_than_selective(self):
        """Section 5: at a footprint no larger than selective recompute's,
        checkpointing whole layers costs over twice the recompute time."""
        options = [o for o in enumerate_options(PAPER_CONFIGS["530B"],
                                                full_layer_step=5)
                   if o.sequence_parallel]
        selective = next(o for o in options
                         if o.recompute == Recompute.SELECTIVE)
        layerwise = min((o for o in options if o.recompute == Recompute.FULL
                         and o.activation_bytes <= selective.activation_bytes),
                        key=lambda o: o.overhead_fraction)
        assert layerwise.overhead_fraction > 2 * selective.overhead_fraction

    def test_impossible_budget_raises(self):
        with pytest.raises(PlanningError):
            plan(PAPER_CONFIGS["530B"], device_memory_bytes=30 * GIB)

    def test_ladder_always_ends_on_all_layers(self):
        """A step that does not divide L (or exceeds it) must not drop the
        full-recomputation rung: it is the only one that fits 46.6 GiB."""
        cfg = PAPER_CONFIGS["22B"]
        exact = plan(cfg, device_memory_bytes=46.6 * GIB)
        assert exact.description == "SP + full recomputation"
        assert plan(cfg, device_memory_bytes=46.6 * GIB,
                    full_layer_step=5) == exact
        full = [o.recompute_num_layers
                for o in enumerate_options(cfg, full_layer_step=49)
                if o.recompute == Recompute.FULL and o.sequence_parallel]
        assert full == [48]

    @pytest.mark.parametrize("step", [0, -3])
    def test_full_layer_step_below_one_is_a_config_error(self, step):
        with pytest.raises(ConfigError, match="full_layer_step must be >= 1"):
            enumerate_options(PAPER_CONFIGS["22B"], full_layer_step=step)

    def test_one_abstract_trace_per_distinct_layer(self, monkeypatch):
        """100 options, six layers: (SP, no SP) x (none, selective, full)."""
        from repro.perf_model import layer_timing
        layer_timing._records.cache_clear()
        traced = count_calls(monkeypatch, layer_timing, "layer_oplog")
        assert len(enumerate_options(PAPER_CONFIGS["22B"])) == 100
        assert len(traced) == len(set(traced)) == 6

    def test_options_sorted_by_overhead(self):
        options = enumerate_options(PAPER_CONFIGS["22B"], full_layer_step=12)
        overheads = [o.overhead_fraction for o in options]
        assert overheads == sorted(overheads)

    def test_more_full_layers_less_memory_more_overhead(self):
        options = [o for o in enumerate_options(PAPER_CONFIGS["22B"],
                                                full_layer_step=12)
                   if o.sequence_parallel and o.recompute == Recompute.FULL]
        options.sort(key=lambda o: o.recompute_num_layers)
        for a, b in zip(options, options[1:]):
            assert b.activation_bytes < a.activation_bytes
            assert b.overhead_fraction >= a.overhead_fraction

    def test_disallow_sp(self):
        options = enumerate_options(PAPER_CONFIGS["22B"],
                                    allow_sequence_parallel=False,
                                    full_layer_step=48)
        assert all(not o.sequence_parallel for o in options)

    def test_no_sp_22b_needs_recompute(self):
        """Without SP, the 22B baseline does not fit 80GB (Figure 1)."""
        option = plan(PAPER_CONFIGS["22B"], allow_sequence_parallel=False,
                      full_layer_step=12)
        assert option.recompute != Recompute.NONE


class TestContextLayoutChooser:
    """choose_context_layout: exposed-comm pricing picks the baseline for
    short sequences and the O(s/p) layouts once the all-gather volume
    dominates."""

    def _model(self, seq, hidden=4096, heads=32):
        from repro.config import ModelConfig
        return ModelConfig(num_layers=2, hidden_size=hidden, num_heads=heads,
                           seq_length=seq, vocab_size=64, name="chooser")

    def test_short_sequences_keep_sp(self):
        from repro.planner import choose_context_layout
        choice = choose_context_layout(self._model(512), 1, 4)
        assert choice.layout == "sp_allgather"

    def test_long_sequences_never_sp(self):
        from repro.planner import choose_context_layout
        for p in (2, 4, 8):
            choice = choose_context_layout(self._model(65536), 1, p)
            assert choice.layout != "sp_allgather"
            assert choice.seconds <= choice.seconds_per_layer["sp_allgather"]

    def test_large_groups_pick_ulysses(self):
        """At large p, ring's 4(p-1) launches outweigh Ulysses' shard
        volume; at small p the volume wins and ring takes it."""
        from repro.planner import choose_context_layout
        assert choose_context_layout(self._model(16384, hidden=1024, heads=16),
                                     1, 8).layout == "ulysses"
        assert choose_context_layout(self._model(16384, hidden=1024, heads=16),
                                     1, 2).layout == "ring"

    def test_indivisible_heads_exclude_ulysses(self):
        from repro.planner import choose_context_layout
        choice = choose_context_layout(
            self._model(65536, hidden=4092, heads=6), 1, 4)
        assert "ulysses" in choice.excluded
        assert choice.layout == "ring"

    def test_single_rank_and_validation(self):
        from repro.planner import choose_context_layout
        choice = choose_context_layout(self._model(512), 1, 1)
        assert choice.seconds == 0.0
        with pytest.raises(PlanningError):
            choose_context_layout(self._model(512), 1, 0)
        with pytest.raises(PlanningError):
            choose_context_layout(self._model(512), 1, 3)  # 512 % 3 != 0


class TestMicrobatchRecompute:
    def test_windows_shrink_along_pipeline(self):
        p = plan_microbatch_recompute(PAPER_CONFIGS["530B"])
        flights = [s.in_flight for s in p.stages]
        assert flights == sorted(flights, reverse=True)

    def test_later_stages_fully_stored(self):
        """Appendix C: "many of later pipeline stages do not need any
        activation recomputation"."""
        p = plan_microbatch_recompute(PAPER_CONFIGS["530B"])
        assert not p.stages[-1].needs_recompute
        assert p.stages[0].needs_recompute

    def test_full_fraction_bounds(self):
        p = plan_microbatch_recompute(PAPER_CONFIGS["175B"])
        for s in p.stages:
            assert 0.0 <= s.full_fraction <= 1.0

    def test_memory_within_budget(self):
        cfg = PAPER_CONFIGS["530B"]
        from repro.memory_model import weight_and_optimizer_bytes
        budget = 80 * GIB - weight_and_optimizer_bytes(cfg) - 4 * GIB
        p = plan_microbatch_recompute(cfg)
        for s in p.stages:
            assert s.bytes_used <= budget * 1.0000001

    def test_more_memory_more_full_slots(self):
        small = plan_microbatch_recompute(PAPER_CONFIGS["530B"],
                                          device_memory_bytes=60 * GIB)
        large = plan_microbatch_recompute(PAPER_CONFIGS["530B"],
                                          device_memory_bytes=120 * GIB)
        assert large.mean_full_fraction >= small.mean_full_fraction

    def test_impossible_static_memory_raises(self):
        with pytest.raises(PlanningError):
            plan_microbatch_recompute(PAPER_CONFIGS["530B"],
                                      device_memory_bytes=20 * GIB)

    @pytest.mark.parametrize("name,paper_gain", [("175B", 0.009), ("530B", 0.004)])
    def test_mfu_improves_modestly(self, name, paper_gain):
        """Appendix C: +0.7% (175B) and +0.4% (530B) MFU — "the gain is
        small because the selective recomputation overhead is ~2%"."""
        cfg = PAPER_CONFIGS[name]
        base = iteration_time(cfg)
        improved = iteration_time_with_plan(cfg, plan_microbatch_recompute(cfg))
        gain = improved.mfu - base.mfu
        assert 0.0 < gain < 0.03
        assert improved.iteration_time < base.iteration_time


    def test_zero_slot_plan_is_the_plain_iteration_bitwise(self):
        """Both entry points run one iteration body; a plan that stores
        nothing in full subtracts 0.0 everywhere, which keeps every bit."""
        from dataclasses import fields, replace
        cfg = PAPER_CONFIGS["175B"]
        planned = plan_microbatch_recompute(cfg)
        zero = replace(planned, stages=[replace(s, full_slots=0.0)
                                        for s in planned.stages])
        with_plan = iteration_time_with_plan(cfg, zero)
        plain = iteration_time(cfg, recompute=zero.base_recompute)
        for f in fields(plain):
            assert (repr(getattr(with_plan, f.name))
                    == repr(getattr(plain, f.name))), f.name


class TestPlanExecution:
    def test_planned_option_executes_and_matches_bytes(self):
        """The planner's chosen option, built as a real model, measures the
        bytes the planner promised (per-layer part, first stage, p=1)."""
        from repro.config import ModelConfig
        from repro.memory_model import per_layer_activation_bytes
        from repro.parallel import ParallelGPTModel
        from repro.tensor import MemoryTracker, Tensor, instrument
        from repro.tensor.backend import AbstractArray
        from repro.config import ExperimentConfig, ParallelConfig, TrainingConfig
        from repro.planner.planner import RESERVE_BYTES

        model = ModelConfig(num_layers=8, hidden_size=6144, num_heads=64,
                            seq_length=2048, vocab_size=51200)
        cfg = ExperimentConfig(
            model=model, parallel=ParallelConfig(tensor_parallel=8),
            training=TrainingConfig(micro_batch_size=4, global_batch_size=4))
        # Set the budget one byte above the SP 4-full-layer mixed option:
        # every cheaper-overhead option needs strictly more memory, so the
        # planner must choose exactly this mixed plan.  (A rung peaks at
        # one rebuilt layer instead of the head, so fewer full layers save
        # less than selective recomputation's footprint.)
        mixed = next(o for o in enumerate_options(cfg, full_layer_step=1)
                     if o.sequence_parallel and o.recompute == Recompute.FULL
                     and o.recompute_num_layers == 4)
        option = plan(cfg, device_memory_bytes=mixed.total_bytes + RESERVE_BYTES + 1,
                      full_layer_step=1)
        assert option.recompute == Recompute.FULL
        assert option.recompute_num_layers == 4
        assert option.sequence_parallel
        # the mixed plan executed: N full layers, selective elsewhere
        gpt = ParallelGPTModel(
            model, tensor_parallel=8, abstract=True,
            sequence_parallel=option.sequence_parallel,
            recompute=option.recompute,
            recompute_num_layers=option.recompute_num_layers,
            recompute_remainder=Recompute.SELECTIVE)
        t = 8
        s = model.seq_length // t if option.sequence_parallel else model.seq_length
        x = Tensor([AbstractArray((s, 4, model.hidden_size)) for _ in range(t)],
                   requires_grad=True,
                   layout="shard(dim=0)" if option.sequence_parallel else "replicated")
        tracker = MemoryTracker()
        with instrument(memory=tracker):
            for layer in gpt.layers:
                x = layer(x)
            measured = tracker.live_bytes(0)
        n = option.recompute_num_layers
        expected = (
            n * per_layer_activation_bytes(model, 4, 8,
                                           option.sequence_parallel,
                                           Recompute.FULL)
            + (model.num_layers - n)
            * per_layer_activation_bytes(model, 4, 8,
                                         option.sequence_parallel,
                                         Recompute.SELECTIVE))
        assert measured == pytest.approx(expected, rel=1e-9)
