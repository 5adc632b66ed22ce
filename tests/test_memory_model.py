"""Closed-form memory model: Table 2 relations, totals, Figures 1/7/9."""

import pytest

from repro.config import PAPER_CONFIGS, ExperimentConfig, ModelConfig, ParallelConfig, TrainingConfig
from repro.layers.transformer import Recompute
from repro.memory_model import (
    figure1_budget,
    in_flight_microbatches,
    memory_fraction_of_tp_baseline,
    parameter_count,
    per_layer_activation_bytes,
    per_layer_breakdown,
    pipeline_memory_profile,
    stage_memory,
    table2,
    weight_and_optimizer_bytes,
)
from repro.units import GIB


M22 = PAPER_CONFIGS["22B"].model


class TestPerLayerFormulas:
    def test_table2_relations(self):
        rows = {r.technique: r.bytes_per_layer for r in table2(M22, 4, 8)}
        sbh = M22.seq_length * 4 * M22.hidden_size
        assert rows["no parallelism"] == sbh * (34 + 5 * 64 * 2048 / 6144)
        assert rows["tensor + sequence parallel"] == pytest.approx(
            rows["no parallelism"] / 8)
        assert rows["tensor + sequence parallel + selective recompute"] == \
            pytest.approx(sbh * 34 / 8)
        assert rows["full activation recomputation"] == 2 * sbh
        # ordering: each row of the table strictly tightens memory
        values = list(rows.values())
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sp_with_t1_is_serial(self):
        a = per_layer_activation_bytes(M22, 4, 1, sequence_parallel=True)
        b = per_layer_activation_bytes(M22, 4, 1, sequence_parallel=False)
        assert a == b

    def test_breakdown_sums_to_total(self):
        for sp in (False, True):
            for rc in (Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL):
                breakdown = per_layer_breakdown(M22, 4, 8, sp, rc)
                total = per_layer_activation_bytes(M22, 4, 8, sp, rc)
                assert sum(breakdown.values()) == pytest.approx(total, rel=1e-12)

    def test_selective_independent_of_heads(self):
        """Eq. 6: with selective recompute, memory no longer depends on a."""
        a64 = M22.scaled(num_heads=64)
        a32 = M22.scaled(num_heads=32)
        assert per_layer_activation_bytes(a64, 4, 8, True, Recompute.SELECTIVE) == \
            per_layer_activation_bytes(a32, 4, 8, True, Recompute.SELECTIVE)
        # ...whereas without recomputation the 5as/h term grows with a
        assert per_layer_activation_bytes(a32, 4, 8, True, Recompute.NONE) < \
            per_layer_activation_bytes(a64, 4, 8, True, Recompute.NONE)

    def test_memory_scales_linearly_with_sequence_under_selective(self):
        s1 = per_layer_activation_bytes(M22, 4, 8, True, Recompute.SELECTIVE)
        s2 = per_layer_activation_bytes(M22.scaled(seq_length=4096), 4, 8,
                                        True, Recompute.SELECTIVE)
        assert s2 == pytest.approx(2 * s1)

    def test_baseline_scales_quadratically_with_sequence(self):
        s1 = per_layer_activation_bytes(M22, 4, 8, False, Recompute.NONE)
        s2 = per_layer_activation_bytes(M22.scaled(seq_length=4096), 4, 8,
                                        False, Recompute.NONE)
        assert s2 > 2 * s1  # the 5as^2b term grows quadratically


class TestStageMemoryTerms:
    """:func:`stage_memory`'s term groups against Equation 5 and the
    Section 4.3 extras, term by term."""

    def test_first_stage_layers_are_equation_5(self):
        """Stage 0 holds ``L`` layers' worth, ``x (1 + (p-1)/(pm))``
        interleaved."""
        for name, factor in (("1T", 1.0), ("175B", 1 + 7 / 24),
                             ("530B", 1 + 34 / 105)):
            cfg = PAPER_CONFIGS[name]
            per_layer = per_layer_activation_bytes(
                cfg.model, 1, 8, True, Recompute.SELECTIVE)
            layers = stage_memory(cfg, 0, Recompute.SELECTIVE, True).layers
            assert layers == pytest.approx(
                per_layer * cfg.model.num_layers * factor), name

    def test_extras_negligible(self):
        """Section 4.3: the embedding and head terms are well under 1% of
        the 22B model's layers."""
        mem = stage_memory(PAPER_CONFIGS["22B"], 0, Recompute.NONE, True)
        assert (mem.embedding + mem.head) / mem.layers < 0.01

    def test_embedding_masks_per_holding_microbatch(self):
        """One ``sbh/t`` mask per microbatch holding the embedding: ``p``,
        or ``2p`` interleaved; replicated (``sbh``) without SP."""
        for name, holders in (("1T", 64), ("530B", 70)):
            cfg = PAPER_CONFIGS[name]
            m = cfg.model
            sbh = m.seq_length * m.hidden_size
            assert stage_memory(cfg, 0, Recompute.SELECTIVE, True).embedding \
                == holders * sbh / 8
            assert stage_memory(cfg, 0, Recompute.SELECTIVE, False).embedding \
                == holders * sbh
            assert stage_memory(cfg, 1, Recompute.SELECTIVE, True).embedding == 0

    def test_head_on_the_last_stage_only(self):
        """``4sbh/t (1 + v/h)`` with SP; replicated LN and projection
        inputs ``4sbh + 4sbv/t`` without."""
        cfg = PAPER_CONFIGS["530B"]
        m = cfg.model
        sbh, sbv = m.seq_length * m.hidden_size, m.seq_length * m.vocab_size
        last = cfg.parallel.pipeline_parallel - 1
        assert stage_memory(cfg, last, Recompute.SELECTIVE, True).head == \
            pytest.approx(4 * sbh / 8 + 4 * sbv / 8)
        assert stage_memory(cfg, last, Recompute.SELECTIVE, False).head == \
            pytest.approx(4 * sbh + 4 * sbv / 8)
        assert stage_memory(cfg, 0, Recompute.SELECTIVE, True).head == 0

    def test_full_recompute_transient_replaces_the_head(self):
        """The rebuilt layer's stores less its checkpoint, counted instead
        of the head (freed before any layer recomputes)."""
        cfg = PAPER_CONFIGS["22B"]
        mem = stage_memory(cfg, 0, Recompute.FULL, True)
        rebuilt = per_layer_activation_bytes(cfg.model, 4, 8, True,
                                             Recompute.NONE)
        assert mem.transient == rebuilt - mem.layers / cfg.model.num_layers
        assert mem.transient > mem.head > 0
        assert mem.total == mem.layers + mem.embedding + mem.transient
        assert stage_memory(cfg, 0, Recompute.SELECTIVE, True).transient == 0


class TestFigure7:
    @pytest.mark.parametrize("name", ["22B", "175B", "530B", "1T"])
    def test_combined_under_20_percent(self, name):
        """"bringing the memory requirements to under 20%" (Section 6.1)."""
        cfg = PAPER_CONFIGS[name]
        frac = memory_fraction_of_tp_baseline(
            cfg.model, cfg.training.micro_batch_size, 8, True, Recompute.SELECTIVE)
        assert frac < 0.21
        # ~5x reduction
        assert 3.5 < 1 / frac < 7

    @pytest.mark.parametrize("name", ["22B", "175B", "530B", "1T"])
    def test_individual_techniques_near_half(self, name):
        cfg = PAPER_CONFIGS[name]
        b = cfg.training.micro_batch_size
        sp = memory_fraction_of_tp_baseline(cfg.model, b, 8, True, Recompute.NONE)
        sel = memory_fraction_of_tp_baseline(cfg.model, b, 8, False, Recompute.SELECTIVE)
        assert 0.45 < sp < 0.70
        assert 0.45 < sel < 0.70

    def test_full_recompute_about_10_percent(self):
        cfg = PAPER_CONFIGS["530B"]
        frac = memory_fraction_of_tp_baseline(
            cfg.model, 1, 8, False, Recompute.FULL)
        assert 0.05 < frac < 0.12

    def test_combined_is_about_2x_full_recompute(self):
        """"only ~2x of the full activation recomputation" (Section 6.1)."""
        for name in ("22B", "175B", "530B", "1T"):
            cfg = PAPER_CONFIGS[name]
            b = cfg.training.micro_batch_size
            both = memory_fraction_of_tp_baseline(cfg.model, b, 8, True,
                                                  Recompute.SELECTIVE)
            full = memory_fraction_of_tp_baseline(cfg.model, b, 8, False,
                                                  Recompute.FULL)
            assert 1.5 < both / full < 2.5, name

    def test_savings_converge_with_scale(self):
        """Figure 7's caption: as the model grows, sequence parallelism and
        selective recomputation approach similar savings."""
        def gap(name):
            cfg = PAPER_CONFIGS[name]
            b = cfg.training.micro_batch_size
            return abs(
                memory_fraction_of_tp_baseline(cfg.model, b, 8, True,
                                               Recompute.NONE)
                - memory_fraction_of_tp_baseline(cfg.model, b, 8, False,
                                                 Recompute.SELECTIVE))
        assert gap("1T") < gap("22B") + 0.05


class TestFigure1:
    @pytest.mark.parametrize("name", ["22B", "175B", "530B", "1T"])
    def test_baseline_exceeds_80gb(self, name):
        budget = figure1_budget(PAPER_CONFIGS[name])
        assert not budget.fits

    @pytest.mark.parametrize("name", ["22B", "175B", "530B", "1T"])
    def test_present_work_fits(self, name):
        budget = figure1_budget(PAPER_CONFIGS[name], recompute=Recompute.SELECTIVE,
                                sequence_parallel=True)
        assert budget.fits

    def test_parameter_counts_close_to_names(self):
        for name, count in (("22B", 22e9), ("175B", 175e9),
                            ("530B", 530e9), ("1T", 1000e9)):
            assert parameter_count(PAPER_CONFIGS[name].model) == \
                pytest.approx(count, rel=0.06)

    def test_weight_memory_divided_by_model_parallel(self):
        cfg = PAPER_CONFIGS["530B"]
        per_rank = weight_and_optimizer_bytes(cfg)
        assert per_rank == pytest.approx(
            parameter_count(cfg.model) * 16 / (8 * 35), rel=1e-12)


class TestFigure9:
    def test_in_flight_1f1b(self):
        assert in_flight_microbatches(0, 8, 100) == 8
        assert in_flight_microbatches(7, 8, 100) == 1
        assert in_flight_microbatches(0, 8, 4) == 4  # capped by n_mb

    def test_in_flight_interleaved_first_stage_matches_paper_factor(self):
        p, m, L = 35, 3, 105
        r = in_flight_microbatches(0, p, 1000, m)
        layers_worth = r * (L / p)
        assert layers_worth == pytest.approx(L * (1 + (p - 1) / (p * m)))

    def test_monotone_decreasing_along_ranks(self):
        prof = pipeline_memory_profile(PAPER_CONFIGS["530B"], sequence_parallel=True)
        for a, b in zip(prof.optimized_bytes, prof.optimized_bytes[1:]):
            assert a >= b

    def test_dealloc_saving_is_2sbh_times_inflight(self):
        """Appendix B: first-stage saving is sbh*p elements = 2.73 GB."""
        cfg = PAPER_CONFIGS["530B"]
        prof = pipeline_memory_profile(cfg, sequence_parallel=True)
        m, b, p = cfg.model, 1, 35
        expected = 2 * m.seq_length * b * m.hidden_size * p
        assert prof.savings(0) == pytest.approx(expected)
        assert prof.savings(0) / GIB == pytest.approx(2.73, abs=0.01)

    def test_stage0_embedding_spike(self):
        prof = pipeline_memory_profile(PAPER_CONFIGS["530B"], sequence_parallel=True)
        s0, s1, s2 = prof.optimized_bytes[:3]
        # The drop from 0 to 1 exceeds the pure layer-count slope because of
        # the embedding-dropout spike on rank 0.
        assert (s0 - s1) > (s1 - s2)

    def test_series_read_the_term_groups(self):
        """Optimized = ``.total``; unoptimized adds ``.outputs``."""
        cfg = PAPER_CONFIGS["530B"]
        prof = pipeline_memory_profile(cfg, sequence_parallel=True)
        for rank in (0, 17, 34):
            mem = stage_memory(cfg, rank, Recompute.SELECTIVE, True)
            assert prof.optimized_bytes[rank] == mem.total
            assert prof.unoptimized_bytes[rank] == mem.total + mem.outputs
        assert prof.optimized_bytes[34] / GIB == pytest.approx(11.86, abs=0.005)
        assert prof.optimized_bytes[0] / GIB == pytest.approx(23.42, abs=0.005)

    def test_stage_out_of_range(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            in_flight_microbatches(35, 35, 10)


class TestMemoization:
    """The per-layer formulas are pure functions: string and enum
    recompute values must give the same bytes, and each call returns a
    fresh dict."""

    def test_string_and_enum_recompute_share_an_entry(self):
        cfg = ModelConfig(num_layers=2, hidden_size=64, num_heads=4,
                          seq_length=32, vocab_size=64, name="memo")
        a = per_layer_activation_bytes(cfg, 2, 2, sequence_parallel=True,
                                       recompute=Recompute.SELECTIVE)
        b = per_layer_activation_bytes(cfg, 2, 2, sequence_parallel=True,
                                       recompute="selective")
        assert a == b

    def test_breakdown_returns_a_copy(self):
        cfg = ModelConfig(num_layers=2, hidden_size=64, num_heads=4,
                          seq_length=32, vocab_size=64, name="memo-copy")
        first = per_layer_breakdown(cfg, 2, 1, sequence_parallel=False,
                                    recompute=Recompute.NONE)
        first["attn_core"] = -1  # caller mutates its copy
        second = per_layer_breakdown(cfg, 2, 1, sequence_parallel=False,
                                     recompute=Recompute.NONE)
        assert second["attn_core"] != -1
        assert first is not second

    def test_memoised_values_match_fresh_computation(self):
        cfg = ModelConfig(num_layers=2, hidden_size=64, num_heads=4,
                          seq_length=32, vocab_size=64, name="memo-eq")
        for recompute in (Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL):
            once = per_layer_activation_bytes(cfg, 4, 2, True, recompute)
            again = per_layer_activation_bytes(cfg, 4, 2, True, recompute)
            assert once == again
            assert sum(per_layer_breakdown(cfg, 4, 2, True,
                                           recompute).values()) == once
