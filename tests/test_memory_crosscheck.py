"""Equations 1-6 / Table 2 cross-check: the instrumented simulator measures
exactly what the closed-form model predicts — at toy scale with concrete
numerics, at the paper's 22B-1T scale with abstract execution, and under
hypothesis-generated random configurations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.process_group import ProcessGroup
from repro.config import PAPER_CONFIGS, ModelConfig
from repro.layers import Recompute
from repro.layers.transformer import TransformerLayer
from repro.memory_model import per_layer_activation_bytes
from repro.observability import memory_term_drift
from repro.observability.analysis import MEMORY_DRIFT_CASES, forward_layer
from repro.parallel import TensorParallel
from repro.tensor import MemoryTracker, Tensor, instrument, seed
from repro.tensor.backend import AbstractArray

from helpers import assert_zero_drift

rng = np.random.default_rng(5)


def layer_bytes(model: ModelConfig, b: int, rc: Recompute,
                layout: TensorParallel, concrete: bool = False) -> int:
    """Saved-activation bytes per rank after one layer's forward, required
    to be the same on every rank (``memory_term_drift`` reads rank 0
    only).  The abstract layer runs through the memory oracle's forward
    under ``layout`` (the unfused sequence-parallel gather included);
    ``concrete`` runs the same layer on concrete weights and inputs."""
    tracker = MemoryTracker()
    if concrete:
        seed(0)
        layer = TransformerLayer(model.hidden_size, model.num_heads,
                                 recompute=rc, rng=np.random.default_rng(1),
                                 layout=layout)
        t, sharded = layout.group.size, layout.sequence_shards > 1
        full = rng.normal(size=(model.seq_length, b, model.hidden_size))
        x = Tensor(list(np.split(full, t, axis=0)) if sharded else [full] * t,
                   requires_grad=True,
                   layout="shard(dim=0)" if sharded else "replicated")
        with instrument(memory=tracker):
            layer(x)
    else:
        forward_layer(layout, model, b, rc, False, tracker)
    per_rank = {tracker.live_bytes(r) for r in range(layout.group.size)}
    assert len(per_rank) == 1, "ranks must be symmetric"
    return per_rank.pop()


def measured_bytes(model: ModelConfig, b: int, t: int, sp: bool,
                   rc: Recompute) -> float:
    """One abstract layer's saved bytes, required to match Equations 1-4
    term by term on rank 0 and to be the same on every rank."""
    drift = memory_term_drift(model, b, t, sp, rc)
    assert_zero_drift(drift)
    measured = sum(drift.measured.values())
    if t > 1:
        assert measured == layer_bytes(model, b, rc,
                                       TensorParallel(ProcessGroup(t), sp))
    return measured


class TestTable2AtPaperScale:
    """Abstract execution of the real graph at the paper's model sizes."""

    @pytest.mark.parametrize("sp,rc", MEMORY_DRIFT_CASES)
    @pytest.mark.parametrize("name", ["22B", "175B"])
    def test_measured_equals_formula(self, name, sp, rc):
        cfg = PAPER_CONFIGS[name]
        b, t = cfg.training.micro_batch_size, cfg.parallel.tensor_parallel
        measured = measured_bytes(cfg.model, b, t, sp, rc)
        formula = per_layer_activation_bytes(cfg.model, b, t, sp, rc)
        assert measured == pytest.approx(formula, rel=1e-9)

    def test_no_parallelism_equation_1(self):
        m = PAPER_CONFIGS["22B"].model
        measured = measured_bytes(m, 4, 1, False, Recompute.NONE)
        assert measured == pytest.approx(
            m.seq_length * 4 * m.hidden_size
            * (34 + 5 * m.num_heads * m.seq_length / m.hidden_size), rel=1e-9)

    def test_unfused_gather_ablation(self):
        """Without the Y_i^s trick, both column-parallel inputs are stored
        in full on every rank: +2 * (2sbh - 2sbh/t)."""
        m, b, t = PAPER_CONFIGS["22B"].model, 4, 8
        fused, unfused = (
            layer_bytes(m, b, Recompute.NONE,
                        TensorParallel(ProcessGroup(t), True, fuse_sp_gather=f))
            for f in (True, False))
        sbh = m.seq_length * b * m.hidden_size
        assert unfused - fused == 2 * (2 * sbh - 2 * sbh // t)

    def test_selective_stores_qkv_instead_of_core(self):
        m, b, t = PAPER_CONFIGS["530B"].model, 1, 8
        none = measured_bytes(m, b, t, True, Recompute.NONE)
        sel = measured_bytes(m, b, t, True, Recompute.SELECTIVE)
        # Dropping the core removes 5as^2b/t but Q,K,V were stored anyway.
        assert none - sel == 5 * m.num_heads * m.seq_length**2 * b // t


class TestConcreteMatchesAbstract:
    @pytest.mark.parametrize("sp,rc", MEMORY_DRIFT_CASES)
    def test_toy_scale(self, sp, rc):
        model = ModelConfig(num_layers=1, hidden_size=32, num_heads=4,
                            seq_length=16, vocab_size=64)
        concrete = layer_bytes(model, 2, rc, TensorParallel(ProcessGroup(4), sp),
                               concrete=True)
        assert concrete == measured_bytes(model, 2, 4, sp, rc)


@st.composite
def layer_configs(draw):
    t = draw(st.sampled_from([1, 2, 4]))
    heads_per_rank = draw(st.integers(1, 3))
    a = heads_per_rank * t
    d = draw(st.sampled_from([4, 8]))
    s = t * draw(st.sampled_from([2, 4, 8]))
    b = draw(st.integers(1, 3))
    return ModelConfig(num_layers=1, hidden_size=a * d, num_heads=a,
                       seq_length=s, vocab_size=32), b, t


class TestPropertyCrosscheck:
    @given(layer_configs(),
           st.sampled_from(MEMORY_DRIFT_CASES))
    @settings(max_examples=40, deadline=None)
    def test_formula_holds_for_random_configs(self, cfg_b_t, case):
        model, b, t = cfg_b_t
        sp, rc = case
        measured = measured_bytes(model, b, t, sp, rc)
        assert measured == pytest.approx(
            per_layer_activation_bytes(model, b, t, sp, rc), rel=1e-9)


class TestFullModelMemory:
    def test_l_layer_model_scales_linearly(self):
        """L layers store exactly L x the per-layer bytes between them."""
        cfg = PAPER_CONFIGS["175B"]
        model, b, t = cfg.model, 1, 8
        seed(0)
        group = ProcessGroup(t)
        layers = [
            TransformerLayer(model.hidden_size, model.num_heads,
                             recompute=Recompute.SELECTIVE, abstract=True,
                             layout=TensorParallel(group, sequence_parallel=True))
            for _ in range(3)
        ]
        x = Tensor([AbstractArray((model.seq_length // t, b, model.hidden_size))
                    for _ in range(t)], requires_grad=True, layout="shard(dim=0)")
        tracker = MemoryTracker()
        per_layer = per_layer_activation_bytes(model, b, t, True, Recompute.SELECTIVE)
        with instrument(memory=tracker):
            for i, layer in enumerate(layers, start=1):
                x = layer(x)
                assert tracker.live_bytes(0) == pytest.approx(i * per_layer, rel=1e-9)


def forward_bytes(model: ModelConfig, b: int, t: int, sp: bool,
                  rc: Recompute):
    """Rank 0's live bytes after one abstract forward of the whole model
    (embedding + L layers + head + loss), and its config."""
    from repro.config import ExperimentConfig, ParallelConfig, TrainingConfig
    from repro.parallel import ParallelGPTModel
    from repro.tensor import INT64

    cfg = ExperimentConfig(
        model=model,
        parallel=ParallelConfig(tensor_parallel=t, sequence_parallel=sp),
        training=TrainingConfig(micro_batch_size=b, global_batch_size=b),
    )
    gpt = ParallelGPTModel(model, tensor_parallel=t, sequence_parallel=sp,
                           recompute=rc, abstract=True)
    ids, targets = (Tensor([AbstractArray((model.seq_length, b))] * t,
                           dtype=INT64) for _ in range(2))
    tracker = MemoryTracker()
    with instrument(memory=tracker):
        gpt(ids, targets)
        return tracker.live_bytes(0), cfg


class TestWholeModelMemory:
    """Equation 5 + the Section 4.3 extras, measured end-to-end on the
    full abstract model: :func:`~repro.memory_model.stage_memory`'s
    ``layers + embedding + head`` plus the int64 token ids (8 B per
    token: the input ids the embedding saves and the targets the loss
    saves), which its ``total`` leaves out.  The full-recompute
    ``transient`` only appears in backward."""

    @pytest.mark.parametrize("sp", [True, False])
    @pytest.mark.parametrize("rc", [Recompute.SELECTIVE, Recompute.NONE,
                                    Recompute.FULL])
    def test_total_forward_bytes_match_eq5_plus_extras(self, sp, rc):
        from repro.memory_model import stage_memory

        model = ModelConfig(num_layers=3, hidden_size=6144, num_heads=64,
                            seq_length=2048, vocab_size=51200)
        b = 4
        measured, cfg = forward_bytes(model, b, 8, sp, rc)
        mem = stage_memory(cfg, 0, rc, sp)
        token_id_bytes = 2 * model.seq_length * b * 8
        assert measured == pytest.approx(
            mem.layers + mem.embedding + mem.head + token_id_bytes, rel=1e-12)

    def test_extras_are_the_embedding_and_head_terms(self):
        """Decompose: model-total minus L x per-layer equals the Section
        4.3 extras plus the token ids."""
        from repro.memory_model import stage_memory

        model = ModelConfig(num_layers=2, hidden_size=1024, num_heads=16,
                            seq_length=512, vocab_size=4096)
        b, t = 2, 4
        measured, cfg = forward_bytes(model, b, t, True, Recompute.SELECTIVE)
        per_layer = per_layer_activation_bytes(model, b, t, True,
                                               Recompute.SELECTIVE)
        mem = stage_memory(cfg, 0, Recompute.SELECTIVE, True)
        token_id_bytes = 2 * model.seq_length * b * 8
        assert (measured - model.num_layers * per_layer
                == mem.embedding + mem.head + token_id_bytes)


class TestMixedRecomputePlans:
    def test_remainder_strategy_applies(self):
        from repro.parallel import ParallelGPTModel
        gpt = ParallelGPTModel(
            ModelConfig(num_layers=4, hidden_size=32, num_heads=4,
                        seq_length=16, vocab_size=32),
            tensor_parallel=2, sequence_parallel=True,
            recompute=Recompute.FULL, recompute_num_layers=2,
            recompute_remainder=Recompute.SELECTIVE, abstract=True)
        strategies = [layer.recompute for layer in gpt.layers]
        assert strategies == [Recompute.FULL, Recompute.FULL,
                              Recompute.SELECTIVE, Recompute.SELECTIVE]

    def test_mixed_plan_memory_matches_planner_formula(self):
        """A planner mixed option, actually built and measured: N full
        layers + selective remainder equals the planner's byte estimate."""
        from repro.parallel import ParallelGPTModel

        model = ModelConfig(num_layers=4, hidden_size=6144, num_heads=64,
                            seq_length=2048, vocab_size=51200)
        b, t, n_full = 4, 8, 1
        gpt = ParallelGPTModel(model, tensor_parallel=t, sequence_parallel=True,
                               recompute=Recompute.FULL,
                               recompute_num_layers=n_full,
                               recompute_remainder=Recompute.SELECTIVE,
                               abstract=True)
        x = Tensor([AbstractArray((model.seq_length // t, b, model.hidden_size))
                    for _ in range(t)], requires_grad=True, layout="shard(dim=0)")
        tracker = MemoryTracker()
        with instrument(memory=tracker):
            for layer in gpt.layers:
                x = layer(x)
            measured = tracker.live_bytes(0)
        full_b = per_layer_activation_bytes(model, b, t, True, Recompute.FULL)
        sel_b = per_layer_activation_bytes(model, b, t, True, Recompute.SELECTIVE)
        assert measured == pytest.approx(
            n_full * full_b + (model.num_layers - n_full) * sel_b, rel=1e-9)
