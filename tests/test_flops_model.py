"""FLOP model (Appendix A): Equations 7-9, Section 5 claims, and the
crucial crosscheck that the instrumented graph *counts* the same GEMM
FLOPs the formulas predict.
"""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.config import PAPER_CONFIGS, ModelConfig
from repro.flops_model import (
    attention_core_forward_flops_per_layer,
    attention_memory_factor,
    forward_flops_per_layer,
    hardware_flops_per_iteration,
    hardware_to_model_ratio,
    logits_forward_flops,
    model_flops_per_iteration,
    selective_recompute_flops_overhead,
    utilization,
)
from repro.layers.transformer import Recompute
from repro.layers import TransformerLayer
from repro.parallel import TensorParallel
from repro.tensor import OpLog, Tensor, instrument
from repro.tensor.backend import AbstractArray
from repro.tensor.oplog import OpKind, Phase


class TestFormulas:
    def test_equation_7_form(self):
        m = PAPER_CONFIGS["175B"].model
        B, L, s, h, v = 3, m.num_layers, m.seq_length, m.hidden_size, m.vocab_size
        expected = 72 * B * L * s * h * h * (1 + s / (6 * h) + v / (12 * h * L))
        assert model_flops_per_iteration(m, B) == pytest.approx(expected, rel=1e-12)

    def test_model_flops_is_3x_forward(self):
        m = PAPER_CONFIGS["22B"].model
        fwd = m.num_layers * forward_flops_per_layer(m, 2) + logits_forward_flops(m, 2)
        assert model_flops_per_iteration(m, 2) == pytest.approx(3 * fwd)

    def test_equation_8_paper_mode(self):
        m = PAPER_CONFIGS["530B"].model
        B, L, s, h, v = 1, m.num_layers, m.seq_length, m.hidden_size, m.vocab_size
        expected = 72 * B * L * s * h * h * (1 + s / (3 * h) + v / (12 * h * L))
        got = hardware_flops_per_iteration(m, B, Recompute.SELECTIVE, paper_mode=True)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_strict_mode_counts_exactly_the_core_rerun(self):
        m = PAPER_CONFIGS["530B"].model
        base = model_flops_per_iteration(m, 1)
        strict = hardware_flops_per_iteration(m, 1, Recompute.SELECTIVE, paper_mode=False)
        assert strict - base == pytest.approx(
            m.num_layers * attention_core_forward_flops_per_layer(m, 1))

    def test_no_recompute_equals_model_flops(self):
        m = PAPER_CONFIGS["22B"].model
        assert hardware_flops_per_iteration(m, 4, Recompute.NONE) == \
            model_flops_per_iteration(m, 4)

    def test_full_recompute_adds_one_forward(self):
        m = PAPER_CONFIGS["22B"].model
        base = model_flops_per_iteration(m, 4)
        full = hardware_flops_per_iteration(m, 4, Recompute.FULL)
        assert full - base == pytest.approx(
            m.num_layers * forward_flops_per_layer(m, 4))
        # Full recompute approaches the "expected 33%" overhead.
        assert 0.28 < (full / base - 1) < 0.34

    def test_equation_9_approximation(self):
        for name in ("175B", "530B", "1T"):
            m = PAPER_CONFIGS[name].model
            approx = 1 + m.seq_length / (6 * m.hidden_size)
            assert hardware_to_model_ratio(m) == pytest.approx(approx, abs=2e-3)


class TestSection5Claims:
    def test_5as_over_h(self):
        assert attention_memory_factor(PAPER_CONFIGS["175B"].model) == 80.0
        assert attention_memory_factor(PAPER_CONFIGS["530B"].model) == 64.0

    def test_memory_savings(self):
        for name, saving in (("175B", 0.70), ("530B", 0.65)):
            f = attention_memory_factor(PAPER_CONFIGS[name].model)
            assert f / (34 + f) == pytest.approx(saving, abs=0.01)

    def test_flops_overheads(self):
        assert selective_recompute_flops_overhead(
            PAPER_CONFIGS["175B"].model) == pytest.approx(0.027, abs=0.001)
        assert selective_recompute_flops_overhead(
            PAPER_CONFIGS["530B"].model) == pytest.approx(0.016, abs=0.001)


class TestUtilization:
    def test_mfu_hfu_definitions(self):
        cfg = PAPER_CONFIGS["22B"]
        u = utilization(cfg, iteration_time=1.0)
        peak_total = 312e12 * cfg.num_gpus
        assert u.mfu == pytest.approx(u.model_flops / peak_total)
        assert u.hfu >= u.mfu  # hardware FLOPs include recompute

    def test_hfu_equals_mfu_without_recompute(self):
        cfg = PAPER_CONFIGS["22B"]
        u = utilization(cfg, 1.0, recompute=Recompute.NONE)
        assert u.hfu == pytest.approx(u.mfu)


class TestCounterCrosscheck:
    """The op log of the real abstract graph reproduces Appendix A's terms."""

    def _layer_log(self, model: ModelConfig, b: int, t: int, rc: Recompute,
                   with_backward: bool = True) -> OpLog:
        layer = TransformerLayer(
            model.hidden_size, model.num_heads, recompute=rc, abstract=True,
            layout=TensorParallel(ProcessGroup(t), sequence_parallel=True))
        x = Tensor([AbstractArray((model.seq_length // t, b, model.hidden_size))
                    for _ in range(t)], requires_grad=True, layout="shard(dim=0)")
        log = OpLog()
        with instrument(oplog=log):
            y = layer(x)
            if with_backward:
                y.backward()
        return log

    def test_forward_gemm_flops_match_appendix_a(self):
        m = PAPER_CONFIGS["22B"].model
        b, t = 4, 8
        log = self._layer_log(m, b, t, Recompute.NONE, with_backward=False)
        measured = log.flops(Phase.FORWARD, OpKind.GEMM) * t  # per rank -> total
        assert measured == pytest.approx(forward_flops_per_layer(m, b), rel=1e-12)

    def test_backward_gemms_double_forward(self):
        m = PAPER_CONFIGS["22B"].model
        log = self._layer_log(m, 4, 8, Recompute.NONE)
        fwd = log.flops(Phase.FORWARD, OpKind.GEMM)
        bwd = log.flops(Phase.BACKWARD, OpKind.GEMM)
        assert bwd == pytest.approx(2 * fwd, rel=1e-12)

    def test_selective_recompute_flops_are_the_attention_core(self):
        m = PAPER_CONFIGS["22B"].model
        b, t = 4, 8
        log = self._layer_log(m, b, t, Recompute.SELECTIVE)
        rec = log.flops(Phase.RECOMPUTE, OpKind.GEMM) * t
        assert rec == pytest.approx(
            attention_core_forward_flops_per_layer(m, b), rel=1e-12)

    def test_full_recompute_flops_are_one_forward(self):
        m = PAPER_CONFIGS["22B"].model
        b, t = 4, 8
        log = self._layer_log(m, b, t, Recompute.FULL)
        rec = log.flops(Phase.RECOMPUTE, OpKind.GEMM) * t
        assert rec == pytest.approx(forward_flops_per_layer(m, b), rel=1e-12)

    def test_recompute_preserves_total_backward_gemms(self):
        m = PAPER_CONFIGS["22B"].model
        baseline = self._layer_log(m, 4, 8, Recompute.NONE)
        full = self._layer_log(m, 4, 8, Recompute.FULL)
        assert full.flops(Phase.BACKWARD, OpKind.GEMM) == pytest.approx(
            baseline.flops(Phase.BACKWARD, OpKind.GEMM), rel=1e-12)
