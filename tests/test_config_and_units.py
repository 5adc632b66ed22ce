"""Configuration validation, paper configs, units, errors."""

import numpy as np
import pytest

from repro.config import (
    PAPER_CONFIG_NAMES,
    PAPER_CONFIGS,
    ExperimentConfig,
    ModelConfig,
    ParallelConfig,
    TrainingConfig,
)
from repro.errors import ConfigError
from repro.units import GIB, MIB, fmt_bytes, fmt_count, fmt_flops


class TestModelConfig:
    def test_paper_notation_aliases(self):
        m = PAPER_CONFIGS["175B"].model
        assert (m.L, m.h, m.a, m.s, m.v) == (96, 12288, 96, 2048, 51200)
        assert m.head_dim == 128
        assert m.ffn_hidden_size == 4 * 12288

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_layers=1, hidden_size=10, num_heads=3)

    def test_positive_dims(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_layers=0, hidden_size=8, num_heads=2)

    def test_parameter_count_approximation(self):
        for name in PAPER_CONFIG_NAMES:
            m = PAPER_CONFIGS[name].model
            exact = m.parameter_count()
            approx = m.approx_parameter_count()
            assert approx == pytest.approx(exact, rel=0.002)

    def test_scaled_copy(self):
        m = PAPER_CONFIGS["22B"].model.scaled(seq_length=4096)
        assert m.seq_length == 4096
        assert m.hidden_size == 6144


class TestParallelConfig:
    def test_table3_configurations(self):
        """Every Table 3 column round-trips through validation."""
        expected = {
            "22B": (8, 1, 1, 8, 4, 4),
            "175B": (8, 8, 3, 64, 64, 1),
            "530B": (8, 35, 3, 280, 280, 1),
            "1T": (8, 64, 1, 512, 512, 1),
        }
        for name, (t, p, m, gpus, gbs, mbs) in expected.items():
            cfg = PAPER_CONFIGS[name]
            assert cfg.parallel.tensor_parallel == t
            assert cfg.parallel.pipeline_parallel == p
            assert cfg.parallel.interleave_stages == m
            assert cfg.num_gpus == gpus
            assert cfg.training.global_batch_size == gbs
            assert cfg.training.micro_batch_size == mbs

    def test_heads_divisible_by_t(self):
        model = ModelConfig(num_layers=2, hidden_size=12, num_heads=6)
        with pytest.raises(ConfigError):
            ParallelConfig(tensor_parallel=4).validate_against(model)

    def test_layers_divisible_by_p(self):
        model = ModelConfig(num_layers=10, hidden_size=8, num_heads=2)
        with pytest.raises(ConfigError):
            ParallelConfig(pipeline_parallel=3).validate_against(model)

    def test_interleave_divides_stage_layers(self):
        model = ModelConfig(num_layers=8, hidden_size=8, num_heads=2)
        with pytest.raises(ConfigError):
            ParallelConfig(pipeline_parallel=2, interleave_stages=3).validate_against(model)

    def test_interleave_needs_a_pipeline(self):
        from repro.layers import GPTModel
        from repro.training import PipelinedGPT
        with pytest.raises(ConfigError, match="needs pipeline_parallel > 1"):
            ParallelConfig(pipeline_parallel=1, interleave_stages=2)
        model = GPTModel(ModelConfig(num_layers=2, hidden_size=8, num_heads=2,
                                     seq_length=4, vocab_size=8))
        with pytest.raises(ConfigError, match="needs pipeline_parallel > 1"):
            PipelinedGPT(model, 1, interleave_stages=2)

    @pytest.mark.parametrize("field, value", [
        ("tensor_parallel", 8.0), ("pipeline_parallel", 8.0),
        ("interleave_stages", 3.0), ("data_parallel", 2.5)])
    def test_degrees_are_integers(self, field, value):
        """A float degree is refused at construction, not priced (2.5
        replicas) or failed on deep in a schedule; a NumPy integer is
        stored as an ``int``."""
        base = dict(tensor_parallel=8, pipeline_parallel=8,
                    interleave_stages=3, data_parallel=1)
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ParallelConfig(**{**base, field: value})
        cfg = ParallelConfig(**{**base, field: np.int64(int(value))})
        assert type(getattr(cfg, field)) is int
        assert getattr(cfg, field) == int(value)

    def test_fractional_replicas_are_not_priced(self):
        from repro.perf_model import iteration_time
        with pytest.raises(ConfigError, match="data_parallel must be an integer"):
            iteration_time(PAPER_CONFIGS["175B"], data_parallel=2.5)

    def test_sp_needs_divisible_sequence(self):
        model = ModelConfig(num_layers=2, hidden_size=8, num_heads=2, seq_length=9)
        with pytest.raises(ConfigError):
            ParallelConfig(tensor_parallel=2, sequence_parallel=True).validate_against(model)

    def test_world_size(self):
        p = ParallelConfig(tensor_parallel=8, pipeline_parallel=4, data_parallel=2)
        assert p.model_parallel_size == 32
        assert p.world_size == 64

    def test_with_sequence_parallel(self):
        p = ParallelConfig(tensor_parallel=2).with_sequence_parallel()
        assert p.sequence_parallel


class TestTrainingConfig:
    def test_microbatch_count(self):
        t = TrainingConfig(micro_batch_size=2, global_batch_size=16)
        assert t.num_microbatches() == 8
        assert t.num_microbatches(data_parallel=2) == 4

    def test_divisibility(self):
        with pytest.raises(ConfigError):
            TrainingConfig(micro_batch_size=3, global_batch_size=16)

    @pytest.mark.parametrize("field", ["micro_batch_size", "global_batch_size"])
    def test_batch_sizes_are_integers(self, field):
        base = dict(micro_batch_size=1, global_batch_size=1536)
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            TrainingConfig(**{**base, field: float(base[field])})
        cfg = TrainingConfig(**{**base, field: np.int64(base[field])})
        assert type(getattr(cfg, field)) is int
        assert cfg.num_microbatches() == 1536

    def test_dp_divisibility(self):
        t = TrainingConfig(micro_batch_size=2, global_batch_size=6)
        with pytest.raises(ConfigError):
            t.num_microbatches(data_parallel=2)

    def test_experiment_with_override(self):
        cfg = PAPER_CONFIGS["22B"].with_(sequence_parallel=True)
        assert cfg.parallel.sequence_parallel
        assert not PAPER_CONFIGS["22B"].parallel.sequence_parallel


class TestUnits:
    def test_fmt_bytes(self):
        assert fmt_bytes(2.73 * GIB) == "2.73 GiB"
        assert fmt_bytes(1.5 * MIB) == "1.50 MiB"
        assert fmt_bytes(12) == "12 B"

    def test_fmt_flops(self):
        assert fmt_flops(312e12) == "312.00 TFLOP"
        assert fmt_flops(1.5e15) == "1.50 PFLOP"

    def test_fmt_count(self):
        assert fmt_count(530e9) == "530.0B"
        assert fmt_count(1e12) == "1.0T"
