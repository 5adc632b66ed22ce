"""Model and parallelism configuration (paper Tables 1 and 3).

Variable names follow Table 1 of the paper:

====  =============================  ====  ======================
``a``  number of attention heads     ``p``  pipeline parallel size
``b``  microbatch size               ``s``  sequence length
``h``  hidden dimension size         ``t``  tensor parallel size
``L``  number of transformer layers  ``v``  vocabulary size
====  =============================  ====  ======================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from .errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of a single-stack GPT-style transformer (paper Section 3).

    The network is: word+position embeddings -> ``num_layers`` transformer
    layers (self-attention with ``num_heads`` heads + 2-layer MLP expanding
    to ``4*hidden_size``) -> final layer-norm -> output projection back to
    the vocabulary (weights shared with the word embedding).
    """

    num_layers: int
    hidden_size: int
    num_heads: int
    seq_length: int = 2048
    vocab_size: int = 51200
    name: str = ""

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden_size < 1 or self.num_heads < 1:
            raise ConfigError("hidden_size and num_heads must be >= 1")
        if self.hidden_size % self.num_heads != 0:
            raise ConfigError(
                f"hidden_size ({self.hidden_size}) must be divisible by "
                f"num_heads ({self.num_heads})"
            )
        if self.seq_length < 1 or self.vocab_size < 1:
            raise ConfigError("seq_length and vocab_size must be >= 1")

    # Short aliases matching the paper's notation (Table 1).
    @property
    def L(self) -> int:  # noqa: N802 - paper notation
        return self.num_layers

    @property
    def h(self) -> int:
        return self.hidden_size

    @property
    def a(self) -> int:
        return self.num_heads

    @property
    def s(self) -> int:
        return self.seq_length

    @property
    def v(self) -> int:
        return self.vocab_size

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def ffn_hidden_size(self) -> int:
        """MLP intermediate width; the paper's architecture always uses 4h."""
        return 4 * self.hidden_size

    def parameter_count(self, include_embeddings: bool = True) -> int:
        """Exact number of parameters of the reference architecture.

        Per layer: QKV projection ``3h^2 + 3h``, attention output projection
        ``h^2 + h``, MLP ``(4h^2 + 4h) + (4h^2 + h)``, two layer-norms
        ``2 * 2h``.  Outside the layers: word embedding ``v*h`` (shared with
        the output projection), position embedding ``s*h`` and the final
        layer-norm ``2h``.
        """
        h = self.hidden_size
        per_layer = (3 * h * h + 3 * h) + (h * h + h) + (4 * h * h + 4 * h) + (4 * h * h + h) + 4 * h
        total = self.num_layers * per_layer + 2 * h
        if include_embeddings:
            total += self.vocab_size * h + self.seq_length * h
        return total

    def approx_parameter_count(self) -> float:
        """Paper-style approximation ``12 L h^2 (1 + 13/(12h) + (v+s)/(12Lh))``."""
        h, L = self.hidden_size, self.num_layers
        return 12 * L * h * h * (1 + 13 / (12 * h) + (self.vocab_size + self.seq_length) / (12 * L * h))

    def scaled(self, **changes) -> "ModelConfig":
        """Return a copy with some fields replaced (e.g. a longer sequence)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ParallelConfig:
    """Model-parallel layout (paper Sections 4.2 and 6).

    ``interleave_stages`` is ``m`` in the paper: the number of virtual
    pipeline (interleaving) stages per device in the Megatron-LM interleaved
    schedule.  ``m = 1`` is plain 1F1B.
    """

    tensor_parallel: int = 1
    pipeline_parallel: int = 1
    interleave_stages: int = 1
    data_parallel: int = 1
    sequence_parallel: bool = False

    def __post_init__(self) -> None:
        for name in ("tensor_parallel", "pipeline_parallel", "interleave_stages", "data_parallel"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def t(self) -> int:
        return self.tensor_parallel

    @property
    def p(self) -> int:
        return self.pipeline_parallel

    @property
    def m(self) -> int:
        return self.interleave_stages

    @property
    def model_parallel_size(self) -> int:
        return self.tensor_parallel * self.pipeline_parallel

    @property
    def world_size(self) -> int:
        return self.model_parallel_size * self.data_parallel

    def validate_against(self, model: ModelConfig) -> None:
        """Check divisibility constraints the paper's implementation needs."""
        if model.num_heads % self.tensor_parallel != 0:
            raise ConfigError(
                f"num_heads ({model.num_heads}) must be divisible by "
                f"tensor_parallel ({self.tensor_parallel})"
            )
        if model.ffn_hidden_size % self.tensor_parallel != 0:
            raise ConfigError("ffn_hidden_size must be divisible by tensor_parallel")
        layers_per_stage = model.num_layers / self.pipeline_parallel
        if layers_per_stage != int(layers_per_stage):
            raise ConfigError(
                f"num_layers ({model.num_layers}) must be divisible by "
                f"pipeline_parallel ({self.pipeline_parallel})"
            )
        if int(layers_per_stage) % self.interleave_stages != 0:
            raise ConfigError(
                f"layers per stage ({int(layers_per_stage)}) must be divisible "
                f"by interleave_stages ({self.interleave_stages})"
            )
        if self.sequence_parallel and model.seq_length % self.tensor_parallel != 0:
            raise ConfigError("seq_length must be divisible by tensor_parallel for sequence parallelism")

    def layers_per_stage(self, model: ModelConfig) -> int:
        return model.num_layers // self.pipeline_parallel

    def with_sequence_parallel(self, enabled: bool = True) -> "ParallelConfig":
        return replace(self, sequence_parallel=enabled)


@dataclass(frozen=True)
class TrainingConfig:
    """Batch configuration for one training iteration (paper Table 3)."""

    micro_batch_size: int
    global_batch_size: int

    def __post_init__(self) -> None:
        if self.micro_batch_size < 1 or self.global_batch_size < 1:
            raise ConfigError("batch sizes must be >= 1")
        if self.global_batch_size % self.micro_batch_size != 0:
            raise ConfigError("global_batch_size must be divisible by micro_batch_size")

    @property
    def b(self) -> int:
        return self.micro_batch_size

    def num_microbatches(self, data_parallel: int = 1) -> int:
        per_replica = self.global_batch_size // data_parallel
        if per_replica % self.micro_batch_size != 0:
            raise ConfigError(
                f"global batch per data-parallel replica ({per_replica}) must "
                f"be divisible by micro_batch_size ({self.micro_batch_size})"
            )
        return per_replica // self.micro_batch_size


@dataclass(frozen=True)
class ExperimentConfig:
    """A full (model, parallelism, batch) tuple — one column of Table 3."""

    model: ModelConfig
    parallel: ParallelConfig
    training: TrainingConfig

    def __post_init__(self) -> None:
        self.parallel.validate_against(self.model)

    @property
    def num_gpus(self) -> int:
        return self.parallel.world_size

    @property
    def num_microbatches(self) -> int:
        return self.training.num_microbatches(self.parallel.data_parallel)

    def with_(self, **parallel_changes) -> "ExperimentConfig":
        """Copy with parallel-config fields replaced (e.g. sequence_parallel)."""
        return ExperimentConfig(
            model=self.model,
            parallel=replace(self.parallel, **parallel_changes),
            training=self.training,
        )


def _paper_configs() -> Dict[str, ExperimentConfig]:
    """The four evaluation configurations of paper Table 3."""
    mk = ModelConfig
    configs = {
        "22B": ExperimentConfig(
            model=mk(num_layers=48, hidden_size=6144, num_heads=64, name="22B"),
            parallel=ParallelConfig(tensor_parallel=8, pipeline_parallel=1),
            training=TrainingConfig(micro_batch_size=4, global_batch_size=4),
        ),
        "175B": ExperimentConfig(
            model=mk(num_layers=96, hidden_size=12288, num_heads=96, name="175B (GPT-3)"),
            parallel=ParallelConfig(tensor_parallel=8, pipeline_parallel=8, interleave_stages=3),
            training=TrainingConfig(micro_batch_size=1, global_batch_size=64),
        ),
        "530B": ExperimentConfig(
            model=mk(num_layers=105, hidden_size=20480, num_heads=128, name="530B (MT-NLG)"),
            parallel=ParallelConfig(tensor_parallel=8, pipeline_parallel=35, interleave_stages=3),
            training=TrainingConfig(micro_batch_size=1, global_batch_size=280),
        ),
        "1T": ExperimentConfig(
            model=mk(num_layers=128, hidden_size=25600, num_heads=160, name="1T"),
            parallel=ParallelConfig(tensor_parallel=8, pipeline_parallel=64),
            training=TrainingConfig(micro_batch_size=1, global_batch_size=512),
        ),
    }
    return configs


#: The four model configurations used throughout the paper's evaluation
#: (Table 3), keyed by size name.
PAPER_CONFIGS: Dict[str, ExperimentConfig] = _paper_configs()

#: Order in which the paper lists the configurations.
PAPER_CONFIG_NAMES = ("22B", "175B", "530B", "1T")
