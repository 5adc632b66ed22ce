"""Training substrate: optimizer, synthetic data, (pipelined) trainers."""

from .data import MarkovTokens, PackedDocuments, UniformTokens
from .data_parallel import DataParallelTrainer
from .lr_scheduler import WarmupDecayLR
from .optimizer import Adam, LossScaler, flush_grads_through_fp16
from .serialization import (
    checkpoint_exists,
    load_training_state,
    load_weights,
    save_training_state,
    save_weights,
)
from .trainer import (
    PipelinedGPT,
    Trainer,
    run_step_with_retries,
    split_microbatches,
)

__all__ = [
    "Adam", "DataParallelTrainer", "LossScaler", "MarkovTokens", "WarmupDecayLR",
    "PackedDocuments", "PipelinedGPT", "Trainer",
    "UniformTokens", "checkpoint_exists", "flush_grads_through_fp16",
    "load_training_state", "load_weights", "run_step_with_retries",
    "save_training_state", "save_weights", "split_microbatches",
]
