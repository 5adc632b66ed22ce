"""Training substrate: optimizer, synthetic data, (pipelined) trainers."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "data": ("MarkovTokens", "PackedDocuments", "UniformTokens"),
    "data_parallel": ("DataParallelTrainer",),
    "lr_scheduler": ("WarmupDecayLR",),
    "optimizer": ("Adam", "LossScaler", "flush_grads_through_fp16"),
    "serialization": ("checkpoint_exists", "load_training_state",
                      "load_weights", "save_training_state", "save_weights"),
    "trainer": ("PipelinedGPT", "Trainer", "run_step_with_retries",
                "split_microbatches"),
})

__all__ = [
    "Adam", "DataParallelTrainer", "LossScaler", "MarkovTokens", "WarmupDecayLR",
    "PackedDocuments", "PipelinedGPT", "Trainer",
    "UniformTokens", "checkpoint_exists", "flush_grads_through_fp16",
    "load_training_state", "load_weights", "run_step_with_retries",
    "save_training_state", "save_weights", "split_microbatches",
]
