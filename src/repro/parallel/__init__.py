"""The paper's contribution: tensor + sequence parallelism with selective
activation recomputation."""

from .embedding import VocabParallelLookup
from .layout import TensorParallel
from .loss import vocab_parallel_cross_entropy
from .mappings import (
    all_gather_matmul,
    gather_from_sequence_parallel_region,
)
from .transformer import ParallelGPTModel

__all__ = [
    "ParallelGPTModel", "TensorParallel", "VocabParallelLookup",
    "all_gather_matmul",
    "gather_from_sequence_parallel_region",
    "vocab_parallel_cross_entropy",
]
