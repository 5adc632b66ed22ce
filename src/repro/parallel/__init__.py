"""The paper's contribution: tensor + sequence parallelism with selective
activation recomputation."""

from ..layers.transformer import Recompute
from .embedding import VocabParallelLookup
from .layout import TensorParallel, fuse_qkv, fuse_qkv_bias
from .loss import vocab_parallel_cross_entropy
from .mappings import (
    all_gather_matmul,
    copy_to_tensor_parallel_region,
    gather_from_sequence_parallel_region,
    reduce_from_tensor_parallel_region,
    scatter_split_sequence,
    scatter_to_sequence_parallel_region,
)
from .transformer import ParallelGPTModel

__all__ = [
    "ParallelGPTModel", "Recompute", "TensorParallel", "VocabParallelLookup",
    "all_gather_matmul",
    "copy_to_tensor_parallel_region", "fuse_qkv", "fuse_qkv_bias",
    "gather_from_sequence_parallel_region", "reduce_from_tensor_parallel_region",
    "scatter_split_sequence", "scatter_to_sequence_parallel_region",
    "vocab_parallel_cross_entropy",
]
