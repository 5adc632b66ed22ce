"""The transformer block stack, defined once for every parallel layout."""

from .attention import SelfAttention
from .embedding import GPTEmbedding, token_tensor
from .layernorm import LayerNorm
from .linear import Linear
from .mlp import MLP
from .transformer import (
    GPTModel, LMHead, Recompute, TransformerLayer, abstract_layer,
)

__all__ = [
    "GPTEmbedding", "GPTModel", "LMHead",
    "LayerNorm", "Linear", "MLP", "Recompute",
    "SelfAttention", "TransformerLayer", "abstract_layer", "token_tensor",
]
