"""The transformer block stack, defined once for every parallel layout."""

from .attention import CoreAttention, SelfAttention
from .dropout import Dropout
from .embedding import GPTEmbedding, token_tensor
from .layernorm import LayerNorm
from .layout import SERIAL, Layout
from .linear import Linear
from .mlp import MLP
from .module import Module
from .transformer import (
    GPTModel, LMHead, Recompute, TransformerLayer, abstract_layer,
)

__all__ = [
    "CoreAttention", "Dropout", "GPTEmbedding", "GPTModel", "LMHead",
    "LayerNorm", "Layout", "Linear", "MLP", "Module", "Recompute", "SERIAL",
    "SelfAttention", "TransformerLayer", "abstract_layer", "token_tensor",
]
