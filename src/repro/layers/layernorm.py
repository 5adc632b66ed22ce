"""Serial layer normalization module."""

from __future__ import annotations

import numpy as np

from ..tensor import FP16, Tensor, parameter
from ..tensor import functions as F
from ..tensor.backend import AbstractArray
from .module import Module


class LayerNorm(Module):
    """Layer norm over the last axis with learnable gain/bias.

    Saves only its input (``2sbh`` in the paper's accounting); statistics
    are recomputed in backward.
    """

    def __init__(self, hidden_size: int,
                 abstract: bool = False, world: int = 1, name: str = "ln",
                 fused: bool = False):
        self.hidden_size = hidden_size
        self.fused = fused
        self.name = name
        if abstract:
            gamma = [AbstractArray((hidden_size,))] * world
            beta = [AbstractArray((hidden_size,))] * world
        else:
            gamma = [np.ones(hidden_size) for _ in range(world)]
            beta = [np.zeros(hidden_size) for _ in range(world)]
        self.gamma = parameter(gamma, dtype=FP16, name=f"{name}.gamma")
        self.beta = parameter(beta, dtype=FP16, name=f"{name}.beta")

    def forward(self, x: Tensor) -> Tensor:
        if self.fused:
            from ..fusion.ops import fused_layernorm
            return fused_layernorm(x, self.gamma, self.beta)
        return F.layernorm(x, self.gamma, self.beta)
