"""Transformer MLP block: h -> 4h -> GeLU -> h."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..fusion.ops import bias_gelu
from ..tensor import Tensor
from ..tensor import functions as F
from .layout import SERIAL, Layout
from .linear import Linear
from .module import Module


class MLP(Module):
    """Two-layer feed-forward network (paper Section 3, Figure 6).

    Activation memory (Section 4.1): fc1 saves its input (``2sbh``), GeLU
    saves its input (``8sbh``), fc2 saves its input (``8sbh``) — 18sbh of
    the MLP's 19sbh; the trailing dropout (owned by the transformer layer)
    saves the last ``sbh`` as a mask.

    fc1 opens the tensor-parallel region by columns and fc2 closes it by
    rows, which keeps the GeLU local ("we avoid communications and arrive
    at W_1 and W_2", Section 4.2.2): GeLU is elementwise, so it commutes
    with a column partition but would not with a row partition.
    """

    def __init__(self, hidden_size: int,
                 rng: Optional[np.random.Generator] = None,
                 abstract: bool = False, tag: str = "mlp", fused: bool = False,
                 layout: Layout = SERIAL):
        ffn = 4 * hidden_size
        self.fused = fused
        self.tag = tag
        self.fc1 = Linear(hidden_size, ffn, rng=rng, abstract=abstract,
                          category="mlp_fc1_input", name=f"{tag}.fc1",
                          layout=layout, split="column")
        self.fc2 = Linear(ffn, hidden_size, rng=rng, abstract=abstract,
                          category="mlp_fc2_input", name=f"{tag}.fc2",
                          layout=layout, split="row")

    def _activation(self, fc1, x: Tensor) -> Tensor:
        if self.fused and self.fc1.bias is not None:
            # bias+GeLU fuses per rank on the column shards exactly as
            # it does serially.
            return bias_gelu(fc1(x, skip_bias_add=True), self.fc1.bias)
        return F.gelu(fc1(x))

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self._activation(self.fc1, x))

    def decode(self, x: Tensor) -> Tensor:
        """:meth:`forward` over the single-token projection surface."""
        return self.fc2.decode(self._activation(self.fc1.decode, x))
