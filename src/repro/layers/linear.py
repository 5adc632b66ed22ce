"""Linear layer: replicated, column-split or row-split per the layout."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor
from ..tensor import functions as F
from .layout import SERIAL, Layout
from .module import Module

#: weight / bias dimension a weight-sharding layout splits, per role
_SPLIT_AXES = {None: (None, None), "column": (1, 0), "row": (0, None)}


class Linear(Module):
    """``y = x @ W + b`` with ``W`` of shape ``(in_features, out_features)``.

    The matmul saves its input at 2 bytes/element — this is the "linear
    projection stores its input activations" term of the paper's
    accounting.  ``category`` labels that saved buffer in the memory
    tracker's per-category breakdown.

    ``split`` names the projection's role in a tensor-parallel region
    (Megatron-LM, Figure 4): ``"column"`` opens it (``A = [A_1^c,
    A_2^c]``, bias sharded with the columns), ``"row"`` closes it (``B =
    [B_1^r; B_2^r]``; the per-rank partial products are combined by the
    layout and the replicated bias is added *after* the reduction).
    Layouts that keep weights whole ignore it.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None,
                 abstract: bool = False, bias: bool = True,
                 category: str = "linear_input", name: str = "linear",
                 layout: Layout = SERIAL, split: Optional[str] = None):
        self.in_features = in_features
        self.out_features = out_features
        self.category = category
        self.name = name
        self.layout = layout
        self.split = split
        w_axis, b_axis = _SPLIT_AXES[split]
        self.weight = layout.parameter(rng, (in_features, out_features),
                                       f"{name}.weight", w_axis, abstract)
        self.bias: Optional[Tensor] = None
        if bias:
            self.bias = layout.parameter(rng, (out_features,), f"{name}.bias",
                                         b_axis, abstract)

    def _add_bias(self, y: Tensor, skip_bias_add: bool) -> Tensor:
        if self.bias is None or skip_bias_add:
            return y
        return F.add(y, self.bias)

    def forward(self, x: Tensor, skip_bias_add: bool = False) -> Tensor:
        """``skip_bias_add=True`` returns ``x @ W`` only, so the caller can
        fold the bias into a following fused kernel (e.g. bias+GeLU)."""
        y = self.layout.matmul(x, self.weight, self.split, self.category)
        return self._add_bias(y, skip_bias_add)

    def decode(self, x: Tensor, skip_bias_add: bool = False) -> Tensor:
        """:meth:`forward` for one token under ``no_grad`` (see
        :meth:`Layout.decode_matmul`)."""
        y = self.layout.decode_matmul(x, self.weight, self.split)
        return self._add_bias(y, skip_bias_add)
