"""The paper's parallel transformer: tensor parallelism, sequence
parallelism and selective/full activation recomputation, composable per
Table 2's rows.
"""

from __future__ import annotations

from typing import Optional

from ..comm.process_group import ProcessGroup
from ..config import ModelConfig
from ..layers.transformer import GPTModel, Recompute
from ..tensor.functions import MaskSource
from .layout import TensorParallel


class ParallelGPTModel(GPTModel):
    """GPT under t-way tensor parallelism with every knob of Table 2:
    :class:`~repro.layers.transformer.GPTModel` on a
    :class:`~repro.parallel.layout.TensorParallel` layout.

    Constructed either concretely — weights drawn from ``seed`` exactly as
    the serial model draws them, or taken from ``serial`` — to verify
    bit-comparable numerics, or shape-only (``abstract``) to measure
    paper-scale configurations.

    Strategy knobs:

    * ``sequence_parallel`` — partition the non-TP regions along ``s``;
    * ``recompute`` — ``NONE`` / ``SELECTIVE`` / ``FULL`` (optionally only
      the first ``recompute_num_layers`` layers);
    * ``fuse_sp_gather`` — the "store ``Y_i^s`` only" optimization
      (disable to ablate its memory saving).
    """

    def __init__(self, config: ModelConfig, tensor_parallel: int,
                 sequence_parallel: bool = False, fuse_sp_gather: bool = True,
                 attention_dropout: float = 0.1, hidden_dropout: float = 0.1,
                 recompute: Recompute = Recompute.NONE,
                 recompute_num_layers: Optional[int] = None,
                 recompute_remainder: Recompute = Recompute.NONE,
                 seed: int = 0, abstract: bool = False,
                 mask_source: Optional[MaskSource] = None,
                 serial: Optional[GPTModel] = None,
                 num_layers_override: Optional[int] = None,
                 fused: bool = False):
        super().__init__(
            config, attention_dropout=attention_dropout,
            hidden_dropout=hidden_dropout, recompute=recompute,
            recompute_num_layers=recompute_num_layers,
            recompute_remainder=recompute_remainder, seed=seed,
            abstract=abstract, mask_source=mask_source, fused=fused,
            layout=TensorParallel(ProcessGroup(tensor_parallel, scope="tp"),
                                  sequence_parallel, fuse_sp_gather),
            serial=serial, num_layers_override=num_layers_override)
