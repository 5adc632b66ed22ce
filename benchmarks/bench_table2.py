"""Table 2: activation memory per transformer layer, six techniques.

Times both the closed-form table and the *measured* version — abstract
execution of the real parallel layer graph at the 22B shape — and checks
they agree exactly (the core memory claim of the reproduction).
"""

import pytest

from repro import experiments
from repro.comm.process_group import ProcessGroup
from repro.config import PAPER_CONFIGS
from repro.layers import Recompute, TransformerLayer
from repro.memory_model import per_layer_activation_bytes, table2
from repro.parallel import TensorParallel
from repro.tensor import MemoryTracker, Tensor, instrument
from repro.tensor.backend import AbstractArray

CFG = PAPER_CONFIGS["22B"]


def bench_formula_table(benchmark):
    rows = benchmark(table2, CFG.model, CFG.training.micro_batch_size,
                     CFG.parallel.tensor_parallel)
    print("\n" + experiments.table2_report("22B"))
    values = [r.bytes_per_layer for r in rows]
    assert values == sorted(values, reverse=True)  # each row tightens memory


def _measure(sp: bool, rc: Recompute) -> int:
    t = CFG.parallel.tensor_parallel
    layer = TransformerLayer(
        CFG.model.hidden_size, CFG.model.num_heads, recompute=rc,
        abstract=True, layout=TensorParallel(ProcessGroup(t), sp))
    s = CFG.model.seq_length // t if sp else CFG.model.seq_length
    x = Tensor([AbstractArray((s, CFG.training.micro_batch_size,
                               CFG.model.hidden_size)) for _ in range(t)],
               requires_grad=True, layout="shard(dim=0)" if sp else "replicated")
    tracker = MemoryTracker()
    with instrument(memory=tracker):
        layer(x)
    return tracker.live_bytes(0)


@pytest.mark.parametrize("label,sp,rc", [
    ("tensor parallel (baseline)", False, Recompute.NONE),
    ("tensor + sequence parallel", True, Recompute.NONE),
    ("tp + selective recompute", False, Recompute.SELECTIVE),
    ("tp + sp + selective recompute", True, Recompute.SELECTIVE),
    ("full recompute", False, Recompute.FULL),
])
def bench_measured_matches_formula(benchmark, label, sp, rc):
    measured = benchmark(_measure, sp, rc)
    formula = per_layer_activation_bytes(
        CFG.model, CFG.training.micro_batch_size, CFG.parallel.tensor_parallel,
        sp, rc)
    assert measured == pytest.approx(formula, rel=1e-9), label


def bench_fused_gather_ablation(benchmark):
    """The "store Y_i^s only" optimization: the unfused variant stores the
    two column-parallel inputs in full on every rank."""
    def both():
        return (_measure(True, Recompute.NONE),
                _measure_unfused())

    def _measure_unfused():
        t = CFG.parallel.tensor_parallel
        layer = TransformerLayer(
            CFG.model.hidden_size, CFG.model.num_heads,
            recompute=Recompute.NONE, abstract=True,
            layout=TensorParallel(ProcessGroup(t), sequence_parallel=True,
                                  fuse_sp_gather=False))
        x = Tensor([AbstractArray((CFG.model.seq_length // t,
                                   CFG.training.micro_batch_size,
                                   CFG.model.hidden_size)) for _ in range(t)],
                   requires_grad=True, layout="shard(dim=0)")
        tracker = MemoryTracker()
        with instrument(memory=tracker):
            layer(x)
        return tracker.live_bytes(0)

    fused, unfused = benchmark(both)
    sbh = (CFG.model.seq_length * CFG.training.micro_batch_size
           * CFG.model.hidden_size)
    t = CFG.parallel.tensor_parallel
    print(f"\nY_i^s optimization: fused={fused:,} B/rank, unfused={unfused:,} "
          f"B/rank (+{unfused - fused:,} B = 2 x (2sbh - 2sbh/t))")
    assert unfused - fused == 2 * (2 * sbh - 2 * sbh // t)
