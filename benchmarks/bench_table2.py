"""Table 2: activation memory per transformer layer, six techniques.

Times both the closed-form table and the *measured* version — abstract
execution of the real parallel layer graph at the 22B shape — and checks
they agree exactly (the core memory claim of the reproduction).
"""

import pytest

from repro import experiments
from repro.comm.process_group import ProcessGroup
from repro.config import PAPER_CONFIGS
from repro.layers import Recompute, abstract_layer
from repro.memory_model import per_layer_activation_bytes, table2
from repro.parallel import TensorParallel
from repro.tensor import MemoryTracker, instrument

CFG = PAPER_CONFIGS["22B"]


def bench_formula_table(benchmark):
    rows = benchmark(table2, CFG.model, CFG.training.micro_batch_size,
                     CFG.parallel.tensor_parallel)
    print("\n" + experiments.table2_report("22B"))
    values = [r.bytes_per_layer for r in rows]
    assert values == sorted(values, reverse=True)  # each row tightens memory


def _measure(sp: bool, rc: Recompute, fuse_sp_gather: bool = True) -> int:
    layer, x = abstract_layer(
        TensorParallel(ProcessGroup(CFG.parallel.tensor_parallel), sp,
                       fuse_sp_gather),
        CFG.model, CFG.training.micro_batch_size, recompute=rc)
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
                _measure(True, Recompute.NONE, fuse_sp_gather=False))

    fused, unfused = benchmark(both)
    sbh = (CFG.model.seq_length * CFG.training.micro_batch_size
           * CFG.model.hidden_size)
    t = CFG.parallel.tensor_parallel
    print(f"\nY_i^s optimization: fused={fused:,} B/rank, unfused={unfused:,} "
          f"B/rank (+{unfused - fused:,} B = 2 x (2sbh - 2sbh/t))")
    assert unfused - fused == 2 * (2 * sbh - 2 * sbh // t)
