"""Memory-profiler overhead: the ledger must cost nothing when it is off.

The profiler hooks the two hottest call sites in the tensor substrate —
``apply`` (every Function dispatch) and ``Module.__call__`` (every
module-path push) — each gated by a single ``ctx().memprof is None``
check, plus one extra ``is None`` term on the already-guarded op-record
fan-out.  This benchmark enforces the ISSUE's acceptance bound: an
uninstrumented forward pass must land within 5% of a reference where
those seams are stripped back to the pre-profiler bodies, and it
reports (without bounding) what the *enabled* ledger costs.

Timing uses best-of-N wall-clock minima interleaved across arms, the
standard noise-robust estimator for a deterministic workload.
"""

import time

from repro.config import ModelConfig
from repro.layers.module import Module
from repro.layers.transformer import Recompute
from repro.observability.memprof import profile_layer

CFG = ModelConfig(num_layers=4, hidden_size=32, num_heads=4,
                  seq_length=32, vocab_size=64, name="bench-memprof")
REPEATS = 7
INNER = 3
DISABLED_OVERHEAD_BOUND = 0.05


def _forward():
    """One abstract TP+SP layer forward with *nothing* attached: the
    memprof seams run their disabled path on every op."""
    from repro.comm.process_group import ProcessGroup
    from repro.layers import abstract_layer
    from repro.parallel import TensorParallel
    from repro.tensor import seed

    seed(0)
    layout = TensorParallel(ProcessGroup(2), sequence_parallel=True)
    layer, _ = abstract_layer(layout, CFG, 1, recompute=Recompute.NONE)
    for _ in range(INNER):
        layer(layout.abstract_stream(CFG, 1))


def _profiled():
    for _ in range(INNER):
        profile_layer(CFG, 1, 2, True, Recompute.NONE)


def _best_of_interleaved(fns, repeats=REPEATS):
    """Best-of-N minima, arms interleaved so a host load spike hits all
    arms alike instead of biasing whichever ran during it."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _stripped_apply(fn, *args, **kwargs):
    """``tensor.apply`` with the profiler seam removed — the exact
    pre-ledger body, built from the tensor module's own internals so it
    stays honest if those internals move."""
    from repro.tensor import tensor as T

    tensor_inputs, fwd_args, first, requires = [], [], None, False
    for a in args:
        if isinstance(a, T.Tensor):
            tensor_inputs.append(a)
            fwd_args.append(a.shards)
            requires = requires or a.requires_grad
            if first is None:
                first = a
        else:
            tensor_inputs.append(None)
            fwd_args.append(a)
    fctx = T.FnCtx(tensor_inputs)
    out = fn.forward(fctx, *fwd_args, **kwargs)
    multi = isinstance(out, tuple)
    out_lists = list(out) if multi else [out]
    requires = requires and T.ctx().grad_enabled
    in_dtype, layout = ((T.FP16, "replicated") if first is None
                        else (first.dtype, first.layout))
    dtypes = fctx.out_dtypes or [in_dtype] * len(out_lists)
    outputs = [
        T.Tensor(shards, dtype=dt, requires_grad=requires, layout=layout)
        for shards, dt in zip(out_lists, dtypes)
    ]
    if requires:
        node = T.Node(fn, fctx, tensor_inputs, outputs)
        for i, t in enumerate(outputs):
            t._node = node
            t._out_index = i
    else:
        fctx.release()
    return tuple(outputs) if multi else outputs[0]


def _stripped_call(self, *args, **kwargs):
    return self.forward(*args, **kwargs)


class _stripped_seams:
    """Context manager view of monkeypatch: strip the profiler seams
    back to the pre-ledger bodies.  ``apply`` is imported by name, so
    the patch has to land in every module that bound it."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def __enter__(self):
        import repro.fusion.ops
        import repro.parallel.layout
        import repro.parallel.loss
        import repro.parallel.mappings
        import repro.tensor.functions
        import repro.tensor.tensor

        mp = self.monkeypatch
        for mod in (repro.tensor.tensor, repro.tensor.functions,
                    repro.fusion.ops, repro.parallel.mappings,
                    repro.parallel.layout, repro.parallel.loss):
            mp.setattr(mod, "apply", _stripped_apply)
        mp.setattr(Module, "__call__", _stripped_call)
        return self

    def __exit__(self, *exc):
        self.monkeypatch.undo()


def bench_disabled_overhead(benchmark, monkeypatch):
    """Seams present but no profiler installed vs seams stripped:
    < 5% apart."""
    _forward()  # warm both code paths before timing

    def stripped():
        with _stripped_seams(monkeypatch):
            _forward()

    reference, disabled = _best_of_interleaved([stripped, _forward])
    overhead = disabled / reference - 1.0
    print(f"\nreference (no seams) {reference * 1e3:.2f} ms, "
          f"disabled profiler {disabled * 1e3:.2f} ms, "
          f"overhead {overhead:+.2%} (bound {DISABLED_OVERHEAD_BOUND:.0%})")
    assert overhead < DISABLED_OVERHEAD_BOUND, (
        f"disabled-profiler overhead {overhead:.2%} exceeds "
        f"{DISABLED_OVERHEAD_BOUND:.0%}: a memprof seam is doing work "
        f"while no profiler is installed")
    benchmark.pedantic(_forward, rounds=1, iterations=1)


def bench_enabled_cost(benchmark):
    """What the full ledger (per-tensor timeline + producer graph)
    costs, reported for the record.  This is the only place the ratio
    is measured: BENCH_memprof.json carries no wall-clock keys."""
    _forward()
    _profiled()
    disabled, enabled = _best_of_interleaved([_forward, _profiled])
    print(f"\ndisabled {disabled * 1e3:.2f} ms, "
          f"enabled {enabled * 1e3:.2f} ms "
          f"({enabled / disabled:.2f}x)")
    benchmark.pedantic(_profiled, rounds=1, iterations=1)
