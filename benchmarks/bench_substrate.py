"""Substrate micro-benchmarks: wall-clock cost of the simulator itself
(autograd step, checkpoint overhead, abstract vs concrete execution,
pipelined training step).  These guard against performance regressions in
the reproduction infrastructure rather than reproducing paper numbers."""

import numpy as np

from repro.config import ModelConfig
from repro.layers import GPTModel, Recompute, token_tensor
from repro.parallel import ParallelGPTModel
from repro.perf_model import layer_oplog
from repro.tensor import seed
from repro.training import Adam, PipelinedGPT, Trainer, UniformTokens

CFG = ModelConfig(num_layers=2, hidden_size=64, num_heads=4,
                  seq_length=32, vocab_size=64)
rng = np.random.default_rng(0)


def _batch(b=4):
    data = UniformTokens(CFG.vocab_size, CFG.seq_length, seed=1)
    return data.batch(b)


def bench_serial_train_step(benchmark):
    seed(0)
    model = GPTModel(CFG, seed=0)
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
    ids, tgt = _batch()
    loss = benchmark(trainer.train_step, ids, tgt)
    assert np.isfinite(loss)


def bench_tensor_parallel_train_step(benchmark):
    seed(0)
    model = ParallelGPTModel(CFG, tensor_parallel=4, sequence_parallel=True,
                             recompute=Recompute.SELECTIVE, seed=0)
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
    ids, tgt = _batch()
    loss = benchmark(trainer.train_step, ids, tgt)
    assert np.isfinite(loss)


def bench_serial_train_step_fused(benchmark):
    """Same step as :func:`bench_serial_train_step` through the fused
    engine."""
    seed(0)
    model = GPTModel(CFG, seed=0, fused=True)
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
    ids, tgt = _batch()
    loss = benchmark(trainer.train_step, ids, tgt)
    assert np.isfinite(loss)


def bench_tensor_parallel_train_step_fused(benchmark):
    seed(0)
    model = ParallelGPTModel(CFG, tensor_parallel=4, sequence_parallel=True,
                             recompute=Recompute.SELECTIVE, seed=0, fused=True)
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
    ids, tgt = _batch()
    loss = benchmark(trainer.train_step, ids, tgt)
    assert np.isfinite(loss)


def bench_pipelined_train_step(benchmark):
    seed(0)
    model = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                             seed=0)
    pipe = PipelinedGPT(model, pipeline_parallel=2)
    opt = Adam(model.parameters(), lr=1e-3)
    ids, tgt = _batch(4)
    loss = benchmark(pipe.fit_step, opt, ids, tgt, 2)
    assert np.isfinite(loss)


def bench_checkpoint_overhead(benchmark):
    """Full recomputation roughly re-runs the forward pass; the simulator's
    bookkeeping should not blow that up."""
    seed(0)
    model = GPTModel(CFG, seed=0, recompute=Recompute.FULL)
    ids, tgt = _batch()

    def step():
        model.zero_grad()
        loss = model(token_tensor(ids), token_tensor(tgt))
        loss.backward()
        return loss.item()

    assert np.isfinite(benchmark(step))


def bench_abstract_layer_oplog(benchmark):
    """Abstract (shape-only) execution of one 175B layer fwd+bwd — the
    primitive behind every paper-scale measurement; should run in
    milliseconds."""
    from repro.config import PAPER_CONFIGS
    cfg = PAPER_CONFIGS["175B"]
    log = benchmark(layer_oplog, cfg.model, 1, 8, True, Recompute.SELECTIVE)
    assert len(log.records) > 20
