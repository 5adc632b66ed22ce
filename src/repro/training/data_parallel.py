"""Data-parallel training across simulated model replicas.

The paper's Section 6.3 extension scales the 530B model to 8-way data
parallelism with an unoverlapped gradient all-reduce.  This module makes
that path *executable*: ``DataParallelTrainer`` holds ``dp`` full model
replicas (each itself tensor/sequence-parallel), feeds each its share of
the global batch, then averages gradients across replicas with the same
collective semantics NCCL would apply — after which every replica's
optimizer step is identical and the replicas stay bit-synchronized.

Verified property: one step of dp-way data parallelism over a global
batch equals one step of a single replica over the same batch (gradient
averaging is exact, not approximate).
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from ..comm.collectives import active_fault_injector
from ..errors import ConfigError
from ..layers.embedding import token_tensor
from ..layers.transformer import GPTModel
from ..tensor import ctx
from ..tensor.oplog import CommInfo, OpKind, OpRecord, Phase
from .optimizer import Adam
from .trainer import keep_heap_resident, split_microbatches


class DataParallelTrainer:
    """Train ``dp`` bit-identical replicas with gradient all-reduce.

    ``model_factory`` must build deterministically identical models (same
    weights) on each call — e.g. ``lambda: ParallelGPTModel(cfg, t,
    serial=serial_reference)``.  Constructing one sets the process's
    host-memory policy (:func:`~repro.training.trainer.keep_heap_resident`).
    """

    def __init__(self, model_factory: Callable[[], GPTModel],
                 data_parallel: int, lr: float = 1e-3,
                 pipeline_parallel: int = 1):
        if data_parallel < 1:
            raise ConfigError("data_parallel must be >= 1")
        keep_heap_resident()
        self.dp = data_parallel
        self.replicas: List[GPTModel] = [
            model_factory() for _ in range(data_parallel)
        ]
        self.optimizers = [Adam(r.parameters(), lr=lr) for r in self.replicas]
        # Full 3D parallelism: each replica is itself pipelined (and each
        # pipeline stage tensor-parallel).
        self.pipes = None
        if pipeline_parallel > 1:
            from .trainer import PipelinedGPT
            self.pipes = [PipelinedGPT(r, pipeline_parallel)
                          for r in self.replicas]
        self._check_replicas_identical()

    def _check_replicas_identical(self) -> None:
        reference = self.replicas[0]
        for replica in self.replicas[1:]:
            for (n1, p1), (n2, p2) in zip(reference.named_parameters(),
                                          replica.named_parameters()):
                if n1 != n2 or p1.world != p2.world:
                    raise ConfigError("replicas must be structurally identical")
                if not np.array_equal(np.asarray(p1.shards[0]),
                                      np.asarray(p2.shards[0])):
                    raise ConfigError(
                        f"replica weights differ at {n1}; the factory must "
                        "build identical models"
                    )

    def _all_reduce_grads(self) -> None:
        """Average each parameter's gradient across the dp replicas."""
        log = ctx().oplog
        injector = active_fault_injector()
        param_lists = [r.parameters() for r in self.replicas]
        for group in zip(*param_lists):
            grads = [p.grad for p in group]
            if any(g is None for g in grads):
                continue
            world = group[0].world
            if injector is not None:
                # The dp gradient all-reduce is a fault site too: one
                # "shard" per replica, checked before any averaging so a
                # raised fault leaves gradients untouched for the retry.
                injector.on_collective(
                    "all_reduce", [np.asarray(g[0]) for g in grads])
            for rank in range(world):
                total = np.sum([np.asarray(g[rank]) for g in grads], axis=0)
                total /= self.dp
                for p in group:
                    p.grad[rank] = total.copy()
            if log is not None:
                nbytes = group[0].size * 4  # fp32 main grads
                log.add(OpRecord(
                    name="dp.grad_allreduce", kind=OpKind.COLLECTIVE,
                    phase=Phase.BACKWARD,
                    comm=CommInfo("all_reduce", nbytes, self.dp, scope="dp"),
                ))

    def train_step(self, ids: np.ndarray, targets: np.ndarray,
                   microbatches_per_replica: int = 1) -> float:
        """One iteration over a global batch split across replicas."""
        world = self.replicas[0].group.size
        shards = split_microbatches(ids, targets, self.dp)
        total_loss = 0.0
        n_mb = microbatches_per_replica
        injector = active_fault_injector()
        try:
            for index, (replica, opt, (r_ids, r_targets)) in enumerate(
                    zip(self.replicas, self.optimizers, shards)):
                if injector is not None:
                    injector.set_active_rank(index)
                opt.zero_grad()
                if self.pipes is not None:
                    result = self.pipes[index].train_step(r_ids, r_targets, n_mb)
                    total_loss += result.loss
                    continue
                for mb_ids, mb_targets in split_microbatches(r_ids, r_targets, n_mb):
                    vocab = replica.config.vocab_size
                    loss = replica(token_tensor(mb_ids, vocab, world=world),
                                   token_tensor(mb_targets, vocab, world=world))
                    loss.backward([np.asarray(1.0 / n_mb)] * loss.world)
                    total_loss += loss.item() / n_mb
                replica.finish_grad_sync()
        finally:
            if injector is not None:
                injector.set_active_rank(None)
        self._all_reduce_grads()
        for opt in self.optimizers:
            opt.step()
        return total_loss / self.dp

    def drop_replica(self, index: int) -> None:
        """Elastically remove one replica (a permanently lost rank).

        The survivors keep their bit-synchronized weights; the caller is
        responsible for rebalancing microbatches so the global batch is
        unchanged (gradient averaging over the same global batch is then
        exact regardless of the group size).
        """
        if self.dp <= 1:
            raise ConfigError("cannot drop the last surviving replica")
        if not (0 <= index < self.dp):
            raise ConfigError(f"no replica {index} in a dp={self.dp} group")
        del self.replicas[index]
        del self.optimizers[index]
        if self.pipes is not None:
            del self.pipes[index]
        self.dp -= 1

    @property
    def model(self) -> GPTModel:
        """Replica 0 (all replicas are identical after every step)."""
        return self.replicas[0]
