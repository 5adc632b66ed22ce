"""Vocab-parallel embedding and cross entropy: unit-level equivalence."""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.layers.embedding import token_tensor
from repro.layers import GPTEmbedding
from repro.parallel import TensorParallel, VocabParallelLookup
from repro.parallel.loss import vocab_parallel_cross_entropy
from repro.tensor import FP32, MemoryTracker, Tensor, apply, from_numpy, instrument
from repro.tensor import functions as F

rng = np.random.default_rng(13)


class TestVocabParallelLookup:
    def test_partials_sum_to_full_lookup(self):
        v, h, t = 12, 6, 3
        table = rng.normal(size=(v, h))
        ids_np = rng.integers(0, v, size=(5, 2))
        weight = Tensor([np.ascontiguousarray(p).copy() for p in np.split(table, t)],
                        is_param=True, requires_grad=True, layout="shard(dim=0)")
        ids = token_tensor(ids_np, v, world=t)
        partial = apply(VocabParallelLookup(), weight, ids)
        summed = np.sum([np.asarray(s) for s in partial.shards], axis=0)
        np.testing.assert_allclose(summed, table[ids_np])

    def test_backward_scatters_into_owning_rank(self):
        v, h, t = 8, 4, 2
        table = rng.normal(size=(v, h))
        weight = Tensor([p.copy() for p in np.split(table, t)],
                        is_param=True, requires_grad=True, layout="shard(dim=0)")
        ids_np = np.array([[0], [7]])  # one id per rank's range
        partial = apply(VocabParallelLookup(), weight, token_tensor(ids_np, v, world=t))
        F.sum_all(partial).backward()
        g0, g1 = [np.asarray(g) for g in weight.grad]
        assert g0[0].sum() != 0 and g0[1:].sum() == 0       # row 0 on rank 0
        assert g1[3].sum() != 0 and g1[:3].sum() == 0       # row 7 on rank 1

    def test_ids_saved_not_embeddings(self):
        v, h, t = 8, 4, 2
        weight = Tensor([rng.normal(size=(4, 4)) for _ in range(t)],
                        is_param=True, requires_grad=True, layout="shard(dim=0)")
        ids = token_tensor(np.zeros((5, 2), dtype=np.int64), 8, world=t)
        mt = MemoryTracker()
        with instrument(memory=mt):
            apply(VocabParallelLookup(), weight, ids)
        assert mt.live_bytes(0) == 5 * 2 * 8  # int64 ids only


class TestVocabParallelCrossEntropy:
    def _serial_ce(self, logits, targets):
        l = from_numpy(logits, requires_grad=True)
        t = token_tensor(targets, 8)
        loss = F.cross_entropy(F.cast(l, FP32), t)
        loss.backward()
        return loss.item(), np.asarray(l.grad[0])

    def _parallel_ce(self, logits, targets, t):
        group = ProcessGroup(t)
        shards = [np.ascontiguousarray(p).copy()
                  for p in np.split(logits, t, axis=-1)]
        lt = Tensor(shards, dtype=FP32, requires_grad=True, layout="shard(dim=-1)")
        loss = vocab_parallel_cross_entropy(lt, token_tensor(targets, 8, world=t), group)
        loss.backward()
        grad = np.concatenate([np.asarray(g) for g in lt.grad], axis=-1)
        return loss.item(), grad

    @pytest.mark.parametrize("t", [2, 4])
    def test_matches_serial(self, t):
        logits = rng.normal(size=(6, 3, 8))
        targets = rng.integers(0, 8, size=(6, 3))
        loss_s, grad_s = self._serial_ce(logits, targets)
        loss_p, grad_p = self._parallel_ce(logits, targets, t)
        assert loss_p == pytest.approx(loss_s, abs=1e-10)
        np.testing.assert_allclose(grad_p, grad_s, atol=1e-10)

    def test_loss_replicated_across_ranks(self):
        logits = rng.normal(size=(4, 2, 8))
        targets = rng.integers(0, 8, size=(4, 2))
        group = ProcessGroup(2)
        shards = [np.ascontiguousarray(p).copy() for p in np.split(logits, 2, axis=-1)]
        lt = Tensor(shards, dtype=FP32, requires_grad=True)
        loss = vocab_parallel_cross_entropy(lt, token_tensor(targets, 8, world=2), group)
        vals = [float(np.asarray(s)) for s in loss.shards]
        assert vals[0] == vals[1]

    def test_saves_fp32_logits_per_rank(self):
        """The paper's 4sbv/t term."""
        s, b, v, t = 4, 2, 8, 2
        logits = rng.normal(size=(s, b, v))
        targets = rng.integers(0, v, size=(s, b))
        group = ProcessGroup(t)
        shards = [np.ascontiguousarray(p).copy() for p in np.split(logits, t, axis=-1)]
        lt = Tensor(shards, dtype=FP32, requires_grad=True)
        mt = MemoryTracker()
        with instrument(memory=mt):
            vocab_parallel_cross_entropy(lt, token_tensor(targets, 8, world=t), group)
        # fp32 logits shard + int64 targets per rank
        assert mt.live_bytes(0) == 4 * s * b * v // t + s * b * 8

    def test_three_small_allreduces_logged(self):
        from repro.tensor import OpLog
        logits = rng.normal(size=(4, 2, 8))
        targets = rng.integers(0, 8, size=(4, 2))
        group = ProcessGroup(2)
        shards = [np.ascontiguousarray(p).copy() for p in np.split(logits, 2, axis=-1)]
        lt = Tensor(shards, dtype=FP32, requires_grad=True)
        log = OpLog()
        with instrument(oplog=log):
            vocab_parallel_cross_entropy(lt, token_tensor(targets, 8, world=2), group)
        comms = log.comm_records()
        assert len(comms) == 3
        assert all(r.comm.op == "all_reduce" for r in comms)
        assert all(r.comm.nbytes == 4 * 4 * 2 for r in comms)  # fp32 * s * b


class TestVocabParallelEmbeddingModule:
    def test_sp_output_is_sequence_sharded(self):
        emb = GPTEmbedding(8, 4, 6, hidden_dropout=0.0, rng=rng,
                           layout=TensorParallel(ProcessGroup(2),
                                                 sequence_parallel=True))
        out = emb(token_tensor(np.zeros((6, 2), dtype=np.int64), 8, world=2))
        assert out.shape == (3, 2, 4)

    def test_no_sp_output_replicated(self):
        emb = GPTEmbedding(8, 4, 6, hidden_dropout=0.0, rng=rng,
                           layout=TensorParallel(ProcessGroup(2)))
        out = emb(token_tensor(np.zeros((6, 2), dtype=np.int64), 8, world=2))
        assert out.shape == (6, 2, 4)
        np.testing.assert_allclose(np.asarray(out.shards[0]),
                                   np.asarray(out.shards[1]))

    def test_embedding_dropout_mask_sharded_under_sp(self):
        """Section 4.3: the embedding dropout mask costs sbh/t per rank."""
        s, b, h, t = 8, 2, 4, 2
        emb = GPTEmbedding(8, h, s, hidden_dropout=0.1, rng=rng,
                           layout=TensorParallel(ProcessGroup(t),
                                                 sequence_parallel=True))
        mt = MemoryTracker()
        ids = token_tensor(rng.integers(0, 8, size=(s, b)), 8, world=t)
        with instrument(memory=mt):
            out = emb(ids)
        assert mt.category_breakdown(0)["dropout_mask"] == s * b * h // t
