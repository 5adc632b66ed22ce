"""Direct unit tests of the f/f̄/g/ḡ operators, op-log queries, and the
text reporting utilities."""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.parallel.mappings import (
    all_gather_matmul,
    copy_to_tensor_parallel_region,
    gather_from_sequence_parallel_region,
    gather_with_slice_backward,
    reduce_from_tensor_parallel_region,
    scatter_split_sequence,
    scatter_to_sequence_parallel_region,
)
from repro.reporting import (
    ascii_bars, csv_series, format_table, ms, pct,
    seconds, stacked_ascii_bars,
)
from repro.tensor import OpLog, Tensor, instrument, parameter
from repro.tensor import functions as F
from repro.tensor.oplog import CommInfo, OpKind, OpRecord, Phase

rng = np.random.default_rng(51)
G2 = ProcessGroup(2)
G4 = ProcessGroup(4)


def sharded(full, world, axis=0):
    return Tensor([np.ascontiguousarray(p).copy()
                   for p in np.split(full, world, axis=axis)],
                  requires_grad=True, layout=f"shard(dim={axis})")


def replicated(full, world):
    return Tensor([full.copy() for _ in range(world)], requires_grad=True,
                  layout="replicated")


class TestConjugatePairs:
    def test_f_identity_forward_allreduce_backward(self):
        full = rng.normal(size=(4, 3))
        x = replicated(full, 2)
        y = copy_to_tensor_parallel_region(x, G2)
        for s in y.shards:
            np.testing.assert_array_equal(s, full)
        # backward: distinct per-rank grads are summed on every rank
        y.backward([np.ones((4, 3)), 2 * np.ones((4, 3))])
        for g in x.grad:
            np.testing.assert_array_equal(g, 3 * np.ones((4, 3)))

    def test_f_bar_allreduce_forward_identity_backward(self):
        x = Tensor([np.ones((2, 2)), 2 * np.ones((2, 2))], requires_grad=True)
        y = reduce_from_tensor_parallel_region(x, G2)
        for s in y.shards:
            np.testing.assert_array_equal(s, 3 * np.ones((2, 2)))
        y.backward([np.full((2, 2), 5.0), np.full((2, 2), 7.0)])
        np.testing.assert_array_equal(x.grad[0], np.full((2, 2), 5.0))
        np.testing.assert_array_equal(x.grad[1], np.full((2, 2), 7.0))

    def test_g_gather_forward_reduce_scatter_backward(self):
        full = rng.normal(size=(4, 3))
        x = sharded(full, 2)
        y = gather_from_sequence_parallel_region(x, G2)
        for s in y.shards:
            np.testing.assert_allclose(s, full)
        grads = [rng.normal(size=(4, 3)) for _ in range(2)]
        y.backward([g.copy() for g in grads])
        total = grads[0] + grads[1]
        np.testing.assert_allclose(x.grad[0], total[:2])
        np.testing.assert_allclose(x.grad[1], total[2:])

    def test_g_bar_reduce_scatter_forward_gather_backward(self):
        parts = [rng.normal(size=(4, 3)) for _ in range(2)]
        x = Tensor([p.copy() for p in parts], requires_grad=True)
        y = scatter_to_sequence_parallel_region(x, G2)
        total = parts[0] + parts[1]
        np.testing.assert_allclose(y.shards[0], total[:2])
        np.testing.assert_allclose(y.shards[1], total[2:])
        y.backward([np.ones((2, 3)), 2 * np.ones((2, 3))])
        expected = np.concatenate([np.ones((2, 3)), 2 * np.ones((2, 3))])
        for g in x.grad:
            np.testing.assert_array_equal(g, expected)

    def test_g_pair_roundtrip_is_identity(self):
        full = rng.normal(size=(8, 3))
        x = sharded(full, 4)
        y = gather_from_sequence_parallel_region(x, G4)
        # reduce-scatter of 4 identical replicas = 4x each shard; scale back
        z = scatter_to_sequence_parallel_region(F.scale(y, 0.25), G4)
        for r in range(4):
            np.testing.assert_allclose(z.shards[r], full[2 * r:2 * r + 2])

    def test_scatter_split_slices_forward_gathers_backward(self):
        full = rng.normal(size=(4, 3))
        x = replicated(full, 2)
        y = scatter_split_sequence(x, G2)
        np.testing.assert_array_equal(y.shards[0], full[:2])
        np.testing.assert_array_equal(y.shards[1], full[2:])
        y.backward([np.ones((2, 3)), 2 * np.ones((2, 3))])
        expected = np.concatenate([np.ones((2, 3)), 2 * np.ones((2, 3))])
        for g in x.grad:
            np.testing.assert_array_equal(g, expected)

    def test_scatter_split_indivisible_rejected(self):
        from repro.errors import CommError
        x = replicated(np.ones((5, 2)), 2)
        with pytest.raises(CommError):
            scatter_split_sequence(x, G2)

    def test_gather_with_slice_backward(self):
        full = rng.normal(size=(4, 3))
        x = sharded(full, 2)
        y = gather_with_slice_backward(x, G2)
        for s in y.shards:
            np.testing.assert_allclose(s, full)
        grads = [rng.normal(size=(4, 3))] * 2  # replicated grads
        y.backward([g.copy() for g in grads])
        np.testing.assert_allclose(x.grad[0], grads[0][:2])
        np.testing.assert_allclose(x.grad[1], grads[0][2:])

    def test_all_gather_matmul_equals_unfused(self):
        full = rng.normal(size=(4, 3))
        w_full = rng.normal(size=(3, 6))
        w = parameter([np.ascontiguousarray(p).copy()
                       for p in np.split(w_full, 2, axis=1)],
                      layout="shard(dim=1)")
        x = sharded(full, 2)
        fused = all_gather_matmul(x, w, G2)
        for r in range(2):
            np.testing.assert_allclose(np.asarray(fused.shards[r]),
                                       full @ np.asarray(w.shards[r]))
        F.sum_all(fused).backward()
        # weight grads: full^T @ ones
        for r in range(2):
            np.testing.assert_allclose(np.asarray(w.grad[r]),
                                       full.T @ np.ones((4, 3)), atol=1e-12)

    def test_world_mismatch_rejected(self):
        from repro.errors import CommError
        x = replicated(np.ones((2, 2)), 2)
        with pytest.raises(CommError):
            copy_to_tensor_parallel_region(x, G4)


class TestMappingCommLogging:
    def _records(self, fn):
        log = OpLog()
        with instrument(oplog=log):
            fn()
        return log

    def test_f_bar_logs_forward_all_reduce(self):
        def run():
            x = Tensor([np.ones((4, 2))] * 2, requires_grad=True)
            reduce_from_tensor_parallel_region(x, G2)
        log = self._records(run)
        recs = log.comm_records(Phase.FORWARD)
        assert len(recs) == 1
        assert recs[0].comm.op == "all_reduce"
        assert recs[0].comm.nbytes == 4 * 2 * 2  # fp16

    def test_f_backward_all_reduce_is_overlapped(self):
        def run():
            x = replicated(np.ones((4, 2)), 2)
            y = copy_to_tensor_parallel_region(x, G2)
            y.backward([np.ones((4, 2))] * 2)
        log = self._records(run)
        recs = log.comm_records(Phase.BACKWARD)
        assert len(recs) == 1 and recs[0].overlapped

    def test_g_logs_full_gathered_bytes(self):
        def run():
            x = sharded(np.ones((4, 2)), 2)
            gather_from_sequence_parallel_region(x, G2)
        log = self._records(run)
        rec = log.comm_records()[0]
        assert rec.comm.op == "all_gather"
        assert rec.comm.nbytes == 4 * 2 * 2  # full tensor at fp16


class TestOpLogQueries:
    def setup_method(self):
        self.log = OpLog()
        self.log.add(OpRecord("a", OpKind.GEMM, Phase.FORWARD, flops=10))
        self.log.add(OpRecord("b", OpKind.GEMM, Phase.BACKWARD, flops=20))
        self.log.add(OpRecord("c", OpKind.ELEMENTWISE, Phase.FORWARD,
                              flops=5))
        self.log.add(OpRecord("d", OpKind.COLLECTIVE, Phase.FORWARD,
                              comm=CommInfo("all_reduce", 64, 8)))

    def test_flops_filters(self):
        assert self.log.flops() == 35
        assert self.log.flops(Phase.FORWARD) == 15
        assert self.log.flops(Phase.FORWARD, OpKind.GEMM) == 10

    def test_comm_records_and_clear(self):
        assert len(self.log.comm_records()) == 1
        self.log.clear()
        assert self.log.records == []


class TestReportingFormatters:
    def test_format_table_alignment(self):
        text = format_table(["name", "v"], [("a", 1), ("bb", 22)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[1]) for l in lines[1:])

    def test_numeric_helpers(self):
        assert pct(0.294) == "29.4%"
        assert ms(0.0077) == "7.70"
        assert seconds(37.834) == "37.83"

    def test_ascii_bars_scaling(self):
        text = ascii_bars(["x", "yy"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10  # max value fills the width
        assert lines[0].count("#") == 5

    def test_ascii_bars_validation(self):
        with pytest.raises(ValueError):
            ascii_bars(["a"], [1.0, 2.0])

    def test_stacked_bars_have_legend(self):
        text = stacked_ascii_bars(
            ["m1"], [("fwd", "F", [1.0]), ("bwd", "B", [2.0])])
        assert "F=fwd" in text and "B=bwd" in text
        assert "FFF" not in text.splitlines()[0]

    def test_csv_series(self):
        text = csv_series(["a", "b"], [(1, 2), (3, 4)])
        assert text == "a,b\n1,2\n3,4"
