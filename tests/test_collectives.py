"""Collectives: data semantics vs NumPy one-liners, ring cost identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CollectiveCostModel, ProcessGroup, all_gather, all_reduce, all_to_all,
    broadcast, fault_scope, gather_concat, reduce_scatter, scatter,
)
from repro.errors import CollectiveTimeout, CommError, CorruptionDetected
from repro.hardware import ClusterSpec, NodeSpec, selene_like
from repro.resilience import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.tensor.backend import AbstractArray
from repro.tensor.oplog import CommInfo

worlds = st.integers(min_value=1, max_value=8)


def _shards(rng, world, shape):
    return [rng.normal(size=shape) for _ in range(world)]


class TestDataSemantics:
    @given(worlds)
    @settings(max_examples=20, deadline=None)
    def test_all_reduce_is_sum(self, world):
        rng = np.random.default_rng(world)
        shards = _shards(rng, world, (3, 4))
        out = all_reduce(shards)
        expected = np.sum(shards, axis=0)
        for o in out:
            np.testing.assert_allclose(o, expected)

    @given(worlds, st.integers(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_all_gather_is_concat(self, world, axis):
        rng = np.random.default_rng(world * 10 + axis)
        shards = _shards(rng, world, (2, 3))
        out = all_gather(shards, axis=axis)
        expected = np.concatenate(shards, axis=axis)
        for o in out:
            np.testing.assert_array_equal(o, expected)

    @given(worlds)
    @settings(max_examples=20, deadline=None)
    def test_reduce_scatter_equals_allreduce_then_split(self, world):
        rng = np.random.default_rng(world)
        shards = _shards(rng, world, (2 * world, 3))
        out = reduce_scatter(shards, axis=0)
        full = np.sum(shards, axis=0)
        for r, o in enumerate(out):
            np.testing.assert_allclose(o, full[2 * r:2 * (r + 1)])

    @given(worlds)
    @settings(max_examples=20, deadline=None)
    def test_ring_identity_rs_then_ag_equals_ar(self, world):
        """The paper's decomposition: all-reduce == reduce-scatter + all-gather."""
        rng = np.random.default_rng(world)
        shards = _shards(rng, world, (world * 2, 3))
        via_ring = all_gather(reduce_scatter(shards, axis=0), axis=0)
        direct = all_reduce(shards)
        for a, b in zip(via_ring, direct):
            np.testing.assert_allclose(a, b)

    def test_scatter_and_gather_concat_roundtrip(self):
        full = np.arange(24).reshape(6, 4).astype(float)
        parts = scatter(full, 3, axis=0)
        np.testing.assert_array_equal(gather_concat(parts, axis=0), full)

    def test_broadcast(self):
        x = np.ones((2, 2))
        out = broadcast(x, 4)
        assert len(out) == 4 and all(o is x for o in out)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CommError):
            all_reduce([np.zeros((2,)), np.zeros((3,))])

    def test_empty_rejected(self):
        with pytest.raises(CommError):
            all_reduce([])

    def test_abstract_shards(self):
        out = reduce_scatter([AbstractArray((4, 3))] * 2, axis=0)
        assert all(o.shape == (2, 3) for o in out)
        out = all_gather([AbstractArray((2, 3))] * 4, axis=0)
        assert all(o.shape == (8, 3) for o in out)


class TestAllToAll:
    @given(worlds, st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_is_identity(self, world, split_axis, concat_axis):
        """Inverting the axes undoes the exchange exactly."""
        rng = np.random.default_rng(world * 7 + split_axis * 2 + concat_axis)
        shards = _shards(rng, world, (2 * world, 3 * world))
        there = all_to_all(shards, split_axis=split_axis, concat_axis=concat_axis)
        back = all_to_all(there, split_axis=concat_axis, concat_axis=split_axis)
        for orig, rt in zip(shards, back):
            np.testing.assert_array_equal(rt, orig)

    @given(worlds)
    @settings(max_examples=20, deadline=None)
    def test_receives_piece_r_of_every_rank(self, world):
        rng = np.random.default_rng(world)
        shards = _shards(rng, world, (2 * world, 3))
        out = all_to_all(shards, split_axis=0, concat_axis=0)
        for r, o in enumerate(out):
            expected = np.concatenate(
                [np.split(s, world, axis=0)[r] for s in shards], axis=0)
            np.testing.assert_array_equal(o, expected)

    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_source_permutation_permutes_received_blocks(self, world, rnd):
        """Permuting the senders permutes each receiver's blocks the same way."""
        rng = np.random.default_rng(world)
        shards = _shards(rng, world, (world, 4))
        perm = list(range(world))
        rnd.shuffle(perm)
        base = all_to_all(shards, split_axis=0, concat_axis=0)
        permuted = all_to_all([shards[p] for p in perm], split_axis=0, concat_axis=0)
        for o_base, o_perm in zip(base, permuted):
            blocks = np.split(o_base, world, axis=0)
            np.testing.assert_array_equal(
                o_perm, np.concatenate([blocks[p] for p in perm], axis=0))

    def test_resharding_axes(self):
        """split axis 1 / concat axis 0: column shards become row shards."""
        world = 2
        shards = [np.arange(8).reshape(2, 4) + 100 * r for r in range(world)]
        out = all_to_all(shards, split_axis=1, concat_axis=0)
        for r, o in enumerate(out):
            expected = np.concatenate(
                [s[:, 2 * r:2 * (r + 1)] for s in shards], axis=0)
            np.testing.assert_array_equal(o, expected)

    def test_world_one_is_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = all_to_all([x], split_axis=0, concat_axis=0)
        np.testing.assert_array_equal(out[0], x)

    def test_indivisible_axis_rejected(self):
        with pytest.raises(CommError):
            all_to_all([np.zeros((3, 2))] * 2, split_axis=0, concat_axis=0)

    def test_abstract_shards(self):
        out = all_to_all([AbstractArray((4, 6))] * 2, split_axis=1, concat_axis=0)
        assert all(o.shape == (8, 3) for o in out)

    @pytest.mark.parametrize("kind,error", [
        (FaultKind.BIT_FLIP, CorruptionDetected),
        (FaultKind.DROPPED_COLLECTIVE, CollectiveTimeout),
    ])
    def test_fault_injection_kinds(self, kind, error):
        """all_to_all flows through the same injector seam as the rest."""
        plan = FaultPlan([FaultSpec(step=0, kind=kind)])
        injector = FaultInjector(plan)
        injector.begin_step(0)
        with fault_scope(injector):
            with pytest.raises(error):
                all_to_all([np.ones((4, 2))] * 2, split_axis=0, concat_axis=0)
        assert injector.faults_fired == 1

    def test_straggler_injection_completes(self):
        plan = FaultPlan([FaultSpec(step=0, kind=FaultKind.STRAGGLER,
                                    slowdown=8.0)])
        injector = FaultInjector(plan)
        injector.begin_step(0)
        shards = [np.ones((4, 2)) * r for r in range(2)]
        with fault_scope(injector):
            out = all_to_all(shards, split_axis=0, concat_axis=0)
        assert injector.faults_fired == 1
        clean = all_to_all(shards, split_axis=0, concat_axis=0)
        for a, b in zip(out, clean):
            np.testing.assert_array_equal(a, b)


class TestProcessGroup:
    def test_validation(self):
        with pytest.raises(CommError):
            ProcessGroup(0)
        with pytest.raises(CommError):
            ProcessGroup(2, scope="bogus")

    def test_world_check(self):
        g = ProcessGroup(4)
        with pytest.raises(CommError):
            g.check_world(2)
        g.check_world(4)


class TestCostModel:
    def setup_method(self):
        self.cost = CollectiveCostModel()

    def test_single_rank_free(self):
        assert self.cost.all_reduce_time(1 << 20, 1) == 0.0

    def test_ar_equals_rs_plus_ag_bandwidth(self):
        """Equal bandwidth use (Section 4.2.2), pair pays one extra call."""
        nbytes, n = 64 << 20, 8
        ar = self.cost.all_reduce_time(nbytes, n)
        rs = self.cost.reduce_scatter_time(nbytes, n)
        ag = self.cost.all_gather_time(nbytes, n)
        assert rs + ag > ar
        assert rs + ag == pytest.approx(ar + self.cost.call_overhead, rel=1e-9)

    def test_time_scales_with_bytes(self):
        small = self.cost.all_reduce_time(1 << 20, 8)
        large = self.cost.all_reduce_time(64 << 20, 8)
        assert large > small

    def test_time_increases_with_group_size(self):
        assert (self.cost.all_reduce_time(1 << 26, 8)
                > self.cost.all_reduce_time(1 << 26, 2))

    def test_tp_uses_nvlink_dp_uses_ib(self):
        cost = CollectiveCostModel(cluster=selene_like(64))
        tp = cost.time(CommInfo("all_reduce", 1 << 26, 8, "tp"))
        dp = cost.time(CommInfo("all_reduce", 1 << 26, 8, "dp"))
        assert dp > tp  # InfiniBand is the bottleneck across nodes

    def test_single_node_cluster_everything_on_nvlink(self):
        cost = CollectiveCostModel(cluster=ClusterSpec(num_nodes=1))
        tp = cost.time(CommInfo("all_reduce", 1 << 26, 8, "tp"))
        dp = cost.time(CommInfo("all_reduce", 1 << 26, 8, "dp"))
        assert tp == pytest.approx(dp)

    def test_oversized_tp_group_spills_to_ib(self):
        cost = CollectiveCostModel(cluster=selene_like(16))
        small = cost.time(CommInfo("all_gather", 1 << 26, 8, "tp"))
        wide = cost.time(CommInfo("all_gather", 1 << 26, 16, "tp"))
        assert wide > 2 * small

    def test_p2p(self):
        t = self.cost.p2p_time(1 << 20)
        link = self.cost.cluster.node.intra_node_link
        assert t == pytest.approx(
            self.cost.call_overhead + link.latency + (1 << 20) / link.bandwidth)

    def test_all_to_all_pricing(self):
        """(n-1) latency steps, (n-1)/n of the local shard on the wire."""
        nbytes, n = 1 << 20, 8
        t = self.cost.all_to_all_time(nbytes, n)
        link = self.cost.link_for(CommInfo("all_to_all", nbytes, n, "cp"))
        assert t == pytest.approx(
            self.cost.call_overhead + (n - 1) * link.latency
            + (n - 1) / n * nbytes / link.bandwidth)

    def test_all_to_all_single_rank_free(self):
        assert self.cost.all_to_all_time(1 << 20, 1) == 0.0

    def test_all_to_all_cheaper_than_all_gather(self):
        """The Ulysses selling point: a2a of a local shard beats gathering
        the full sequence, and the gap widens with the group."""
        shard = 1 << 20
        for n in (2, 4, 8):
            a2a = self.cost.all_to_all_time(shard, n)
            ag = self.cost.all_gather_time(shard * n, n)
            assert a2a < ag

    def test_unknown_op_rejected(self):
        with pytest.raises(CommError):
            self.cost.time(CommInfo("all_to_nowhere", 1, 4, "tp"))

    def test_bad_group_rejected(self):
        with pytest.raises(CommError):
            self.cost.time(CommInfo("all_reduce", 1, 0, "tp"))


class TestHardware:
    def test_selene_like_rounds_up_nodes(self):
        cluster = selene_like(9)
        assert cluster.num_nodes == 2
        assert cluster.world_size == 16

    def test_gemm_throughput_curve(self):
        from repro.hardware import GPUSpec
        gpu = GPUSpec()
        # Efficiency grows monotonically with GEMM size toward the asymptote.
        small = gpu.gemm_throughput(1e9)
        big = gpu.gemm_throughput(1e13)
        assert small < big <= gpu.peak_flops * gpu.gemm_efficiency
