"""Long-context parallelism: traced comm volumes against the closed
forms, recompute/comm overlap attribution, per-term memory drift, and
the ring/offset-mask primitives."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ConfigError, PlanningError, ShapeError
from repro.fusion.ops import scale_mask_softmax_dropout
from repro.layers import GPTModel, Recompute, token_tensor
from repro.layers.dropout import Dropout
from repro.comm.process_group import ProcessGroup
from repro.longctx import (
    LongContextGPTModel,
    Ring,
    Ulysses,
    all_to_all_head_to_seq,
    all_to_all_seq_to_head,
    layout_volumes,
    recompute_overlap_scope,
    ring_gather,
    sp_layer_bytes,
)
from repro.longctx.layout import LAYOUTS, context_layout
from repro.observability import (
    Tracer,
    attribute,
    from_tracer,
    layer_term_drift,
    trace_scope,
)
from repro.pipeline_sim import (
    OverlapSegment,
    longctx_overlap_report,
    schedule_overlap,
)
from repro.pipeline_sim.overlap import longctx_overlap_segments
from repro.planner import choose_context_layout
from repro.tensor import Tensor, from_numpy
from repro.tensor import functions as F
from repro.tensor.functions import MaskSource
from repro.testing import assert_parallel_equivalent

from helpers import TINY, assert_zero_drift, random_tokens

rng = np.random.default_rng(31)
MS = MaskSource(seed=77, keep_prob=0.9)
V = TINY.vocab_size  # token ids lie in [0, V)

WIDE = ModelConfig(num_layers=1, hidden_size=48, num_heads=6,
                   seq_length=24, vocab_size=64, name="wide")


@pytest.fixture(scope="module")
def serial():
    model = GPTModel(TINY, seed=4, mask_source=MS)
    ids = random_tokens(rng, TINY.vocab_size, TINY.seq_length, 2)
    tgt = random_tokens(rng, TINY.vocab_size, TINY.seq_length, 2)
    loss = model(token_tensor(ids, V), token_tensor(tgt, V))
    return model, ids, tgt, loss.item()


def traced_run(serial, layout, rc, p=2, overlap=False):
    model_s, ids, tgt, _ = serial
    m = LongContextGPTModel(TINY, context_parallel=p, layout=layout,
                            recompute=rc, mask_source=MS, serial=model_s)
    tracer = Tracer()
    with trace_scope(tracer):
        if overlap:
            with recompute_overlap_scope():
                loss = m(token_tensor(ids, V, world=p), token_tensor(tgt, V, world=p))
                loss.backward()
        else:
            loss = m(token_tensor(ids, V, world=p), token_tensor(tgt, V, world=p))
            loss.backward()
    return tracer, loss.item()


def comm_spans(tracer):
    return [s for s in from_tracer(tracer).spans if s.subsystem == "comm"]


class TestTracedVolumes:
    """The tracer's comm bytes reproduce the closed-form volumes exactly."""

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize(
        "rc", [Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL])
    def test_ulysses_bytes_exact(self, serial, rc, p):
        tracer, _ = traced_run(serial, "ulysses", rc, p=p)
        a2a = [s for s in comm_spans(tracer) if s.name == "all_to_all"]
        expected = TINY.num_layers * Ulysses.layer_bytes(TINY, 2, p)
        calls = 8 * TINY.num_layers
        if rc != Recompute.NONE:
            expected += TINY.num_layers * Ulysses.replay_bytes(TINY, 2, p)
            calls += 4 * TINY.num_layers
        assert len(a2a) == calls
        assert sum(s.args["bytes"] for s in a2a) == expected

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize(
        "rc", [Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL])
    def test_ring_bytes_exact(self, serial, rc, p):
        tracer, _ = traced_run(serial, "ring", rc, p=p)
        hops = [s for s in comm_spans(tracer) if "hop" in s.name]
        expected = TINY.num_layers * Ring.layer_bytes(TINY, 2, p)
        calls = 4 * (p - 1) * TINY.num_layers
        if rc != Recompute.NONE:
            expected += TINY.num_layers * Ring.replay_bytes(TINY, 2, p)
            calls += 2 * (p - 1) * TINY.num_layers
        assert len(hops) == calls
        assert sum(s.args["bytes"] for s in hops) == expected

    def test_ulysses_beats_sp_allgather(self, serial):
        """The headline scaling claim, asserted from traced bytes: the
        Ulysses per-rank volume is the SP all-gather volume scaled by
        2/p — O(s/p) versus O(s)."""
        tracer, _ = traced_run(serial, "ulysses", Recompute.NONE, p=4)
        a2a_bytes = sum(s.args["bytes"] for s in comm_spans(tracer)
                        if s.name == "all_to_all")
        sp_bytes = TINY.num_layers * sp_layer_bytes(TINY, 2, 4)
        assert a2a_bytes == sp_bytes * 2 / 4
        assert a2a_bytes < sp_bytes

    def test_volume_table(self):
        vols = layout_volumes(TINY, 2, 4)
        assert set(vols) == {"ulysses", "ring", "sp_allgather"}
        assert vols["ulysses"].bytes_per_layer == Ulysses.layer_bytes(TINY, 2, 4)
        assert vols["ulysses"].calls_per_layer == 8
        assert vols["ring"].calls_per_layer == 12
        assert vols["sp_allgather"].scaling == "O(sbh)"
        # degenerate single-rank group: no communication at all
        assert all(v.bytes_per_layer == 0 for v in layout_volumes(TINY, 2, 1).values())


#: A shape every group size below divides (s, a and h), at b = 3.
PINNED = ModelConfig(num_layers=2, hidden_size=192, num_heads=24,
                     seq_length=12288, vocab_size=64, name="pinned")

#: ``float.hex`` of each layout's closed forms on ``PINNED``, read off the
#: per-layout functions these classes replaced: layer bytes, replay bytes,
#: calls per layer, the chooser's seconds, the overlap model's per-segment
#: and always-exposed seconds under selective recompute, and the memory
#: groups (no recompute: the attention and mask groups; then the sum of
#: the groups under none, selective and full recompute).
CLOSED_FORMS = {
    ("ulysses", 1): ('0x0.0p+0', '0x0.0p+0', 0, '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.4451000000000p+35', '0x1.446c000000000p+33', '0x1.96cb000000000p+35', '0x1.cb00000000000p+27', '0x1.b000000000000p+23'),
    ("ulysses", 2): ('0x1.b000000000000p+25', '0x1.b000000000000p+24', 8, '0x1.0256efed62956p-12', '0x1.0256efed62956p-13', '0x1.0256efed62956p-11', '0x1.4451000000000p+34', '0x1.446c000000000p+32', '0x1.96cb000000000p+34', '0x1.cb00000000000p+26', '0x1.b000000000000p+22'),
    ("ulysses", 4): ('0x1.b000000000000p+24', '0x1.b000000000000p+23', 8, '0x1.5f0a8574b3831p-12', '0x1.5f0a8574b3831p-13', '0x1.5f0a8574b3831p-11', '0x1.4451000000000p+33', '0x1.446c000000000p+31', '0x1.96cb000000000p+33', '0x1.cb00000000000p+25', '0x1.b000000000000p+21'),
    ("ulysses", 6): ('0x1.2000000000000p+24', '0x1.2000000000000p+23', 8, '0x1.c13d7af462c9ep-12', '0x1.c13d7af462c9ep-13', '0x1.c13d7af462c9ep-11', '0x1.b06c000000000p+32', '0x1.b090000000000p+30', '0x1.0f32000000000p+33', '0x1.3200000000000p+25', '0x1.2000000000000p+21'),
    ("ulysses", 8): ('0x1.b000000000000p+23', '0x1.b000000000000p+22', 8, '0x1.157fca34c9e5ap-11', '0x1.157fca34c9e5ap-12', '0x1.157fca34c9e5ap-10', '0x1.4451000000000p+32', '0x1.446c000000000p+30', '0x1.96cb000000000p+32', '0x1.cb00000000000p+24', '0x1.b000000000000p+20'),
    ("ring", 1): ('0x0.0p+0', '0x0.0p+0', 0, '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.4451000000000p+35', '0x1.446c000000000p+33', '0x1.96cb000000000p+35', '0x1.cb00000000000p+27', '0x1.b000000000000p+23'),
    ("ring", 2): ('0x1.b000000000000p+24', '0x1.b000000000000p+23', 4, '0x1.654baf6404da0p-13', '0x1.654baf6404da0p-14', '0x1.654baf6404da0p-12', '0x1.4487000000000p+34', '0x1.446c000000000p+32', '0x1.9701000000000p+34', '0x1.cb00000000000p+26', '0x1.b000000000000p+22'),
    ("ring", 4): ('0x1.4400000000000p+25', '0x1.4400000000000p+24', 12, '0x1.208da86d719b7p-12', '0x1.838267e413e01p-13', '0x1.838267e413e01p-11', '0x1.44f3000000000p+33', '0x1.446c000000000p+31', '0x1.976d000000000p+33', '0x1.cb00000000000p+25', '0x1.b000000000000p+21'),
    ("ring", 6): ('0x1.6800000000000p+25', '0x1.6800000000000p+24', 20, '0x1.af71b8fb16e0cp-12', '0x1.19b15c21f79e2p-12', '0x1.19b15c21f79e2p-10', '0x1.b1d4000000000p+32', '0x1.b090000000000p+30', '0x1.0fe6000000000p+33', '0x1.3200000000000p+25', '0x1.2000000000000p+21'),
    ("ring", 8): ('0x1.7a00000000000p+25', '0x1.7a00000000000p+24', 28, '0x1.234a6cbea4d5ep-11', '0x1.6d81fc579e896p-12', '0x1.6d81fc579e896p-10', '0x1.45cb000000000p+32', '0x1.446c000000000p+30', '0x1.9845000000000p+32', '0x1.cb00000000000p+24', '0x1.b000000000000p+20'),
}


@pytest.mark.parametrize("name,p", sorted(CLOSED_FORMS))
def test_closed_forms_are_pinned(name, p):
    """Each layout's costs, as its class states them, bitwise: ``table-6``
    and the ``longctx`` bench preset see only p = 8 and p = 2, and at
    p = 2 ring's ``p - 1`` factor is 1."""
    cls, b = LAYOUTS[name], 3
    groups = {rc: cls.term_groups(PINNED, b, p, rc)
              for rc in (Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL)}
    segments, exposed = longctx_overlap_segments(PINNED, b, p, name,
                                                 Recompute.SELECTIVE)
    seconds = choose_context_layout(PINNED, b, p).seconds_per_layer[name]
    got = (cls.layer_bytes(PINNED, b, p).hex(),
           cls.replay_bytes(PINNED, b, p).hex(), cls.calls_per_layer(p),
           seconds.hex(), segments[0].comm_s.hex(), exposed.hex(),
           groups[Recompute.NONE]["attn_qkv_and_core"].hex(),
           groups[Recompute.NONE]["dropout_masks"].hex(),
           *(sum(g.values()).hex() for g in groups.values()))
    assert got == CLOSED_FORMS[name, p]


def test_unknown_layout_is_one_config_error():
    with pytest.raises(ConfigError, match="unknown context layout 'mesh'"):
        LAYOUTS["mesh"]
    with pytest.raises(ConfigError, match="unknown context layout"):
        longctx_overlap_report(TINY, 2, 2, "mesh", Recompute.FULL)


class TestOverlapAttribution:
    """Recompute-phase collectives land in the overlapped bucket under
    :func:`recompute_overlap_scope`, shrinking exposed comm — with the
    partition-sums-to-wall invariant intact and identical numerics."""

    @pytest.mark.parametrize("layout", ["ulysses", "ring"])
    def test_exposed_bucket_shrinks(self, serial, layout):
        t_off, loss_off = traced_run(serial, layout, Recompute.FULL)
        t_on, loss_on = traced_run(serial, layout, Recompute.FULL, overlap=True)
        assert loss_on == loss_off  # overlap is pure attribution, not math
        att_off = attribute(from_tracer(t_off))
        att_on = attribute(from_tracer(t_on))
        assert att_off.totals["overlapped_comm"] == 0.0
        assert att_on.totals["overlapped_comm"] > 0.0
        assert att_on.totals["exposed_comm"] < att_off.totals["exposed_comm"]
        # total comm is conserved; only its bucket changes
        total_off = (att_off.totals["exposed_comm"]
                     + att_off.totals["overlapped_comm"])
        total_on = (att_on.totals["exposed_comm"]
                    + att_on.totals["overlapped_comm"])
        assert total_on == pytest.approx(total_off, rel=1e-9)
        for att in (att_off, att_on):
            assert att.coverage_error < 1e-9

    def test_replay_fraction_marked(self, serial):
        """With FULL recompute exactly the 4-of-12 replayed all-to-alls
        per layer are overlapped."""
        tracer, _ = traced_run(serial, "ulysses", Recompute.FULL, overlap=True)
        a2a = [s for s in comm_spans(tracer) if s.name == "all_to_all"]
        marked = [s for s in a2a if s.args.get("overlapped")]
        assert len(a2a) == 12 * TINY.num_layers
        assert len(marked) == 4 * TINY.num_layers

    def test_no_overlap_without_recompute(self, serial):
        """The scope marks only recompute-phase collectives: with no
        checkpointing nothing replays, so nothing is overlapped."""
        tracer, _ = traced_run(serial, "ulysses", Recompute.NONE, overlap=True)
        assert all(not s.args.get("overlapped") for s in comm_spans(tracer))


class TestMemoryDrift:
    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize(
        "rc", [Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL])
    @pytest.mark.parametrize("layout", ["ulysses", "ring"])
    @pytest.mark.parametrize("model,b,p", [(TINY, 2, 2), (TINY, 3, 4), (WIDE, 2, 2)])
    def test_zero_drift(self, model, b, p, layout, rc, fused):
        if layout == "ulysses" and model.num_heads % p:
            pytest.skip("ulysses needs head-divisible groups")
        for drift in layer_term_drift(context_layout(layout, p), model, b, rc,
                                      fused=fused):
            assert_zero_drift(drift)


class TestMappings:
    def test_a2a_round_trip_identity(self):
        group = ProcessGroup(2, scope="cp")
        shards = [rng.standard_normal((4, 2, 8)) for _ in range(2)]
        x = Tensor([s.copy() for s in shards], requires_grad=True,
                   layout="shard(dim=0)")
        back = all_to_all_head_to_seq(
            all_to_all_seq_to_head(x, group), group)
        for orig, got in zip(shards, back.shards):
            np.testing.assert_array_equal(orig, np.asarray(got))

    def test_ring_gather_concatenates_and_backprops(self):
        group = ProcessGroup(2, scope="cp")
        shards = [rng.standard_normal((3, 2)) for _ in range(2)]
        x = Tensor([s.copy() for s in shards], requires_grad=True,
                   layout="shard(dim=0)")
        full = ring_gather(x, group, axis=0)
        for got in full.shards:
            np.testing.assert_array_equal(
                np.concatenate(shards, axis=0), np.asarray(got))
        F.sum_all(F.scale(full, 2.0)).backward()
        # every rank consumed each chunk once; grad sums over consumers
        for g in x.grad:
            np.testing.assert_allclose(np.asarray(g),
                                       2.0 * 2 * np.ones((3, 2)), atol=1e-12)


class TestOffsetCausalMask:
    def test_matches_serial_rows(self):
        full = rng.standard_normal((6, 6))
        serial = np.asarray(F.causal_mask(from_numpy(full)).shards[0])
        x = Tensor([full[:3].copy(), full[3:].copy()], layout="shard(dim=0)")
        masked = F.offset_causal_mask(x)
        np.testing.assert_array_equal(
            np.concatenate([np.asarray(s) for s in masked.shards]), serial)

    def test_single_rank_equals_causal_mask(self):
        full = rng.standard_normal((2, 5, 5))
        a = np.asarray(F.causal_mask(from_numpy(full)).shards[0])
        b = np.asarray(F.offset_causal_mask(from_numpy(full)).shards[0])
        np.testing.assert_array_equal(a, b)

    def test_rejects_wrong_panel_shape(self):
        x = Tensor([np.ones((3, 5)), np.ones((3, 5))], layout="shard(dim=0)")
        with pytest.raises(ShapeError):
            F.offset_causal_mask(x)

    def test_grad_zeroed_outside_tril(self):
        x = Tensor([np.ones((2, 4)), np.ones((2, 4))], requires_grad=True,
                   layout="shard(dim=0)")
        F.sum_all(F.offset_causal_mask(x)).backward()
        np.testing.assert_array_equal(
            np.asarray(x.grad[0]), np.tril(np.ones((2, 4)), k=0))
        np.testing.assert_array_equal(
            np.asarray(x.grad[1]), np.tril(np.ones((2, 4)), k=2))


class TestRingFusedOp:
    @pytest.mark.parametrize("mask_source", [None, MS])
    def test_fused_matches_unfused_bitwise(self, mask_source):
        p_drop = 0.0 if mask_source is None else 0.1
        shards = [rng.standard_normal((2, 3, 2, 4)) for _ in range(2)]
        tag = "ringtest.softmax_dropout"

        x1 = Tensor([s.copy() for s in shards], requires_grad=True)
        fused = scale_mask_softmax_dropout(
            x1, 0.5, p_drop, mode="sharded", shard_axis=2, tag=tag,
            mask_source=mask_source, ring=True)
        x2 = Tensor([s.copy() for s in shards], requires_grad=True)
        dropout = Dropout(p_drop, mode="sharded", shard_axis=2, tag=tag,
                          mask_source=mask_source)
        unfused = dropout(F.softmax(F.offset_causal_mask(F.scale(x2, 0.5))))

        for a, b in zip(fused.shards, unfused.shards):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        F.sum_all(F.mul(fused, fused)).backward()
        F.sum_all(F.mul(unfused, unfused)).backward()
        for a, b in zip(x1.grad, x2.grad):
            np.testing.assert_allclose(np.asarray(a), np.asarray(b),
                                       atol=1e-12)

    def test_ring_rejects_square_only_shapes(self):
        x = Tensor([np.ones((2, 3, 2, 5)), np.ones((2, 3, 2, 5))])
        with pytest.raises(ShapeError):
            scale_mask_softmax_dropout(x, 1.0, 0.0, ring=True)


class TestOverlapScheduler:
    def test_segment_accounting(self):
        segs = [OverlapSegment("a", recompute_s=2.0, comm_s=1.0),
                OverlapSegment("b", recompute_s=0.5, comm_s=2.0)]
        r = schedule_overlap(segs, always_exposed_s=1.0)
        assert r.recompute_s == 2.5
        assert r.overlappable_comm_s == 3.0
        assert r.hidden_comm_s == 1.0 + 0.5
        assert r.exposed_serial_s == 4.0
        assert r.exposed_overlapped_s == 1.0 + 0.0 + 1.5
        assert r.serial_time_s == 6.5
        assert r.overlapped_time_s == 1.0 + 2.0 + 2.0
        assert r.exposed_reduction == pytest.approx(4.0 / 2.5)
        assert r.speedup == pytest.approx(6.5 / 5.0)

    def test_fully_hidden_and_degenerate(self):
        r = schedule_overlap([OverlapSegment("a", 2.0, 1.0)])
        assert r.exposed_overlapped_s == 0.0
        assert r.exposed_reduction == float("inf")
        assert schedule_overlap([]).exposed_reduction == 1.0

    def test_rejects_negative_times(self):
        with pytest.raises(PlanningError):
            schedule_overlap([OverlapSegment("a", -1.0, 1.0)])
        with pytest.raises(PlanningError):
            schedule_overlap([], always_exposed_s=-1.0)

    @pytest.mark.parametrize("layout", ["ulysses", "ring"])
    @pytest.mark.parametrize("rc", [Recompute.SELECTIVE, Recompute.FULL])
    def test_longctx_report_meets_floor(self, layout, rc):
        r = longctx_overlap_report(TINY, 2, 2, layout, rc)
        assert r.exposed_reduction >= 1.2
        assert r.speedup > 1.0
        assert r.overlapped_time_s < r.serial_time_s

    def test_no_recompute_nothing_to_hide(self):
        r = longctx_overlap_report(TINY, 2, 2, "ulysses", Recompute.NONE)
        assert r.overlappable_comm_s == 0.0
        assert r.exposed_reduction == 1.0

    def test_single_rank_no_comm(self):
        r = longctx_overlap_report(TINY, 2, 1, "ulysses", Recompute.FULL)
        assert r.exposed_serial_s == 0.0
        assert r.speedup == 1.0


class TestModelValidation:
    def test_unknown_layout(self):
        with pytest.raises(ConfigError):
            LongContextGPTModel(TINY, 2, layout="mesh", abstract=True)

    def test_sequence_not_divisible(self):
        with pytest.raises(ConfigError):
            LongContextGPTModel(TINY, 3, abstract=True)  # 16 % 3 != 0

    def test_ulysses_heads_not_divisible(self):
        with pytest.raises(ConfigError):
            LongContextGPTModel(TINY, 8, layout="ulysses", abstract=True)

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize(
        "rc", [Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL])
    def test_a_new_layout_is_one_class(self, serial, rc, fused):
        """docs/extending.md: ring attention's dataflow with an all-gather
        instead of hops is six lines over the shared block stack, and
        bitwise equal to serial like the shipped layouts."""
        from repro.longctx import ContextParallel
        from repro.parallel import gather_from_sequence_parallel_region as g

        class AllGatherKV(ContextParallel):
            core_dropout = ("sharded", 2)
            row_blocked_scores = True

            def enter_core(self, q, k, v):
                return q, g(k, self.group), g(v, self.group)

        model_s, ids, tgt, _ = serial
        reference = GPTModel(TINY, seed=4, mask_source=MS, recompute=rc,
                             fused=fused)
        m = GPTModel(TINY, mask_source=MS, serial=model_s, recompute=rc,
                     fused=fused,
                     layout=AllGatherKV(ProcessGroup(4, scope="cp")))
        assert_parallel_equivalent(reference, m, ids, tgt, atol=1e-12)

    def test_ring_allows_head_indivisible_groups(self, serial):
        # 8-way ring on 4 heads: ring shards sequence only.
        model_s, ids, tgt, loss_s = serial
        m = LongContextGPTModel(TINY, 8, layout="ring", mask_source=MS,
                                serial=model_s)
        loss = m(token_tensor(ids, V, world=8), token_tensor(tgt, V, world=8))
        assert loss.item() == loss_s
