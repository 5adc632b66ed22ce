"""Extensions: the paper's rejected sharded-checkpoint variant
(FULL_SHARDED), the interleaved pipelined executor, microbatch-level
recomputation in the real executor, and the Figure 10 timeline."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ConfigError
from repro.layers import GPTModel, Recompute, token_tensor
from repro.memory_model import in_flight_microbatches, per_layer_activation_bytes
from repro.parallel import ParallelGPTModel
from repro.pipeline_sim import TimelineCosts, figure10, render_timeline, schedule_table
from repro.tensor import MemoryTracker, OpLog, instrument
from repro.tensor.functions import MaskSource
from repro.tensor.oplog import Phase

from helpers import random_tokens

CFG = ModelConfig(num_layers=4, hidden_size=32, num_heads=4,
                  seq_length=16, vocab_size=32)
V = CFG.vocab_size  # token ids lie in [0, V)
MS = MaskSource(seed=21, keep_prob=0.9)
rng = np.random.default_rng(23)


@pytest.fixture(scope="module")
def serial():
    model = GPTModel(CFG, seed=11, mask_source=MS)
    ids = random_tokens(rng, CFG.vocab_size, CFG.seq_length, 4)
    tgt = random_tokens(rng, CFG.vocab_size, CFG.seq_length, 4)
    loss = model(token_tensor(ids, V), token_tensor(tgt, V))
    loss.backward()
    return model, ids, tgt, loss.item()


class TestFullShardedRecompute:
    """Section 5's "further reduced to 2sbhL/t ... extra all-gather per
    layer" variant — implemented and ablated, as the paper describes."""

    def test_numerics_match_serial(self, serial):
        model_s, ids, tgt, loss_s = serial
        m = ParallelGPTModel(CFG, tensor_parallel=4, sequence_parallel=False,
                             recompute=Recompute.FULL_SHARDED,
                             mask_source=MS, serial=model_s)
        loss = m(token_tensor(ids, V, world=4), token_tensor(tgt, V, world=4))
        loss.backward()
        m.finish_grad_sync()
        assert loss.item() == pytest.approx(loss_s, abs=1e-9)
        g = np.concatenate([np.asarray(x) for x in m.layers[0].mlp.fc1.weight.grad],
                           axis=1)
        np.testing.assert_allclose(
            g, np.asarray(model_s.layers[0].mlp.fc1.weight.grad[0]), atol=1e-8)

    def test_memory_is_2sbh_over_t(self, serial):
        model_s, ids, _, _ = serial
        m = ParallelGPTModel(CFG, tensor_parallel=4,
                             recompute=Recompute.FULL_SHARDED,
                             mask_source=MS, serial=model_s)
        mt = MemoryTracker()
        with instrument(memory=mt):
            x = m.embedding(token_tensor(ids, V, world=4))
            before = mt.live_bytes(0)
            m.layers[0](x)
            per_layer = mt.live_bytes(0) - before
        expected = per_layer_activation_bytes(CFG, 4, 4, False,
                                              Recompute.FULL_SHARDED)
        assert per_layer == pytest.approx(expected, rel=1e-9)
        # a quarter of the plain FULL footprint
        plain = per_layer_activation_bytes(CFG, 4, 4, False, Recompute.FULL)
        assert expected == pytest.approx(plain / 4)

    def test_extra_all_gather_per_layer_in_recompute(self, serial):
        model_s, ids, tgt, _ = serial
        m = ParallelGPTModel(CFG, tensor_parallel=4,
                             recompute=Recompute.FULL_SHARDED,
                             mask_source=MS, serial=model_s)
        log = OpLog()
        with instrument(oplog=log):
            loss = m(token_tensor(ids, V, world=4), token_tensor(tgt, V, world=4))
            loss.backward()
        gathers = [r for r in log.comm_records(Phase.RECOMPUTE)
                   if r.name == "gather_slice"]
        assert len(gathers) == CFG.num_layers

    def test_plain_full_has_no_extra_gather(self, serial):
        model_s, ids, tgt, _ = serial
        m = ParallelGPTModel(CFG, tensor_parallel=4, recompute=Recompute.FULL,
                             mask_source=MS, serial=model_s)
        log = OpLog()
        with instrument(oplog=log):
            loss = m(token_tensor(ids, V, world=4), token_tensor(tgt, V, world=4))
            loss.backward()
        assert not [r for r in log.comm_records() if r.name == "gather_slice"]

    def test_with_sp_degenerates_to_full(self, serial):
        model_s, ids, tgt, loss_s = serial
        m = ParallelGPTModel(CFG, tensor_parallel=4, sequence_parallel=True,
                             recompute=Recompute.FULL_SHARDED,
                             mask_source=MS, serial=model_s)
        loss = m(token_tensor(ids, V, world=4), token_tensor(tgt, V, world=4))
        assert loss.item() == pytest.approx(loss_s, abs=1e-9)

    def test_serial_t1_equals_full(self):
        a = per_layer_activation_bytes(CFG, 2, 1, False, Recompute.FULL_SHARDED)
        b = per_layer_activation_bytes(CFG, 2, 1, False, Recompute.FULL)
        assert a == b


class TestInterleavedExecutor:
    def test_matches_grad_accumulation(self, serial):
        from repro.training import PipelinedGPT, split_microbatches
        model_s, ids, tgt, _ = serial
        ref = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                               mask_source=MS, serial=model_s)
        inter = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                                 mask_source=MS, serial=model_s)
        n_mb = 4
        for mb_ids, mb_tgt in split_microbatches(ids, tgt, n_mb):
            loss = ref(token_tensor(mb_ids, V, world=2), token_tensor(mb_tgt, V, world=2))
            loss.backward([np.asarray(1.0 / n_mb)] * 2)
        ref.finish_grad_sync()

        pipe = PipelinedGPT(inter, pipeline_parallel=2, interleave_stages=2)
        pipe.train_step(ids, tgt, num_microbatches=n_mb)
        for (n1, p1), (n2, p2) in zip(ref.named_parameters(),
                                      inter.named_parameters()):
            np.testing.assert_allclose(np.asarray(p1.grad[0]),
                                       np.asarray(p2.grad[0]), atol=1e-9,
                                       err_msg=n1)

    def test_interleaving_raises_first_stage_memory(self, serial):
        """The paper's (1 + (p-1)/(pm)) factor, measured from live tapes."""
        from repro.training import PipelinedGPT
        model_s, _, _, _ = serial
        p, n_mb = 2, 8
        ids = random_tokens(rng, CFG.vocab_size, CFG.seq_length, n_mb)
        tgt = random_tokens(rng, CFG.vocab_size, CFG.seq_length, n_mb)

        def peak(m_stages):
            model = ParallelGPTModel(CFG, tensor_parallel=2,
                                     sequence_parallel=True,
                                     recompute=Recompute.SELECTIVE,
                                     mask_source=MS, serial=model_s)
            pipe = PipelinedGPT(model, p, interleave_stages=m_stages)
            return pipe.train_step(ids, tgt, n_mb).peak_stage_bytes[0]

        plain, interleaved = peak(1), peak(2)
        # m=1 stage 0 holds p microbatches of L/p layers = L layers' worth;
        # m=2 holds (pm + p - 1)/m microbatches' worth = L(1 + (p-1)/(pm)).
        assert interleaved > plain


class TestMicrobatchWindowExecutor:
    def test_policy_does_not_change_numerics(self, serial):
        from repro.training import PipelinedGPT
        model_s, ids, tgt, _ = serial

        def run(slots):
            model = ParallelGPTModel(CFG, tensor_parallel=2,
                                     sequence_parallel=True,
                                     recompute=Recompute.FULL,
                                     mask_source=MS, serial=model_s)
            pipe = PipelinedGPT(model, pipeline_parallel=2)
            res = pipe.train_step(ids, tgt, 4, full_storage_slots=slots)
            return res, model

        base, m1 = run(None)
        windowed, m2 = run([1, 1])
        assert windowed.loss == pytest.approx(base.loss, abs=1e-10)
        np.testing.assert_allclose(
            np.asarray(m1.layers[0].mlp.fc1.weight.grad[0]),
            np.asarray(m2.layers[0].mlp.fc1.weight.grad[0]), atol=1e-9)

    def test_window_stores_expected_fraction(self, serial):
        """With k slots out of w in flight, ~k/w of microbatches store full
        (the moving window of Figure 10.b)."""
        from repro.training import PipelinedGPT
        model_s, ids, tgt, _ = serial
        model = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                                 recompute=Recompute.FULL,
                                 mask_source=MS, serial=model_s)
        pipe = PipelinedGPT(model, pipeline_parallel=2)
        res = pipe.train_step(ids, tgt, 4, full_storage_slots=[1, 1])
        # rank 1 (last stage, window 1): every microbatch can store full.
        assert res.microbatches_stored_full[1] == 4
        # rank 0 (window 2, 1 slot): roughly half.
        assert 1 <= res.microbatches_stored_full[0] <= 3

    def test_window_raises_memory_vs_all_checkpointed(self, serial):
        from repro.training import PipelinedGPT
        model_s, ids, tgt, _ = serial

        def peak(slots):
            model = ParallelGPTModel(CFG, tensor_parallel=2,
                                     sequence_parallel=True,
                                     recompute=Recompute.FULL,
                                     mask_source=MS, serial=model_s)
            pipe = PipelinedGPT(model, pipeline_parallel=2)
            return pipe.train_step(ids, tgt, 4,
                                   full_storage_slots=slots).peak_stage_bytes

        all_ckpt = peak(None)
        windowed = peak([2, 1])
        assert windowed[0] > all_ckpt[0]
        assert windowed[1] > all_ckpt[1]


class TestFigure10Timeline:
    def test_renders_both_panels(self):
        text = figure10()
        assert "(a) baseline" in text and "(b) microbatch-level" in text
        assert "rank 0" in text and "rank 3" in text

    def test_baseline_has_recompute_everywhere(self):
        sched = schedule_table(4, 6)
        text = render_timeline(sched, TimelineCosts())
        assert "R" in text and "f" not in text.split("]")[1]

    def test_window_removes_recompute_for_stored_microbatches(self):
        sched = schedule_table(4, 6)
        base = render_timeline(sched, TimelineCosts())
        windowed = render_timeline(sched, TimelineCosts(full_storage_slots=1))
        assert windowed.count("R") < base.count("R")
        assert "f" in windowed

    def test_last_rank_with_one_slot_never_recomputes(self):
        """Window size on the last rank is 1: a single slot removes all
        recomputation there — Appendix C's observation."""
        sched = schedule_table(4, 6)
        text = render_timeline(sched, TimelineCosts(full_storage_slots=1))
        last = [l for l in text.splitlines() if l.startswith("rank 3")][0]
        assert "R" not in last
        assert "F" not in last  # every microbatch stored full

    def test_all_microbatches_covered(self):
        sched = schedule_table(3, 5)
        text = render_timeline(sched, TimelineCosts())
        for rank in range(3):
            line = [l for l in text.splitlines() if l.startswith(f"rank {rank}")][0]
            assert line.count("B") >= 5  # one backward segment per microbatch

    @pytest.mark.parametrize("costs", [
        dict(forward=0.0, recompute=0.0, backward=0.0), dict(forward=-1.0),
        dict(backward=0.0), dict(recompute=-0.5), dict(full_storage_slots=-1),
    ], ids=["all-zero", "negative-forward", "zero-backward",
            "negative-recompute", "negative-slots"])
    def test_invalid_costs_are_a_config_error(self, costs):
        # all-zero costs would divide by a zero cell width
        with pytest.raises(ConfigError, match="timeline costs need"):
            render_timeline(schedule_table(2, 3), TimelineCosts(**costs))

    def test_zero_recompute_drops_the_recompute_segment(self):
        text = render_timeline(schedule_table(2, 3),
                               TimelineCosts(recompute=0.0))
        assert "R" not in text.split("]")[1] and "B" in text


class TestChromeTrace:
    def test_events_cover_all_ops(self, tmp_path):
        from repro.observability import schedule_events
        from repro.observability.perfetto import SUBSYSTEM_PIDS
        from repro.pipeline_sim import TimelineCosts
        p, n = 3, 4
        sched = schedule_table(p, n)
        costs = TimelineCosts()
        events = schedule_events(sched, costs)
        durations = [e for e in events if e["ph"] == "X"]
        # every F has F+R+B segments; every rank gets a metadata row
        assert len(durations) == p * n * 3
        assert len([e for e in events if e["name"] == "thread_name"]) == p
        assert {e["pid"] for e in events} == {SUBSYSTEM_PIDS["pipeline"]}
        # durations are non-negative and rows are valid ranks
        assert all(e["dur"] > 0 and 0 <= e["tid"] < p for e in durations)

    def test_export_writes_valid_json(self, tmp_path):
        import json
        from repro.observability import (
            Tracer, export_trace, schedule_events, validate_trace_file,
        )
        from repro.pipeline_sim import TimelineCosts
        path = str(tmp_path / "trace.json")
        n_events = export_trace(Tracer(), path, extra_events=schedule_events(
            schedule_table(2, 3), TimelineCosts()))
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) == n_events
        assert validate_trace_file(path) == n_events

    def test_window_removes_recompute_events(self):
        from repro.observability import schedule_events
        from repro.pipeline_sim import TimelineCosts
        sched = schedule_table(4, 6)
        base = schedule_events(sched, TimelineCosts())
        windowed = schedule_events(
            sched, TimelineCosts(full_storage_slots=1))
        n_rec = lambda evs: sum(1 for e in evs if e["name"] == "recompute")
        assert n_rec(windowed) < n_rec(base)


class TestFullShardedTimingRejection:
    """Why the paper rejects the sharded-checkpoint variant: the extra
    all-gather per layer makes its recomputation *slower* than plain full
    recomputation, for a memory saving full recomputation mostly already
    delivered."""

    def test_recompute_time_exceeds_plain_full(self):
        from repro.config import PAPER_CONFIGS
        from repro.perf_model import layer_times
        m22 = PAPER_CONFIGS["22B"].model
        plain = layer_times(m22, 4, 8, recompute=Recompute.FULL)
        sharded = layer_times(m22, 4, 8, recompute=Recompute.FULL_SHARDED)
        assert sharded.recompute > plain.recompute
        assert sharded.combined > plain.combined

    def test_memory_saving_vs_time_tradeoff(self):
        from repro.config import PAPER_CONFIGS
        m22 = PAPER_CONFIGS["22B"].model
        plain = per_layer_activation_bytes(m22, 4, 8, False, Recompute.FULL)
        sharded = per_layer_activation_bytes(m22, 4, 8, False,
                                             Recompute.FULL_SHARDED)
        assert sharded == plain / 8  # 2sbh/t vs 2sbh
