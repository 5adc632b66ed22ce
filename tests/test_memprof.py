"""Activation ledger: per-tensor timeline, exact peak attribution,
save-vs-recompute pricing, counter tracks and fragmentation surfacing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.process_group import ProcessGroup
from repro.config import PAPER_CONFIGS, ModelConfig
from repro.errors import ConfigError
from repro.layers import GPTModel
from repro.layers.transformer import Recompute
from repro.longctx.layout import context_layout
from repro.observability import (
    MemProfiler,
    check_peak_attribution,
    counter_events,
    flamegraph,
    frontier,
    frontier_by_category,
    layer_term_drift,
    ledger_document,
    memory_term_drift,
    paged_kv_fragmentation,
    peak_attribution,
    profile_layer,
    selective_recompute_dominates,
)
from repro.observability.analysis import term_drifts
from repro.observability.memprof import (
    ATTENTION_CORE_CATEGORIES,
    GEMM_ANCHORED_CATEGORIES,
)
from repro.observability.perfetto import SUBSYSTEM_PIDS, validate_trace_events
from repro.parallel import ParallelGPTModel, TensorParallel
from repro.serving import (
    ContinuousBatchingScheduler,
    DecodeEngine,
    PagedKVCache,
    ServingPerfModel,
    generate_requests,
)
from repro.tensor import FP16, MemoryTracker, Tensor
from repro.tensor.backend import AbstractArray

TINY = ModelConfig(num_layers=2, hidden_size=16, num_heads=2,
                   seq_length=16, vocab_size=32, name="memprof-tiny")


class _Tagged:
    def __init__(self, tag):
        self.tag = tag


class TestLedgerDedup:
    def test_shared_qkv_input_charged_once_three_paths(self):
        """The LN output feeding Q, K and V is one buffer: the tracker
        charges it once, the ledger records all three referencing
        module paths and the full refcount history."""
        prof = MemProfiler()
        ledger = prof.ledger()
        shared = np.zeros(8)
        for branch in ("layer0.attn.wq", "layer0.attn.wk",
                       "layer0.attn.wv"):
            prof.push_module(_Tagged(branch))
            ledger.save(0, shared, FP16, category="attn_qkv_input")
            prof.pop_module()
        assert ledger.live_bytes(0) == 16  # charged once, not thrice
        assert len(ledger.entries) == 1
        entry = ledger.entries[0]
        assert entry.refcount_history == [1, 2, 3]
        assert entry.paths == ["layer0.attn.wq", "layer0.attn.wk",
                               "layer0.attn.wv"]
        kinds = [e.kind for e in ledger.timeline]
        assert kinds == ["save", "ref", "ref"]

        for expected in ([1, 2, 3, 2], [1, 2, 3, 2, 1], [1, 2, 3, 2, 1, 0]):
            ledger.release(0, shared)
            assert entry.refcount_history == expected
        assert not entry.alive
        assert ledger.live_bytes(0) == 0
        assert ledger.live_entry_bytes(0) == 0
        assert [e.kind for e in ledger.timeline[-3:]] == \
            ["unref", "unref", "free"]

    def test_parameters_never_enter_the_ledger(self):
        prof = MemProfiler()
        ledger = prof.ledger()
        never_saved = np.zeros(4)
        ledger.release(0, never_saved)  # a parameter: tracker no-op
        assert ledger.entries == [] and ledger.timeline == []


class TestFuzzLedgerMirrorsTracker:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(0, 5),    # buffer index
                              st.integers(0, 2),    # rank
                              st.integers(0, 3)),   # category index
                    max_size=60))
    def test_live_bytes_identity_at_every_event(self, ops):
        """After *every* save/release the ledger's open entries sum to
        exactly the tracker's live bytes, per rank — the ledger is a
        pure observer of the same stream."""
        cats = ("softmax_output", "dropout_mask", "gelu_input", "other")
        pool = [np.zeros(n + 1) for n in range(6)]
        prof = MemProfiler()
        ledger = prof.ledger()
        for is_save, buf, rank, cat in ops:
            if is_save:
                ledger.save(rank, pool[buf], FP16, category=cats[cat])
            else:
                ledger.release(rank, pool[buf])
            for r in (0, 1, 2):
                assert ledger.live_entry_bytes(r) == ledger.live_bytes(r)
            if ledger.timeline:
                last = ledger.timeline[-1]
                assert last.live_bytes == ledger.live_bytes(last.rank)
        # peak attribution stays bitwise-exact under arbitrary churn
        for r in ledger.ranks():
            att = peak_attribution(ledger, r)
            assert att.exact
            assert sum(att.by_path.values()) == att.peak_bytes


def _profiled_checks(layout, recompute, fused):
    """Profile ``layout``'s layer, check its peak attribution, and hold each
    rank's term-group bytes at the peak to the plain tracker's at the end
    of forward: two observers of the one memory oracle."""
    _, ledger = profile_layer(layout, TINY, 2, recompute, fused)
    checks = check_peak_attribution(ledger, layout, TINY, 2, recompute)
    at_peak = term_drifts(layout, TINY, 2, recompute,
                          [peak_attribution(ledger, c.rank).by_category
                           for c in checks])
    tracked = layer_term_drift(layout, TINY, 2, recompute, fused)
    assert len(checks) == len(tracked) == layout.group.size
    assert [d.measured for d in at_peak] == [d.measured for d in tracked]
    return checks


class TestExactness:
    @pytest.mark.parametrize("tp,sp", [(1, False), (2, False), (2, True)])
    @pytest.mark.parametrize("recompute",
                             [Recompute.NONE, Recompute.SELECTIVE,
                              Recompute.FULL])
    def test_peak_attribution_bitwise_exact(self, tp, sp, recompute):
        for fused in (False, True):
            checks = _profiled_checks(TensorParallel(ProcessGroup(tp), sp),
                                      recompute, fused)
            assert len(checks) == tp
            for c in checks:
                assert c.exact, (tp, sp, recompute, fused, c)
                assert c.term_drift_total == 0.0

    @pytest.mark.parametrize("recompute",
                             [Recompute.NONE, Recompute.SELECTIVE,
                              Recompute.FULL])
    @pytest.mark.parametrize("layout", ["ulysses", "ring"])
    def test_context_layout_peak_attribution_exact(self, layout, recompute):
        for fused in (False, True):
            for c in _profiled_checks(context_layout(layout, 2), recompute,
                                      fused):
                assert c.exact, (layout, recompute, fused, c)
                assert c.term_drift_total == 0.0

    @pytest.mark.parametrize("observer",
                             ["tensor_parallel", "context_parallel",
                              "peak_attribution"])
    @pytest.mark.parametrize("b", [0, -1])
    def test_microbatch_below_one_is_a_config_error(self, b, observer):
        """An empty layer measures zero bytes against a zero closed form:
        every observer refuses it rather than pass it."""
        layout = TensorParallel(ProcessGroup(2), True)
        observe = {
            "tensor_parallel": lambda: memory_term_drift(
                TINY, b, 2, True, Recompute.NONE),
            "context_parallel": lambda: layer_term_drift(
                context_layout("ring", 2), TINY, b, Recompute.NONE),
            "peak_attribution": lambda: check_peak_attribution(
                profile_layer(layout, TINY, b, Recompute.NONE)[1], layout,
                TINY, b, Recompute.NONE),
        }[observer]
        with pytest.raises(ConfigError, match="microbatch_size must be >= 1"):
            observe()

    def test_profiled_layer_forwards_its_layer_once(self, monkeypatch):
        """The memprofile scenario checks the ledger it profiled: one
        abstract layer is built and forwarded, not one per observer."""
        import repro.layers.transformer as transformer
        from repro import scenarios

        built = []
        real = transformer.abstract_layer

        def counting(*args, **kwargs):
            built.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(transformer, "abstract_layer", counting)
        report = scenarios.profiled_layer(config="tiny", tp=2,
                                          sequence_parallel=True, fused=True)
        assert len(built) == 1
        assert report.checks and all(c.exact for c in report.checks)

    def test_watermark_records_composition_at_crossing(self):
        mt = MemoryTracker()
        a, b = np.zeros(10), np.zeros(20)
        mt.save(0, a, FP16, category="softmax_output")
        mt.save(0, b, FP16, category="dropout_mask")
        events = mt.watermark_events(0)
        assert [w.peak_bytes for w in events] == [20, 60]
        assert events[-1].by_category == {"softmax_output": 20,
                                          "dropout_mask": 40}
        for w in events:
            assert sum(w.by_category.values()) == w.live_bytes


class TestFrontier:
    @pytest.fixture(scope="class")
    def profiled_22b(self):
        return profile_layer(TensorParallel(ProcessGroup(2), True),
                             PAPER_CONFIGS["22B"].model, 1, Recompute.NONE)

    def test_softmax_and_dropout_dominate_at_paper_scale(self, profiled_22b):
        prof, ledger = profiled_22b
        by_cat = frontier_by_category(frontier(prof, ledger, 0))
        assert selective_recompute_dominates(by_cat)
        floor = min(by_cat[c]["bytes_per_recompute_s"]
                    for c in ("softmax_output", "dropout_mask"))
        for cat in GEMM_ANCHORED_CATEGORIES:
            if cat in by_cat and by_cat[cat]["bytes_per_recompute_s"]:
                assert floor > by_cat[cat]["bytes_per_recompute_s"], cat
        core = sum(by_cat[c]["nbytes"] for c in ATTENTION_CORE_CATEGORIES
                   if c in by_cat)
        rest = sum(agg["nbytes"] for c, agg in by_cat.items()
                   if c not in ATTENTION_CORE_CATEGORIES)
        assert core > rest  # the O(a*s^2) terms hold the peak's majority

    def test_rows_sorted_best_candidate_first(self, profiled_22b):
        prof, ledger = profiled_22b
        rows = frontier(prof, ledger, 0)
        scores = [r["bytes_per_recompute_s"] for r in rows
                  if r["bytes_per_recompute_s"] is not None]
        assert scores == sorted(scores, reverse=True)
        priced = [r["must_keep"] for r in rows]
        assert priced == sorted(priced)  # must-keep rows sort last

    def test_ledger_document_is_canonical(self, profiled_22b):
        from repro.observability.serialize import dumps_json
        prof, ledger = profiled_22b
        doc = ledger_document(prof, ledger)
        assert doc["peak"]["0"]["exact"]
        assert doc["frontier"]
        assert len(doc["entries"]) == len(ledger.entries)
        assert dumps_json(doc) == dumps_json(ledger_document(prof, ledger))


class TestProducerGraph:
    def _tensor(self):
        return Tensor([AbstractArray((2, 2))], requires_grad=True)

    def test_pass_through_keeps_original_creator(self):
        """An op that returns its input shard unchanged (the f/f-bar
        collectives at t=1) must not overwrite the producing kernel —
        severing it would zero every recompute chain through it."""
        prof = MemProfiler()
        x, y = self._tensor(), self._tensor()
        frame = prof.begin_op("matmul", [x])
        prof.end_op()
        prof.register_outputs(frame, [x], [y])
        assert prof.producers[id(y.shards[0])].op == "matmul"

        ident = prof.begin_op("copy_to_tensor_parallel_region", [y])
        prof.end_op()
        prof.register_outputs(ident, [y], [y])  # same shards out as in
        assert prof.producers[id(y.shards[0])].op == "matmul"

    def test_frame_input_prices_as_must_keep(self):
        prof = MemProfiler()
        ledger = prof.ledger()
        x = self._tensor()
        frame = prof.begin_op("layernorm", [x])
        ledger.save(0, x.shards[0], FP16, category="layernorm_input")
        prof.end_op()
        entry = ledger.entries[0]
        assert entry.frame_input
        assert prof.recompute_seconds(ledger, entry) is None


    def test_frontier_independent_of_process_memory_layout(self):
        """Provenance keys must not be recyclable: ``id()`` of a freed
        intermediate is reissued to a later shard, which spliced unrelated
        producer chains together and priced the frontier by whatever the
        heap happened to look like.  The size of the environment block
        shifts the allocator's free lists, so the same invocation under
        differently sized blocks is the cross-process probe."""
        import os
        import subprocess
        import sys

        import repro

        argv = [sys.executable, "-m", "repro", "memprofile", "--config",
                "small", "--tp", "2", "--sequence-parallel", "--recompute",
                "selective", "--fused", "--json"]
        base = {"PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
                "PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0",
                "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        # (extra variables, characters each): three shapes that priced the
        # second dropout_add mask three different ways before the fix.
        outputs = [
            subprocess.run(
                argv, check=True, capture_output=True,
                env=dict(base, **{f"PAD{i}": "x" * pad for i in range(n)}),
            ).stdout
            for n, pad in ((0, 0), (60, 7), (100, 0))]
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestCounterTracks:
    @pytest.fixture(scope="class")
    def ledger(self):
        return profile_layer(TensorParallel(ProcessGroup(2), True), TINY, 1,
                             Recompute.NONE)[1]

    def test_counter_events_validate(self, ledger):
        events = counter_events(ledger)
        validate_trace_events(events)
        counters = [e for e in events if e.get("ph") == "C"]
        assert counters and all(
            e["pid"] == SUBSYSTEM_PIDS["memory"] for e in counters)
        # one per-category and one total track per timeline event
        assert len(counters) == 2 * len(ledger.timeline)

    def test_validator_rejects_bad_counters(self):
        base = {"name": "m", "ph": "C", "ts": 0.0, "pid": 4, "tid": 0}
        with pytest.raises(ValueError):
            validate_trace_events([dict(base, args={})])
        with pytest.raises(ValueError):
            validate_trace_events([dict(base, args={"live": -1})])
        with pytest.raises(ValueError):
            validate_trace_events([dict(base, args={"live": True})])
        with pytest.raises(ValueError):
            validate_trace_events([dict(base, args={"live": 1}, ts=2.0),
                                   dict(base, args={"live": 1}, ts=1.0)])

    def test_flamegraph_root_equals_peak(self, ledger):
        for rank in ledger.ranks():
            graph = flamegraph(ledger, rank)
            assert graph["value"] == ledger.peak_bytes(rank)
            assert sum(c["value"] for c in graph["children"]) == \
                graph["value"]


class TestFragmentationSurfacing:
    def test_paged_kv_fragmentation_timeline(self):
        doc = paged_kv_fragmentation(seed=0)
        assert doc["rounds"] == len(doc["samples"]) > 0
        assert 0.0 <= doc["max_fragmentation"] <= 1.0
        assert doc["max_fragmentation"] == max(
            s["fragmentation"] for s in doc["samples"])
        assert doc["allocations"] == doc["frees"]  # all requests drained
        assert doc["final_fragmentation"] == \
            1.0 - (doc["peak_live_bytes"] / doc["peak_reserved_bytes"])

    def test_serve_report_surfaces_allocator_fragmentation(self):
        cfg = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                          seq_length=24, vocab_size=16, name="memprof-serve")
        model = ParallelGPTModel(cfg, tensor_parallel=2,
                                 serial=GPTModel(cfg, seed=2))
        cache = PagedKVCache(cfg, tensor_parallel=2, block_size=2,
                             num_blocks=8)
        scheduler = ContinuousBatchingScheduler(
            DecodeEngine(model, cache),
            ServingPerfModel(cfg, tensor_parallel=2), max_batch=4, seed=0)
        report = scheduler.run(generate_requests(
            cfg, num_requests=4, seed=0, prompt_lengths=(1, 3),
            new_tokens=(2, 6)))
        assert report.kv_fragmentation == cache.arena.stats.fragmentation
        assert report.to_json()["kv_fragmentation"] == \
            report.kv_fragmentation

    def test_fleet_report_surfaces_worst_replica_fragmentation(self):
        from repro.fleet import build_fleet
        cfg = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                          seq_length=24, vocab_size=16, name="memprof-fleet")
        fleet = build_fleet(cfg, 2, block_size=2, num_blocks=10,
                            max_batch=3, seed=3)
        report = fleet.run(generate_requests(
            cfg, num_requests=6, seed=3, arrival_rate=5000.0,
            prompt_lengths=(1, 3), new_tokens=(2, 6)))
        assert report.kv_fragmentation == max(
            r.kv_fragmentation for r in fleet.replicas)
        assert report.to_json()["kv_fragmentation"] == \
            report.kv_fragmentation
        assert "KV fragmentation" in report.summary()
