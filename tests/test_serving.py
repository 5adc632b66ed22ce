"""Serving subsystem: paged KV cache, decode engine, continuous batching,
eval mode.  The anchor tests are the token-identity checks — the engine's
ragged batched step must equal the uncached full-forward ``generate`` on
every layout — and the byte-exact KV accounting (zero drift against the
closed form at every point of the request lifecycle)."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import kv_gather, kv_locate, kv_write, preset_doc
from repro.config import ModelConfig
from repro.errors import ConfigError, PlanningError
from repro.inference import evaluation, generate, generate_cached
from repro.layers import GPTModel
from repro.layers.dropout import Dropout
from repro.memory_model import kv_cache_bytes
from repro.observability import Tracer
from repro.observability.perfetto import (
    SUBSYSTEM_PIDS,
    merged_trace,
    validate_trace_events,
)
from repro.parallel import ParallelGPTModel
from repro.serving import (
    POLICIES,
    ContinuousBatchingScheduler,
    DecodeEngine,
    KVCacheFull,
    PagedKVCache,
    ServingPerfModel,
    generate_requests,
    simulate_static_batching,
)

CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                  seq_length=24, vocab_size=16, name="serving-tiny")
rng = np.random.default_rng(7)

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "..",
                            "benchmarks", "baselines")


@pytest.fixture(scope="module")
def serial():
    return GPTModel(CFG, seed=2)


@pytest.fixture(scope="module")
def layouts(serial):
    return {
        "serial": serial,
        "tp": ParallelGPTModel(CFG, tensor_parallel=2, serial=serial),
        "tp+sp": ParallelGPTModel(CFG, tensor_parallel=2,
                                  sequence_parallel=True, serial=serial),
    }


class TestPagedKVCache:
    def test_zero_drift_through_lifecycle(self):
        cache = PagedKVCache(CFG, tensor_parallel=2, block_size=4,
                             num_blocks=6)
        cache.add_request("a")
        cache.add_request("b")
        for _ in range(9):
            cache.reserve_token("a")
            assert cache.drift_bytes() == 0.0
        for _ in range(3):
            cache.reserve_token("b")
        # 9 tokens -> 3 blocks (12 slots); 3 tokens -> 1 block (4 slots)
        assert cache.measured_bytes(0) == \
            kv_cache_bytes(CFG, [12, 4], tensor_parallel=2)
        assert cache.drift_bytes() == 0.0
        cache.free_request("a")
        assert cache.drift_bytes() == 0.0
        cache.free_request("b")
        for r in range(2):
            assert cache.measured_bytes(r) == 0

    def test_first_fit_lowest_offset_reuse(self):
        cache = PagedKVCache(CFG, block_size=4, num_blocks=6)
        cache.add_request("a")
        cache.add_request("b")
        for _ in range(8):
            cache.reserve_token("a")
        for _ in range(4):
            cache.reserve_token("b")
        assert cache.block_table("a").block_ids == [0, 1]
        assert cache.block_table("b").block_ids == [2]
        cache.free_request("a")
        cache.add_request("c")
        for _ in range(8):
            cache.reserve_token("c")
        # the freed lowest-offset blocks are granted again, in order
        assert cache.block_table("c").block_ids == [0, 1]

    def test_admission_and_exhaustion(self):
        cache = PagedKVCache(CFG, block_size=4, num_blocks=2)
        cache.add_request("a")
        for _ in range(8):
            cache.reserve_token("a")
        assert not cache.can_admit(1)
        cache.add_request("b")
        with pytest.raises(KVCacheFull):
            cache.reserve_token("b")
        assert cache.num_tokens("b") == 0  # failed reserve changed nothing
        cache.free_request("a")
        assert cache.can_admit(8)

    def test_swap_roundtrip_bit_exact(self):
        cache = PagedKVCache(CFG, tensor_parallel=2, block_size=4,
                             num_blocks=4)
        cache.add_request("a")
        for pos in range(6):
            cache.reserve_token("a")
            for layer in range(CFG.num_layers):
                for rank in range(2):
                    kv_write(cache, "a", layer, rank, pos,
                             rng.normal(size=16), rng.normal(size=16))
        before = {(r, l): cache.gather("a", l, r)
                  for r in range(2) for l in range(CFG.num_layers)}
        swapped = cache.swap_out("a")
        # accounting bytes per rank: K+V * tokens * h_local * layers * fp16
        assert swapped.nbytes == 2 * 6 * 16 * CFG.num_layers * 2
        assert cache.blocks_in_use == 0
        assert cache.measured_bytes(0) == 0
        cache.swap_in(swapped)
        assert cache.num_tokens("a") == 6
        assert cache.drift_bytes() == 0.0
        for (r, l), (keys, values) in before.items():
            got_k, got_v = cache.gather("a", l, r)
            np.testing.assert_array_equal(got_k, keys)
            np.testing.assert_array_equal(got_v, values)


class TestSlotMapping:
    """The step's slot mapping against the block-table walk it replaced
    (``helpers.kv_locate`` / ``kv_write`` / ``kv_gather``, verbatim)."""

    @staticmethod
    def _check(cache, requests, fill):
        slots, lengths = cache.slot_mapping(requests)
        tables = [cache.block_table(r) for r in requests]
        assert slots.dtype == np.int64 and slots.shape == (sum(lengths),)
        assert lengths == [t.num_tokens for t in tables]
        newest = slots[np.cumsum(lengths) - 1]
        for slot, table in zip(newest, tables):
            block, offset = kv_locate(cache, table, table.num_tokens - 1)
            assert slot == block * cache.block_size + offset
        for layer in range(CFG.num_layers):
            for rank in range(cache.world):
                walked = [kv_gather(cache, r, layer, rank) for r in requests]
                keys, values = cache.gather_slots(layer, rank, slots)
                assert np.array_equal(keys, np.concatenate([k for k, _ in walked]))
                assert np.array_equal(values, np.concatenate([v for _, v in walked]))
                for request, (k, v) in zip(requests, walked):
                    got_k, got_v = cache.gather(request, layer, rank)
                    assert np.array_equal(got_k, k) and np.array_equal(got_v, v)
                # a write through the slots is what the walk reads back
                new_k = fill.normal(size=keys.shape)
                new_v = fill.normal(size=values.shape)
                cache.write_slots(layer, rank, slots, new_k, new_v)
                walked = [kv_gather(cache, r, layer, rank) for r in requests]
                assert np.array_equal(new_k, np.concatenate([k for k, _ in walked]))
                assert np.array_equal(new_v, np.concatenate([v for _, v in walked]))

    @given(block_size=st.integers(1, 5), world=st.sampled_from([1, 2]),
           tokens=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5)),
                           min_size=1, max_size=5),
           seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_slots_read_and_write_what_the_block_walk_does(
            self, block_size, world, tokens, seed):
        """Ragged requests of 0..3 full blocks plus a partial one, their
        tokens reserved in a shuffled interleaving (so block tables are
        permutations of the pool), then one request freed and its blocks
        reused, then one swapped out and back in."""
        order = np.random.default_rng(seed)
        lengths = [blocks * block_size + 1 + (part - 1) % block_size
                   for blocks, part in tokens]
        requests = [f"r{j}" for j in range(len(lengths))]
        cache = PagedKVCache(CFG, tensor_parallel=world, block_size=block_size,
                             num_blocks=2 * sum(-(-n // block_size)
                                                for n in lengths) + 4)

        def grow(request):
            position = cache.reserve_token(request)
            for layer in range(CFG.num_layers):
                for rank in range(world):
                    kv_write(cache, request, layer, rank, position,
                             order.normal(size=cache.h_local),
                             order.normal(size=cache.h_local))

        for request in requests:
            cache.add_request(request)
        for j in order.permutation(np.repeat(np.arange(len(lengths)), lengths)):
            grow(requests[j])
        self._check(cache, requests, order)

        cache.free_request(requests[0])              # holes in the pool ...
        cache.add_request("late")
        for _ in range(lengths[0] + block_size):     # ... reused out of order
            grow("late")
        resident = requests[1:] + ["late"]
        self._check(cache, resident, order)

        victim = resident[int(order.integers(len(resident)))]
        swapped = cache.swap_out(victim)
        held = {key: (k.copy(), v.copy())
                for key, (k, v) in swapped.data.items()}
        cache.add_request("filler")                  # takes a victim's block
        grow("filler")
        cache.swap_in(swapped)
        for (rank, layer), (k, v) in held.items():
            got_k, got_v = kv_gather(cache, victim, layer, rank)
            assert np.array_equal(got_k, k) and np.array_equal(got_v, v)
        self._check(cache, resident + ["filler"], order)
        assert cache.drift_bytes() == 0.0


class TestDecodeEngine:
    @pytest.mark.parametrize("layout", ["serial", "tp", "tp+sp"])
    @pytest.mark.parametrize("strategy", ["greedy", "top_k"])
    def test_token_identity_vs_generate(self, layouts, layout, strategy):
        model = layouts[layout]
        prompt = rng.integers(0, CFG.vocab_size, size=(3, 2))
        expected = generate(model, prompt, 6, strategy=strategy,
                            rng=np.random.default_rng(11))
        got = generate_cached(model, prompt, 6, strategy=strategy,
                              rng=np.random.default_rng(11), block_size=4)
        np.testing.assert_array_equal(got, expected)

    def test_decode_is_atomic_when_blocks_run_out(self, serial):
        cache = PagedKVCache(CFG, block_size=2, num_blocks=2)
        engine = DecodeEngine(serial, cache)
        engine.prefill("a", [1, 2, 3])  # 3 tokens -> both blocks claimed
        cache.add_request("b")
        with pytest.raises(KVCacheFull):
            engine.decode(["a", "b"], [1, 2])
        # "a" has a free slot in its second block, but the step must not
        # advance it when "b" cannot get a block: nothing moved.
        assert cache.num_tokens("a") == 3
        assert cache.num_tokens("b") == 0
        assert cache.free_blocks == 0

    def test_context_length_limit(self, serial):
        cache = PagedKVCache(CFG, block_size=4, num_blocks=8)
        engine = DecodeEngine(serial, cache)
        prompt = rng.integers(0, CFG.vocab_size, size=CFG.seq_length)
        engine.prefill("a", prompt)
        with pytest.raises(ConfigError):
            engine.decode(["a"], [0])

    @pytest.mark.parametrize("request_ids, tokens", [
        (["a", "a"], [1, 2]),                  # advanced "a" twice, silently
        (["a", "b"], [1, CFG.vocab_size]),     # IndexError after the reserve
        (["a", "b"], [-1, 1]),
    ], ids=["duplicate-request", "token-too-large", "token-negative"])
    def test_invalid_step_is_rejected_before_the_cache_moves(
            self, serial, request_ids, tokens):
        cache = PagedKVCache(CFG, block_size=2, num_blocks=8)
        engine = DecodeEngine(serial, cache)
        engine.prefill("a", [1, 2])     # full block: the step needs a new one
        cache.add_request("b")
        with pytest.raises(ConfigError):
            engine.decode(request_ids, tokens)
        assert cache.num_tokens("a") == 2 and cache.num_tokens("b") == 0
        assert cache.blocks_in_use == 1

    def test_training_mode_model_decodes_the_same_bits(self):
        """The step calls no dropout module, so it needs (and takes) no
        ``evaluation`` scope: a model left in training mode with live
        dropout rates decodes what its ``eval()`` twin decodes."""
        def model():
            return ParallelGPTModel(CFG, tensor_parallel=2, seed=2,
                                    hidden_dropout=0.1, attention_dropout=0.1)

        training, evaluating = model(), model().eval()
        drops = [m for m in training.modules() if isinstance(m, Dropout)]
        rates = [(d.p, d._train_p) for d in drops]
        assert any(p > 0 for p, _ in rates)
        logits = []
        for m in (training, evaluating):
            engine = DecodeEngine(m, PagedKVCache(
                CFG, tensor_parallel=2, block_size=4, num_blocks=8))
            engine.prefill("a", [1, 2, 3])
            engine.prefill("b", [4])
            logits.append(engine.decode(["a", "b"], [5, 6]))
        np.testing.assert_array_equal(logits[0], logits[1])
        assert [(d.p, d._train_p) for d in drops] == rates


SPEC_KW = dict(num_requests=5, seed=5, arrival_rate=2000.0,
               prompt_lengths=(1, 3), new_tokens=(2, 6))


def _scheduler(serial, policy="swap", num_blocks=6, tracer=None):
    cache = PagedKVCache(CFG, block_size=2, num_blocks=num_blocks)
    engine = DecodeEngine(serial, cache)
    return ContinuousBatchingScheduler(
        engine, ServingPerfModel(CFG), policy=policy, max_batch=4, seed=5,
        tracer=tracer)


class TestScheduler:
    def test_equal_seeds_byte_identical_reports(self, serial):
        specs = generate_requests(CFG, **SPEC_KW)
        a = _scheduler(serial).run(specs)
        b = _scheduler(serial).run(generate_requests(CFG, **SPEC_KW))
        assert a.to_json() == b.to_json()
        assert a.kv_drift_bytes == 0.0
        assert a.completed == len(specs)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_preemption_does_not_change_tokens(self, serial, policy):
        specs = generate_requests(CFG, **SPEC_KW)
        roomy = _scheduler(serial, policy=policy, num_blocks=32).run(specs)
        assert roomy.preemptions == 0
        tight = _scheduler(serial, policy=policy, num_blocks=6).run(specs)
        assert tight.preemptions > 0 and tight.resumes > 0
        for a, b in zip(tight.per_request, roomy.per_request):
            assert a["generated_tokens"] == b["generated_tokens"]
        assert tight.kv_drift_bytes == 0.0

    def test_unservable_request_raises(self, serial):
        specs = generate_requests(CFG, num_requests=1, seed=0,
                                  prompt_lengths=(3, 3), new_tokens=(2, 2))
        with pytest.raises(PlanningError):
            _scheduler(serial, num_blocks=1).run(specs)

    def test_trace_is_valid_and_phase_tagged(self, serial):
        tracer = Tracer()
        report = _scheduler(serial, num_blocks=6, tracer=tracer).run(
            generate_requests(CFG, **SPEC_KW))
        assert report.preemptions > 0
        doc = merged_trace(tracer)
        validate_trace_events(doc["traceEvents"])
        serving = [e for e in doc["traceEvents"]
                   if e.get("cat") == "serving" and e["ph"] == "X"]
        assert serving
        assert all(e["pid"] == SUBSYSTEM_PIDS["serving"] for e in serving)
        assert {e["args"]["phase"] for e in serving} == \
            {"prefill", "decode", "preempt", "resume"}

    @pytest.mark.parametrize("policy", POLICIES)
    def test_preempt_and_resume_spans_carry_the_policy(self, serial, policy):
        tracer = Tracer()
        scheduler = _scheduler(serial, policy=policy, tracer=tracer)
        report = scheduler.run(generate_requests(CFG, **SPEC_KW))
        assert report.preemptions > 0 and report.resumes > 0
        spans = [e for e in merged_trace(tracer)["traceEvents"]
                 if e["ph"] == "X"
                 and e["name"] in ("serve.preempt", "serve.resume")]
        assert {e["name"] for e in spans} == {"serve.preempt", "serve.resume"}
        assert all(e["args"]["policy"] == scheduler.policy for e in spans)

    def test_injected_replay_is_labelled_recompute(self, serial):
        """The resume label follows what resume does: a request injected
        without KV pages replays, even on a swap-policy scheduler."""
        source = _scheduler(serial, num_blocks=32)
        spec = generate_requests(CFG, **SPEC_KW)[0]
        source.submit(spec)
        source.step()
        state, _ = source.extract(spec.request_id)
        tracer = Tracer()
        target = _scheduler(serial, policy="swap", num_blocks=32,
                            tracer=tracer)
        target.inject(state, None)
        resumes = [e for e in merged_trace(tracer)["traceEvents"]
                   if e["ph"] == "X" and e["name"] == "serve.resume"]
        assert [e["args"]["policy"] for e in resumes] == ["recompute"]

    def test_unknown_span_phase_rejected(self):
        events = [
            {"name": "process_name", "ph": "M", "pid": 8, "tid": 0,
             "args": {"name": "serving"}},
            {"name": "serve.warmup", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": 8, "tid": 0, "args": {"phase": "warmup"}},
        ]
        with pytest.raises(ValueError, match="phase tag"):
            validate_trace_events(events)


class TestCrossReplicaHandoff:
    """The fleet's mid-stream recovery primitive: ``extract`` a live
    request from one scheduler and ``inject`` it into another (as the
    router does when a replica crashes or straggles), with either the
    bit-exact swapped KV pages or a recompute-from-prompt replay.  The
    streamed tokens must not change — decoding is greedy, so the
    :class:`~repro.serving.RequestState` (logits and tokens so far) is
    all a request carries; there is no per-request sampling stream."""

    def _make(self, model, policy):
        world = getattr(getattr(model, "group", None), "size", 1)
        cache = PagedKVCache(CFG, tensor_parallel=world, block_size=2,
                             num_blocks=16)
        return ContinuousBatchingScheduler(
            DecodeEngine(model, cache),
            ServingPerfModel(CFG, tensor_parallel=world), policy=policy,
            max_batch=4, seed=11)

    @staticmethod
    def _drive(schedulers, done):
        while any(s.num_resident for s in schedulers):
            for s in schedulers:
                for state in s.step():
                    done[state.spec.request_id] = list(state.tokens)

    @pytest.mark.parametrize("layout", ["serial", "tp", "tp+sp"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_mid_stream_handoff_preserves_tokens(self, layouts, layout,
                                                 policy):
        model = layouts[layout]
        specs = generate_requests(CFG, num_requests=3, seed=11,
                                  prompt_lengths=(1, 3), new_tokens=(6, 10))

        baseline = {}
        solo = self._make(model, policy)
        for spec in specs:
            solo.submit(spec)
        self._drive([solo], baseline)
        assert len(baseline) == len(specs)

        a, b = self._make(model, policy), self._make(model, policy)
        done = {}
        for spec in specs:
            a.submit(spec)
        for _ in range(2):
            for state in a.step():
                done[state.spec.request_id] = list(state.tokens)
        victim = a.resident_requests()[0][0]
        state, swapped = a.extract(victim.spec.request_id)
        # swap policy hands over the KV pages bit-exactly; recompute
        # hands over only the control record and replays the context
        assert (swapped is not None) == (policy == "swap")
        assert b.can_accept(state)
        b.inject(state, swapped)
        self._drive([a, b], done)

        assert done == baseline
        assert a.engine.cache.drift_bytes() == 0.0
        assert b.engine.cache.drift_bytes() == 0.0

    def test_extract_unknown_request_raises(self, serial):
        sched = self._make(serial, "swap")
        with pytest.raises(ConfigError):
            sched.extract("nope")


class TestStaticBaselineAndBench:
    def test_static_batching_generates_every_token(self):
        perf = ServingPerfModel(CFG)
        specs = generate_requests(CFG, 4, seed=9, prompt_lengths=(1, 2),
                                  new_tokens=(2, 4))
        out = simulate_static_batching(specs, perf, block_size=2,
                                       num_blocks=12, max_batch=2)
        assert out["tokens_generated"] == sum(s.max_new_tokens for s in specs)
        assert out["tokens_per_s"] > 0
        with pytest.raises(PlanningError):
            simulate_static_batching(specs, perf, block_size=1, num_blocks=1,
                                     max_batch=1)

    def test_serve_preset_beats_static_and_matches_baseline(self):
        from repro.observability.regress import check_against_baselines

        doc = preset_doc("serve")
        serving = doc["serving"]
        assert serving["continuous_vs_static_speedup"] >= 1.5
        assert serving["policies_agree"] is True
        assert serving["kv_drift_bytes"] == 0.0
        assert serving["preemptions"] > 0 and serving["resumes"] > 0
        assert check_against_baselines({"serve": doc}, BASELINE_DIR) == {}


class TestEvalMode:
    def _drops(self, model):
        return [m for m in model.modules() if isinstance(m, Dropout)]

    def test_eval_train_roundtrip_idempotent(self):
        model = GPTModel(CFG, seed=0)
        drops = self._drops(model)
        saved = [d.p for d in drops]
        assert any(p > 0 for p in saved)
        model.eval()
        assert all(d.p == 0.0 for d in drops)
        model.eval()  # idempotent: must not clobber the stashed rates
        model.train()
        assert [d.p for d in drops] == saved
        model.train()  # idempotent in the other direction too
        assert [d.p for d in drops] == saved

    def test_evaluation_context_nests_and_restores(self):
        model = GPTModel(CFG, seed=0)
        drops = self._drops(model)
        saved = [d.p for d in drops]
        with evaluation(model):
            assert all(d.p == 0.0 for d in drops)
            with evaluation(model):
                assert all(d.p == 0.0 for d in drops)
            assert all(d.p == 0.0 for d in drops)
        assert [d.p for d in drops] == saved

    def test_evaluation_preserves_explicit_eval_mode(self):
        model = GPTModel(CFG, seed=0).eval()
        drops = self._drops(model)
        with evaluation(model):
            assert all(d.p == 0.0 for d in drops)
        assert all(d.p == 0.0 for d in drops)  # still in eval, as set
        model.train()
        assert any(d.p > 0 for d in drops)


class TestDecodeStepAccounting:
    """A decode step runs under ``no_grad`` with nothing installed, so
    its ops must pay for their kernels only: the tape evaluates an op's
    declared cost rule when an op log, tracer or memory profiler
    listens, and then records exactly what it always did."""

    REQUESTS, TOKENS = ["r0", "r1", "r2"], [7, 8, 9]
    #: Python calls of one unlistened step, by tensor-parallel size, when
    #: each op still called ``listening()`` from its own body: declaring
    #: the cost may not make the step dearer.
    CALLS_BEFORE = {1: 1432, 2: 1630}
    #: The rule evaluator and the record builders.
    ACCOUNTING = ("_account", "per_element_cost", "gemm", "elementwise", "comm")

    @staticmethod
    def _engine(serial, tensor_parallel=2):
        model = (ParallelGPTModel(CFG, tensor_parallel=2, serial=serial)
                 if tensor_parallel == 2 else serial)
        engine = DecodeEngine(model, PagedKVCache(CFG, tensor_parallel=tensor_parallel,
                                                  block_size=2, num_blocks=16))
        for request_id, prompt in zip(TestDecodeStepAccounting.REQUESTS,
                                      ([1, 2, 3], [4], [5, 6])):
            engine.prefill(request_id, np.array(prompt))
        return engine

    def _unlistened_step(self, engine):
        """One step's cProfile calls by tape-module function name, and in all."""
        import cProfile
        import pstats
        profile = cProfile.Profile()
        profile.runcall(engine.decode, self.REQUESTS, self.TOKENS)
        stats = pstats.Stats(profile)
        calls = {}
        for (path, _, name), (_, count, _, _, _) in stats.stats.items():
            if path.endswith(("tensor/tensor.py", "tensor/functions.py")):
                calls[name] = calls.get(name, 0) + count
        assert {name: calls.get(name, 0) for name in self.ACCOUNTING} == dict.fromkeys(
            self.ACCOUNTING, 0)
        return calls, stats.total_calls

    def test_an_unlistened_step_makes_no_accounting_calls(self, serial):
        calls, total = self._unlistened_step(self._engine(serial))
        assert calls["apply"] == 40  # the step ran its 40 ops
        # a save with no tape is one call that retains nothing
        assert calls.get("_save", 0) == 0
        assert total <= self.CALLS_BEFORE[2]

    def test_an_unlistened_serial_step_makes_no_accounting_calls(self, serial):
        _, total = self._unlistened_step(self._engine(serial, tensor_parallel=1))
        assert total <= self.CALLS_BEFORE[1]

    def test_a_listened_step_records_what_it_always_did(self, serial):
        import hashlib
        from repro.tensor import OpLog, instrument
        engine = self._engine(serial)
        log = OpLog()
        with instrument(oplog=log):
            engine.decode(self.REQUESTS, self.TOKENS)
        rows = [(r.name, r.kind.value, r.phase.value, float(r.flops).hex(),
                 float(r.bytes_moved).hex(), r.comm, r.overlapped, r.fused)
                for r in log.records]
        assert len(rows) == 37
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "0096e33073b6a503c86db8f1adb1b772d6d19a4e4bb6465a06c9e7fd566dd506")
