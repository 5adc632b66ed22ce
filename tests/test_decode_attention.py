"""The decode step's attention: one ``F.decode_attention`` per layer per
step over the whole ragged batch.  The oracle is the per-request path it
replaced — ``one_query_attention`` under a slice/concat loop, kept here
verbatim — and the contract is bitwise: same NumPy calls, same logits."""

import hashlib
import importlib.util
import math
import os
import sys

import numpy as np
import pytest

from helpers import count_calls, kv_gather, kv_write
from repro.config import ModelConfig
from repro.errors import ConfigError, ShapeError
from repro.layers import GPTModel
from repro.layers.linear import Linear
from repro.parallel import ParallelGPTModel
from repro.perf_model import KernelCostModel
from repro.serving import DecodeEngine, PagedKVCache, ServingPerfModel
from repro.tensor import FP16, OpLog, Tensor, instrument, no_grad
from repro.tensor import backend as bk
from repro.tensor import functions as F
from repro.tensor import tensor as tape

CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                  seq_length=24, vocab_size=16, name="decode-tiny")
BLOCK = 4


# ---------------------------------------------------------------------------
# The replaced path: the per-request attention, verbatim
# ---------------------------------------------------------------------------

def one_query_attention(num_heads, q, keys, values):
    one, b, h = q.shape
    a = num_heads
    d = h // a
    qr = F.transpose(F.reshape(q, (one, b, a, d)), (1, 2, 0, 3))       # (b,a,1,d)
    kt = F.transpose(F.reshape(keys, (-1, b, a, d)), (1, 2, 3, 0))     # (b,a,d,cur)
    vr = F.transpose(F.reshape(values, (-1, b, a, d)), (1, 2, 0, 3))   # (b,a,cur,d)
    scores = F.scale(F.matmul(qr, kt), 1.0 / math.sqrt(d))
    probs = F.softmax(scores)
    ctxt = F.matmul(probs, vr)                                         # (b,a,1,d)
    ctxt = F.transpose(ctxt, (2, 0, 1, 3))                             # (1,b,a,d)
    return F.reshape(ctxt, (one, b, h))


class PerRequestEngine(DecodeEngine):
    """``DecodeEngine`` with the replaced attention: one attention, one
    K/V load and one query slice per request."""

    def _forward(self, ids, request_ids, positions):
        model = self.model
        kv_layout = "replicated" if self.world == 1 else "shard(dim=2)"
        x = model.layout.lookup(model.embedding.word, ids)
        pos = Tensor([np.asarray(shard)[positions, 0, :][None]
                      for shard in model.embedding.position.shards],
                     dtype=FP16, layout="replicated", name="pos_rows")
        x = F.add(x, pos)

        for index, layer in enumerate(model.layers):
            h = layer.ln1(x)
            q, k, v = layer.attn.project_qkv(h, Linear.decode)
            heads = layer.attn.core.num_heads
            for rank in range(self.world):
                k_arr = np.asarray(k.shards[rank])
                v_arr = np.asarray(v.shards[rank])
                for j, request_id in enumerate(request_ids):
                    kv_write(self.cache, request_id, index, rank,
                             positions[j], k_arr[0, j], v_arr[0, j])
            parts = []
            for j, request_id in enumerate(request_ids):
                k_shards, v_shards = [], []
                for rank in range(self.world):
                    k_j, v_j = kv_gather(self.cache, request_id, index, rank)
                    k_shards.append(k_j[:, None, :])
                    v_shards.append(v_j[:, None, :])
                keys = Tensor(k_shards, dtype=FP16, layout=kv_layout)
                values = Tensor(v_shards, dtype=FP16, layout=kv_layout)
                q_j = F.slice_axis(q, 1, j, j + 1)
                parts.append(one_query_attention(heads, q_j, keys, values))
            ctxt = parts[0] if len(parts) == 1 else F.concat(parts, axis=1)
            x = F.add(layer.attn.wo.decode(ctxt), x)
            x = F.add(layer.mlp.decode(layer.ln2(x)), x)

        return model.layout.full_logits(model.head.decode_logits(x))[0]


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def layouts():
    serial = GPTModel(CFG, seed=2)
    return {
        "serial": serial,
        "tp": ParallelGPTModel(CFG, tensor_parallel=2, serial=serial),
        "tp+sp": ParallelGPTModel(CFG, tensor_parallel=2,
                                  sequence_parallel=True, serial=serial),
    }


def _engine(model, cls=DecodeEngine, num_blocks=40):
    cache = PagedKVCache(CFG, tensor_parallel=model.group.size,
                         block_size=BLOCK, num_blocks=num_blocks)
    return cls(model, cache)


def _ragged_run(engine, batch):
    """Prompts of 1..7 tokens (so contexts straddle the 4-token blocks at
    different steps), three joint steps, request 0 swapped out for one
    step and back in, three more joint steps.  Returns every logits
    array the engine produced, in order."""
    rng = np.random.default_rng(batch)
    requests = [f"r{j}" for j in range(batch)]
    out = [engine.prefill(r, rng.integers(0, CFG.vocab_size,
                                          size=1 + (3 * j) % 7))
           for j, r in enumerate(requests)]

    def step(ids):
        out.append(engine.decode(ids, rng.integers(0, CFG.vocab_size,
                                                   size=len(ids))))

    for _ in range(3):
        step(requests)
    swapped = engine.swap_out(requests[0])
    if batch > 1:
        step(requests[1:])
    engine.swap_in(swapped)
    for _ in range(3):
        step(requests)
    return out


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

# The ids are the ones these cells had beside the deleted compiled arm's,
# so each keeps its history in the suite's floor list.
@pytest.mark.parametrize("batch", [1, 3, 8], ids="{}-eager".format)
@pytest.mark.parametrize("layout", ["serial", "tp", "tp+sp"])
def test_logits_bitwise_equal_to_per_request_attention(layouts, layout, batch):
    model = layouts[layout]
    want = _ragged_run(_engine(model, PerRequestEngine), batch)
    got = _ragged_run(_engine(model), batch)
    assert len(got) == len(want) == batch + (7 if batch > 1 else 6)
    for step, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape
        assert np.array_equal(g, w), f"logits differ at engine call {step}"


def test_engine_holds_no_per_step_state(layouts):
    """What a step reads and produces travels through arguments and the
    return value: the engine's attributes are the same objects after it."""
    engine = _engine(layouts["tp"])
    engine.prefill("a", [1, 2, 3])
    engine.prefill("b", [4])
    before = {name: id(value) for name, value in vars(engine).items()}
    engine.decode(["a", "b"], [5, 6])
    assert {name: id(value) for name, value in vars(engine).items()} == before


@pytest.mark.parametrize("layout", ["serial", "tp"])
def test_tape_applications_do_not_grow_with_the_batch(layouts, layout,
                                                      monkeypatch):
    """One attention application per layer whatever the batch width
    (the per-request loop paid 13 more per request per layer), and the
    paged cache is read once per (layer, rank) through the step's slot
    mapping, never per request."""
    model = layouts[layout]
    bound = [m for name, m in sys.modules.items()
             if name.startswith("repro.")
             and getattr(m, "apply", None) is tape.apply]
    assert tape in bound and F in bound
    applies = [count_calls(monkeypatch, m, "apply") for m in bound]
    gathers = count_calls(monkeypatch, PagedKVCache, "gather_slots")
    per_step = {}
    for batch in (1, 8):
        engine = _engine(model)
        requests = [f"r{j}" for j in range(batch)]
        for r in requests:
            engine.prefill(r, [1, 2])
        for calls in applies + [gathers]:
            del calls[:]
        engine.decode(requests, [3] * batch)
        fns = [args[0] for calls in applies for args in calls]
        assert sum(isinstance(fn, F.DecodeAttention) for fn in fns) \
            == CFG.num_layers
        assert len(gathers) == CFG.num_layers * model.group.size
        per_step[batch] = len(fns)
    assert per_step[1] == per_step[8]


def test_swapped_out_kv_is_owned_by_the_caller(layouts):
    """``gather`` hands out copies: ``swap_out`` holds them while the
    freed blocks are reused by other requests."""
    engine = _engine(layouts["tp"], num_blocks=4)
    engine.prefill("a", [1, 2, 3, 4, 5])
    swapped = engine.swap_out("a")
    held = {key: (k.copy(), v.copy()) for key, (k, v) in swapped.data.items()}
    stores = [block for rank in engine.cache._store for layer in rank
              for block in layer if block is not None]
    assert stores
    for k, v in swapped.data.values():
        assert not any(np.shares_memory(k, s) or np.shares_memory(v, s)
                       for s in stores)
    engine.prefill("b", [6, 7, 8, 9, 10, 11])      # reuses a's blocks
    for key, (k, v) in swapped.data.items():
        assert np.array_equal(k, held[key][0])
        assert np.array_equal(v, held[key][1])


@pytest.mark.parametrize("layout", ["serial", "tp"])
def test_executed_and_simulated_clock_price_the_same_attention(layouts, layout,
                                                               monkeypatch):
    """One GEMM-kind ``decode_attention`` record per layer per step whose
    flops and bytes are exactly what ``decode_step_time`` hands to
    ``gemm_time`` for the step's context lengths."""
    model = layouts[layout]
    world = model.group.size
    engine = _engine(model)
    prompts = {"a": [1], "b": [1, 2, 3, 4, 5], "c": [1, 2, 3]}
    for request_id, prompt in prompts.items():
        engine.prefill(request_id, prompt)
    contexts = [engine.context_length(r) + 1 for r in prompts]
    log = OpLog()
    with instrument(oplog=log):
        engine.decode(list(prompts), [7, 8, 9])
    records = [r for r in log.records if r.name == "decode_attention"]
    assert len(records) == CFG.num_layers
    h_local = CFG.hidden_size // world
    assert {r.flops for r in records} == {4.0 * sum(contexts) * h_local}

    perf = ServingPerfModel(CFG, tensor_parallel=world)
    priced = count_calls(monkeypatch, KernelCostModel, "gemm_time")
    perf.decode_step_time(len(contexts), contexts)
    assert len(priced) == 6      # qkv, wo, fc1, fc2, attention, vocabulary
    assert priced[4][1:] == (records[0].flops, records[0].bytes_moved)
    assert records[0].kind.name == "GEMM"


def _attention(heads=2, batch=2, lengths=(2, 3), key_rows=5, value_rows=5):
    q = Tensor([np.ones((1, batch, 8))], dtype=FP16)
    keys = Tensor([np.ones((key_rows, 1, 8))], dtype=FP16)
    values = Tensor([np.ones((value_rows, 1, 8))], dtype=FP16)
    with no_grad():
        return F.decode_attention(heads, q, keys, values, list(lengths))


@pytest.mark.parametrize("call, error", [
    (lambda: _attention(lengths=(5,)), ShapeError),           # B=2, one length
    (lambda: _attention(lengths=(2, 2, 1)), ShapeError),
    (lambda: _attention(key_rows=6), ShapeError),              # sum n_j != K rows
    (lambda: _attention(value_rows=4), ShapeError),            # V rows != K rows
    (lambda: _attention(lengths=(5, 0)), ShapeError),          # an empty context
    (lambda: _attention(heads=3), ShapeError),                 # 8 % 3 != 0
    (lambda: _attention(batch=0, lengths=(), key_rows=0, value_rows=0),
     ShapeError),
    (lambda: bk.split(np.zeros((4, 2)), 0, 0), ShapeError),
    (lambda: PagedKVCache(CFG, block_size=BLOCK, num_blocks=2)
     .slot_mapping(["ghost"]), ConfigError),
], ids=["few-lengths", "many-lengths", "key-rows", "value-rows", "zero-length",
        "head-count", "empty-batch", "split-zero", "unknown-request"])
def test_malformed_step_operands_raise_typed_errors(call, error):
    """The output rows are preallocated, so operands that do not pair up
    must fail before any arithmetic — not leave ``np.empty`` rows in the
    logits or surface as a NumPy ``ValueError`` / ``ZeroDivisionError``."""
    assert _attention().shape == (1, 2, 8)
    with pytest.raises(error):
        call()


def test_serve_continuous_logits_are_pinned(monkeypatch):
    """The benchmark's ``serve_continuous`` unit at its default seed: the
    bytes of all 156 engine steps' logits and the generated tokens.  A
    change to the decode step that moves either is not the same program
    (a different BLAS build may legitimately move the first)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(os.path.dirname(__file__), os.pardir,
                                        "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.ServeContinuous(1234)
    digest, steps = hashlib.sha256(), []
    decode = DecodeEngine.decode

    def hashed(self, request_ids, tokens):
        logits = decode(self, request_ids, tokens)
        digest.update(np.ascontiguousarray(logits).tobytes())
        steps.append(len(request_ids))
        return logits

    monkeypatch.setattr(DecodeEngine, "decode", hashed)
    workload.unit()
    assert len(steps) == 156
    assert workload.token_digest == "0de3a317c3688376"
    assert digest.hexdigest() == ("069015c72d6e7bddb5ab3babc3bf9549"
                                  "d6e5f340d0c4064796cec7afb74c642a")
