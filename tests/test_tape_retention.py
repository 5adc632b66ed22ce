"""The tape retains nothing but saves.

The paper's activation memory is the tensors "necessary for gradient
computation during back-propagation" (Section 4), and the
``MemoryTracker`` charges exactly those.  These tests check that the
host holds no more: every op output a step produces is watched through a
weak reference, and after the forward pass each one still alive must be
a charged save, the base of a charged view, a parameter, or a tensor the
caller holds.  After backward only parameters, grads and the loss the
caller keeps may remain.
"""

import gc
import sys
import weakref

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.layers import GPTModel, Recompute
from repro.layers.embedding import token_tensor
from repro.parallel import ParallelGPTModel
from repro.tensor import MemoryTracker, instrument, seed
from repro.tensor import tensor as tape

CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                  seq_length=16, vocab_size=32, name="retention-tiny")

MODELS = {
    "serial": lambda: GPTModel(CFG, seed=0),
    "tp2-sp-selective": lambda: ParallelGPTModel(
        CFG, tensor_parallel=2, sequence_parallel=True,
        recompute=Recompute.SELECTIVE, seed=0),
    "full-recompute": lambda: GPTModel(CFG, recompute=Recompute.FULL, seed=0),
    "fused": lambda: GPTModel(CFG, fused=True, seed=0),
}


@pytest.fixture
def watched_outputs(monkeypatch):
    """Weak references to every shard of every op output, through every
    module that bound ``apply`` by name."""
    bound = [m for name, m in sys.modules.items()
             if name.startswith("repro.") and getattr(m, "apply", None) is tape.apply]
    refs, apply = [], tape.apply

    def watching(fn, *args, **kwargs):
        out = apply(fn, *args, **kwargs)
        for t in out if isinstance(out, tuple) else (out,):
            refs.extend(weakref.ref(s) for s in t.shards if isinstance(s, np.ndarray))
        return out

    for module in bound:
        monkeypatch.setattr(module, "apply", watching)
    # Refcounting alone must free what the tape drops: no cycle collector.
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _alive(refs):
    return {id(a): a for a in (r() for r in refs) if a is not None}


def _ids(arrays):
    return {id(a) for a in arrays}


def _charged(tracker):
    """The ids of every charged buffer and of the base of each charged view."""
    buffers = [entry.buffer for entry in tracker._entries.values()]
    return _ids(buffers) | _ids(b.base for b in buffers if b.base is not None)


@pytest.mark.parametrize("layout", MODELS)
def test_a_step_holds_only_what_it_saved(layout, watched_outputs):
    seed(0)
    model = MODELS[layout]()
    world = model.group.size
    rng = np.random.default_rng(3)
    ids = token_tensor(rng.integers(0, CFG.vocab_size, (CFG.seq_length, 2)),
                       CFG.vocab_size, world=world)
    targets = token_tensor(rng.integers(0, CFG.vocab_size, (CFG.seq_length, 2)),
                           CFG.vocab_size, world=world)
    params = _ids(s for p in model.parameters() for s in p.shards)
    tracker = MemoryTracker()
    with instrument(memory=tracker):
        loss = model(ids, targets)
        assert watched_outputs, "no op output was watched"
        allowed = _charged(tracker) | params | _ids(loss.shards)
        held = [a.shape for key, a in _alive(watched_outputs).items()
                if key not in allowed]
        assert not held, f"{len(held)} op outputs outlive the forward unsaved: {held}"

        loss.backward()
        model.finish_grad_sync()
    assert tracker.live_bytes() == 0
    grads = _ids(s for p in model.parameters() if p.grad is not None for s in p.grad)
    allowed = params | grads | _ids(loss.shards)
    held = [a.shape for key, a in _alive(watched_outputs).items() if key not in allowed]
    assert not held, f"{len(held)} op outputs outlive the backward: {held}"
