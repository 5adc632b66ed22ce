"""Shared test utilities: tiny configs, builders, resilient-run driver.

Gradient checking and shard gathering live in :mod:`repro.testing`."""

from __future__ import annotations

import functools
from typing import List

import numpy as np

from repro.config import ModelConfig
from repro.errors import ConfigError, ScheduleError
from repro.pipeline_sim import OpKind

TINY = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                   seq_length=16, vocab_size=64, name="tiny")

#: A configuration whose 5as/h term dominates (attention-heavy), for
#: exercising the selective-recompute regime 5as/h > 34.
ATTN_HEAVY = ModelConfig(num_layers=1, hidden_size=16, num_heads=4,
                         seq_length=64, vocab_size=32, name="attn-heavy")


@functools.lru_cache(maxsize=None)
def preset_doc(name: str) -> dict:
    """The ``repro bench`` document of one preset at the default seed and
    steps, computed once per test session.  Read-only: a test that edits
    the document deep-copies it first, and a determinism test that needs
    a second *fresh* run calls ``run_preset`` itself."""
    from repro.observability.regress import run_preset
    return run_preset(name)


def count_calls(monkeypatch, owner, name: str) -> list:
    """Put a pass-through in place of ``owner.name`` that records each
    call's positional arguments; returns the (live) list of records."""
    original, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# ---------------------------------------------------------------------------
# The paged KV cache's data plane before the slot mapping: one block-table
# walk per (request, layer, rank), kept verbatim (as functions of the cache)
# as the oracle for ``slot_mapping`` / ``write_slots`` / ``gather_slots``.
# ---------------------------------------------------------------------------

def kv_locate(cache, table, position: int):
    if not 0 <= position < table.num_tokens:
        raise ConfigError(
            f"position {position} outside request {table.request_id!r} "
            f"({table.num_tokens} token(s))")
    return (table.block_ids[position // cache.block_size],
            position % cache.block_size)


def kv_write(cache, request_id: str, layer: int, rank: int, position: int,
             k_row: np.ndarray, v_row: np.ndarray) -> None:
    """Store one position's K/V rows (``(h_local,)`` each)."""
    table = cache.block_table(request_id)
    block, offset = kv_locate(cache, table, position)
    store = cache._store[rank][layer][block]
    store[0, offset] = k_row
    store[1, offset] = v_row


def kv_gather(cache, request_id: str, layer: int, rank: int):
    """All cached ``(keys, values)`` for a request, each
    ``(num_tokens, h_local)`` in position order."""
    table = cache.block_table(request_id)
    n = table.num_tokens
    keys = np.empty((n, cache.h_local))
    values = np.empty((n, cache.h_local))
    for start in range(0, n, cache.block_size):
        take = min(cache.block_size, n - start)
        store = cache._store[rank][layer][table.block_ids[start // cache.block_size]]
        keys[start:start + take] = store[0, :take]
        values[start:start + take] = store[1, :take]
    return keys, values


# ---------------------------------------------------------------------------
# The per-op 1F1B walk the pipeline simulator, the executor and the timeline
# ran before a schedule became one table, kept verbatim: the oracle for
# ``ScheduleTable.issue_order`` and for ``simulate``'s level-by-level
# arithmetic.  Ranks take turns, each running until its next op's
# dependency is not in ``done`` (which the caller fills in).
# ---------------------------------------------------------------------------

def reference_waits_for(op, num_groups):
    if op.kind == OpKind.F:
        return None if op.group == 0 else ("F", op.microbatch, op.group - 1)
    if op.group == num_groups - 1:
        return ("F", op.microbatch, op.group)
    return ("B", op.microbatch, op.group + 1)


def reference_walk(ranks_ops, num_groups, done):
    ptr = [0] * len(ranks_ops)
    remaining = sum(len(ops) for ops in ranks_ops)
    while remaining:
        before = remaining
        for rank, ops in enumerate(ranks_ops):
            i = ptr[rank]
            while i < len(ops):
                op = ops[i]
                dep = reference_waits_for(op, num_groups)
                if dep is not None and dep not in done:
                    break
                yield rank, op, (op.kind.value, op.microbatch, op.group), dep
                i += 1
            remaining -= i - ptr[rank]
            ptr[rank] = i
        if remaining == before:
            raise ScheduleError("pipeline schedule deadlocked")


def flat_weights(model) -> List[np.ndarray]:
    """Every parameter shard of a model, in deterministic order."""
    return [np.asarray(shard)
            for param in model.parameters() for shard in param.shards]


def assert_weights_bitwise_equal(model_a, model_b) -> None:
    for a, b in zip(flat_weights(model_a), flat_weights(model_b)):
        assert a.dtype == b.dtype and np.array_equal(a, b), \
            "weights differ bitwise"


def assert_replicas_synchronized(trainer) -> None:
    """Every data-parallel replica holds replica 0's weights bitwise (the
    invariant data parallelism must preserve step after step)."""
    for replica in trainer.replicas[1:]:
        assert_weights_bitwise_equal(trainer.replicas[0], replica)


def assert_zero_drift(drift) -> None:
    """A ``MemoryTermDrift`` with zero drift on every term group, no
    measured category outside the groups, and something measured."""
    moved = {term: value for term, value in drift.drift.items() if value}
    measured = sum(drift.measured.values())
    if moved or drift.unmapped or not measured > 0:
        raise AssertionError(f"memory drift per term {moved}, unmapped "
                             f"{drift.unmapped}, measured {measured} bytes")


def run_resilient(model_factory, plan, checkpoint_path, num_steps: int = 6,
                  data_parallel: int = 2, batch_seed: int = 5,
                  batch_size: int = 4, lr: float = 1e-2, **options):
    """Train under a fault plan; returns ``(trainer, RunResult)``.

    ``options`` go to :class:`~repro.resilience.ResilientTrainer`.

    The batch stream is step-keyed, so the same ``batch_seed`` always
    produces the same global batches — comparable across fault plans.
    """
    from repro.resilience import ResilientTrainer
    from repro.training import DataParallelTrainer

    trainer = DataParallelTrainer(model_factory, data_parallel=data_parallel,
                                  lr=lr)
    model_cfg = trainer.model.config
    from repro.resilience import make_step_batches
    batch_fn = make_step_batches(model_cfg.vocab_size, model_cfg.seq_length,
                                 batch_size=batch_size, seed=batch_seed)
    resilient = ResilientTrainer(trainer, batch_fn, str(checkpoint_path),
                                 plan=plan, **options)
    return trainer, resilient.run(num_steps)


def random_tokens(rng: np.random.Generator, vocab: int, s: int, b: int) -> np.ndarray:
    return rng.integers(0, vocab, size=(s, b)).astype(np.int64)
