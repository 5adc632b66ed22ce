"""The central correctness claim: tensor parallelism, sequence parallelism,
context parallelism and every recomputation strategy compute *exactly*
what the serial model computes — same loss, same gradients — with dropout
active, and store exactly what Equations 1-6 say.

One configuration value, :class:`Cell`, is swept over its full product
(layout x world x recompute x fused, 72 cells on ``TINY``); every cell
goes through the two library oracles, ``repro.testing.
assert_parallel_equivalent`` and the per-term memory drift of
``repro.observability``.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.layers import (GPTModel, Linear, Recompute, SelfAttention,
                          token_tensor)
from repro.longctx import LongContextGPTModel
from repro.observability import layer_term_drift
from repro.parallel import ParallelGPTModel
from repro.tensor.functions import MaskSource
from repro.testing import assert_parallel_equivalent, serial_run

from helpers import TINY, assert_zero_drift, random_tokens

rng = np.random.default_rng(31)
MS = MaskSource(seed=77, keep_prob=0.9)
V = TINY.vocab_size  # token ids lie in [0, V)
B = 2                # microbatch of the sweep
SEED = 4             # weights of the serial model and of every cell
ODD_SEQ = ModelConfig(num_layers=1, hidden_size=32, num_heads=4,
                      seq_length=15, vocab_size=64)
LAYOUTS = ("tp", "tp+sp", "ulysses", "ring")
RECOMPUTES = (Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL)


@dataclass(frozen=True)
class Cell:
    """One configuration of the sweep."""

    layout: str
    world: int
    recompute: Recompute
    fused: bool

    def __str__(self):
        return (f"{self.layout}-{self.world}-{self.recompute.value}-"
                f"{'fused' if self.fused else 'unfused'}")

    @property
    def tensor_parallel(self) -> bool:
        return self.layout in ("tp", "tp+sp")

    @property
    def atol(self) -> float:
        """The gradient bound.  At world 1 the context-parallel layouts
        keep the serial model's three ``(h, h)`` projections and are
        bitwise; tensor parallelism fuses them into one ``(h, 3h)`` GEMM
        whose dgrad sums the 3h-long contraction in another order."""
        if self.world > 1:
            return 1e-8
        return 1e-15 if self.tensor_parallel else 0.0

    def build(self):
        """The cell's model, drawn from the serial model's seed: the
        oracle's exact weight check then covers the seeded init, QKV
        fusion's draw order included."""
        kw = dict(recompute=self.recompute, fused=self.fused,
                  mask_source=MS, seed=SEED)
        if self.tensor_parallel:
            return ParallelGPTModel(TINY, tensor_parallel=self.world,
                                    sequence_parallel=self.layout == "tp+sp",
                                    **kw)
        return LongContextGPTModel(TINY, context_parallel=self.world,
                                   layout=self.layout, **kw)

    def drift(self, model):
        """Every rank's per-term memory drift under ``model``'s layout."""
        return layer_term_drift(model.layout, TINY, B, self.recompute,
                                fused=self.fused)


CELLS = [Cell(*values) for values in
         itertools.product(LAYOUTS, (1, 2, 4), RECOMPUTES, (False, True))]


class Serial:
    """The serial model, the sweep's batch, the model's one run on it, and
    the verdict of each cell checked so far."""

    def __init__(self):
        self.model = GPTModel(TINY, seed=SEED, mask_source=MS)
        self.ids = random_tokens(rng, TINY.vocab_size, TINY.seq_length, B)
        self.tgt = random_tokens(rng, TINY.vocab_size, TINY.seq_length, B)
        self.run = serial_run(self.model, self.ids, self.tgt)
        self.verdicts = {}

    def check(self, cell: Cell) -> None:
        """Both oracles on ``cell``, run once: a later check of the same
        cell re-reads its verdict."""
        if cell not in self.verdicts:
            try:
                model = cell.build()
                assert_parallel_equivalent(self.run, model,
                                           self.ids, self.tgt, atol=cell.atol)
                for drift in cell.drift(model):
                    assert_zero_drift(drift)
            except AssertionError as error:
                self.verdicts[cell] = f"{cell}: {error}"
            else:
                self.verdicts[cell] = None
        if self.verdicts[cell] is not None:
            pytest.fail(self.verdicts[cell])


@pytest.fixture(scope="module")
def serial():
    return Serial()


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_configuration_sweep(serial, cell):
    serial.check(cell)


# The hand-listed matrices the sweep replaced keep their test IDs, each a
# view of its sweep cell that checks nothing the cell does not (ROADMAP
# item 8 retires them, with the verdict memo they need).
@pytest.mark.parametrize("t", [1, 2, 4])
@pytest.mark.parametrize("sp", [False, True])
@pytest.mark.parametrize("rc", RECOMPUTES)
class TestFullEquivalence:
    def test_loss_matches(self, serial, t, sp, rc):
        serial.check(Cell("tp+sp" if sp else "tp", t, rc, False))

    test_gradients_match = test_loss_matches


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize("layout", ["ulysses", "ring"])
@pytest.mark.parametrize("rc", RECOMPUTES)
class TestLongContextEquivalence:
    def test_loss_bitwise(self, serial, layout, rc, fused, p):
        serial.check(Cell(layout, p, rc, fused))

    test_gradients_match = test_weights_bitwise_serial = test_loss_bitwise


@pytest.mark.parametrize("rc", RECOMPUTES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_world_one_is_the_serial_model(serial, layout, rc):
    serial.check(Cell(layout, 1, rc, False))


class TestVariants:
    def test_unfused_sp_gather_same_numerics(self, serial):
        m = ParallelGPTModel(TINY, tensor_parallel=2, sequence_parallel=True,
                             fuse_sp_gather=False, mask_source=MS,
                             serial=serial.model)
        assert_parallel_equivalent(serial.run, m, serial.ids, serial.tgt)

    def test_logits_match_serial(self, serial):
        model_s, ids = serial.model, serial.ids
        m = ParallelGPTModel(TINY, tensor_parallel=2, sequence_parallel=True,
                             mask_source=MS, serial=model_s)
        x = m.hidden_states(token_tensor(ids, V, world=2))
        logits_p = m.head.logits(x)
        # vocab-sharded: concatenate along the last axis
        full_p = np.concatenate([np.asarray(s) for s in logits_p.shards], axis=-1)
        logits_s = np.asarray(model_s.logits(token_tensor(ids, V)).shards[0])
        np.testing.assert_allclose(full_p, logits_s, atol=1e-8)

    def test_partial_full_recompute_layers(self, serial):
        m = ParallelGPTModel(TINY, tensor_parallel=2, sequence_parallel=True,
                             recompute=Recompute.FULL, recompute_num_layers=1,
                             mask_source=MS, serial=serial.model)
        assert m.layers[0].recompute == Recompute.FULL
        assert m.layers[1].recompute == Recompute.NONE
        assert_parallel_equivalent(serial.run, m, serial.ids, serial.tgt)

    def test_finish_grad_sync_noop_without_sp(self, serial):
        model_s, ids, tgt = serial.model, serial.ids, serial.tgt
        m = ParallelGPTModel(TINY, tensor_parallel=2, mask_source=MS,
                             serial=model_s)
        loss = m(token_tensor(ids, V, world=2), token_tensor(tgt, V, world=2))
        loss.backward()
        before = np.asarray(m.layers[0].ln1.gamma.grad[0]).copy()
        m.finish_grad_sync()
        np.testing.assert_array_equal(before, np.asarray(m.layers[0].ln1.gamma.grad[0]))

    @pytest.mark.parametrize("build,needle", [
        # 64-row vocabulary / 32 hidden columns over three ranks
        (lambda: ParallelGPTModel(TINY, tensor_parallel=3, abstract=True),
         "not divisible by the tensor-parallel size 3"),
        (lambda: ParallelGPTModel(ODD_SEQ, tensor_parallel=2,
                                  sequence_parallel=True, abstract=True),
         "seq_length (15) must be divisible"),
        (lambda: ParallelGPTModel(TINY, tensor_parallel=8, abstract=True),
         "num_heads 4 not divisible by t=8"),
        (lambda: SelfAttention(10, 3, abstract=True),
         "hidden_size (10) must be divisible by num_heads (3)"),
        # concrete weights need a source: an rng ...
        (lambda: Linear(4, 4), "needs an rng"),
        # ... or a serial reference of the same shape
        (lambda: ParallelGPTModel(TINY, tensor_parallel=2,
                                  serial=GPTModel(ODD_SEQ, seed=0)),
         "reference weight 'embedding.position' has shape (15, 1, 32)"),
        (lambda: GPTModel(TINY, recompute=Recompute.FULL,
                          recompute_num_layers=3, abstract=True),
         "recompute_num_layers out of range"),
    ])
    def test_config_validation(self, build, needle):
        """Every invalid construction is a ``ConfigError`` naming the
        constraint — never an assert, a ``ValueError`` or a NumPy shape
        error from deep inside the first forward."""
        from repro.errors import ConfigError
        with pytest.raises(ConfigError) as error:
            build()
        assert needle in str(error.value)

    def test_dropout_zero_matches_without_mask_source(self, serial):
        """Without dropout the mask source is unnecessary for equivalence."""
        ids, tgt = serial.ids, serial.tgt
        model_s = GPTModel(TINY, seed=4, attention_dropout=0.0, hidden_dropout=0.0)
        m = ParallelGPTModel(TINY, tensor_parallel=4, sequence_parallel=True,
                             attention_dropout=0.0, hidden_dropout=0.0,
                             serial=model_s)
        assert_parallel_equivalent(model_s, m, ids, tgt)


class TestLongContextVariants:
    def test_four_way_ring(self, serial):
        serial.check(Cell("ring", 4, Recompute.SELECTIVE, False))

    def test_four_way_ulysses(self, serial):
        serial.check(Cell("ulysses", 4, Recompute.FULL, False))

    def test_logits_match_serial(self, serial):
        model_s, ids = serial.model, serial.ids
        m = LongContextGPTModel(TINY, context_parallel=2, layout="ulysses",
                                mask_source=MS, serial=model_s)
        logits_p = m.logits(token_tensor(ids, V, world=2))
        logits_s = np.asarray(model_s.logits(token_tensor(ids, V)).shards[0])
        for shard in logits_p.shards:
            np.testing.assert_array_equal(np.asarray(shard), logits_s)
