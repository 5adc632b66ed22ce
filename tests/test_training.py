"""Training substrate: Adam, loss scaler, data generators, end-to-end fits."""

import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ConfigError
from repro.layers import GPTModel, token_tensor
from repro.parallel import ParallelGPTModel
from repro.tensor import from_numpy, parameter
from repro.tensor import functions as F
from repro.training import (
    Adam, DataParallelTrainer, LossScaler, MarkovTokens, PipelinedGPT, Trainer,
    UniformTokens, split_microbatches,
)
from repro.training import data_parallel as data_parallel_module
from repro.training import trainer as trainer_module


class TestAdam:
    def test_minimizes_quadratic(self):
        target = np.array([3.0, -2.0, 0.5])
        w = parameter([np.zeros(3)])
        opt = Adam([w], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            diff = F.add(w, from_numpy(-target))
            loss = F.sum_all(F.mul(diff, diff))
            loss.backward()
            opt.step()
        np.testing.assert_allclose(np.asarray(w.shards[0]), target, atol=1e-2)

    def test_sharded_params_updated_per_rank(self):
        w = parameter([np.ones(2), 2 * np.ones(2)], layout="shard(dim=0)")
        w.grad = [np.ones(2), -np.ones(2)]
        opt = Adam([w], lr=0.1)
        opt.step()
        assert np.asarray(w.shards[0])[0] < 1.0   # moved against +grad
        assert np.asarray(w.shards[1])[0] > 2.0   # moved against -grad

    def test_weight_decay_shrinks_weights(self):
        w = parameter([np.full(4, 10.0)])
        w.grad = [np.zeros(4)]
        opt = Adam([w], lr=0.1, weight_decay=0.1)
        opt.step()
        assert np.all(np.asarray(w.shards[0]) < 10.0)

    def test_grad_clip(self):
        w = parameter([np.zeros(3)])
        w.grad = [np.full(3, 1e6)]
        opt = Adam([w], lr=0.1, grad_clip=1.0)
        assert opt.global_grad_norm() > 1.0
        opt.step()  # clipped: first Adam step magnitude stays ~lr
        assert np.all(np.abs(np.asarray(w.shards[0])) < 0.2)

    @pytest.mark.parametrize("weight_decay, grad_clip",
                             [(0.0, None), (0.01, 0.5), (0.0, 0.5), (0.01, None)])
    def test_in_place_step_is_bitwise_the_textbook_formula(self, weight_decay,
                                                           grad_clip):
        """Five steps of the in-place kernel against the expression-form
        Adam it replaced: weights bitwise equal, sharded and replicated
        params, clip hit on the large-gradient steps, ``p.grad`` untouched."""
        rng = np.random.default_rng(11)
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        shared = rng.normal(size=(3, 4))
        params = [
            parameter([rng.normal(size=(4, 6)), rng.normal(size=(4, 6))],
                      layout="shard(dim=1)"),
            parameter([shared.copy(), shared.copy()], layout="replicated"),
            parameter([rng.normal(size=5)]),
        ]
        ref_w = [[s.copy() for s in p.shards] for p in params]
        ref_m = [[np.zeros_like(s) for s in p.shards] for p in params]
        ref_v = [[np.zeros_like(s) for s in p.shards] for p in params]
        opt = Adam(params, lr=lr, betas=(b1, b2), eps=eps,
                   weight_decay=weight_decay, grad_clip=grad_clip)
        clipped = 0
        for step in range(1, 6):
            magnitude = 10.0 if step % 2 else 1e-3   # above / below the clip
            for p in params:
                grads = [rng.normal(size=s.shape) * magnitude for s in p.shards]
                p.grad = grads[:1] * p.world if p.layout == "replicated" else grads
            before = [[g.copy() for g in p.grad] for p in params]
            coeff = 1.0
            if grad_clip is not None and opt.global_grad_norm() > grad_clip:
                coeff = grad_clip / (opt.global_grad_norm() + 1e-12)
                clipped += 1
            opt.step()
            for i, p in enumerate(params):
                for r in range(p.world):
                    g = before[i][r] * coeff
                    if weight_decay:
                        g = g + weight_decay * ref_w[i][r]
                    m, v = ref_m[i][r], ref_v[i][r]
                    m *= b1
                    m += (1 - b1) * g
                    v *= b2
                    v += (1 - b2) * np.square(g)
                    update = (m / (1.0 - b1 ** step)) / (
                        np.sqrt(v / (1.0 - b2 ** step)) + eps)
                    ref_w[i][r] -= lr * update
                    np.testing.assert_array_equal(p.shards[r], ref_w[i][r])
                    np.testing.assert_array_equal(p.grad[r], before[i][r])
        assert clipped == (3 if grad_clip is not None else 0)
        np.testing.assert_array_equal(params[1].shards[0], params[1].shards[1])

    def test_skips_params_without_grads(self):
        w = parameter([np.ones(3)])
        Adam([w]).step()
        np.testing.assert_array_equal(np.asarray(w.shards[0]), np.ones(3))

    def test_validation(self):
        with pytest.raises(ConfigError):
            Adam([], lr=0.1)
        with pytest.raises(ConfigError):
            Adam([parameter([np.ones(1)])], lr=0.0)

    @pytest.mark.parametrize("options", [
        dict(betas=(1.0, 0.999)),   # bias correction 0/0: every weight NaN
        dict(betas=(0.9, 1.0)),
        dict(betas=(-0.1, 0.999)),
        dict(eps=0.0),              # a zero gradient divides 0 by 0
        dict(eps=-1e-8),
        dict(grad_clip=-1.0),       # gradient ascent
        dict(grad_clip=0.0),        # every update skipped
    ], ids=lambda options: ",".join(f"{k}={v}" for k, v in options.items()))
    def test_options_that_corrupt_training_are_rejected(self, options):
        with pytest.raises(ConfigError):
            Adam([parameter([np.ones(3)])], lr=0.1, **options)


class TestLossScaler:
    def test_scale_cancels_numerically(self):
        w = parameter([np.ones(3)])
        scaler = LossScaler(scale=1024.0)
        x = from_numpy(np.ones((2, 3)))
        loss = scaler.scale_loss(F.sum_all(F.matmul(x, parameter([np.eye(3)]))))
        # Simpler: scale then unscale grads on a fresh graph
        w2 = parameter([np.eye(3)])
        l2 = scaler.scale_loss(F.sum_all(F.matmul(x, w2)))
        l2.backward()
        scaler.unscale_grads([w2])
        np.testing.assert_allclose(np.asarray(w2.grad[0]),
                                   np.ones((3, 3)) * 2, atol=1e-9)

    def test_backoff_on_overflow(self):
        scaler = LossScaler(scale=1024.0)
        scaler.update(found_overflow=True)
        assert scaler.scale == 512.0

    def test_growth_after_interval(self):
        scaler = LossScaler(scale=2.0, growth_interval=3)
        for _ in range(3):
            scaler.update(found_overflow=False)
        assert scaler.scale == 4.0

    def test_scale_floor(self):
        scaler = LossScaler(scale=1.0)
        scaler.update(found_overflow=True)
        assert scaler.scale == 1.0


class TestData:
    def test_uniform_shapes_and_shift(self):
        data = UniformTokens(vocab_size=16, seq_length=8, seed=0)
        ids, targets = data.batch(3)
        assert ids.shape == targets.shape == (8, 3)
        # targets are ids shifted by one position
        np.testing.assert_array_equal(ids[1:], targets[:-1])

    def test_markov_entropy_below_uniform(self):
        data = MarkovTokens(vocab_size=16, seq_length=8, seed=0)
        assert data.entropy_rate() < np.log(16) * 0.8

    def test_markov_transitions_are_distributions(self):
        data = MarkovTokens(vocab_size=8, seq_length=4, seed=1)
        np.testing.assert_allclose(data.transitions.sum(axis=1), 1.0)

    def test_batches_iterator(self):
        data = UniformTokens(vocab_size=16, seq_length=4, seed=0)
        it = data.batches(2)
        a, _ = next(it)
        b, _ = next(it)
        assert not np.array_equal(a, b)

    def test_vocab_validation(self):
        with pytest.raises(ConfigError):
            UniformTokens(vocab_size=1, seq_length=4)


class TestTrainerHelpers:
    def test_split_microbatches(self):
        ids = np.arange(24).reshape(4, 6)
        parts = split_microbatches(ids, ids, 3)
        assert len(parts) == 3
        assert parts[0][0].shape == (4, 2)

    def test_split_indivisible_rejected(self):
        ids = np.zeros((4, 5))
        with pytest.raises(ConfigError):
            split_microbatches(ids, ids, 2)


class TestEndToEndTraining:
    CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                      seq_length=32, vocab_size=16)

    def test_serial_model_learns_markov_stream(self):
        model = GPTModel(self.CFG, seed=0, attention_dropout=0.0, hidden_dropout=0.0)
        trainer = Trainer(model, Adam(model.parameters(), lr=3e-3))
        data = MarkovTokens(16, 32, seed=1)
        first = last = None
        for step in range(25):
            ids, tgt = data.batch(8)
            loss = trainer.train_step(ids, tgt)
            first = loss if first is None else first
            last = loss
        assert last < first - 0.3
        assert last > data.entropy_rate() * 0.8  # can't beat the floor

    def test_parallel_model_trains_identically_to_serial(self):
        serial = GPTModel(self.CFG, seed=0, attention_dropout=0.0, hidden_dropout=0.0)
        parallel = ParallelGPTModel(self.CFG, tensor_parallel=2,
                                    sequence_parallel=True,
                                    attention_dropout=0.0, hidden_dropout=0.0,
                                    serial=serial)
        t_serial = Trainer(serial, Adam(serial.parameters(), lr=1e-3))
        t_parallel = Trainer(parallel, Adam(parallel.parameters(), lr=1e-3))
        data = MarkovTokens(16, 32, seed=2)
        for _ in range(3):
            ids, tgt = data.batch(4)
            l_s = t_serial.train_step(ids, tgt, num_microbatches=2)
            l_p = t_parallel.train_step(ids, tgt, num_microbatches=2)
            assert l_p == pytest.approx(l_s, abs=1e-8)

    def test_grad_accumulation_equals_big_batch(self):
        model = GPTModel(self.CFG, seed=3, attention_dropout=0.0,
                         hidden_dropout=0.0)
        data = MarkovTokens(16, 32, seed=4)
        ids, tgt = data.batch(4)
        model.zero_grad()
        v = self.CFG.vocab_size
        loss = model(token_tensor(ids, v), token_tensor(tgt, v))
        loss.backward()
        big = np.asarray(model.layers[0].mlp.fc1.weight.grad[0]).copy()
        model.zero_grad()
        for mb_ids, mb_tgt in split_microbatches(ids, tgt, 2):
            l = model(token_tensor(mb_ids, v), token_tensor(mb_tgt, v))
            l.backward([np.asarray(0.5)])
        accum = np.asarray(model.layers[0].mlp.fc1.weight.grad[0])
        np.testing.assert_allclose(accum, big, atol=1e-9)


class TestFp16GradientFlush:
    """Loss scaling with real fp16 rounding: the reason the recipe exists."""

    TINY = 1e-8  # below fp16's smallest subnormal (~6e-8)

    def _grad_through_fp16(self, scale):
        from repro.training import LossScaler, flush_grads_through_fp16
        from repro.tensor import functions as F
        scaler = LossScaler(scale=scale)
        x = from_numpy(np.full((1, 4), self.TINY))  # tiny grads for w
        w = parameter([np.eye(4)])
        loss = scaler.scale_loss(F.sum_all(F.matmul(x, w)))
        loss.backward()
        overflow = flush_grads_through_fp16([w])
        scaler.unscale_grads([w])
        return np.asarray(w.grad[0]), overflow

    def test_tiny_grads_underflow_without_scaling(self):
        grad, overflow = self._grad_through_fp16(scale=1.0)
        assert not overflow
        assert np.all(grad == 0.0)  # 1e-8 flushes to zero in fp16

    def test_loss_scaling_rescues_tiny_grads(self):
        grad, overflow = self._grad_through_fp16(scale=2.0**14)
        assert not overflow
        assert np.all(grad > 0.0)
        np.testing.assert_allclose(grad, self.TINY, rtol=2e-3)

    def test_excessive_scale_overflows_and_scaler_backs_off(self):
        from repro.training import LossScaler, flush_grads_through_fp16
        from repro.tensor import functions as F
        w = parameter([np.eye(4)])
        x = from_numpy(np.full((1, 4), 1e3))
        scaler = LossScaler(scale=2.0**40)
        loss = scaler.scale_loss(F.sum_all(F.matmul(x, w)))
        loss.backward()
        overflow = flush_grads_through_fp16([w])
        assert overflow
        scaler.update(found_overflow=True)
        assert scaler.scale == 2.0**39  # backed off; step would be skipped


class TestPackedDocuments:
    def test_shapes_and_mask_semantics(self):
        from repro.training.data import PackedDocuments
        data = PackedDocuments(vocab_size=16, seq_length=24, seed=0)
        ids, targets, mask = data.batch(4)
        assert ids.shape == targets.shape == mask.shape == (24, 4)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert 0 < mask.mean() <= 1.0
        # padding targets are masked out
        assert np.all(mask[targets == data.pad] <= 1.0)

    def test_contains_eos_separators(self):
        from repro.training.data import PackedDocuments
        data = PackedDocuments(vocab_size=16, seq_length=32, seed=1)
        ids, _, _ = data.batch(4)
        assert (ids == data.eos).sum() > 0

    def test_masked_training_runs(self):
        from repro.training.data import PackedDocuments
        from repro.tensor import FP32, Tensor
        cfg = ModelConfig(num_layers=1, hidden_size=16, num_heads=2,
                          seq_length=16, vocab_size=16)
        model = GPTModel(cfg, seed=0, attention_dropout=0.0, hidden_dropout=0.0)
        opt = Adam(model.parameters(), lr=1e-3)
        data = PackedDocuments(16, 16, seed=2)
        ids, targets, mask = data.batch(4)
        mask_t = Tensor([mask], dtype=FP32)
        v = cfg.vocab_size
        loss = model(token_tensor(ids, v), token_tensor(targets, v), loss_mask=mask_t)
        loss.backward()
        opt.step()
        assert np.isfinite(loss.item())

    def test_vocab_validation(self):
        from repro.training.data import PackedDocuments
        with pytest.raises(ConfigError):
            PackedDocuments(vocab_size=2, seq_length=8)


class TestHostMemoryPolicy:
    """The training drivers keep the memory a step frees in the heap
    (``keep_heap_resident``), so a warm step does not page-fault its
    working set in again; serving never sets the policy."""

    #: the wall-clock benchmark's train shape: its ~1 MB activation
    #: buffers are what the default glibc thresholds hand back each step
    SUBSTRATE = ModelConfig(name="substrate", num_layers=2, hidden_size=128,
                            num_heads=4, seq_length=64, vocab_size=64)

    @classmethod
    def substrate_step(cls, compiled: bool = False):
        """One ``Trainer.train_step`` of a fresh serial model on the
        substrate shape and a fixed batch of 4, as a call."""
        cfg = cls.SUBSTRATE
        model = GPTModel(cfg, seed=0, fused=False)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3),
                          compiled=compiled)
        ids, targets = UniformTokens(cfg.vocab_size, cfg.seq_length, seed=1).batch(4)
        return functools.partial(trainer.train_step, ids, targets)

    @pytest.mark.parametrize("compiled", [False, True],
                             ids=["eager", "compiled"])
    def test_a_warm_training_step_is_fault_free(self, compiled):
        """Counted in a fresh interpreter with BLAS on one thread, so the
        heap measured is the step's own, not what earlier tests left.
        The heap may still grow once by one (s, b, h) activation (64
        pages) at a warm step, seen as late as the fifteenth, so the
        window follows twenty."""
        pytest.importorskip("resource")
        script = "\n".join([
            "import resource, sys",
            "from repro.training import trainer",
            "from test_training import TestHostMemoryPolicy",
            "if not trainer.keep_heap_resident():",
            "    sys.exit(print('no policy'))",
            f"step = TestHostMemoryPolicy.substrate_step({compiled})",
            "for _ in range(20):  # the heap settles over the first steps",
            "    step()",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "for _ in range(3):",
            "    step()",
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        ])
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=False)
        assert done.returncode == 0, done.stderr
        if done.stdout.strip() == "no policy":
            pytest.skip("no glibc mallopt: the host-memory policy is not set")
        # the default thresholds take ~3 000 minor faults per step here
        assert int(done.stdout) <= 64

    @staticmethod
    def _count_policy_calls(monkeypatch) -> list:
        calls = []
        for module in (trainer_module, data_parallel_module):
            monkeypatch.setattr(module, "keep_heap_resident",
                                lambda: calls.append(1))
        return calls

    def test_each_training_driver_sets_the_policy(self, monkeypatch):
        calls = self._count_policy_calls(monkeypatch)
        cfg = TestEndToEndTraining.CFG
        Trainer(GPTModel(cfg, seed=0))
        PipelinedGPT(GPTModel(cfg, seed=0), pipeline_parallel=2)
        DataParallelTrainer(lambda: GPTModel(cfg, seed=0), data_parallel=2)
        assert len(calls) == 3

    def test_a_decode_step_never_sets_the_policy(self, monkeypatch):
        from repro.serving import DecodeEngine, PagedKVCache
        calls = self._count_policy_calls(monkeypatch)
        cfg = TestEndToEndTraining.CFG
        engine = DecodeEngine(GPTModel(cfg, seed=0),
                              PagedKVCache(cfg, block_size=2, num_blocks=16))
        engine.prefill("r", np.array([1, 2, 3]))
        engine.decode(["r"], [4])
        assert calls == []

    def test_backward_high_water_is_one_node_and_gelu_blocks(self, monkeypatch):
        """ROADMAP item 4, serial cell: above what it holds when backward
        starts (the saves), one warm step's backward needs at most its
        largest node's gradients in and out plus GeLU's block scratch.
        Traced outside any timed unit: ``tracemalloc`` has a cost."""
        import tracemalloc

        from repro.tensor import tensor as tape
        step = self.substrate_step()
        step()
        marks, run_backward = {}, tape.run_backward

        def traced(seeds):
            marks["held"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_backward(seeds)
            marks["peak"] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(tape, "run_backward", traced)
        tracemalloc.start()
        try:
            step()
        finally:
            tracemalloc.stop()
        width = 8  # the kernels' float64
        h, tokens = self.SUBSTRATE.hidden_size, self.SUBSTRATE.seq_length * 4
        # The largest node is fc1's bias add: the MLP's 4h-wide gradient
        # in and out, and the bias gradient.
        node = (2 * tokens * 4 * h + 4 * h) * width
        scratch = 3 * F._GELU_BLOCK * width  # backward's t, u, v blocks
        # 2.49 MB here; full-size GeLU scratch read 4.37 MB, the blocks 1.62
        assert marks["peak"] - marks["held"] <= node + scratch

    #: What a warm compiled step may hold between steps beyond its eager
    #: twin.  One (s, b, h) activation is 256 kB here; keeping the last
    #: step's registers alive held 42 MB.
    REPLAY_EXCESS = 64 * 1024

    def test_a_warm_replay_holds_what_its_eager_twin_holds(self):
        """ROADMAP item 4, compiled arm: what one warm step leaves
        allocated when it returns (the parameters' gradients, traced from
        the step's start) is the eager twin's, within ``REPLAY_EXCESS``.
        A replay drops each register after its last reader.  Traced
        outside any timed unit: ``tracemalloc`` has a cost."""
        import tracemalloc

        held = {}
        for compiled in (False, True):
            step = self.substrate_step(compiled)
            for _ in range(3):  # capture, then warm replays
                step()
            tracemalloc.start()
            try:
                mark = tracemalloc.get_traced_memory()[0]
                step()
                held[compiled] = tracemalloc.get_traced_memory()[0] - mark
            finally:
                tracemalloc.stop()
        # 3.40 MB eager, 3.38 MB replayed (the replay builds no graph)
        assert abs(held[True] - held[False]) <= self.REPLAY_EXCESS, held

    #: What a step holds per tape node beside the saves: the node, its
    #: FnCtx, output Tensors and input Edges, their lists, and the small
    #: arrays a step keeps (token tensors, the loss); ~0.9 kB measured
    RESIDUE_PER_NODE = 2048

    @staticmethod
    def _nodes(seeds) -> list:
        """Every tape node the backward seeds reach, once."""
        nodes, stack = {}, [root._node for root, _ in seeds]
        while stack:
            node = stack.pop()
            if node is not None and id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(getattr(i, "_node", None) for i in node.inputs)
        return list(nodes.values())

    @staticmethod
    def _by_base(buffers) -> dict:
        """id -> bytes of the buffers' bases: a view counted once."""
        out = {}
        for buf in buffers:
            while isinstance(buf.base, np.ndarray):
                buf = buf.base
            out[id(buf)] = buf.nbytes
        return out

    def test_forward_holds_its_saves_and_a_bounded_residue(self, monkeypatch):
        """ROADMAP item 4, serial forward cell: what one warm step's
        forward leaves allocated is the real bytes of the buffers the
        tape saved (a view counted once, by its base; parameters live
        elsewhere) plus a per-node residue.  An activation kept alive
        without being saved is at least one (s, b, h) buffer, 256 kB
        here, far above the residue bound."""
        import tracemalloc

        from repro.tensor import tensor as tape
        step = self.substrate_step()
        step()
        params = {id(s) for p in step.func.__self__.model.parameters()
                  for s in p.shards}
        marks, run_backward = {}, tape.run_backward

        def traced(seeds):
            marks["held"] = tracemalloc.get_traced_memory()[0] - marks["mark"]
            nodes = self._nodes(seeds)
            saves = self._by_base(buf for node in nodes
                                  for shards in node.fctx._saved
                                  for buf in shards)
            marks["nodes"] = len(nodes)
            marks["saves"] = sum(nbytes for base, nbytes in saves.items()
                                 if base not in params)
            run_backward(seeds)

        monkeypatch.setattr(tape, "run_backward", traced)
        tracemalloc.start()
        try:
            marks["mark"] = tracemalloc.get_traced_memory()[0]
            step()
        finally:
            tracemalloc.stop()
        residue = marks["held"] - marks["saves"]
        # 11.50 MB held, 11.44 MB saved: 63 kB over 73 nodes.  Keeping
        # each MLP's output alive as well reads 602 kB.
        assert 0 <= residue <= marks["nodes"] * self.RESIDUE_PER_NODE, marks

    def test_backward_leaves_only_the_gradients(self, monkeypatch):
        """ROADMAP item 4, serial after-backward cell: when one warm
        step's backward returns, what the step has left allocated is the
        parameters' gradients (a view counted once, by its base) plus
        the per-node residue -- the saves are released, and the nodes
        stay only until the step drops its loss.  A saved (s, b, h)
        activation kept alive past backward is 256 kB here, far above
        the residue bound."""
        import tracemalloc

        from repro.tensor import tensor as tape
        step = self.substrate_step()
        step()
        marks, run_backward = {}, tape.run_backward

        def traced(seeds):
            marks["nodes"] = len(self._nodes(seeds))
            run_backward(seeds)
            marks["held"] = tracemalloc.get_traced_memory()[0] - marks["mark"]

        monkeypatch.setattr(tape, "run_backward", traced)
        tracemalloc.start()
        try:
            marks["mark"] = tracemalloc.get_traced_memory()[0]
            step()
        finally:
            tracemalloc.stop()
        grads = self._by_base(g for p in step.func.__self__.model.parameters()
                              for g in p.grad)
        residue = marks["held"] - sum(grads.values())
        # 3.44 MB held, 3.37 MB of gradients: 74 kB over 73 nodes.
        assert 0 <= residue <= marks["nodes"] * self.RESIDUE_PER_NODE, (
            marks, residue)


class TestTrainStepAccounting:
    """A training step with nothing installed pays for its kernels only:
    the tape evaluates cost rules and builds op records only under a
    listener, forward (``apply``) and backward (``run_backward``) alike.
    The serial counterpart of ``test_serving.TestDecodeStepAccounting``."""

    #: Python calls of one warm unlistened serial step on the substrate
    #: shape, measured with GeLU streaming blocks (6 589 with one-pass
    #: GeLU kernels; the blocks add 144).  A listener check per backward
    #: node made a ``listening()`` call instead of inline adds 150.
    CALLS = 6733
    #: The rule evaluator, the cost rules and the record builders.
    ACCOUNTING = ("_account", "forward_cost", "backward_cost", "per_element_cost",
                  "gemm", "elementwise", "comm")

    def test_an_unlistened_step_makes_no_accounting_calls(self):
        import cProfile
        import gc
        import pstats
        step = TestHostMemoryPolicy.substrate_step()
        step()
        profile = cProfile.Profile()
        # A collection would run whatever gc callbacks other tests left
        # (hypothesis installs one), so the count is taken without one.
        gc.disable()
        try:
            profile.runcall(step)
        finally:
            gc.enable()
        stats = pstats.Stats(profile)
        calls = {}
        for (_, _, name), (_, count, _, _, _) in stats.stats.items():
            calls[name] = calls.get(name, 0) + count
        assert calls["apply"] == 73 and calls["run_backward"] == 1
        assert {name: calls.get(name, 0) for name in self.ACCOUNTING} == dict.fromkeys(
            self.ACCOUNTING, 0)
        assert stats.total_calls <= self.CALLS
