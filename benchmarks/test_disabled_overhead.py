"""Disabled-overhead proofs: an instrumentation seam costs nothing when off.

Three layers hook hot paths behind one ``is None`` check when nothing is
installed: the tracer (the listener check before the tape evaluates an
op's cost rule, and ``tensor.listening`` at the explicit comm-leg emits;
timed on a TP=2 training loop), the memory profiler
(``tensor.apply`` and ``Module.__call__``, timed on an abstract TP+SP
layer forward) and the fleet's request telemetry
(router and scheduler helpers, timed on a chaos-fleet run).  For each,
the *disabled* run must make exactly the Python calls of a reference
with the seams stripped back to their pre-instrumentation bodies, plus
the seam's stated budget (counted by cProfile), and land within
:data:`DISABLED_OVERHEAD_BOUND` of it in wall time, printed beside the
reference's spread against itself (A/A); the *enabled* cost is printed,
not bounded.  This file is the only place either ratio is measured
(BENCH documents carry no wall clock).  Run with ``pytest
benchmarks/test_disabled_overhead.py -s``.
"""

import __future__
import ast
import contextlib
import cProfile
import functools
import gc
import inspect
import pstats
import statistics
import sys
import time

import pytest

from repro.config import ModelConfig
from repro.fleet import build_fleet
from repro.fleet.router import FleetRouter
from repro.layers.attention import SelfAttention
from repro.layers.module import Module
from repro.layers.transformer import Recompute
from repro.observability import (
    FlightRecorder, MetricsRegistry, RequestTracker, SLOMonitor, Tracer,
    trace_scope,
)
from repro.observability.memprof import profile_layer
from repro.parallel.transformer import ParallelGPTModel
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.serving import generate_requests
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.tensor import seed
from repro.tensor import tensor as T
from repro.tensor.context import ctx
from repro.training.data import UniformTokens
from repro.training.optimizer import Adam
from repro.training.trainer import Trainer

ROUNDS = 11
DISABLED_OVERHEAD_BOUND = 0.05


def _ratio_interleaved(reference, other, aa=False):
    """Median over :data:`ROUNDS` of the ratio ``other / reference`` of
    two ``(context, fn)`` arms, run back to back within each round.

    Inside its context an arm runs ``fn`` once untimed (re-warming after
    the context's patches), then once timed with the cyclic GC paused,
    as :mod:`timeit` does.  Pairing the arms round by round cancels slow
    drift in the host's speed, and the median drops a round a load spike
    hit; a shared 2-vCPU host still moves the ratio by a few percent from
    one process to the next.  With ``aa`` each round also runs the
    reference a second time, and the sorted ratios of that run to the
    first (A/A) measure that spread.  Returns ``(median ratio, best
    reference s, best other s, A/A ratios or [])``."""
    arms = (reference, other, reference) if aa else (reference, other)
    rounds = []
    for _ in range(ROUNDS):
        times = []
        for context, fn in arms:
            with context():
                fn()
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    fn()
                    times.append(time.perf_counter() - start)
                finally:
                    gc.enable()
        rounds.append(times)
    ratio = statistics.median(t[1] / t[0] for t in rounds)
    return (ratio, min(t[0] for t in rounds), min(t[1] for t in rounds),
            sorted(t[2] / t[0] for t in rounds) if aa else [])


def _profile(context, fn):
    """cProfile statistics of one ``fn()`` run inside ``context``, after
    one uncounted warm-up run: a repeat run's call counts are exact."""
    with context():
        fn()
        profile = cProfile.Profile()
        profile.runcall(fn)
    return pstats.Stats(profile)


def _calls(stats, path, function):
    """Calls of ``function`` defined in a file ending in ``path``."""
    return sum(nc for (file, _, name), (_, nc, _, _, _) in stats.stats.items()
               if name == function and file.endswith(path))


@contextlib.contextmanager
def _stripped(strip):
    with pytest.MonkeyPatch.context() as mp:
        strip(mp)
        yield


TRAIN_CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=2,
                        seq_length=32, vocab_size=64, name="bench-obs")


def _train_loop(tracer=None):
    model = ParallelGPTModel(TRAIN_CFG, tensor_parallel=2,
                             attention_dropout=0.0, hidden_dropout=0.0)
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
    seed(0)
    data = UniformTokens(TRAIN_CFG.vocab_size, TRAIN_CFG.seq_length, seed=1)
    with trace_scope(tracer) if tracer else contextlib.nullcontext():
        for _ in range(3):
            ids, targets = data.batch(4)
            trainer.train_step(ids, targets, num_microbatches=2)


def _legacy_listening():
    # The pre-observability check: only an op log takes op records.
    return ctx().oplog is not None


def _strip_tracer(mp):
    # The tape's listener check is three inline reads (no call), so the
    # tracer's one call-making hook is ``tensor.listening``, which the
    # explicit comm-leg emits call; it is imported by name, so the patch
    # lands wherever the one function is bound.
    for mod in list(sys.modules.values()):
        if getattr(mod, "__dict__", {}).get("listening") is T.listening:
            mp.setattr(mod, "listening", _legacy_listening)


LAYER_CFG = ModelConfig(num_layers=4, hidden_size=32, num_heads=4,
                        seq_length=32, vocab_size=64, name="bench-memprof")
LAYER_RUNS = 10  # ~5 ms a run: one scheduler hiccup does not decide a round


def _forward():
    """Abstract TP+SP layer forwards with *nothing* attached: the memprof
    seams run their disabled path on every op."""
    from repro.comm.process_group import ProcessGroup
    from repro.layers import abstract_layer
    from repro.parallel import TensorParallel

    seed(0)
    layout = TensorParallel(ProcessGroup(2), sequence_parallel=True)
    layer, _ = abstract_layer(layout, LAYER_CFG, 1, recompute=Recompute.NONE)
    for _ in range(LAYER_RUNS):
        layer(layout.abstract_stream(LAYER_CFG, 1))


def _profiled():
    from repro.comm.process_group import ProcessGroup
    from repro.parallel import TensorParallel

    layout = TensorParallel(ProcessGroup(2), sequence_parallel=True)
    for _ in range(LAYER_RUNS):
        profile_layer(layout, LAYER_CFG, 1, Recompute.NONE)


#: ``apply``'s locals holding the installed memory profiler and capture
_APPLY_SEAMS = ("mp", "cap")


def _reads_seam(node):
    return any(isinstance(n, ast.Name) and n.id in _APPLY_SEAMS
               for n in ast.walk(node))


def _at_no_seam(expr):
    """``expr``'s value with no profiler and no capture installed."""
    return eval(compile(ast.Expression(expr), "<seam>", "eval"),
                dict.fromkeys(_APPLY_SEAMS))


class _StripSeams(ast.NodeTransformer):
    """``apply``'s body as it runs with nothing installed: an ``if`` on a
    seam keeps the branch it takes then, a keyword argument reading one
    is its value then, a ``try`` left with no ``finally`` is its body,
    and any other statement reading a seam goes."""

    def _block(self, statements):
        return self.generic_visit(ast.Module(statements, [])).body

    def visit_If(self, node):
        if _reads_seam(node.test):
            return self._block(node.body if _at_no_seam(node.test)
                               else node.orelse)
        return self._drop_seams(node)

    def visit_Try(self, node):
        node = self.generic_visit(node)
        return node if node.handlers or node.finalbody else node.body

    def visit_keyword(self, node):
        if _reads_seam(node.value):
            node.value = ast.Constant(_at_no_seam(node.value))
        return node

    def _drop_seams(self, node):
        node = self.generic_visit(node)
        return None if _reads_seam(node) else node

    visit_Assign = visit_Expr = _drop_seams


def _derive_stripped_apply():
    """``tensor.apply`` with the profiler and capture seams removed: its
    own source, rewritten by :class:`_StripSeams` and compiled against
    the tensor module's globals, so an edit to ``apply`` reaches the
    reference and the names it reads are globals, as the real path's
    are."""
    tree = ast.parse(inspect.getsource(T.apply))
    tree = ast.fix_missing_locations(_StripSeams().visit(tree))
    assert not _reads_seam(tree), ast.unparse(tree)
    namespace = dict(vars(T))
    exec(compile(tree, "<tensor.apply without seams>", "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True),
         namespace)
    return namespace["apply"]


_stripped_apply = _derive_stripped_apply()


def _stripped_call(self, *args, **kwargs):
    return self.forward(*args, **kwargs)


def _strip_memprof(mp):
    # ``apply`` is imported by name, so the patch lands in every module
    # that bound it
    import repro.fusion.ops
    import repro.parallel.layout
    import repro.parallel.loss
    import repro.parallel.mappings
    import repro.tensor.functions
    import repro.tensor.tensor

    for mod in (repro.tensor.tensor, repro.tensor.functions,
                repro.fusion.ops, repro.parallel.mappings,
                repro.parallel.layout, repro.parallel.loss):
        mp.setattr(mod, "apply", _stripped_apply)
    mp.setattr(Module, "__call__", _stripped_call)
    # ``project_qkv`` binds ``Module.__call__`` as a default at import
    mp.setattr(SelfAttention.project_qkv, "__defaults__", (_stripped_call,))


FLEET_CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                        seq_length=24, vocab_size=16, name="bench-fleet-tel")
FLEET_PLAN = FaultPlan([
    FaultSpec(step=4, kind=FaultKind.REPLICA_CRASH, rank=1),
    FaultSpec(step=6, kind=FaultKind.SLOW_REPLICA, rank=2, slowdown=6.0),
    FaultSpec(step=1, kind=FaultKind.DISPATCH_LOSS),
])


def _fleet_run(telemetry=False):
    recorder = FlightRecorder(capacity=64) if telemetry else None
    tracker = RequestTracker() if telemetry else None
    monitor = SLOMonitor(slo_ttft_s=0.05, slo_tpot_s=0.005,
                         recorder=recorder) if telemetry else None
    fleet = build_fleet(FLEET_CFG, 3, block_size=2, num_blocks=10,
                        max_batch=3, seed=3, plan=FLEET_PLAN, monitor=monitor,
                        recorder=recorder, request_tracker=tracker)
    fleet.run(generate_requests(FLEET_CFG, num_requests=8, seed=3,
                                arrival_rate=5000.0, prompt_lengths=(1, 3),
                                new_tokens=(2, 8)))


def _noop(self, *args, **kw):
    return None


def _strip_fleet(mp):
    # the pre-telemetry router body: every helper seam a bare no-op
    for name in ("_mark", "_record", "_postmortem", "_end_round"):
        mp.setattr(FleetRouter, name, _noop)
    mp.setattr(ContinuousBatchingScheduler, "_mark", _noop)


def _module_calls(stats):
    # ``Module.__call__``'s one ``ctx()`` read, to see whether a memory
    # profiler is installed
    return _calls(stats, "layers/module.py", "__call__")


# seam -> (disabled run, enabled run, strip the seams back to the
# reference, the calls the disabled seams may add over the reference as a
# function of the disabled run's profile)
SEAMS = {
    "tracer": (_train_loop,
               lambda: _train_loop(Tracer(metrics=MetricsRegistry())),
               _strip_tracer, lambda stats: 0),
    "memprof": (_forward, _profiled, _strip_memprof, _module_calls),
    "fleet": (_fleet_run, lambda: _fleet_run(telemetry=True), _strip_fleet,
              lambda stats: 0),
}


@pytest.mark.parametrize("seam", SEAMS)
def test_disabled_call_count(seam):
    """Seams present but nothing installed make exactly the stripped
    reference's Python calls plus the seam's budget."""
    disabled_run, _, strip, budget = SEAMS[seam]
    reference = _profile(functools.partial(_stripped, strip), disabled_run)
    disabled = _profile(contextlib.nullcontext, disabled_run)
    allowed = reference.total_calls + budget(disabled)
    ops = _calls(disabled, "tensor/tensor.py", "apply")
    extra = disabled.total_calls - allowed
    print(f"\n{seam}: reference {reference.total_calls} calls, disabled "
          f"{disabled.total_calls} (budget {allowed - reference.total_calls}, "
          f"{ops} tape ops)")
    assert extra == 0, (
        f"disabled {seam} seams make {extra:+d} calls over the stripped "
        f"reference plus budget ({extra / max(ops, 1):+.2f} per tape op "
        f"over {ops} ops): a seam is doing work while nothing is installed")


@pytest.mark.parametrize("seam", SEAMS)
def test_disabled_overhead(seam):
    """Seams present but nothing installed vs seams stripped."""
    disabled_run, _, strip, _ = SEAMS[seam]
    ratio, reference, disabled, aa = _ratio_interleaved(
        (functools.partial(_stripped, strip), disabled_run),
        (contextlib.nullcontext, disabled_run), aa=True)
    overhead = ratio - 1.0
    print(f"\n{seam}: reference (no seams) {reference * 1e3:.2f} ms, "
          f"disabled {disabled * 1e3:.2f} ms, overhead {overhead:+.2%} "
          f"(bound {DISABLED_OVERHEAD_BOUND:.0%}; A/A median "
          f"{statistics.median(aa) - 1:+.2%}, range {aa[0] - 1:+.2%} .. "
          f"{aa[-1] - 1:+.2%})")
    assert overhead < DISABLED_OVERHEAD_BOUND, (
        f"disabled {seam} overhead {overhead:.2%} exceeds "
        f"{DISABLED_OVERHEAD_BOUND:.0%}: a seam is doing work while "
        f"nothing is installed")


@pytest.mark.parametrize("seam", SEAMS)
def test_enabled_cost(seam):
    """What the enabled layer costs, printed for the record: enabled
    instrumentation legitimately does work, so the ratio is not bounded."""
    disabled_run, enabled_run, _, _ = SEAMS[seam]
    ratio, disabled, enabled, _ = _ratio_interleaved(
        (contextlib.nullcontext, disabled_run),
        (contextlib.nullcontext, enabled_run))
    print(f"\n{seam}: disabled {disabled * 1e3:.2f} ms, "
          f"enabled {enabled * 1e3:.2f} ms ({ratio:.2f}x)")
