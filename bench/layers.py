"""Where the layer boundaries are: which ``repro`` callables the traced
pass wraps, and which bucket each is charged to.

Layers are ``src/repro`` module names.  A span opens at every call into
a layer's public surface (module-level functions, public methods of its
classes, ``forward``/``backward`` of its autograd ``Function`` classes,
``Module.__call__``); private helpers and anything not listed here run
inside their caller's span.  Nothing under ``src/`` is edited: the
wrappers are installed by attribute assignment *before* the model is
built, so captured plans and bound callbacks see them too.

Two recorders run side by side: ``LAYERS`` (self time per layer — the
buckets partition traced wall time) and ``PHASES`` (forward / backward /
recompute / optimizer, delimited by the outermost ``Module`` call,
``run_backward``, ``Checkpoint.backward`` and ``Adam.step``).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from typing import Callable, Iterable, Optional

from spans import Recorder, rebind_aliases

LAYERS = Recorder(track=1)
PHASES = Recorder(track=2)
TRACK_NAMES = {1: "layers (self time by repro module)",
               2: "phases (forward / backward / recompute / optimizer)"}

#: Helpers on the public surface called so often that a span around each
#: would cost more than the helper; they stay inside their caller's span.
SKIP = {
    # ~380k calls per analytic_report unit, each a single modulo
    "repro.pipeline_sim.schedule.rank_of_group",
}

_KERNEL_SPLIT = {"Matmul": "matmul", "Gelu": "gelu", "Softmax": "softmax",
                 "Dropout": "dropout", "LayerNorm": "layernorm",
                 "CrossEntropy": "cross_entropy"}
_FUSED_SPLIT = {"BiasGelu": "bias_gelu",
                "ScaleMaskSoftmaxDropout": "softmax_dropout",
                "FusedLayerNorm": "layernorm", "DropoutAdd": "dropout_add",
                "SoftmaxCrossEntropy": "softmax_xent"}


def _function_bucket(concrete: str) -> Callable[..., str]:
    """Bucket of one ``Function.forward``/``backward``: ``concrete`` on
    NumPy operands, ``tensor.backend`` on ``AbstractArray`` operands —
    a kernel on abstract shards is nothing but backend shape arithmetic."""
    from repro.tensor.backend import AbstractArray

    def bucket(self, fctx, *args, **kwargs):
        first = args[0] if args else None
        if type(first) is list and first and type(first[0]) is AbstractArray:
            return "tensor.backend"
        return concrete

    return bucket


def _kernel_names(cls_name: str):
    op = _KERNEL_SPLIT.get(cls_name)
    if op in ("matmul", "gelu"):
        return f"tensor.kernels.{op}_fwd", f"tensor.kernels.{op}_bwd"
    name = f"tensor.kernels.{op or 'other'}"
    return name, name


def _wrap_attr(owner, attr: str, name: str, bucket, phase: Optional[str] = None,
               outermost_phase: bool = False) -> None:
    original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
    wrapped = LAYERS.wrap(original, name, bucket)
    if phase is not None:
        wrapped = PHASES.wrap(wrapped, phase, phase,
                              outermost_only=outermost_phase)
    setattr(owner, attr, wrapped)
    if not inspect.isclass(owner):
        rebind_aliases(original, wrapped)


def _wrap_functions_of(module, function_buckets: Callable[[str], tuple]) -> None:
    """Wrap ``forward``/``backward`` of every ``Function`` subclass that
    ``module`` defines; ``function_buckets(class name)`` gives the two
    concrete bucket names."""
    from repro.tensor.tensor import Function

    for cls_name, cls in list(vars(module).items()):
        if not (inspect.isclass(cls) and issubclass(cls, Function)
                and cls.__module__ == module.__name__):
            continue
        fwd, bwd = function_buckets(cls_name)
        for attr, concrete in (("forward", fwd), ("backward", bwd)):
            if attr in cls.__dict__:
                _wrap_attr(cls, attr, f"{cls_name}.{attr}",
                           _function_bucket(concrete))


def _wrap_surface(module, bucket, only: Optional[Iterable[str]] = None) -> None:
    """Wrap the public functions of ``module`` and the public methods of
    the classes it defines.  ``bucket`` is a bucket name or a callable
    ``(class name or None) -> bucket name``."""
    from repro.layers.module import Module
    from repro.tensor.tensor import Function

    def bucket_for(cls_name):
        return bucket(cls_name) if callable(bucket) else bucket

    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or (only is not None and attr not in only):
            continue
        qual = f"{module.__name__}.{attr}"
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            if qual not in SKIP:
                _wrap_attr(module, attr, attr, bucket_for(None))
        elif (inspect.isclass(value) and value.__module__ == module.__name__
              and not issubclass(value, (Function, Module, BaseException))):
            for meth, fn in list(vars(value).items()):
                if (meth.startswith("_") or not inspect.isfunction(fn)
                        or f"{qual}.{meth}" in SKIP):
                    continue
                _wrap_attr(value, meth, f"{attr}.{meth}", bucket_for(attr))


def _modules_of(package_name: str):
    package = importlib.import_module(package_name)
    yield package
    for info in pkgutil.walk_packages(package.__path__, package_name + "."):
        yield importlib.import_module(info.name)


_in_prefill = False


def install() -> None:
    """Install every boundary wrapper.  Call once, after importing and
    before building anything."""
    m = importlib.import_module
    Adam = m("repro.training.optimizer").Adam

    # -- tensor: kernels, tape, checkpoint, memory tracker ------------------
    _wrap_functions_of(m("repro.tensor.functions"), _kernel_names)
    _wrap_attr(m("repro.tensor.tensor"), "apply", "apply", "tensor.tape")
    _wrap_attr(m("repro.tensor.tensor"), "run_backward", "run_backward",
               "tensor.tape", phase="backward")
    _wrap_attr(m("repro.tensor.tensor"), "free_graph", "free_graph", "tensor.tape")
    checkpoint_cls = m("repro.tensor.checkpoint").Checkpoint
    _wrap_attr(checkpoint_cls, "forward", "Checkpoint.forward",
               "tensor.checkpoint")
    _wrap_attr(checkpoint_cls, "backward", "Checkpoint.backward",
               "tensor.checkpoint", phase="recompute")
    _wrap_surface(m("repro.tensor.memory_tracker"), "tensor.memory_tracker",
                  only=("MemoryTracker",))

    # -- fusion -------------------------------------------------------------
    _wrap_functions_of(
        m("repro.fusion.ops"),
        lambda cls: (f"fusion.ops.{_FUSED_SPLIT.get(cls, 'other')}",) * 2)
    _wrap_surface(m("repro.fusion.arena"), "fusion.arena", only=("BufferArena",))

    # -- model glue: layers / parallel / comm -------------------------------
    for module in _modules_of("repro.parallel"):
        _wrap_functions_of(module, lambda cls: ("parallel", "parallel"))
        _wrap_surface(module, "parallel")
    for module in _modules_of("repro.layers"):
        _wrap_functions_of(module, lambda cls: ("layers", "layers"))
        _wrap_surface(module, "layers")
    _wrap_surface(m("repro.inference"), "layers")
    _wrap_attr(
        m("repro.layers.module").Module, "__call__", "Module.__call__",
        lambda self, *a, **k: ("parallel" if type(self).__module__.startswith(
            "repro.parallel") else "layers"),
        phase="forward", outermost_phase=True)
    _wrap_surface(m("repro.comm.collectives"), "comm.collectives",
                  only=("all_reduce", "all_gather", "all_to_all",
                        "reduce_scatter", "scatter", "gather_concat",
                        "broadcast"))

    # -- training and compiler ----------------------------------------------
    _wrap_surface(m("repro.training.trainer"),
                  lambda cls: ("training.pipeline" if cls == "PipelinedGPT"
                               else "training.trainer"))
    _wrap_surface(m("repro.training.optimizer"), "training.optimizer")
    # Adam.step was just wrapped for its layer; add the phase on top.
    Adam.step = PHASES.wrap(Adam.__dict__["step"], "optimizer", "optimizer")
    _wrap_surface(m("repro.compiler.plan"), "compiler.replay")
    _wrap_surface(m("repro.compiler.cache"), "compiler.replay")
    _wrap_surface(m("repro.compiler.capture"), "compiler.capture")

    # -- serving --------------------------------------------------------------
    def engine_bucket(self, *args, **kwargs):
        return ("serving.engine.prefill" if _in_prefill
                else "serving.engine.decode")

    engine_cls = m("repro.serving.engine").DecodeEngine
    for meth, fn in list(vars(engine_cls).items()):
        if not meth.startswith("_") and inspect.isfunction(fn) and meth != "prefill":
            _wrap_attr(engine_cls, meth, f"DecodeEngine.{meth}", engine_bucket)
    inner_prefill = LAYERS.wrap(engine_cls.__dict__["prefill"],
                                "DecodeEngine.prefill", "serving.engine.prefill")

    def prefill(self, *args, **kwargs):
        global _in_prefill
        _in_prefill = True
        try:
            return inner_prefill(self, *args, **kwargs)
        finally:
            _in_prefill = False

    engine_cls.prefill = prefill
    _wrap_surface(m("repro.serving.kv_cache"), "serving.kv_cache")
    _wrap_surface(m("repro.serving.scheduler"), "serving.scheduler")
    _wrap_surface(m("repro.serving.perf"), "serving.scheduler")
    _wrap_surface(m("repro.allocator"), "allocator")

    # -- analytic models ------------------------------------------------------
    for package, bucket in (("repro.pipeline_sim", "pipeline_sim"),
                            ("repro.perf_model", "perf_model"),
                            ("repro.memory_model", "memory_model"),
                            ("repro.flops_model", "flops_model"),
                            ("repro.planner", "planner"),
                            ("repro.reporting", "reporting")):
        for module in _modules_of(package):
            _wrap_surface(module, bucket)
    _wrap_surface(m("repro.experiments"), "reporting")
