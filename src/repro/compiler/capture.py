"""Capture one step's op stream off the live autograd tape.

The recorder rides the eager machinery: :func:`repro.tensor.tensor.apply`
and :func:`repro.tensor.tensor.run_backward` call into the hooks below
while a step executes normally, and every hook appends a *replay closure*
to the program.  The capture step therefore **is** the step — nothing is
abstract-interpreted, and step 0 of a compiled run produces exactly the
numbers an eager step would.

Replay semantics (the levanter/JAX capture-once idiom applied to a tape):

* the capture-time :class:`~repro.tensor.tensor.Tensor` objects are the
  plan's registers — a forward closure reads ``t.shards`` of its input
  registers *at call time* and assigns the output register's ``shards``,
  so parameter updates (the optimizer mutates shards in place) and input
  rebinding flow through with zero copying;
* a register lives from the entry that writes it to its last reader,
  which drops it (``shards`` or gradient slot set to ``None``) once it
  has run; so does ``finalize`` after the capture step.  Kept are
  inputs, parameters, :func:`effect` arguments and outputs nothing
  reads (a caller reads those after ``replay()``).  Only forward
  entries read a register's shards: a backward entry reads gradient
  registers and its ``FnCtx`` saves, as eager backward sees only
  :class:`~repro.tensor.tensor.Edge` s;
* the capture-time :class:`~repro.tensor.tensor.FnCtx` objects are reused
  verbatim: ``fn.forward`` re-saves into them (charging whatever memory
  tracker is installed at replay time) and the recorded backward/release
  closure re-releases them, so :class:`MemoryTracker` output is
  byte-identical to eager mode;
* the backward walk is pre-linearized: the pending-gradient dict of
  ``run_backward`` is mirrored symbolically at capture into a flat list of
  gradient registers, so replay does no topo sort, no dict operations and
  no Node bookkeeping — just ``fn.backward`` calls with precompiled
  source/destination routing;
* composite functions (``Checkpoint``) suspend recording for their inner
  ops and replay as a single opaque call: the recompute segment re-executes
  its region natively in backward (RNG snapshot/restore included), which is
  exactly what eager mode does, so recompute numerics and the
  :attr:`Phase.RECOMPUTE` op stream cannot drift.

Collectives fire their trace hook from *inside* ``forward``/``backward``
and a replay closure evaluates the op's cost rule where ``apply`` and
``run_backward`` do, so replayed steps price through the same
``KernelCostModel`` and emit byte-identical tracer/metrics artifacts —
Eq. 1-4 drift between eager and replayed steps is exactly zero.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import CompilerError
from ..tensor import context as _tctx
from ..tensor.backend import size_of
from ..tensor.tensor import Tensor, _account, _accumulate, _zeros_for
from .plan import StepPlan


class CaptureRecorder:
    """Records one step's forward/backward op stream as replay closures."""

    def __init__(self, label: str = "step"):
        self.label = label
        self.program: List[Any] = []          # replay closures, in order
        self.meta: List[Tuple[str, Any]] = []  # (kind, fn_name) per program entry
        self.gr: List[Any] = []               # gradient registers
        self.inputs: Dict[Any, Tensor] = {}   # bind key -> input register
        self._suspend = 0
        self._nodes: Dict[int, Any] = {}      # id(node) -> node (keeps ids stable)
        self._sym: Dict[int, List[Optional[int]]] = {}  # id(node) -> grad reg per output
        # Memory-plan bookkeeping: charges recorded per FnCtx at its
        # forward op, freed where its release closure lands.
        self._save_buffer: List[Tuple[int, int, int]] = []  # (rank, bufid, nbytes)
        self._charges: Dict[int, List[Tuple[int, int, int]]] = {}  # id(fctx) -> charges
        self._alloc_at: Dict[int, int] = {}   # id(fctx) -> forward op index
        self._free_at: Dict[int, int] = {}    # id(fctx) -> release op index
        self._last_state: Optional[Tuple] = None  # (grad_enabled, phase) last emitted
        # Liveness: last entry reading each forward output (id -> (entry,
        # tensor)) and gradient register; effect arguments are kept.
        self._outputs: Dict[int, Tuple[Optional[int], Tensor]] = {}
        self._slot_read: Dict[int, int] = {}
        self._kept: set = set()

    # -- suspension (composite ops record as one opaque call) ---------------
    def suspend(self) -> None:
        self._suspend += 1

    def resume(self) -> None:
        self._suspend -= 1

    # -- driver-facing surface ----------------------------------------------
    def bind_input(self, key, tensor: Tensor) -> None:
        """Mark ``tensor`` as a plan input register rebindable under ``key``."""
        if key in self.inputs:
            raise CompilerError(f"duplicate plan input key {key!r}")
        self.inputs[key] = tensor

    def external(self, fn, *args) -> None:
        """Run ``fn(*args)`` now and record it as a program entry — the
        recording half of :func:`effect`, whose argument rule applies."""
        fn(*args)
        if not self._suspend:
            self._kept.update(id(t) for a in args for t in (
                a if isinstance(a, list) else (a,)) if isinstance(t, Tensor))
            self.program.append(partial(fn, *args))
            self.meta.append(("external", getattr(fn, "__name__", "external")))

    # -- hooks wired into repro.tensor.tensor --------------------------------
    def on_save(self, fctx, shards, dtype) -> None:
        """A charged (non-parameter) activation save during capture."""
        if self._suspend:
            return
        for rank, buf in enumerate(shards):
            self._save_buffer.append((rank, id(buf), size_of(buf) * dtype.nbytes))

    def _emit_state(self) -> None:
        """Record a grad/phase context switch only when it changes.

        Replay is a linear scan and nothing else mutates these two fields
        mid-program (composites save/restore internally), so transitions
        between recorded ops are the only places a store is needed —
        everything between them replays under the already-set state.
        """
        c = _tctx.ctx()
        state = (c.grad_enabled, c.phase)
        if state == self._last_state:
            return
        self._last_state = state
        C = _tctx._CTX
        ge, ph = state

        def op(C=C, ge=ge, ph=ph):
            C.grad_enabled = ge
            C.phase = ph

        self.program.append(op)
        self.meta.append(("state", None))

    def on_apply(self, fn, fctx, args, kwargs, outputs, requires, multi) -> None:
        if self._suspend:
            self._save_buffer.clear()
            return
        self._emit_state()

        # Replay costs the op where ``apply`` does: after forward, before a
        # forward-only op's release, only while something listens.
        items = tuple((isinstance(a, Tensor), a) for a in args)

        def op(fn=fn, fctx=fctx, items=items, kw=dict(kwargs), outs=tuple(outputs),
               multi=multi, requires=requires, C=_tctx._CTX):
            out = fn.forward(fctx, *[a.shards if is_t else a for is_t, a in items], **kw)
            if C.oplog is not None or C.tracer is not None or C.memprof is not None:
                _account(fn.forward_cost, fctx)
            for t, shards in zip(outs, out if multi else (out,)):
                t.shards = shards
            if not requires:
                fctx.release()

        index = len(self.program)
        self.program.append(op)
        self.meta.append(("forward", fn))
        for is_t, a in items:
            if is_t and id(a) in self._outputs:
                self._outputs[id(a)] = (index, a)
        for t in outputs:
            self._outputs[id(t)] = (None, t)
        if requires:
            node = outputs[0]._node
            self._nodes[id(node)] = node
            saves = self._save_buffer
            if not saves and fn.composite:
                # Composite saves happened while recording was suspended;
                # a checkpoint charges exactly its non-parameter inputs.
                saves = self._composite_charges(fctx)
            if saves:
                self._charges[id(fctx)] = list(saves)
                self._alloc_at[id(fctx)] = index
        self._save_buffer.clear()

    def _composite_charges(self, fctx) -> List[Tuple[int, int, int]]:
        if len(fctx._saved) != len(fctx.inputs):
            return []
        rows = []
        for t, shards in zip(fctx.inputs, fctx._saved):
            if t is None or t.is_param:
                continue
            for rank, buf in enumerate(shards):
                rows.append((rank, id(buf), size_of(buf) * t.dtype.nbytes))
        return rows

    def on_backward_begin(self, seeds) -> None:
        if self._suspend:
            return
        for root, grad in seeds:
            # A seed is a constant of the plan: the capture-time gradient.
            self._route_seed(root._node, root._out_index,
                             [np.array(g) for g in grad])

    def on_node_pop(self, node):
        """Mirror ``pending.pop``: gradient source specs for this node.

        Each spec is ``("slot", k)`` — read gradient register ``k`` — or
        ``("zeros", template)`` for outputs no gradient flowed into.
        """
        if self._suspend:
            return None
        sym = self._sym.pop(id(node), None)
        sources = []
        for i in range(node.n_outputs):
            if sym is not None and sym[i] is not None:
                sources.append(("slot", sym[i]))
            else:
                sources.append(("zeros", node.out_templates[i]))
        return sources

    def on_node_release(self, node) -> None:
        """All-``None`` gradients: eager just releases the saved buffers."""
        if self._suspend:
            return
        fctx = node.fctx

        def op(fctx=fctx):
            fctx.release()

        self._free_at[id(fctx)] = len(self.program)
        self.program.append(op)
        self.meta.append(("release", node.fn))

    def on_node_backward(self, node, sources, grads_in) -> None:
        if self._suspend:
            return
        dests: List[Optional[Tuple]] = []
        for t, g in zip(node.inputs, grads_in):
            if t is None or g is None or not t.requires_grad:
                dests.append(None)
            elif t._node is None:
                dests.append(("leaf", t))
            else:
                dests.append(self._dest_slot(t._node, t._out_index))

        self._emit_state()
        fn, fctx = node.fn, node.fctx

        def op(fn=fn, fctx=fctx, srcs=tuple(sources), dests=tuple(dests), gr=self.gr,
               C=_tctx._CTX):
            grads = [gr[payload] if kind == "slot" else _zeros_for(payload)
                     for kind, payload in srcs]
            if C.oplog is not None or C.tracer is not None or C.memprof is not None:
                _account(fn.backward_cost, fctx, grads)
            grads_in = fn.backward(fctx, *grads)
            if not isinstance(grads_in, tuple):
                grads_in = (grads_in,)
            for d, g in zip(dests, grads_in):
                if d is None:
                    continue
                kind, target = d
                if kind == "leaf":
                    target.grad = _accumulate(target.grad, g)
                elif kind == "create":
                    gr[target] = list(g)
                else:
                    gr[target] = _accumulate(gr[target], g)
            fctx.release()

        index = len(self.program)
        for kind, k in (*sources, *filter(None, dests)):
            if kind in ("slot", "accum"):
                self._slot_read[k] = index
        self._free_at[id(fctx)] = index
        self.program.append(op)
        self.meta.append(("backward", fn))

    # -- symbolic pending-dict mirror ----------------------------------------
    def _dest_slot(self, node, out_index: int) -> Tuple[str, int]:
        sym = self._sym.setdefault(id(node), [None] * node.n_outputs)
        if sym[out_index] is None:
            k = len(self.gr)
            self.gr.append(None)
            sym[out_index] = k
            return ("create", k)
        return ("accum", sym[out_index])

    def _route_seed(self, node, out_index: int, arrs: List[np.ndarray]) -> None:
        gr = self.gr
        kind, k = self._dest_slot(node, out_index)
        if kind == "create":
            def op(gr=gr, k=k, arrs=arrs):
                gr[k] = [np.array(a) for a in arrs]
        else:
            def op(gr=gr, k=k, arrs=arrs):
                gr[k] = _accumulate(gr[k], [np.array(a) for a in arrs])
            self._slot_read[k] = len(self.program)

        op()  # seeds run immediately at capture (mirrors eager insertion)
        self.program.append(op)
        self.meta.append(("seed", None))

    # -- finalize -------------------------------------------------------------
    def finalize(self) -> StepPlan:
        from .memplan import plan_memory

        memory = plan_memory(self._charges, self._alloc_at, self._free_at,
                             len(self.program))
        # Each entry that last reads a register drops it once it has run;
        # the capture step is over, so its registers go now.
        drops: Dict[int, Tuple[List[Tensor], List[int]]] = {}
        for key, (index, t) in self._outputs.items():
            if index is not None and key not in self._kept:
                drops.setdefault(index, ([], []))[0].append(t)
        for k, index in self._slot_read.items():
            drops.setdefault(index, ([], []))[1].append(k)
        program = list(self.program)
        for index, drop in drops.items():
            program[index] = partial(_run_then_drop, program[index], *drop, self.gr)
            _run_then_drop(lambda: None, *drop, self.gr)
        return StepPlan(
            label=self.label,
            program=tuple(program),
            meta=tuple(self.meta),
            inputs=dict(self.inputs),
            memory=memory,
            released=tuple(t for registers, _ in drops.values() for t in registers),
            gradients=self.gr,
        )


def _run_then_drop(op, registers, slots, gr) -> None:
    """Run program entry ``op``, the last reader of ``registers`` and of
    gradient registers ``slots``, then drop them."""
    op()
    for t in registers:
        t.shards = None
    for k in slots:
        gr[k] = None


@contextmanager
def capture_scope(recorder: CaptureRecorder):
    """Install ``recorder`` on the execution context for one step."""
    c = _tctx.ctx()
    if c.capture is not None:
        raise CompilerError("a step capture is already active")
    c.capture = recorder
    try:
        yield recorder
    finally:
        c.capture = None


def effect(fn, *args) -> None:
    """Run the side effect ``fn(*args)`` now and, iff a step capture is
    active, again at this point of every replay.

    Everything a step does that is not a tape op — a span, a loss read —
    goes through here, which is what lets a driver state
    its step once: the same body runs bare (eager) or under
    :func:`capture_scope`, and a replay re-runs exactly its effects.  One
    plan serves every later step, so each argument must be a register (a
    capture-time tensor whose shards replay refreshes), a mutable holder
    (a list, the driver object) or a constant of the plan key (a
    microbatch number) — never a step-varying value; ``fn``
    reads those from the holder when it runs.  A replay never drops a
    register passed here, directly or in a list.  Outside a capture the
    cost is this one call.
    """
    recorder = _tctx._CTX.capture
    if recorder is None:
        fn(*args)
    else:
        recorder.external(fn, *args)
