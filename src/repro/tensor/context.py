"""Execution context: grad mode, phase, trackers and RNG.

A single (module-global, single-threaded) context carries everything the
autograd functions consult while running: whether a tape is being recorded,
which phase we are in (forward / backward / recompute), the activation
memory tracker, the op log, and the random generator used for dropout.

``checkpoint`` (see :mod:`repro.tensor.checkpoint`) snapshots and restores
the RNG state so recomputed dropout masks match the original forward pass —
the same contract as ``torch.utils.checkpoint``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .memory_tracker import MemoryTracker
from .oplog import OpLog, Phase


@dataclass
class ExecutionContext:
    grad_enabled: bool = True
    phase: Phase = Phase.FORWARD
    memory: Optional[MemoryTracker] = None
    oplog: Optional[OpLog] = None
    #: Installed by :func:`repro.observability.tracer.install_tracer`;
    #: ``None`` (tracing off) keeps every hook site a single identity check.
    tracer: Optional[object] = None
    #: Installed by :func:`repro.observability.memprof.install_memprof`;
    #: ``None`` (profiling off) keeps every hook site a single identity check.
    memprof: Optional[object] = None
    #: Installed by :func:`repro.compiler.capture.capture_scope` while a
    #: :class:`~repro.compiler.capture.CaptureRecorder` is tracing one step;
    #: ``None`` (not capturing) keeps every hook site a single identity check.
    capture: Optional[object] = None
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))


_CTX = ExecutionContext()


def ctx() -> ExecutionContext:
    """The active execution context."""
    return _CTX


def seed(value: int) -> None:
    """Reset the context RNG to a fresh generator seeded with ``value``."""
    _CTX.rng = np.random.default_rng(value)


def get_rng_state():
    return _CTX.rng.bit_generator.state


def set_rng_state(state) -> None:
    _CTX.rng.bit_generator.state = state


@contextmanager
def no_grad():
    """Disable tape recording (functions still execute, nothing is saved)."""
    prev = _CTX.grad_enabled
    _CTX.grad_enabled = False
    try:
        yield
    finally:
        _CTX.grad_enabled = prev


@contextmanager
def enable_grad():
    prev = _CTX.grad_enabled
    _CTX.grad_enabled = True
    try:
        yield
    finally:
        _CTX.grad_enabled = prev


def is_grad_enabled() -> bool:
    return _CTX.grad_enabled


@contextmanager
def phase(value: Phase):
    """Tag subsequent op-log records with ``value`` (forward/backward/...)."""
    prev = _CTX.phase
    _CTX.phase = value
    try:
        yield
    finally:
        _CTX.phase = prev


@contextmanager
def instrument(memory: Optional[MemoryTracker] = None, oplog: Optional[OpLog] = None):
    """Attach a memory tracker and/or op log for the duration of a block."""
    prev_mem, prev_log = _CTX.memory, _CTX.oplog
    _CTX.memory = memory if memory is not None else prev_mem
    _CTX.oplog = oplog if oplog is not None else prev_log
    try:
        yield
    finally:
        _CTX.memory, _CTX.oplog = prev_mem, prev_log
