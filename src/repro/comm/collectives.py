"""Data semantics of the collectives, on per-rank shard lists.

These functions implement what NCCL collectives *compute*, operating on a
list with one array per rank (concrete NumPy or abstract shape-only).
They are pure data transforms — time/cost accounting lives in
:mod:`repro.comm.cost_model` and is logged by the autograd wrappers in
:mod:`repro.parallel.mappings`.

Conventions (matching NCCL):

* ``all_reduce(shards)`` — every rank ends with the elementwise sum.
* ``all_gather(shards, axis)`` — every rank ends with the concatenation of
  all shards along ``axis``.
* ``reduce_scatter(shards, axis)`` — the elementwise sum is computed, then
  split along ``axis``; rank ``i`` keeps piece ``i``.
* ``all_to_all(shards, split_axis, concat_axis)`` — every rank splits its
  shard into ``n`` pieces along ``split_axis`` and sends piece ``j`` to
  rank ``j``; each rank concatenates the ``n`` pieces it receives along
  ``concat_axis``.  With ``split_axis == concat_axis`` this is the
  classic shard-transpose; with different axes it re-shards a tensor
  from one axis to another (the DeepSpeed-Ulysses sequence<->head
  redistribution).
* ``scatter(full, world, axis)`` — split one array into per-rank pieces
  (no reduction).
* ``gather_concat(shards, axis)`` — like all_gather but conceptually
  rooted; provided for schedule code that wants a single full array.

On abstract shards each collective is one shape computation whose result
every rank shares (the shared-list rule of :mod:`repro.tensor.backend`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Sequence

from ..errors import CommError
from ..tensor import backend as bk
from ..tensor.backend import AbstractArray, ArrayLike

#: The installed fault injector (see :mod:`repro.resilience`).  ``None``
#: on the clean path, where collectives pay only this one identity check.
_INJECTOR = None

#: The installed trace observer (see :mod:`repro.observability.tracer`).
#: ``None`` when tracing is off — same one-identity-check contract.
_TRACE_HOOK = None


def install_trace_hook(hook) -> None:
    """Install (or with ``None``, remove) the collective trace observer.

    The hook is called as ``hook(op, shards)`` before each simulated
    collective executes; :mod:`repro.observability` uses it to price the
    call on the simulated clock and record a span.  Installed/removed by
    :func:`repro.observability.tracer.install_tracer`.
    """
    global _TRACE_HOOK
    _TRACE_HOOK = hook


def active_trace_hook():
    """The installed collective trace observer, or ``None``."""
    return _TRACE_HOOK


def install_fault_injector(injector) -> None:
    """Install (or with ``None``, remove) the process-wide fault injector.

    Every simulated collective consults the injector, which may delay it
    (straggler), corrupt its payload (bit flip) or abort it with a typed
    :class:`~repro.errors.CommError` subclass (crash, timeout).  Prefer
    the :func:`fault_scope` context manager, which restores the previous
    injector on exit.
    """
    global _INJECTOR
    _INJECTOR = injector


def active_fault_injector():
    """The currently installed injector, or ``None`` on the clean path."""
    return _INJECTOR


@contextmanager
def fault_scope(injector) -> Iterator[None]:
    """Install ``injector`` for the duration of a ``with`` block."""
    previous = _INJECTOR
    install_fault_injector(injector)
    try:
        yield
    finally:
        install_fault_injector(previous)


def _inject(op: str, shards: Sequence[ArrayLike]) -> Sequence[ArrayLike]:
    """Give the tracer and the injector a chance to observe this call."""
    if _TRACE_HOOK is not None:
        _TRACE_HOOK(op, shards)
    if _INJECTOR is None:
        return shards
    return _INJECTOR.on_collective(op, shards)


def _check(shards: Sequence[ArrayLike]) -> None:
    if not shards:
        raise CommError("collective needs at least one shard")
    s0 = shards[0]
    shape0 = bk.shape_of(s0)
    for s in shards[1:]:
        if s is not s0 and bk.shape_of(s) != shape0:
            raise CommError(
                f"collective shards must share a shape; got {shape0} and {bk.shape_of(s)}"
            )


def all_reduce(shards: Sequence[ArrayLike]) -> List[ArrayLike]:
    """Sum across ranks; every rank receives the (shared) result."""
    _check(shards)
    shards = _inject("all_reduce", shards)
    n = len(shards)
    total = shards[0]
    if type(total) is AbstractArray:
        # The sum of equal shapes is that shape; one rank passes through.
        return [total if n == 1 else bk.shaped(total.shape)] * n
    for s in shards[1:]:
        total = total + s
    if n == 1:
        total = total.copy()  # fresh buffer, same as the W>1 path
    return [total] * n


def all_gather(shards: Sequence[ArrayLike], axis: int = 0) -> List[ArrayLike]:
    """Concatenate all shards along ``axis``; every rank gets the full array."""
    _check(shards)
    shards = _inject("all_gather", shards)
    n, s0 = len(shards), shards[0]
    if type(s0) is AbstractArray:
        full = bk.shaped(bk.tiled_shape(s0.shape, n, axis))
    else:
        full = bk.concatenate(list(shards), axis)
    return [full] * n


def all_to_all(shards: Sequence[ArrayLike], split_axis: int = 0,
               concat_axis: int = 0) -> List[ArrayLike]:
    """Re-shard: rank ``r`` receives piece ``r`` of every rank's shard.

    Each rank's shard is split into ``n`` equal pieces along
    ``split_axis``; output rank ``r`` concatenates ``[piece r of rank 0,
    ..., piece r of rank n-1]`` along ``concat_axis``.  The inverse of
    ``all_to_all(split_axis=a, concat_axis=b)`` is
    ``all_to_all(split_axis=b, concat_axis=a)``.
    """
    _check(shards)
    n = len(shards)
    shape = bk.shape_of(shards[0])
    if shape[bk.axis_index(split_axis, len(shape))] % n != 0:
        raise CommError(
            f"all_to_all needs axis {split_axis} of {shape} divisible by {n}")
    shards = _inject("all_to_all", shards)
    if type(shards[0]) is AbstractArray:
        piece = bk.split_shape(shape, n, split_axis)
        return [bk.shaped(bk.tiled_shape(piece, n, concat_axis))] * n
    pieces = [bk.split(s, n, split_axis) for s in shards]
    return [
        bk.concatenate([pieces[src][r] for src in range(n)], concat_axis)
        for r in range(n)
    ]


def reduce_scatter(shards: Sequence[ArrayLike], axis: int = 0) -> List[ArrayLike]:
    """Sum across ranks, then rank ``i`` keeps slice ``i`` along ``axis``."""
    _check(shards)
    shards = _inject("reduce_scatter", shards)
    n, total = len(shards), shards[0]
    if type(total) is AbstractArray:
        return [bk.shaped(bk.split_shape(total.shape, n, axis))] * n
    for s in shards[1:]:
        total = total + s
    return bk.split(total, n, axis)


def scatter(full: ArrayLike, world: int, axis: int = 0) -> List[ArrayLike]:
    """Split one array into ``world`` equal pieces along ``axis``."""
    return bk.split(full, world, axis)


def gather_concat(shards: Sequence[ArrayLike], axis: int = 0) -> ArrayLike:
    """The full concatenation (a rooted gather)."""
    _check(shards)
    return bk.concatenate(list(shards), axis)


def broadcast(value: ArrayLike, world: int) -> List[ArrayLike]:
    """Every rank receives the same array."""
    value = _inject("broadcast", [value])[0]
    return [value] * world
