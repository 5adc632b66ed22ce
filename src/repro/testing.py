"""Public verification utilities.

Downstream users extending the library (new ops, new parallel layers)
get the same gold-standard checks the test suite uses:

* :func:`numerical_grad` / :func:`check_gradients` — central-difference
  gradient checking of any op or module against the autograd engine;
* :func:`assert_parallel_equivalent` — require a parallel model to hold
  the serial model's loss, weights and gradients on every rank (the
  library's core correctness contract), against a :func:`serial_run`;
* :func:`assert_memory_matches` — require the tracker's measured
  activation bytes to equal a closed-form prediction;
* :func:`gather_full` — reassemble a sharded parameter or gradient.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

import numpy as np

from .layers.embedding import token_tensor
from .layers.module import Module
from .tensor import MemoryTracker, Tensor, from_numpy, instrument, no_grad
from .tensor import functions as F


#: Central-difference step: small enough for float64 truncation error
#: ~1e-12, large enough that rounding error stays ~1e-10
FD_STEP = 1e-6
#: Relative tolerance of :func:`check_gradients` (``atol`` is the knob)
GRAD_RTOL = 1e-4
#: Relative tolerance of :func:`assert_memory_matches`: byte counts are
#: exact, this only absorbs float formulas
MEMORY_REL = 1e-9


def numerical_grad(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    for index in np.ndindex(x.shape):
        xp = x.copy()
        xp[index] += FD_STEP
        xm = x.copy()
        xm[index] -= FD_STEP
        grad[index] = (f(xp) - f(xm)) / (2 * FD_STEP)
    return grad


def check_gradients(op: Callable[[Tensor], Tensor], x: np.ndarray,
                    atol: float = 1e-6) -> None:
    """Assert ``op``'s autograd input gradient matches central differences.

    ``op`` maps a world-1 tensor to a tensor; the check sums the output to
    a scalar.  Raises ``AssertionError`` with the max deviation on failure.
    """
    t = from_numpy(x, requires_grad=True)
    F.sum_all(op(t)).backward()
    analytic = np.asarray(t.grad[0])

    def scalar(arr: np.ndarray) -> float:
        with no_grad():
            return F.sum_all(op(from_numpy(arr))).item()

    numeric = numerical_grad(scalar, x)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=GRAD_RTOL)


def gather_full(param: Tensor, grad: bool = False) -> np.ndarray:
    """Reassemble a sharded parameter (or its gradient) per its layout."""
    source = param.grad if grad else param.shards
    if source is None:
        raise AssertionError(f"no gradient on {param.name or 'parameter'}")
    if "shard(dim=0)" in param.layout:
        return np.concatenate([np.asarray(s) for s in source], axis=0)
    if "shard(dim=1)" in param.layout:
        return np.concatenate([np.asarray(s) for s in source], axis=1)
    return np.asarray(source[0])


#: A serial model's loss, weights and gradients (by init name).
SerialRun = NamedTuple("SerialRun", [("loss", float), ("weights", dict),
                                     ("grads", dict)])


def serial_run(serial: Module, ids: np.ndarray,
               targets: np.ndarray) -> SerialRun:
    """One forward/backward of ``serial``, to check many models against."""
    vocab = serial.config.vocab_size
    serial.zero_grad()
    loss = serial(token_tensor(ids, vocab), token_tensor(targets, vocab))
    loss.backward()
    params = serial.parameters()
    return SerialRun(loss.item(),
                     {p.name: np.array(p.shards[0]) for p in params},
                     {p.name: np.array(p.grad[0]) for p in params})


def assert_parallel_equivalent(serial: Union[Module, SerialRun], parallel,
                               ids: np.ndarray, targets: np.ndarray,
                               atol: float = 1e-8) -> None:
    """Run ``parallel`` on one batch against ``serial`` (the serial model,
    or its :func:`serial_run` on the batch), laid out by the parallel
    model's own ``Layout``: ``place`` per parameter and ``fused_qkv_init``
    for a fused QKV projection, the rule that built the parallel weights
    from ``serial=``.  On every rank the loss must be bitwise the serial
    loss, every weight its placed serial shard exactly, every gradient
    within ``atol`` of it (and a replicated one bitwise rank 0's); a
    parameter the layout cannot map is an error.
    """
    run = (serial if isinstance(serial, SerialRun)
           else serial_run(serial, ids, targets))
    world, config = parallel.group.size, parallel.config
    parallel.zero_grad()
    loss = parallel(token_tensor(ids, config.vocab_size, world=world),
                    token_tensor(targets, config.vocab_size, world=world))
    loss.backward()
    parallel.finish_grad_sync()
    for rank, shard in enumerate(loss.shards):
        if float(shard) != run.loss:
            raise AssertionError(f"loss on rank {rank}: {float(shard)!r} != "
                                 f"serial {run.loss!r}")
    for name, p in parallel.named_parameters():
        if p.grad is None:
            raise AssertionError(f"{name}: no gradient")
        for what, values, shards, bound in (
                ("weight", run.weights, p.shards, 0.0),
                ("gradient", run.grads, p.grad, atol)):
            placed = _placed(parallel.layout, values, p, config.hidden_size)
            for rank, (got, want) in enumerate(zip(shards, placed)):
                got, want = np.asarray(got), np.asarray(want)
                deviation = np.abs(got - want).max()
                if not deviation <= bound:
                    raise AssertionError(
                        f"{name} rank {rank}: {what} differs from serial by "
                        f"{deviation:.3g} (atol {bound:g})")
                if rank and p.layout == "replicated" and not np.array_equal(
                        got, shards[0]):
                    raise AssertionError(
                        f"{name} rank {rank}: {what} differs from rank 0")


def _placed(layout, values: dict, param: Tensor, hidden: int) -> list:
    """``values`` (serial arrays by init name) laid out as ``param``."""
    if param.name in values:
        full = np.asarray(values[param.name])
    elif layout.fused_qkv and ".qkv." in param.name:
        tag = param.name.rsplit(".qkv.", 1)[0]
        full = layout.fused_qkv_init(values, hidden, tag)[param.name]
    else:
        raise AssertionError(f"{type(layout).__name__} cannot map "
                             f"{param.name!r} back to a serial parameter")
    axis = (int(param.layout[len("shard(dim="):-1])
            if param.layout.startswith("shard(dim=") else None)
    return layout.place(full, full.shape, axis, param.name)[0]


def assert_memory_matches(build_and_forward: Callable[[], None],
                          expected_bytes: float) -> int:
    """Run ``build_and_forward`` under a tracker and require its end-of-
    forward live bytes on rank 0 to equal ``expected_bytes``."""
    tracker = MemoryTracker()
    with instrument(memory=tracker):
        build_and_forward()
        measured = tracker.live_bytes(0)
    if abs(measured - expected_bytes) > MEMORY_REL * max(abs(expected_bytes), 1.0):
        raise AssertionError(
            f"measured {measured} bytes != expected {expected_bytes}")
    return measured
