"""Public verification utilities.

Downstream users extending the library (new ops, new parallel layers)
get the same gold-standard checks the test suite uses:

* :func:`numerical_grad` / :func:`check_gradients` — central-difference
  gradient checking of any op or module against the autograd engine;
* :func:`assert_parallel_equivalent` — run a serial reference and a
  parallel model on the same batch and require identical losses and
  gradients (the library's core correctness contract);
* :func:`assert_memory_matches` — require the tracker's measured
  activation bytes to equal a closed-form prediction;
* :func:`gather_full` — reassemble a sharded parameter or gradient.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .layers.embedding import token_tensor
from .layers.module import Module
from .tensor import MemoryTracker, Tensor, from_numpy, instrument, no_grad
from .tensor import functions as F


def numerical_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                   eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    for index in np.ndindex(x.shape):
        xp = x.copy()
        xp[index] += eps
        xm = x.copy()
        xm[index] -= eps
        grad[index] = (f(xp) - f(xm)) / (2 * eps)
    return grad


def check_gradients(op: Callable[[Tensor], Tensor], x: np.ndarray,
                    atol: float = 1e-6, rtol: float = 1e-4) -> None:
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
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


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


def assert_parallel_equivalent(serial: Module, parallel, ids: np.ndarray,
                               targets: np.ndarray, atol: float = 1e-8,
                               check_params: Optional[list] = None) -> None:
    """Run both models on one batch; require equal losses and gradients.

    ``check_params`` restricts the gradient comparison to (serial_param,
    parallel_param) pairs; by default every named parameter common to both
    models (matched by name) is compared, with sharded parallel gradients
    gathered per their layout.
    """
    world, vocab = parallel.group.size, serial.config.vocab_size
    serial.zero_grad()
    parallel.zero_grad()
    loss_s = serial(token_tensor(ids, vocab), token_tensor(targets, vocab))
    loss_s.backward()
    loss_p = parallel(token_tensor(ids, vocab, world=world),
                      token_tensor(targets, vocab, world=world))
    loss_p.backward()
    parallel.finish_grad_sync()
    if abs(loss_s.item() - loss_p.item()) > atol:
        raise AssertionError(
            f"losses differ: serial {loss_s.item()} vs parallel {loss_p.item()}")
    if check_params is not None:
        pairs = check_params
    else:
        serial_params = dict(serial.named_parameters())
        pairs = [(serial_params[name], p)
                 for name, p in parallel.named_parameters()
                 if name in serial_params
                 and serial_params[name].shape == _full_shape(p)]
    for p_serial, p_parallel in pairs:
        np.testing.assert_allclose(
            gather_full(p_parallel, grad=True),
            np.asarray(p_serial.grad[0]), atol=atol,
            err_msg=p_parallel.name)


def _full_shape(param: Tensor):
    shape = list(param.shape)
    if "shard(dim=0)" in param.layout:
        shape[0] *= param.world
    elif "shard(dim=1)" in param.layout:
        shape[1] *= param.world
    return tuple(shape)


def assert_memory_matches(build_and_forward: Callable[[], None],
                          expected_bytes: float, rank: int = 0,
                          rel: float = 1e-9) -> int:
    """Run ``build_and_forward`` under a tracker and require its end-of-
    forward live bytes on ``rank`` to equal ``expected_bytes``."""
    tracker = MemoryTracker()
    with instrument(memory=tracker):
        build_and_forward()
        measured = tracker.live_bytes(rank)
    if abs(measured - expected_bytes) > rel * max(abs(expected_bytes), 1.0):
        raise AssertionError(
            f"measured {measured} bytes != expected {expected_bytes}")
    return measured
