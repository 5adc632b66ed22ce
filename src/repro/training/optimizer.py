"""Adam optimizer over sharded parameters (mixed-precision style).

The simulator computes in float64, so the "fp32 master weights" of
mixed-precision training need no separate copy here; the *memory cost* of
master weights and moments is accounted in
:mod:`repro.memory_model.weights` and their *time* cost in
:data:`repro.perf_model.iteration.OPTIMIZER_BYTES_PER_PARAM`.  A loss
scaler is provided for interface parity with the real recipe (numerically
a no-op at float64, exercised in tests for over/underflow bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigError
from ..tensor import Tensor
from ..tensor import backend as bk


class Adam:
    """Standard Adam with optional weight decay and gradient clipping.

    Each parameter shard (one per rank) carries its own moment buffers;
    replicated parameters receive identical gradients on every rank (after
    :meth:`ParallelGPTModel.finish_grad_sync`) and therefore stay in sync.
    """

    def __init__(self, params: List[Tensor], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0,
                 grad_clip: Optional[float] = None):
        if lr <= 0:
            raise ConfigError("lr must be positive")
        # Each of these corrupts training silently: a beta of 1 makes the
        # bias correction 0/0, eps <= 0 divides by zero on a zero gradient,
        # a negative clip ascends and a zero clip skips the update.
        if not all(0.0 <= beta < 1.0 for beta in betas):
            raise ConfigError(f"betas must lie in [0, 1), got {tuple(betas)}")
        if not eps > 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        if grad_clip is not None and not grad_clip > 0:
            raise ConfigError(f"grad_clip must be positive, got {grad_clip}")
        if not params:
            raise ConfigError("optimizer needs at least one parameter")
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self.step_count = 0
        self._m: Dict[int, List[np.ndarray]] = {}
        self._v: Dict[int, List[np.ndarray]] = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def global_grad_norm(self) -> float:
        """L2 norm over unique parameter gradients (rank-0 shard of
        replicated tensors, all shards of sharded tensors)."""
        total = 0.0
        for p in self.params:
            if p.grad is None:
                continue
            shards = p.grad if "shard" in p.layout else p.grad[:1]
            for g in shards:
                if not bk.is_abstract(g):
                    total += float(np.sum(np.square(g)))
        return float(np.sqrt(total))

    def step(self) -> None:
        self.step_count += 1
        clip_coeff = 1.0
        if self.grad_clip is not None:
            norm = self.global_grad_norm()
            if norm > self.grad_clip:
                clip_coeff = self.grad_clip / (norm + 1e-12)
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for p in self.params:
            if p.grad is None:
                continue
            key = id(p)
            if key not in self._m:
                self._m[key] = [np.zeros_like(np.asarray(s)) for s in p.shards]
                self._v[key] = [np.zeros_like(np.asarray(s)) for s in p.shards]
            for r in range(p.world):
                # Same operations in the same order as the textbook
                # expressions (weights stay bitwise equal), written into
                # two scratch arrays; ``p.grad`` is only ever read.
                g = np.asarray(p.grad[r])
                m, v = self._m[key][r], self._v[key][r]
                a, b = np.empty(m.shape), np.empty(m.shape)
                if clip_coeff != 1.0 or self.weight_decay:
                    g = np.multiply(g, clip_coeff, out=a)
                    if self.weight_decay:
                        np.multiply(p.shards[r], self.weight_decay, out=b)
                        g += b
                m *= b1
                m += np.multiply(g, 1 - b1, out=b)
                v *= b2
                np.square(g, out=b)
                b *= 1 - b2
                v += b
                np.divide(v, bias2, out=a)      # g is dead from here
                np.sqrt(a, out=a)
                a += self.eps
                np.divide(m, bias1, out=b)
                b /= a
                b *= self.lr
                p.shards[r] -= b


def flush_grads_through_fp16(params: List[Tensor]) -> bool:
    """Round every gradient through IEEE float16, as a real mixed-precision
    backward would store them; returns True if any gradient overflowed to
    inf/nan (the signal a dynamic loss scaler reacts to).

    Composing this with :class:`LossScaler` demonstrates the fp16 recipe
    end to end: tiny gradients underflow to zero without scaling and
    survive with it (see ``tests/test_training.py``).
    """
    overflow = False
    for p in params:
        if p.grad is None:
            continue
        flushed = []
        for g in p.grad:
            arr = np.asarray(g, dtype=np.float64)
            with np.errstate(over="ignore"):
                as_fp16 = arr.astype(np.float16)  # overflow -> inf, by design
            if not np.all(np.isfinite(as_fp16)):
                overflow = True
            flushed.append(as_fp16.astype(np.float64))
        p.grad = flushed
    return overflow


@dataclass
class LossScaler:
    """Dynamic loss scaling bookkeeping (the fp16 recipe).

    The simulator computes in float64, so by default the scale cancels
    exactly; pair with :func:`flush_grads_through_fp16` to reproduce real
    fp16 underflow/overflow behaviour.
    """

    scale: float = 2.0**12
    growth_interval: int = 1000
    backoff_factor: float = 0.5
    growth_factor: float = 2.0
    _good_steps: int = field(default=0, repr=False)

    def scale_loss(self, loss: Tensor) -> Tensor:
        from ..tensor import functions as F
        return F.scale(loss, self.scale)

    def unscale_grads(self, params: List[Tensor]) -> None:
        inv = 1.0 / self.scale
        for p in params:
            if p.grad is not None:
                p.grad = [g * inv for g in p.grad]

    def update(self, found_overflow: bool) -> None:
        if found_overflow:
            self.scale = max(1.0, self.scale * self.backoff_factor)
            self._good_steps = 0
        else:
            self._good_steps += 1
            if self._good_steps >= self.growth_interval:
                self.scale *= self.growth_factor
                self._good_steps = 0
