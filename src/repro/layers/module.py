"""Minimal module system: parameter registration and traversal."""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..tensor import Tensor
from ..tensor.context import ctx


class Module:
    """Base class: walks attributes to find parameters and submodules."""

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        # The memory profiler threads the module path through every save
        # site; one identity check keeps the off-path free.
        mp = ctx().memprof
        if mp is None:
            return self.forward(*args, **kwargs)
        mp.push_module(self)
        try:
            return self.forward(*args, **kwargs)
        finally:
            mp.pop_module()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        seen = set()
        for name, value in vars(self).items():
            path = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.is_param:
                if id(value) not in seen:
                    seen.add(id(value))
                    yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{i}.")
                    elif isinstance(item, Tensor) and item.is_param and id(item) not in seen:
                        seen.add(id(item))
                        yield f"{path}.{i}", item

    def parameters(self) -> List[Tensor]:
        seen = set()
        out = []
        for _name, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Put the module (and every submodule) in training mode.

        Only stochastic modules react: each submodule exposing a
        ``_set_training`` hook (today :class:`~repro.layers.dropout.Dropout`)
        is switched; everything else is mode-free.  Returns ``self`` so
        ``model.train()`` / ``model.eval()`` chain like the PyTorch idiom.
        """
        for module in self.modules():
            hook = getattr(module, "_set_training", None)
            if hook is not None:
                hook(mode)
        return self

    def eval(self) -> "Module":
        """Put the module in evaluation mode (all dropout disabled)."""
        return self.train(False)

    @property
    def training(self) -> bool:
        """``False`` while any stochastic submodule is switched off by
        :meth:`eval` (read off the submodules, which scoped helpers such
        as :func:`repro.inference.evaluation` restore directly)."""
        return all(getattr(module, "_train_p", None) is None
                   for module in self.modules())

    def modules(self):
        """Yield this module and every (recursively) contained submodule."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def num_parameters(self) -> int:
        """Total parameter elements summed over unique parameter tensors.

        For sharded parameters this counts each rank's shard, i.e. the
        global parameter count (shards partition the full tensor).
        Replicated parameters are counted once.
        """
        total = 0
        for p in self.parameters():
            if "shard" in p.layout:
                total += p.size * p.world
            else:
                total += p.size
        return total
