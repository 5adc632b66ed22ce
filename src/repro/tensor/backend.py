"""Array backend: concrete NumPy arrays or shape-only abstract arrays.

Every autograd :class:`~repro.tensor.tensor.Function` does its bookkeeping
against the small dispatch API in this module, and hands each rank's NumPy
math to :func:`~repro.tensor.tensor.map_shards` with the shape of its
result, so the same layer graph can execute in two modes:

* **concrete** — operands are ``np.ndarray``; real numerics, used at toy
  scale for correctness tests and end-to-end training.
* **abstract** — operands are :class:`AbstractArray` carrying only a shape;
  each operation is O(1), used to run paper-scale configurations (22B-1T)
  where materializing activations would need hundreds of gigabytes.  The
  memory tracker and op log see exactly the same graph either way, which is
  what lets the simulator *measure* Equations 1-6 instead of restating them.

Abstract numerics: a kernel that calls NumPy never sees an abstract
array; ``map_shards`` builds its result from the shape it declares, with
the rules here (:func:`matmul_shape`, :func:`broadcast_shape`,
:func:`split_shape`).  The few kernels that reach NumPy only through
this module and ``+ - * /``, ``reshape`` and ``copy`` run on abstract
arrays too.  Every rule computes shapes the way NumPy would, raising
:class:`~repro.errors.ShapeError` where NumPy raises.

Abstract-mode rule: a shape is validated once, at the door where it
enters from outside, and every shape derived from an existing array is
pure tuple arithmetic.

* **Doors** — the validating ``AbstractArray`` constructor: every dimension
  must be an integer (``operator.index``; ``6.7`` is a ``ShapeError``, not
  ``6``) and non-negative.  It is the path for :func:`repro.tensor.abstract`,
  :func:`bernoulli_mask`, the weight-placement sites of the layouts and
  layer norm, and :meth:`AbstractArray.reshape`'s resolved target.
* **Trusted path** — :func:`shaped` wraps a shape tuple that was read off
  an existing array or computed from such shapes by the rules below
  (broadcasting, matmul, transpose, reductions, concatenate, split,
  slice, :func:`tiled_shape`, :func:`split_shape`) without re-checking
  it.  A kernel's declared result and every op with its own rank loop
  use it.  It returns an exact, fresh ``AbstractArray`` on every call.

The memory tracker keys charges by ``(rank, buffer identity)``, so an
abstract instance is shared across ranks, never within a rank: an abstract
dropout mask and the one result of a per-shard kernel on abstract shards
(:func:`repro.tensor.tensor.map_shards`) each stand for every rank's buffer.

Shared-list rule: an abstract tensor's shards are one instance repeated
``world`` times.  A door validates one shape and repeats its one array
``world`` times, and every per-rank map or collective over abstract
shards does its shape arithmetic once and shares the result
(``[shaped(...)] * world``).  :func:`split` is the exception: its pieces
are different tensors on one rank, so each is fresh.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from ..errors import ShapeError

Shape = Tuple[int, ...]


class AbstractArray:
    """A shape-only stand-in for ``np.ndarray``.

    Supports what the polymorphic kernels reach: ``+ - * /`` with
    broadcasting (as the left operand; there are no reflected operators),
    ``reshape``, ``copy`` and the shape functions below.  A kernel that
    computes with NumPy declares its result's shape to ``map_shards``
    instead.  It carries no element data; ``size`` and ``shape`` are the
    only meaningful attributes.  Calling the class validates the shape (a
    door); derived arrays are built by :func:`shaped`.
    """

    __slots__ = ("shape",)

    def __init__(self, shape: Iterable[int]):
        shape = _dims(shape)
        if any(d < 0 for d in shape):
            raise ShapeError(f"negative dimension in shape {shape}")
        self.shape: Shape = shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(math.prod(self.shape))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AbstractArray(shape={self.shape})"

    # -- broadcasting arithmetic ------------------------------------------
    def _broadcast(self, other) -> "AbstractArray":
        return shaped(broadcast_shape(self.shape, shape_of(other)))

    __add__ = __sub__ = __mul__ = __truediv__ = _broadcast

    def reshape(self, *shape) -> "AbstractArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return AbstractArray(_resolve_reshape(self.shape, shape))

    def copy(self) -> "AbstractArray":
        return shaped(self.shape)


_new = object.__new__


def shaped(shape: Shape) -> AbstractArray:
    """The trusted constructor: a fresh ``AbstractArray`` of ``shape``,
    which must already be a valid shape tuple (read off an existing array
    or derived from such shapes).  Nothing is checked or converted."""
    a = _new(AbstractArray)
    a.shape = shape
    return a


def _dims(shape) -> Shape:
    try:
        return tuple(map(operator.index, shape))
    except TypeError:
        raise ShapeError(f"a shape is a sequence of integers, got {shape!r}") from None


ArrayLike = Union[np.ndarray, AbstractArray]


def is_abstract(x) -> bool:
    return isinstance(x, AbstractArray)


def shape_of(x) -> Shape:
    # Exact-type checks first: concrete ndarrays dominate every hot path
    # and ``type() is`` skips the mro walk isinstance pays.
    if type(x) is np.ndarray:
        return x.shape
    if type(x) is AbstractArray or isinstance(x, (AbstractArray, np.ndarray)):
        return x.shape
    if np.isscalar(x):
        return ()
    raise ShapeError(f"not an array: {type(x)!r}")


def size_of(x) -> int:
    if type(x) is np.ndarray:
        return x.size
    return int(math.prod(shape_of(x)))


def broadcast_shape(a: Shape, b: Shape) -> Shape:
    """Result shape of an elementwise op on ``a`` and ``b`` under NumPy
    broadcasting rules."""
    if a == b or not b:
        return a
    if not a:
        return b
    if len(a) < len(b):
        a = (1,) * (len(b) - len(a)) + a
    elif len(b) < len(a):
        b = (1,) * (len(a) - len(b)) + b
    out = []
    for x, y in zip(a, b):
        if x == y or y == 1:
            out.append(x)
        elif x == 1:
            out.append(y)
        else:
            raise ShapeError(f"shapes {a} and {b} cannot be broadcast together")
    return tuple(out)


def matmul_shape(a: Shape, b: Shape) -> Shape:
    """Result shape of ``a @ b`` under NumPy matmul rules (ndim >= 2 each)."""
    if len(a) < 2 or len(b) < 2:
        raise ShapeError(f"matmul requires ndim >= 2, got {a} @ {b}")
    if a[-1] != b[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a} @ {b}")
    return broadcast_shape(a[:-2], b[:-2]) + (a[-2], b[-1])


def axis_index(axis: int, ndim: int) -> int:
    """``axis`` as an index in ``[0, ndim)``; out of range (NumPy's
    ``AxisError``) is a ShapeError rather than a silent wrap."""
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} is out of bounds for an array of dimension {ndim}")
    return axis + ndim if axis < 0 else axis


def _resolve_reshape(old: Shape, new: Sequence[int]) -> Shape:
    new = _dims(new)
    old_size = int(math.prod(old))
    if new.count(-1) > 1:
        raise ShapeError(f"at most one -1 allowed in reshape target {new}")
    if -1 in new:
        rest = int(math.prod(d for d in new if d != -1))
        if rest == 0 or old_size % rest != 0:
            raise ShapeError(f"cannot reshape {old} to {new}")
        new = tuple(old_size // rest if d == -1 else d for d in new)
    if int(math.prod(new)) != old_size:
        raise ShapeError(f"cannot reshape {old} (size {old_size}) to {new}")
    return new


def _reduced_shape(shape: Shape, axis, keepdims: bool) -> Shape:
    if axis is None:
        return (1,) * len(shape) if keepdims else ()
    ndim = len(shape)
    if isinstance(axis, int):
        axes = (axis_index(axis, ndim),)
    else:
        axes = tuple([axis_index(a, ndim) for a in axis])
        if len(set(axes)) != len(axes):
            raise ShapeError(f"duplicate value in axis {axis}")
    if keepdims:
        return tuple([1 if i in axes else d for i, d in enumerate(shape)])
    return tuple([d for i, d in enumerate(shape) if i not in axes])


# ---------------------------------------------------------------------------
# Dispatch functions.  The shape functions take np.ndarray or AbstractArray
# operands; mean, max_ and the gathers are concrete only.
# ---------------------------------------------------------------------------

# Kernel rule: a concrete kernel reaches a ufunc directly -- it reduces
# with a ufunc method (these three, or ``np.add.reduce`` /
# ``np.maximum.reduce`` in place) and splits with basic slices, never
# through NumPy's np.mean / np.sum / np.max / np.split wrappers, which
# end in the same ufunc calls (same bits) after 3-8 us of Python that a
# decode step's tiny operands pay hundreds of times.

def sum_(x: ArrayLike, axis=None, keepdims: bool = False) -> ArrayLike:
    if is_abstract(x):
        return shaped(_reduced_shape(x.shape, axis, keepdims))
    return np.add.reduce(x, axis=axis, keepdims=keepdims)


def mean(x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    """The sum over ``axis`` divided by the count, as NumPy's ``_mean``."""
    total = np.add.reduce(x, axis=axis, keepdims=keepdims)
    return total / (x.size // max(total.size, 1))


def max_(x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    return np.maximum.reduce(x, axis=axis, keepdims=keepdims)


def reshape(x: ArrayLike, shape) -> ArrayLike:
    if is_abstract(x):
        return x.reshape(shape)
    return np.reshape(x, shape)


def transpose(x: ArrayLike, axes: Sequence[int]) -> ArrayLike:
    axes = tuple(axes)
    if is_abstract(x):
        shape = x.shape
        ndim = len(shape)
        perm = [axis_index(a, ndim) for a in axes]
        if len(perm) != ndim or len(set(perm)) != ndim:
            raise ShapeError(f"invalid transpose axes {axes} for shape {shape}")
        return shaped(tuple([shape[a] for a in perm]))
    return np.transpose(x, axes)


def swap_last_two(x: ArrayLike) -> ArrayLike:
    axes = list(range(len(shape_of(x))))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(x, axes)


def concatenate(parts: Sequence[ArrayLike], axis: int) -> ArrayLike:
    if not parts:
        raise ShapeError("concatenate needs at least one array")
    if any(is_abstract(p) for p in parts):
        shapes = [shape_of(p) for p in parts]
        base = shapes[0]
        ax = axis_index(axis, len(base))
        lead, trail = base[:ax], base[ax + 1:]
        total = 0
        for s in shapes:
            if len(s) != len(base) or s[:ax] != lead or s[ax + 1:] != trail:
                raise ShapeError(f"concatenate shape mismatch: {shapes}")
            total += s[ax]
        return shaped(lead + (total,) + trail)
    axis_index(axis, len(shape_of(parts[0])))  # NumPy's AxisError, typed
    return np.concatenate(list(parts), axis=axis)


def tiled_shape(shape: Shape, n: int, axis: int) -> Shape:
    """The shape of ``n`` arrays of ``shape`` concatenated along ``axis``."""
    ax = axis_index(axis, len(shape))
    return shape[:ax] + (shape[ax] * n,) + shape[ax + 1:]


def split_shape(shape: Shape, sections: int, axis: int) -> Shape:
    """The shape of each of :func:`split`'s ``sections`` equal pieces."""
    ax = axis_index(axis, len(shape))
    if sections < 1 or shape[ax] % sections != 0:
        raise ShapeError(f"cannot split axis {ax} of {shape} into {sections} equal parts")
    return shape[:ax] + (shape[ax] // sections,) + shape[ax + 1:]


def split(x: ArrayLike, sections: int, axis: int) -> list:
    shp = shape_of(x)
    piece = split_shape(shp, sections, axis)
    if is_abstract(x):
        # Fresh pieces: they are different tensors on one rank.
        return [shaped(piece) for _ in range(sections)]
    # Views, not copies: callers that need ownership (e.g. parameter
    # sharding) copy explicitly; the hot paths just read.
    axis_ = axis % len(shp)  # in range: split_shape checked it
    step = piece[axis_]
    lead = (slice(None),) * axis_
    return [x[lead + (slice(i * step, (i + 1) * step),)]
            for i in range(sections)]


def slice_axis(x: ArrayLike, axis: int, start: int, stop: int) -> ArrayLike:
    """``x[..., start:stop, ...]`` along ``axis``."""
    shp = shape_of(x)
    axis_ = axis_index(axis, len(shp))
    if not (0 <= start <= stop <= shp[axis_]):
        raise ShapeError(f"slice [{start}:{stop}] out of range for axis {axis_} of {shp}")
    if is_abstract(x):
        return shaped(shp[:axis_] + (stop - start,) + shp[axis_ + 1:])
    index = [slice(None)] * len(shp)
    index[axis_] = slice(start, stop)
    return x[tuple(index)]


def zeros(shape: Shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def take_rows(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Embedding lookup: ``table[ids]`` where ids has arbitrary shape."""
    return table[ids.astype(np.int64)]


def index_add_rows(shape: Shape, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Scatter-add ``values`` into a zero array of ``shape`` at rows ``ids``
    (the backward of :func:`take_rows`; ``shape`` is the table's)."""
    out = np.zeros(shape, dtype=np.float64)
    np.add.at(out, ids.astype(np.int64).reshape(-1), values.reshape(-1, shape[-1]))
    return out


def bernoulli_mask(shape: Shape, keep_prob: float, rng, abstract: bool) -> ArrayLike:
    """A boolean keep-mask for dropout. ``rng`` is a np.random.Generator."""
    if not (0.0 < keep_prob <= 1.0):
        raise ShapeError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if abstract:
        return AbstractArray(shape)
    return rng.random(shape) < keep_prob


def one_hot_rows(ids: np.ndarray, depth: int) -> np.ndarray:
    """One-hot rows of width ``depth`` (the logits' last dimension)."""
    out = np.zeros(ids.shape + (depth,), dtype=np.float64)
    np.put_along_axis(out, ids.astype(np.int64)[..., None], 1.0, axis=-1)
    return out


def take_along_last(x: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``x[..., ids]`` gathered along the last axis, one per leading index."""
    return np.take_along_axis(x, ids.astype(np.int64)[..., None], axis=-1)[..., 0]
