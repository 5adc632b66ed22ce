"""Abstract (shape-only) backend: shape algebra must match NumPy exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.tensor import backend as bk
from repro.tensor.backend import AbstractArray

dims = st.integers(min_value=1, max_value=5)


class TestAbstractArrayBasics:
    def test_shape_and_size(self):
        a = AbstractArray((3, 4, 5))
        assert a.shape == (3, 4, 5)
        assert a.size == 60
        assert a.ndim == 3

    def test_negative_dim_rejected(self):
        with pytest.raises(ShapeError):
            AbstractArray((2, -1))

    def test_copy_and_astype_preserve_shape(self):
        a = AbstractArray((2, 3))
        assert a.copy().shape == (2, 3)
        assert a.astype("anything").shape == (2, 3)

    def test_transpose_property(self):
        assert AbstractArray((2, 3, 4)).T.shape == (4, 3, 2)

    def test_scalar_shape(self):
        assert AbstractArray(()).size == 1


class TestBroadcasting:
    @given(st.lists(dims, min_size=1, max_size=3), st.lists(dims, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_add_matches_numpy(self, s1, s2):
        a, b = np.zeros(s1), np.zeros(s2)
        try:
            expected = (a + b).shape
        except ValueError:
            with pytest.raises(ShapeError):
                _ = AbstractArray(s1) + AbstractArray(s2)
            return
        assert (AbstractArray(s1) + AbstractArray(s2)).shape == expected

    def test_mixed_abstract_concrete(self):
        out = AbstractArray((4, 1, 3)) * np.zeros((2, 3))
        assert out.shape == (4, 2, 3)

    def test_reflected_ops(self):
        out = np.zeros((2, 3)) + AbstractArray((3,))
        assert isinstance(out, AbstractArray)
        assert out.shape == (2, 3)

    def test_scalar_operand(self):
        assert (AbstractArray((2, 3)) * 2.0).shape == (2, 3)

    def test_negation_and_power(self):
        assert (-AbstractArray((2,))).shape == (2,)
        assert (AbstractArray((2,)) ** 2).shape == (2,)


class TestMatmul:
    def test_linear(self):
        assert (AbstractArray((5, 2, 3)) @ AbstractArray((3, 7))).shape == (5, 2, 7)

    def test_batched(self):
        assert (AbstractArray((2, 4, 5, 6)) @ AbstractArray((2, 4, 6, 3))).shape == (2, 4, 5, 3)

    def test_batch_broadcast(self):
        assert (AbstractArray((1, 4, 5, 6)) @ AbstractArray((2, 1, 6, 3))).shape == (2, 4, 5, 3)

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            _ = AbstractArray((2, 3)) @ AbstractArray((4, 5))

    def test_vector_rejected(self):
        with pytest.raises(ShapeError):
            _ = AbstractArray((3,)) @ AbstractArray((3, 2))

    @given(dims, dims, dims, dims)
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy(self, b, m, k, n):
        expected = (np.zeros((b, m, k)) @ np.zeros((k, n))).shape
        assert (AbstractArray((b, m, k)) @ AbstractArray((k, n))).shape == expected


class TestReductionsAndReshape:
    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (None, True), (0, False), (1, True), (-1, False),
        ((0, 2), False), ((0, 2), True),
    ])
    def test_sum_matches_numpy(self, axis, keepdims):
        x = np.zeros((2, 3, 4))
        expected = np.sum(x, axis=axis, keepdims=keepdims).shape
        got = bk.sum_(AbstractArray((2, 3, 4)), axis=axis, keepdims=keepdims)
        assert bk.shape_of(got) == expected

    @pytest.mark.parametrize("fn", [bk.mean, bk.max_])
    def test_other_reductions(self, fn):
        assert bk.shape_of(fn(AbstractArray((2, 3)), axis=-1, keepdims=True)) == (2, 1)

    def test_reshape_with_minus_one(self):
        assert AbstractArray((2, 3, 4)).reshape(6, -1).shape == (6, 4)

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            AbstractArray((2, 3)).reshape(4, 2)

    def test_reshape_two_minus_ones(self):
        with pytest.raises(ShapeError):
            AbstractArray((4,)).reshape(-1, -1)

    def test_transpose_axes(self):
        assert bk.shape_of(bk.transpose(AbstractArray((2, 3, 4)), (2, 0, 1))) == (4, 2, 3)

    def test_transpose_bad_axes(self):
        with pytest.raises(ShapeError):
            bk.transpose(AbstractArray((2, 3)), (0, 0))

    def test_swap_last_two(self):
        assert bk.shape_of(bk.swap_last_two(AbstractArray((2, 3, 4)))) == (2, 4, 3)


class TestConcatSplitSlice:
    def test_concat(self):
        out = bk.concatenate([AbstractArray((2, 3)), AbstractArray((5, 3))], axis=0)
        assert bk.shape_of(out) == (7, 3)

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            bk.concatenate([AbstractArray((2, 3)), AbstractArray((2, 4))], axis=0)

    def test_concat_mixed_concrete(self):
        out = bk.concatenate([AbstractArray((2, 3)), np.zeros((4, 3))], axis=0)
        assert bk.shape_of(out) == (6, 3)

    def test_split(self):
        parts = bk.split(AbstractArray((6, 4)), 3, axis=0)
        assert len(parts) == 3 and all(p.shape == (2, 4) for p in parts)

    def test_split_indivisible(self):
        with pytest.raises(ShapeError):
            bk.split(AbstractArray((5, 4)), 3, axis=0)

    def test_split_concrete_contiguous(self):
        parts = bk.split(np.arange(12).reshape(6, 2), 2, axis=0)
        assert all(p.flags["C_CONTIGUOUS"] for p in parts)
        np.testing.assert_array_equal(parts[1], np.arange(6, 12).reshape(3, 2))

    def test_slice_axis(self):
        out = bk.slice_axis(AbstractArray((8, 2)), 0, 2, 5)
        assert bk.shape_of(out) == (3, 2)

    def test_slice_out_of_range(self):
        with pytest.raises(ShapeError):
            bk.slice_axis(AbstractArray((4,)), 0, 2, 6)


class TestGatherScatter:
    def test_take_rows_concrete(self):
        table = np.arange(12).reshape(4, 3).astype(float)
        ids = np.array([[0, 3], [1, 1]])
        out = bk.take_rows(table, ids)
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out[0, 1], table[3])

    def test_take_rows_abstract(self):
        out = bk.take_rows(AbstractArray((10, 4)), AbstractArray((3, 2)))
        assert bk.shape_of(out) == (3, 2, 4)

    def test_index_add_rows_accumulates(self):
        ids = np.array([1, 1, 2])
        vals = np.ones((3, 4))
        out = bk.index_add_rows((5, 4), ids, vals)
        np.testing.assert_array_equal(out[1], 2 * np.ones(4))
        np.testing.assert_array_equal(out[0], np.zeros(4))

    def test_one_hot(self):
        oh = bk.one_hot_rows(np.array([2, 0]), 4)
        np.testing.assert_array_equal(oh, [[0, 0, 1, 0], [1, 0, 0, 0]])

    def test_take_along_last(self):
        x = np.arange(12).reshape(3, 4).astype(float)
        got = bk.take_along_last(x, np.array([1, 0, 3]))
        np.testing.assert_array_equal(got, [1.0, 4.0, 11.0])

    def test_bernoulli_mask_probability(self):
        rng = np.random.default_rng(0)
        mask = bk.bernoulli_mask((10000,), 0.7, rng, abstract=False)
        assert 0.66 < mask.mean() < 0.74

    def test_bernoulli_mask_abstract(self):
        mask = bk.bernoulli_mask((3, 4), 0.5, None, abstract=True)
        assert bk.shape_of(mask) == (3, 4)

    def test_bernoulli_keep_prob_validated(self):
        with pytest.raises(ShapeError):
            bk.bernoulli_mask((2,), 0.0, np.random.default_rng(0), abstract=False)


class TestTypedShapeErrors:
    """Every invalid shape operation is a ShapeError: no NumPy ValueError,
    no IndexError, no silent truncation or axis wrap-around."""

    @pytest.mark.parametrize("op", [
        lambda: AbstractArray((2, 3)) + AbstractArray((4, 3)),
        lambda: AbstractArray((2, 4, 5, 6)) @ AbstractArray((3, 4, 6, 3)),
        lambda: bk.transpose(AbstractArray((2, 3)), (0, 5)),
        lambda: AbstractArray((2, 3)).reshape(6.7),
        lambda: AbstractArray((2.5, 3)),
    ], ids=["broadcast", "matmul-batch", "transpose-axis", "reshape-float", "door-float"])
    def test_shape_error(self, op):
        with pytest.raises(ShapeError):
            op()

    @pytest.mark.parametrize("op", [
        lambda: bk.sum_(AbstractArray((2, 3)), axis=3),
        lambda: bk.mean(AbstractArray((2, 3)), axis=-3),
        lambda: bk.sum_(AbstractArray((2, 3)), axis=(1, 1)),
        lambda: bk.max_(AbstractArray((2, 3)), axis=(0, -2), keepdims=True),
        lambda: bk.concatenate([AbstractArray((2, 3)), AbstractArray((2, 3))], axis=4),
        lambda: bk.split(AbstractArray((4, 2)), 2, axis=3),
        lambda: bk.split(np.zeros((4, 2)), 2, axis=3),
        lambda: bk.slice_axis(AbstractArray((4, 2)), 2, 0, 1),
        lambda: bk.slice_axis(np.zeros((4, 2)), -3, 0, 1),
    ], ids=["sum-axis", "mean-negative-axis", "sum-duplicate", "max-duplicate-negative",
            "concat-axis", "split-axis", "split-axis-concrete", "slice-axis",
            "slice-axis-concrete"])
    def test_axis_out_of_range_or_repeated(self, op):
        with pytest.raises(ShapeError):
            op()


# ---------------------------------------------------------------------------
# Generated oracle: every abstract shape rule against NumPy on np.zeros.
# ---------------------------------------------------------------------------

def _shapes(min_dims=0, max_dims=4, lo=1, hi=4):
    return st.lists(st.integers(lo, hi), min_size=min_dims, max_size=max_dims).map(tuple)


def _axis_of(data, ndim):
    return data.draw(st.integers(-ndim - 1, ndim), label="axis")


def _case_broadcast(data):
    s1 = data.draw(_shapes(lo=0, hi=3), label="s1")
    s2 = data.draw(_shapes(lo=0, hi=3), label="s2")
    op = data.draw(st.sampled_from(["__add__", "__rsub__", "__mul__", "__pow__"]))
    return (lambda: getattr(AbstractArray(s1), op)(AbstractArray(s2)),
            lambda: getattr(np.zeros(s1), op)(np.zeros(s2)))


def _case_matmul(data):
    a = data.draw(_shapes(2, 4, hi=3), label="a")
    batch = data.draw(_shapes(0, 2, hi=3), label="b batch")
    k = data.draw(st.one_of(st.just(a[-1]), st.integers(1, 3)), label="k")
    b = batch + (k, data.draw(st.integers(1, 3), label="n"))
    return (lambda: AbstractArray(a) @ AbstractArray(b),
            lambda: np.zeros(a) @ np.zeros(b))


def _case_transpose(data):
    shape = data.draw(_shapes(), label="shape")
    n = len(shape)
    axes = list(data.draw(st.permutations(range(n)), label="perm"))
    if axes and data.draw(st.booleans(), label="negate one"):
        i = data.draw(st.integers(0, n - 1))
        axes[i] -= n
    if data.draw(st.booleans(), label="corrupt"):
        op = data.draw(st.sampled_from(["set", "drop", "append"]))
        if op == "set" and axes:
            axes[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-n - 2, n + 1))
        elif op == "drop" and axes:
            axes.pop()
        else:
            axes.append(data.draw(st.integers(-n - 1, n)))
    return (lambda: bk.transpose(AbstractArray(shape), axes),
            lambda: np.transpose(np.zeros(shape), axes))


_REDUCTIONS = [(bk.sum_, np.sum), (bk.mean, np.mean), (bk.max_, np.max)]


def _case_reduce(data):
    # 0-d operands are left out: NumPy's ufunc reductions accept axis 0 / -1
    # on them (np.sum / np.max do, np.mean raises); the abstract rule
    # rejects every axis of a 0-d shape, as np.mean does.
    shape = data.draw(_shapes(min_dims=1), label="shape")
    n = len(shape)
    axis = data.draw(st.one_of(
        st.none(), st.integers(-n - 1, n),
        st.lists(st.integers(-n - 1, n), max_size=n + 1).map(tuple)), label="axis")
    keepdims = data.draw(st.booleans(), label="keepdims")
    ours, ref = data.draw(st.sampled_from(_REDUCTIONS), label="reduction")
    return (lambda: ours(AbstractArray(shape), axis=axis, keepdims=keepdims),
            lambda: ref(np.zeros(shape), axis=axis, keepdims=keepdims))


def _case_reshape(data):
    # Only -1 marks the unknown dimension: NumPy 2 also accepts any other
    # negative value there, which the validating door rejects.
    shape = data.draw(_shapes(), label="shape")
    target = list(data.draw(st.permutations(shape), label="target"))
    if len(target) >= 2 and data.draw(st.booleans(), label="merge"):
        target[:2] = [target[0] * target[1]]
    for _ in range(data.draw(st.integers(0, 2), label="unknowns")):
        if target:
            target[data.draw(st.integers(0, len(target) - 1))] = -1
    if data.draw(st.booleans(), label="extra dim"):
        target.append(data.draw(st.integers(1, 3)))
    return (lambda: AbstractArray(shape).reshape(target),
            lambda: np.zeros(shape).reshape(target))


def _case_concatenate(data):
    base = data.draw(_shapes(), label="base")
    axis = _axis_of(data, len(base))
    shapes = []
    for _ in range(data.draw(st.integers(1, 3), label="parts")):
        s = list(base)
        if s and data.draw(st.booleans(), label="vary one dim"):
            s[data.draw(st.integers(0, len(s) - 1))] = data.draw(st.integers(1, 4))
        if data.draw(st.integers(0, 9), label="rank change") == 0:
            s.append(1)
        shapes.append(tuple(s))
    return (lambda: bk.concatenate([AbstractArray(s) for s in shapes], axis),
            lambda: np.concatenate([np.zeros(s) for s in shapes], axis))


def _case_split(data):
    shape = data.draw(_shapes(), label="shape")
    axis = _axis_of(data, len(shape))
    sections = data.draw(st.integers(1, 4), label="sections")
    return (lambda: bk.split(AbstractArray(shape), sections, axis),
            lambda: np.split(np.zeros(shape), sections, axis))


def _case_slice_axis(data):
    # NumPy slices clip; ``np.take`` over the same range raises where
    # slice_axis does (an index past the end), so it is the reference.
    shape = data.draw(_shapes(min_dims=1), label="shape")
    axis = _axis_of(data, len(shape))
    dim = shape[axis] if -len(shape) <= axis < len(shape) else 1
    start = data.draw(st.integers(0, dim), label="start")
    stop = data.draw(st.integers(start, dim + 1), label="stop")
    return (lambda: bk.slice_axis(AbstractArray(shape), axis, start, stop),
            lambda: np.take(np.zeros(shape), np.arange(start, stop), axis=axis))


_RULES = {
    "broadcast": _case_broadcast, "matmul": _case_matmul,
    "transpose": _case_transpose, "reduce": _case_reduce,
    "reshape": _case_reshape, "concatenate": _case_concatenate,
    "split": _case_split, "slice_axis": _case_slice_axis,
}


def _result_shapes(out):
    outs = out if isinstance(out, list) else [out]
    return [bk.shape_of(o) for o in outs], outs


class TestGeneratedOracle:
    @pytest.mark.parametrize("rule", sorted(_RULES))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_abstract_rule_matches_numpy(self, rule, data):
        ours, ref = _RULES[rule](data)
        try:
            want, _ = _result_shapes(ref())
        except (ValueError, IndexError):  # NumPy refuses (AxisError is both)
            # ... so must the abstract rule, with the typed error.
            with pytest.raises(ShapeError):
                ours()
            return
        got, outs = _result_shapes(ours())
        assert got == want
        assert all(type(o) is AbstractArray for o in outs)
        assert len({id(o) for o in outs}) == len(outs)

    def test_trusted_constructor_is_exact_and_fresh(self):
        a, b = bk.shaped((2, 3)), bk.shaped((2, 3))
        assert type(a) is AbstractArray and type(b) is AbstractArray
        assert a is not b
        assert a.shape == b.shape == (2, 3)
