import itertools
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krt import tensor as T
from krt.tensor import Tape, Tensor, backward

from oracles import (
    FD_STEP,
    attention_block_oracle,
    col2im3_oracle,
    cosine_distance_oracle,
    finite_diff_grad,
    layer_norm_oracle,
    matmul_oracle,
    max_rel_err,
    merge_blocks_oracle,
    per_image_product_oracle,
    retention_blocks_oracle,
    session_heads_oracle,
)


def fd_check(build, seeds=range(20), rtol=1e-4, step=FD_STEP):
    """build(rng) -> (leaf tensors, scalar forward). Checks analytic vs FD."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        leaves, forward = build(rng)
        with Tape() as tape:
            loss = forward()
        backward(loss)
        for leaf in leaves:
            assert leaf.grad is not None, f"no grad reached leaf (seed {seed})"
            num = finite_diff_grad(lambda: float(forward().data), leaf.data, step)
            err = max_rel_err(leaf.grad, num)
            assert err < rtol, f"grad mismatch {err:.2e} (seed {seed})"
        tape.clear()


def rel_err(got, want):
    """Worst elementwise |got - want|, relative to |want| where that exceeds 1."""
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))


def projected_block_grads(q, rows, w_k, w_v, heads, scale, coef):
    """Gradients of sum(coef * attention over `rows`) for q, rows, w_k and w_v.

    `rows` are the block's normalised rows. Computed the direct way: every
    row is projected to its key and value, and the gradients flow back
    through those projections.
    """
    bsz, n, d = rows.shape
    l = q.shape[0]
    dh = l // heads
    x = rows.reshape(bsz * n, d)
    keys = (x @ w_k).reshape(bsz, n, heads, dh)
    vals = (x @ w_v).reshape(bsz, n, heads, dh)
    s = np.einsum("bnhk,hk->bnh", keys, q.reshape(heads, dh)) * scale
    p = np.exp(s - s.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    g_ctx, g_lse = coef[..., :dh], coef[..., dh]
    d_p = np.einsum("bhk,bnhk->bnh", g_ctx, vals)
    d_s = p * (d_p - (p * d_p).sum(axis=1, keepdims=True) + g_lse[:, None, :]) * scale
    d_keys = (d_s[..., None] * q.reshape(heads, dh)).reshape(bsz * n, l)
    d_vals = (p[..., None] * g_ctx[:, None]).reshape(bsz * n, l)
    d_q = np.einsum("bnh,bnhk->hk", d_s, keys).reshape(l)
    d_rows = (d_keys @ w_k.T + d_vals @ w_v.T).reshape(rows.shape)
    return d_q, d_rows, x.T @ d_keys, x.T @ d_vals


def dot(t, coef):
    """sum(t * coef) as a scalar tensor: the mean of t * (coef * t's size)."""
    return T.mean_all(T.mul(t, Tensor(np.asarray(coef) * t.data.size, dtype=t.dtype)))


def rand_leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def project(rng, t):
    """Reduce any output to a scalar through a fixed random functional.

    The coefficients depend only on the output shape, never on how often
    the forward runs, so finite differencing sees one fixed function.
    """
    return dot(t, np.random.default_rng(977).standard_normal(t.shape))


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_annihilating(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[0.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(T.matmul(a, b).data, np.zeros((2, 2)))

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12

    def test_all_small_shapes(self):
        rng = np.random.default_rng(11)
        for m in range(1, 9):
            for k in range(1, 9):
                for n in range(1, 9):
                    a = rng.standard_normal((m, k))
                    b = rng.standard_normal((k, n))
                    got = T.matmul(Tensor(a), Tensor(b)).data
                    assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12

    def test_shape_error_mentions_both_shapes(self):
        with pytest.raises(T.TensorError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradients(self):
        def build(rng):
            a, b = rand_leaf(rng, 3, 4), rand_leaf(rng, 4, 2)
            return [a, b], lambda: project(rng, T.matmul(a, b))

        fd_check(build)


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_large_logits_stable(self):
        out = T.softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert out.data[0, 0] > 1.0 - 1e-12
        assert out.data[0, 1] < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = T.softmax_rows(Tensor(rng.standard_normal((50, 7)) * 5))
        assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-12
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_gradients_tight(self):
        def build(rng):
            x = rand_leaf(rng, 2, 3)
            return [x], lambda: project(rng, T.softmax_rows(x))

        fd_check(build, rtol=1e-6)


class TestLayerNorm:
    def test_constant_vector_zeroed(self):
        g = Tensor(np.ones(4))
        b = Tensor(np.zeros(4))
        out = T.layer_norm(Tensor([3.5, 3.5, 3.5, 3.5]), g, b)
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_mean_zero_unit_variance(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((6, 16)) * 3 + 1)
        out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.max(np.abs(out.data.mean(axis=-1))) < 1e-12
        assert np.max(np.abs(out.data.var(axis=-1) - 1.0)) < 1e-4  # eps-limited

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_statistics_are_np_var_to_the_bit(self, dtype):
        rng = np.random.default_rng(6)
        x = (rng.standard_normal((4, 196, 128)) * 3 + 1).astype(dtype)
        g, b = rng.standard_normal(128).astype(dtype), rng.standard_normal(128).astype(dtype)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        want = (x - x.mean(axis=-1, keepdims=True)) * inv * g + b
        assert np.array_equal(T.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data, want)

    def test_gradients_tight(self):
        def build(rng):
            x = rand_leaf(rng, 3, 5)
            g = rand_leaf(rng, 5)
            b = rand_leaf(rng, 5)
            return [x, g, b], lambda: project(rng, T.layer_norm(x, g, b))

        fd_check(build, rtol=1e-6)


class TestElementwise:
    def test_cosine_self_is_one(self):
        rng = np.random.default_rng(0)
        v = Tensor(rng.standard_normal((5, 6)))
        assert np.max(np.abs(T.cosine_similarity(v, v).data - 1.0)) < 1e-12

    def test_cosine_orthogonal_is_zero(self):
        a = Tensor([[1.0, 0.0], [0.0, 2.0]])
        b = Tensor([[0.0, 1.0], [3.0, 0.0]])
        assert np.max(np.abs(T.cosine_similarity(a, b).data)) < 1e-15

    def test_cosine_zero_norm_rejected(self):
        with pytest.raises(T.TensorError):
            T.cosine_similarity(Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor(np.ones((2, 2))))
        with pytest.raises(T.TensorError, match="rank 2"):
            T.cosine_similarity(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))

    def test_concat_slice_roundtrip_bit_exact(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 5)))
        cat = T.concat([a, b], axis=1)
        assert np.array_equal(T.slice_along(cat, 1, 0, 3).data, a.data)
        assert np.array_equal(T.slice_along(cat, 1, 3, 8).data, b.data)

    def test_slice_out_of_range(self):
        with pytest.raises(T.TensorError):
            T.slice_along(Tensor(np.ones((2, 3))), 1, 0, 4)

    def test_add_shape_mismatch(self):
        with pytest.raises(T.TensorError, match=r"\(2,\).*\(3,\)"):
            T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(T.TensorError, match=r"\(3, 2\).*\(1, 2\)"):
            T.add(Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))))

    def test_scalar_broadcast_allowed(self):
        x = Tensor([1.0, 2.0])
        assert np.array_equal(T.add(x, 1.0).data, [2.0, 3.0])
        assert np.array_equal(T.scale(x, 2.0).data, [2.0, 4.0])

    def test_sigmoid_clamped(self):
        out = T.sigmoid(Tensor([-100.0, 0.0, 100.0]))
        assert out.data[0] == T.SIGMOID_EPS
        assert out.data[2] == 1.0 - T.SIGMOID_EPS
        assert abs(out.data[1] - 0.5) < 1e-15

    def test_log_of_zero_is_an_error(self):
        with pytest.raises(T.TensorError):
            T.log(Tensor([0.0, 1.0]))

    def test_gradients(self):
        cases = {
            "add": lambda rng: two_input(rng, T.add),
            "mul": lambda rng: two_input(rng, T.mul),
            "scale": lambda rng: one_input(rng, lambda x: T.scale(x, -2.5)),
            "power": lambda rng: one_input(rng, lambda x: T.power(x, 3.0), positive=True),
            "log": lambda rng: one_input(rng, T.log, positive=True),
            "sigmoid": lambda rng: one_input(rng, T.sigmoid),
            "gelu": lambda rng: one_input(rng, T.gelu),
            "mean": lambda rng: one_input(rng, T.mean_all, reduce=True),
            "cosine": lambda rng: two_input(rng, T.cosine_similarity),
        }
        for name, build in cases.items():
            fd_check(build, seeds=range(20))


def one_input(rng, op, positive=False, reduce=False):
    data = rng.standard_normal((3, 4))
    if positive:
        data = np.abs(data) + 0.5
    x = Tensor(data, requires_grad=True)
    if reduce:
        return [x], lambda: op(x)
    return [x], lambda: project(rng, op(x))


def two_input(rng, op):
    a, b = rand_leaf(rng, 3, 4), rand_leaf(rng, 3, 4)
    return [a, b], lambda: project(rng, op(a, b))


class TestShapeOps:
    def test_transpose_and_reshape_gradients(self):
        def build_t(rng):
            x, y = rand_leaf(rng, 3, 4), rand_leaf(rng, 2, 3, 4)
            return [x, y], lambda: T.add(project(rng, T.transpose(x, (1, 0))), project(rng, T.transpose(y, (1, 2, 0))))

        def build_r(rng):
            x = rand_leaf(rng, 3, 4)
            return [x], lambda: project(rng, x.reshape(2, 6))

        fd_check(build_t, seeds=range(5))
        fd_check(build_r, seeds=range(5))

    def test_transpose_is_a_contiguous_permutation(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 4))
        out = T.transpose(Tensor(x), (1, 0, 2)).data
        assert out.flags.c_contiguous and np.array_equal(out, x.transpose(1, 0, 2))
        for axes in ((1, 0), (0, 1, 1), (0, 1, 3)):
            with pytest.raises(T.TensorError):
                T.transpose(Tensor(x), axes)

    def test_concat_slice_repeat_gradients(self):
        def build(rng):
            a = rand_leaf(rng, 2, 3)
            b = rand_leaf(rng, 2, 2)
            r = rand_leaf(rng, 1, 4)

            def forward():
                cat = T.concat([a, b], axis=1)
                sl = T.slice_along(cat, 1, 1, 5)
                rep = T.repeat_rows(r, 2)
                return project(np.random.default_rng(0), T.add(sl, rep))

            return [a, b, r], forward

        fd_check(build, seeds=range(10))

    def test_affine_gradients(self):
        for x_shape in ((4, 3), (2, 4, 3)):  # a matrix, and a stack of them

            def build(rng, x_shape=x_shape):
                x, w, b = rand_leaf(rng, *x_shape), rand_leaf(rng, 3, 5), rand_leaf(rng, 5)
                return [x, w, b], lambda: project(rng, T.affine(x, w, b))

            fd_check(build)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 12])
    def test_stacked_affine_equals_per_slice_affine(self, dtype, rows):
        # np.matmul runs each slice's product as the rank-2 call would, so
        # a [t, B, k] stack gives the per-slice outputs bit for bit
        rng = np.random.default_rng(rows)
        x = Tensor(rng.standard_normal((5, rows, 128)).astype(dtype))
        w = Tensor(rng.standard_normal((128, 96)).astype(dtype))
        b = Tensor(rng.standard_normal(96).astype(dtype))
        stacked = T.affine(x, w, b).data
        for i in range(5):
            assert np.array_equal(stacked[i], T.affine(Tensor(x.data[i]), w, b).data)

    def test_weighted_rows_sum_gradients(self):
        def build(rng):
            w = rand_leaf(rng, 2, 5)
            v = rand_leaf(rng, 2, 5, 3)
            return [w, v], lambda: project(rng, T.weighted_rows_sum(w, v))

        fd_check(build)

    def test_conv3x3_gradients(self):
        def build(rng):
            x = Tensor(rng.standard_normal((2, 3, 3, 2)))
            w = rand_leaf(rng, 18, 2)
            b = rand_leaf(rng, 2)
            return [w, b], lambda: project(rng, T.conv3x3_same(x, w, b))

        fd_check(build, seeds=range(10))

    def test_conv3x3_images_take_no_gradient(self):
        x = Tensor(np.ones((1, 2, 2, 1)), requires_grad=True)
        with Tape(), pytest.raises(T.TensorError, match="constant"):
            T.conv3x3_same(x, Tensor(np.ones((9, 1))), Tensor(np.zeros(1)))

    def test_im2col3_is_the_adjoint_of_the_scatter_add(self):
        # <im2col(x), cols> = <x, col2im(cols)> pins the column layout that
        # conv3x3_same and patch_embed share: offsets row-major, channels last
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 4, 2))
        cols = rng.standard_normal((2 * 3 * 4, 18))
        lhs = np.vdot(T._im2col3(x), cols)
        assert abs(lhs - np.vdot(x, col2im3_oracle(cols, x.shape))) < 1e-12 * max(abs(lhs), 1.0)

    def test_conv3x3_is_local_sum(self):
        # one-hot weight picks out the centre offset -> identity map
        x = np.arange(2 * 2 * 3 * 1, dtype=float).reshape(2, 2, 3, 1)
        w = np.zeros((9, 1))
        w[4, 0] = 1.0  # offset (dy=1, dx=1) = centre
        out = T.conv3x3_same(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        assert np.array_equal(out.data, x)


def layer_normed(rows, gain, bias):
    """`layer_norm_oracle` on every row of a [B, n, d] array."""
    return np.array([[layer_norm_oracle(r, gain, bias) for r in image] for image in rows])


def block_arrays(rng, bsz, n, d, heads, dh):
    """q, rows, gain, bias, w_k, w_v for one block, in `attention_block`'s order."""
    l = heads * dh
    return (
        rng.standard_normal(l),
        rng.standard_normal((bsz, n, d)) * 2.0 + 0.5,
        rng.standard_normal(d),
        rng.standard_normal(d),
        rng.standard_normal((d, l)) / np.sqrt(d),
        rng.standard_normal((d, l)) / np.sqrt(d),
    )


def block_oracle(q, rows, gain, bias, w_k, w_v, heads, scale):
    return attention_block_oracle(q, layer_normed(rows, gain, bias), w_k, w_v, heads, scale)


class TestAttentionBlock:
    def test_matches_layer_norm_then_per_head_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            bsz, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            heads, dh, d = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
            arrays = block_arrays(rng, bsz, n, d, heads, dh)
            # every fifth trial puts scores in the hundreds, where exp overflows unshifted
            scale = 400.0 if trial % 5 == 0 else float(rng.uniform(0.1, 2.0))
            got = T.attention_block(*[Tensor(a) for a in arrays], heads, scale).data
            want = block_oracle(*arrays, heads, scale)
            assert got.shape == (bsz, heads, dh + 1)
            assert rel_err(got, want) < 1e-10

    def test_one_row_block_is_its_value_and_score(self):
        rng = np.random.default_rng(32)
        heads, dh, d = 3, 2, 5
        q, row, gain, bias, w_k, w_v = block_arrays(rng, 2, 1, d, heads, dh)
        got = T.attention_block(
            *[Tensor(a) for a in (q, row, gain, bias, w_k, w_v)], heads, 0.7
        ).data
        y = layer_normed(row, gain, bias)[:, 0]
        v = (y @ w_v).reshape(2, heads, dh)
        s = ((y @ w_k).reshape(2, heads, dh) * q.reshape(heads, dh)).sum(-1) * 0.7
        assert rel_err(got[..., :dh], v) < 1e-12
        assert np.max(np.abs(got[..., dh] - s)) < 1e-12

    def test_paper_shape_matches_oracle_and_projected_gradients(self):
        # the reference gradients take the direct projections back to the
        # normalised rows, then through `layer_norm`'s own backward
        rng = np.random.default_rng(33)
        bsz, n, d, heads = 2, 196, 128, 8
        scale = 1.0 / np.sqrt(d // heads)
        arrays = block_arrays(rng, bsz, n, d, heads, d // heads)
        q, rows, gain, bias, w_k, w_v = arrays
        coef = rng.standard_normal((bsz, heads, d // heads + 1))
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape():
            out = T.attention_block(*leaves, heads, scale)
            loss = dot(out, coef)
        backward(loss)
        assert rel_err(out.data, block_oracle(*arrays, heads, scale)) < 1e-12

        ln_leaves = [Tensor(a, requires_grad=True) for a in (rows, gain, bias)]
        y = T.layer_norm(*ln_leaves).data
        d_q, d_y, d_w_k, d_w_v = projected_block_grads(q, y, w_k, w_v, heads, scale, coef)
        with Tape():
            loss = dot(T.layer_norm(*ln_leaves), d_y)
        backward(loss)
        want = [d_q] + [leaf.grad for leaf in ln_leaves] + [d_w_k, d_w_v]
        for leaf, grad in zip(leaves, want):
            assert rel_err(leaf.grad, grad) < 1e-12

    def test_each_gradient_is_independent_of_which_inputs_need_one(self):
        rng = np.random.default_rng(34)
        arrays = block_arrays(rng, 3, 5, 4, 2, 3)
        coef = rng.standard_normal((3, 2, 4))

        def grads(wanted):
            leaves = [Tensor(a, requires_grad=i in wanted) for i, a in enumerate(arrays)]
            with Tape():
                loss = dot(T.attention_block(*leaves, 2, 0.8), coef)
            backward(loss)
            return [leaf.grad for leaf in leaves]

        full = grads(range(6))
        for k in range(1, 7):
            for wanted in itertools.combinations(range(6), k):
                for i, grad in enumerate(grads(wanted)):
                    if i in wanted:
                        assert np.array_equal(grad, full[i]), (wanted, i)
                    else:
                        assert grad is None, (wanted, i)

    def test_shape_errors(self):
        q, rows, w = Tensor(np.ones(4)), Tensor(np.ones((1, 2, 3))), Tensor(np.ones((3, 4)))
        g = Tensor(np.ones(3))
        with pytest.raises(T.TensorError):
            T.attention_block(q, Tensor(np.ones((2, 3))), g, g, w, w, 2, 1.0)
        with pytest.raises(T.TensorError):
            T.attention_block(Tensor(np.ones(5)), rows, g, g, w, w, 2, 1.0)
        with pytest.raises(T.TensorError):
            T.attention_block(q, rows, g, g, w, w, 3, 1.0)
        with pytest.raises(T.TensorError):
            T.attention_block(q, rows, Tensor(np.ones(4)), g, w, w, 2, 1.0)
        with pytest.raises(T.TensorError):
            T.attention_block(q, rows, g, Tensor(np.ones(2)), w, w, 2, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        bsz=st.integers(1, 3),
        n=st.integers(1, 4),
        heads=st.integers(1, 3),
        dh=st.integers(1, 3),
        d=st.integers(1, 4),
        lse_only=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_gradients_match_finite_differences(self, bsz, n, heads, dh, d, lse_only, seed):
        rng = np.random.default_rng(seed)
        arrays = list(block_arrays(rng, bsz, n, d, heads, dh))
        if d == 2:
            # two entries spread by ~1e-3, below sqrt(LN_EPS): a wider spread
            # normalises to +-1 up to eps, whose gradient is of eps's order and
            # below the rounding noise of central differences
            arrays[1] = arrays[1][..., :1] + 1e-3 * rng.standard_normal((bsz, n, 2))
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        coef = rng.standard_normal((bsz, heads, dh + 1))
        if lse_only:
            coef[..., :dh] = 0.0  # the gradient arrives on the lse column alone

        def forward():
            return dot(T.attention_block(*leaves, heads, 0.6), coef)

        with Tape():
            loss = forward()
        backward(loss)
        for i, leaf in enumerate(leaves):
            # at d=2 the output curves on the 1e-3 scale of the rows' spread, and
            # the truncation error of central differences grows with step^2: the
            # rows gradient of one drawn case was off by 1.1e-4 at step 1e-5 (5 of
            # 600 draws failed), by 1.1e-6 at 1e-6 (none of 800 failed)
            step = 1e-6 if d == 2 and i == 1 else FD_STEP
            num = finite_diff_grad(lambda: float(forward().data), leaf.data, step)
            # central differences carry ~1e-10 of rounding noise (eps * |loss| / step),
            # so entries near zero are held to an absolute 1e-10
            err = max_rel_err(leaf.grad, num, floor=1e-6)
            assert err < 1e-4, f"grad mismatch {err:.2e}"


class TestRetentionBlocks:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        t=st.integers(1, 20),
        # (heads, dh, d): the paper shape, the default one, a small one, or any tiny one
        shape=st.sampled_from([(8, 16, 128), (4, 8, 32), (2, 4, 8)])
        | st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
        live=st.sampled_from(["last", "mixed", "all"]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    @example(t=8, shape=(8, 16, 128), live="last", dtype=np.float32, seed=0)
    @example(t=20, shape=(8, 16, 128), live="all", dtype=np.float32, seed=1)
    def test_bit_equal_to_the_taped_chain(self, t, shape, live, dtype, seed):
        # a patch block reads the same weights first, as in ICA, so the tape
        # sums its gradients after the tokens'
        (heads, dh, d), scale = shape, 1.0 / np.sqrt(shape[1])
        rng = np.random.default_rng(seed)
        arrays = block_arrays(rng, 3, 5, d, heads, dh)
        tokens = rng.uniform(-1.0, 1.0, (t, d)) / np.sqrt(d)
        trainable = {"last": np.arange(t) == t - 1, "mixed": rng.random(t) < 0.5, "all": np.ones(t, bool)}[live]
        coef, patch_coef = rng.standard_normal((t, heads, dh + 1)), rng.standard_normal((3, heads, dh + 1))

        def run(op):
            q, rows, gain, bias, w_k, w_v = leaves = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
            toks = [Tensor(a, requires_grad=bool(r), dtype=dtype) for a, r in zip(tokens, trainable)]
            with Tape():
                patch = T.attention_block(q, rows, gain, bias, w_k, w_v, heads, scale)
                out = op(q, toks, gain, bias, w_k, w_v, heads, scale)
                loss = T.add(dot(patch, patch_coef), dot(out, coef))
            backward(loss)
            return [out.data] + [x.grad for x in leaves] + [tok.grad for tok in toks]

        for k, (a, b) in enumerate(zip(run(T.retention_blocks), run(retention_blocks_oracle))):
            if k > len(arrays) and not trainable[k - len(arrays) - 1]:
                assert a is None and b is None  # a frozen token
                continue
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b), k

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        t=st.integers(1, 3),
        heads=st.integers(1, 3),
        dh=st.integers(1, 3),
        d=st.integers(3, 4),
        all_live=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_gradients_match_finite_differences(self, t, heads, dh, d, all_live, seed):
        def build(rng):
            q, _, gain, bias, w_k, w_v = [Tensor(a, requires_grad=True) for a in block_arrays(rng, 1, 1, d, heads, dh)]
            tokens = [rand_leaf(rng, d) for _ in range(t)]
            for tok in tokens[:-1]:
                tok.requires_grad = all_live
            leaves = [q, gain, bias, w_k, w_v] + [tok for tok in tokens if tok.requires_grad]
            return leaves, lambda: project(rng, T.retention_blocks(q, tokens, gain, bias, w_k, w_v, heads, 0.6))

        fd_check(build, seeds=[seed])

    def test_shape_errors(self):
        q, gain, w = Tensor(np.ones(4)), Tensor(np.ones(3)), Tensor(np.ones((3, 4)))
        for tokens, q_, heads in (
            ([], q, 2),
            ([Tensor(np.ones(3)), Tensor(np.ones(4))], q, 2),
            ([Tensor(np.ones((1, 3)))], q, 2),
            ([Tensor(np.ones(3))], Tensor(np.ones(3)), 2),
            ([Tensor(np.ones(3))], q, 3),
        ):
            with pytest.raises(T.TensorError):
                T.retention_blocks(q_, tokens, gain, gain, w, w, heads, 1.0)


class TestMergeBlocks:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t", [1, 2, 5])
    @pytest.mark.parametrize("bsz", [1, 3, 16])
    @pytest.mark.parametrize("heads, dh", [(8, 16), (4, 8)])
    def test_bit_equal_to_the_taped_chain(self, dtype, t, bsz, heads, dh):
        # the paper shape (d=128, 8 heads) and the default one (d=32, 4 heads)
        rng = np.random.default_rng(100 * t + bsz + heads)
        arrays = [rng.standard_normal((1, heads, dh + 1)) for _ in range(t)]
        arrays.append(rng.standard_normal((bsz, heads, dh + 1)))
        for a in arrays:
            a[..., dh] *= 4.0  # lse values spread like scores do, so no weight is near 1/2
        coef = rng.standard_normal((t, bsz, heads * dh))

        def run(merge):
            leaves = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
            with Tape() as tape:
                out = merge(leaves[:-1], leaves[-1])
                loss = dot(out, coef)
            backward(loss)
            return len(tape) - 2, [out.data] + [leaf.grad for leaf in leaves]

        records, got = run(lambda own, shared: T.merge_blocks(T.concat(own, axis=0), shared))
        chain_records, want = run(merge_blocks_oracle)
        assert (records, chain_records) == (2, t + 10)  # each past dot's two records
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        t=st.integers(1, 3),
        bsz=st.integers(1, 3),
        heads=st.integers(1, 3),
        dh=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_gradients_match_finite_differences(self, t, bsz, heads, dh, seed):
        def build(rng):
            own, shared = rand_leaf(rng, t, heads, dh + 1), rand_leaf(rng, bsz, heads, dh + 1)
            return [own, shared], lambda: project(rng, T.merge_blocks(own, shared))

        fd_check(build, seeds=[seed])

    def test_shape_errors(self):
        block = Tensor(np.ones((2, 3, 4)))
        for own, shared in (
            (Tensor(np.ones((3, 4))), block),
            (block, Tensor(np.ones((2, 2, 4)))),
            (block, Tensor(np.ones((2, 3, 5)))),
            (Tensor(np.ones((2, 3, 1))), Tensor(np.ones((2, 3, 1)))),
        ):
            with pytest.raises(T.TensorError):
                T.merge_blocks(own, shared)


class TestSessionHeads:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t", [1, 2, 5])
    @pytest.mark.parametrize("bsz", [1, 3, 16])
    @pytest.mark.parametrize("x_kind", ["stacked", "shared, read before", "shared, read after"])
    def test_bit_equal_to_the_taped_chain(self, dtype, t, bsz, x_kind):
        # a shared x has another reader on the tape, as the kd loss reads the
        # pooled features: its gradient joins the heads' in the chain's order
        d, widths = 32, [5, 3, 5, 1, 4][:t]
        rng = np.random.default_rng(10 * t + bsz)
        x_shape = (t, bsz, d) if x_kind == "stacked" else (bsz, d)
        arrays = [rng.standard_normal(x_shape)]
        for n in widths:
            arrays += [rng.uniform(-1.0, 1.0, (d, n)) / np.sqrt(d), rng.uniform(-1.0, 1.0, n) / np.sqrt(d)]
        coef, x_coef = rng.standard_normal((bsz, sum(widths))), rng.standard_normal(x_shape)

        def run(heads_op):
            x, *params = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
            heads = list(zip(params[::2], params[1::2]))
            with Tape():
                before = dot(x, x_coef) if x_kind == "shared, read before" else None
                logits = heads_op(x, heads)
                loss = dot(logits, coef)
                if before is not None:
                    loss = T.add(before, loss)
                if x_kind == "shared, read after":
                    loss = T.add(loss, dot(x, x_coef))
            backward(loss)
            return [logits.data, x.grad] + [p.grad for p in params]

        def chain(x, heads):
            if x.ndim == 2:
                return session_heads_oracle([x] * t, heads)
            return session_heads_oracle([T.slice_along(x, 0, s, s + 1).reshape(bsz, d) for s in range(t)], heads)

        for a, b in zip(run(T.session_heads), run(chain)):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        widths=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        bsz=st.integers(1, 3),
        d=st.integers(1, 4),
        stacked=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_gradients_match_finite_differences(self, widths, bsz, d, stacked, seed):
        def build(rng):
            x = rand_leaf(rng, *((len(widths), bsz, d) if stacked else (bsz, d)))
            heads = [(rand_leaf(rng, d, n), rand_leaf(rng, n)) for n in widths]
            return [x] + [p for head in heads for p in head], lambda: project(rng, T.session_heads(x, heads))

        fd_check(build, seeds=[seed])

    def test_shape_errors(self):
        x, head = Tensor(np.ones((2, 3, 4))), (Tensor(np.ones((4, 2))), Tensor(np.ones(2)))
        for bad_x, heads in (
            (x, []),
            (x, [head]),
            (Tensor(np.ones(4)), [head]),
            (Tensor(np.ones((3, 5))), [head]),
            (x, [head, (Tensor(np.ones((4, 2))), Tensor(np.ones(3)))]),
            (x, [head, (Tensor(np.ones(4)), Tensor(np.ones(1)))]),
        ):
            with pytest.raises(T.TensorError):
                T.session_heads(bad_x, heads)


class TestCosineDistance:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        t=st.integers(1, 20),  # 1: a [B, d] x, as the kd loss passes; else a [t, B, d] stack and its t-1 prefix
        bsz=st.integers(1, 16),
        d=st.sampled_from([8, 32, 128]) | st.integers(1, 128),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    @example(t=8, bsz=16, d=128, dtype=np.float32, seed=0)
    def test_bit_equal_to_the_taped_chain(self, t, bsz, d, dtype, seed):
        # under a scale by 100, the token loss's weight
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((t, bsz, d) if t > 1 else (bsz, d))
        y = (x[: t - 1] if t > 1 else x) + 0.3 * rng.standard_normal((t - 1, bsz, d) if t > 1 else (bsz, d))

        def run(op):
            leaf = Tensor(x, requires_grad=True, dtype=dtype)
            with Tape():
                loss = T.scale(op(leaf, y.astype(dtype)), 100.0)
            backward(loss)
            return loss.data, leaf.grad

        for a, b in zip(run(T.cosine_distance), run(cosine_distance_oracle)):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        t=st.integers(1, 3),
        m=st.integers(1, 3),
        bsz=st.integers(1, 3),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_gradients_match_finite_differences(self, t, m, bsz, d, seed):
        def build(rng):
            x = rand_leaf(rng, *((t, bsz, d) if t > 1 else (bsz, d)))
            y = rng.standard_normal((min(m, t), bsz, d) if t > 1 else (bsz, d))
            return [x], lambda: T.cosine_distance(x, y)

        fd_check(build, seeds=[seed])

    def test_a_zero_norm_item_raises(self):
        x, y = np.ones((3, 2, 4)), np.ones((2, 2, 4))
        zero_x, zero_y, zero_prefix = x.copy(), y.copy(), x.copy()
        zero_x[:, 1], zero_y[:, 0] = 0.0, 0.0
        zero_prefix[:2, 1] = 0.0  # item 1 is zero in the two slices y pairs with, not in the third
        for a, b in ((zero_x, y), (x, zero_y), (zero_prefix, y), (zero_x[0], y[0]), (x[0], zero_y[0])):
            with pytest.raises(T.TensorError, match="zero-norm"):
                T.cosine_distance(Tensor(a, requires_grad=True), b)

    def test_shape_errors(self):
        x = Tensor(np.ones((3, 2, 4)))
        for bad_x, y in (
            (x, np.ones((4, 2, 4))),
            (x, np.ones((0, 2, 4))),
            (x, np.ones((2, 3, 4))),
            (x, np.ones((2, 4))),
            (Tensor(np.ones((2, 4))), np.ones((2, 5))),
            (Tensor(np.ones(4)), np.ones(4)),
        ):
            with pytest.raises(T.TensorError):
                T.cosine_distance(bad_x, y)


def stem_arrays(rng, bsz, h, w, c, m, d, dtype=np.float64):
    """images, conv_w, conv_b, proj_w, proj_b, pos, in `patch_embed`'s order."""
    arrays = (
        rng.standard_normal((bsz, h, w, c)),
        rng.uniform(-1.0, 1.0, (9 * c, m)) / np.sqrt(9 * c),
        rng.uniform(-1.0, 1.0, m) / np.sqrt(9 * c),
        rng.uniform(-1.0, 1.0, (m, d)) / np.sqrt(m),
        rng.uniform(-1.0, 1.0, d) / np.sqrt(m),
        0.1 * rng.standard_normal((1, h * w, d)),
    )
    return [a.astype(dtype) for a in arrays]


def stem_chain(images, conv_w, conv_b, proj_w, proj_b, pos):
    """The taped ops that `patch_embed` fuses."""
    bsz, h, w, _ = images.shape
    feats = T.gelu(T.conv3x3_same(images, conv_w, conv_b))
    rows = T.affine(feats.reshape(bsz * h * w, conv_w.shape[1]), proj_w, proj_b)
    return T.add(rows.reshape(bsz, h * w, proj_w.shape[1]), T.repeat_rows(pos, bsz))


def stem_weights(arrays):
    """Leaves for `patch_embed`: the four weights need a gradient, images and pos do not."""
    return [Tensor(a, requires_grad=0 < i < 5) for i, a in enumerate(arrays)]


def stem_chain_weight_products(arrays, coef):
    """The chain's weight gradients of conv_w and proj_w, per image then over images.

    Each is a^T g of the chain's own operands: the 3x3 columns and the gradient
    reaching the conv output, and gelu's output and the gradient reaching the
    projection's output. A gradient is read by restarting the chain at that
    output as a leaf; the ops after it are the same, and so is the gradient.
    """
    images, conv_w, conv_b, proj_w, proj_b, pos = [Tensor(a) for a in arrays]
    bsz, h, w, _ = images.shape
    z = Tensor(T.conv3x3_same(images, conv_w, conv_b).data, requires_grad=True)
    with Tape():
        feats = T.gelu(z)
        rows = T.affine(feats.reshape(bsz * h * w, conv_w.shape[1]), proj_w, proj_b)
        loss = dot(T.add(rows.reshape(*coef.shape), T.repeat_rows(pos, bsz)), coef)
    backward(loss)
    rows_leaf = Tensor(rows.data, requires_grad=True)
    with Tape():
        loss = dot(T.add(rows_leaf.reshape(*coef.shape), T.repeat_rows(pos, bsz)), coef)
    backward(loss)
    return (
        per_image_product_oracle(T._im2col3(images.data), z.grad.reshape(bsz * h * w, -1), bsz),
        per_image_product_oracle(feats.data.reshape(bsz * h * w, -1), rows_leaf.grad, bsz),
    )


class TestPatchEmbed:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "bsz, grid, d", [(1, 14, 128), (5, 14, 128), (16, 14, 128), (16, 8, 32)]
    )
    def test_bit_equal_to_the_taped_chain(self, dtype, bsz, grid, d):
        # the paper shape (14x14 grid, d=128) and the default one (8x8, d=32)
        rng = np.random.default_rng(bsz + d)
        arrays = stem_arrays(rng, bsz, grid, grid, 8, 64, d, dtype)
        coef = rng.standard_normal((bsz, grid * grid, d)).astype(dtype)

        def run(op):
            leaves = stem_weights(arrays)
            with Tape():
                out = op(*leaves)
                loss = dot(out, coef)
            backward(loss)
            return [out.data] + [leaf.grad for leaf in leaves[1:5]]

        got, want = run(T.patch_embed), run(stem_chain)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype
        # output and biases as the chain; the weights' products are summed per image
        for i in (0, 2, 4):
            assert np.array_equal(got[i], want[i])
        for i, reference in zip((1, 3), stem_chain_weight_products(arrays, coef)):
            assert np.array_equal(got[i], reference)
            if bsz == 1:
                assert np.array_equal(got[i], want[i])
            elif dtype == np.float64:
                assert np.abs(got[i] - want[i]).max() <= 1e-12 * np.abs(want[i]).max()
        # tape-free, gelu is taken in place
        constants = [Tensor(a) for a in arrays]
        assert np.array_equal(T.patch_embed(*constants).data, stem_chain(*constants).data)

    def test_each_gradient_is_independent_of_which_weights_need_one(self):
        rng = np.random.default_rng(41)
        arrays = stem_arrays(rng, 2, 3, 4, 2, 5, 3)
        coef = rng.standard_normal((2, 12, 3))

        def grads(wanted):
            leaves = [Tensor(a, requires_grad=i in wanted) for i, a in enumerate(arrays)]
            with Tape():
                loss = dot(T.patch_embed(*leaves), coef)
            backward(loss)
            return [leaf.grad for leaf in leaves]

        full = grads(range(1, 5))
        for k in range(1, 5):
            for wanted in itertools.combinations(range(1, 5), k):
                for i, grad in enumerate(grads(wanted)):
                    if i in wanted:
                        assert np.array_equal(grad, full[i]), (wanted, i)
                    else:
                        assert grad is None, (wanted, i)

    def test_repeated_backward_accumulates_the_same_gradient(self):
        # the backward rebuilds its columns and gelu output; it must not consume what it saved
        arrays = stem_arrays(np.random.default_rng(42), 2, 3, 3, 2, 4, 3)
        leaves = stem_weights(arrays)
        with Tape():
            loss = T.mean_all(T.patch_embed(*leaves))
        backward(loss)
        once = [leaf.grad.copy() for leaf in leaves[1:5]]
        backward(loss)
        for leaf, grad in zip(leaves[1:5], once):
            assert np.array_equal(leaf.grad, grad + grad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("taped", [False, True])
    def test_non_finite_conv_weight_fails_in_the_op(self, bad, taped):
        arrays = stem_arrays(np.random.default_rng(43), 2, 4, 4, 2, 6, 5)
        leaves = stem_weights(arrays) if taped else [Tensor(a) for a in arrays]
        leaves[1].data[0, 0] = bad  # as a diverged update would leave it
        with Tape(), pytest.raises(T.TensorError, match="non-finite"):
            T.patch_embed(*leaves)

    @pytest.mark.parametrize("constant", [0, 5])
    def test_images_and_pos_take_no_gradient(self, constant):
        arrays = stem_arrays(np.random.default_rng(44), 1, 2, 2, 1, 3, 2)
        leaves = [Tensor(a, requires_grad=i in (1, constant)) for i, a in enumerate(arrays)]
        with Tape(), pytest.raises(T.TensorError, match="constants"):
            T.patch_embed(*leaves)

    def test_shape_errors(self):
        arrays = stem_arrays(np.random.default_rng(45), 1, 2, 3, 2, 4, 5)
        with pytest.raises(T.TensorError, match="images"):
            T.patch_embed(Tensor(arrays[0][0]), *[Tensor(a) for a in arrays[1:]])
        for i, bad in [(1, (17, 4)), (2, (3,)), (3, (4, 4)), (4, (4,)), (5, (1, 5, 5)), (5, (6, 5))]:
            leaves = [Tensor(a) for a in arrays]
            leaves[i] = Tensor(np.zeros(bad))
            with pytest.raises(T.TensorError, match="bad shapes"):
                T.patch_embed(*leaves)

    @settings(max_examples=25, deadline=None)
    @given(
        bsz=st.integers(1, 2),
        h=st.integers(1, 3),
        w=st.integers(1, 3),
        c=st.integers(1, 2),
        m=st.integers(1, 4),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_gradients_match_finite_differences(self, bsz, h, w, c, m, d, seed):
        rng = np.random.default_rng(seed)
        leaves = stem_weights(stem_arrays(rng, bsz, h, w, c, m, d))
        coef = rng.standard_normal((bsz, h * w, d))

        def forward():
            return dot(T.patch_embed(*leaves), coef)

        with Tape():
            loss = forward()
        backward(loss)
        for leaf in leaves[1:5]:
            num = finite_diff_grad(lambda: float(forward().data), leaf.data)
            # entries near zero are held to an absolute 1e-10, as for attention_block
            err = max_rel_err(leaf.grad, num, floor=1e-6)
            assert err < 1e-4, f"grad mismatch {err:.2e}"


class TestBackward:
    def test_mean_gives_one_over_the_size(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape():
            loss = T.mean_all(x)
        backward(loss)
        assert np.array_equal(x.grad, np.full((2, 3), 1.0 / 6.0))

    def test_square_gives_2x(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape():
            loss = T.mean_all(T.mul(x, x))
        backward(loss)
        assert np.allclose(x.grad, [6.0])

    def test_repeated_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape():
            loss = T.mean_all(T.mul(x, x))
        backward(loss)
        backward(loss)
        assert np.allclose(x.grad, [8.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = T.mul(x, x)
        with pytest.raises(T.TensorError):
            backward(y)

    def test_shared_subexpression(self):
        # y = x + x reuses one tensor twice; grad must be 2
        x = Tensor([5.0], requires_grad=True)
        with Tape():
            loss = T.mean_all(T.add(x, x))
        backward(loss)
        assert np.allclose(x.grad, [2.0])


class TestTape:
    def test_ops_outside_tape_do_not_record(self):
        x = Tensor([1.0], requires_grad=True)
        y = T.mul(x, x)
        assert y._tape is None and not y.requires_grad

    def test_clear_releases_records(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            T.mul(x, x)
        assert len(tape) == 1
        tape.clear()
        assert len(tape) == 0

    def test_tapes_do_not_nest(self):
        with Tape():
            with pytest.raises(T.TensorError):
                with Tape():
                    pass

    def test_constants_not_recorded(self):
        x = Tensor([1.0])  # no requires_grad
        with Tape() as tape:
            T.mul(x, x)
        assert len(tape) == 0


class TestDeterminismAndSafety:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))

        def run():
            x = T.matmul(Tensor(a), Tensor(b))
            x = T.softmax_rows(x)
            return T.gelu(x).data

        assert np.array_equal(run(), run())

    def test_nonfinite_construction_rejected(self):
        with pytest.raises(T.TensorError):
            Tensor([np.inf, 1.0])
        with pytest.raises(T.TensorError):
            Tensor([np.nan])

    def test_float32_supported(self):
        # ops keep their input dtype: float32 for the model, float64 for the gradient tests
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        y = T.mul(x, x)
        assert y.dtype == np.float32
        rng = np.random.default_rng(7)
        for dtype in (np.float32, np.float64):

            def leaf(*shape):
                return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

            q, rows, w_k, w_v = leaf(8), leaf(2, 5, 6), leaf(6, 8), leaf(6, 8)
            x, gain, bias = leaf(3, 6), leaf(6), leaf(6)
            with Tape():
                att = T.attention_block(q, rows, gain, bias, w_k, w_v, heads=2, scale=0.5)
                act = T.gelu(T.layer_norm(x, gain, bias))
                loss = T.add(T.mean_all(att), T.mean_all(act))
            backward(loss)
            leaves = [q, rows, w_k, w_v, x, gain, bias]
            assert all(t.dtype == dtype for t in leaves + [att, act, loss])
            assert all(t.grad.dtype == dtype for t in leaves)

    def test_float32_sigmoid_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.sigmoid(Tensor(np.array([-100.0, 100.0], dtype=np.float32)))
        assert out.dtype == np.float32
        assert np.array_equal(out.data, np.array([1e-7, 1 - 1e-7], dtype=np.float32))


def float32_bits(lo, hi, stride):
    """float32 values of the bit patterns lo, lo+stride, ... below hi, both signs."""
    bits = np.arange(lo, hi, stride, dtype=np.uint32)
    return np.concatenate([bits, bits | np.uint32(0x80000000)]).view(np.float32)


class TestErf:
    """`_erf` is bit for bit scipy's erf on float32; `tests/erf_exhaustive.py` checks every value."""

    EIGHT = int(np.float32(8.0).view(np.uint32))
    INF = int(np.float32(np.inf).view(np.uint32))
    EDGES = [0.0, 1e-45, 1.0, np.nextafter(np.float32(1), np.float32(2)), 8.0,
             np.finfo(np.float32).max, np.inf]

    def test_float32_is_scipys_bit_for_bit(self):
        scipy_erf = pytest.importorskip("scipy.special").erf
        # a stride through every binade up to 8, subnormals to both branches,
        # and a coarser one from 8 to the largest float, where erf is +-1
        below_8 = float32_bits(0, self.EIGHT, 4099)
        exponents = np.unique(np.abs(below_8).view(np.uint32) >> 23)
        assert exponents.tolist() == list(range(self.EIGHT >> 23))
        edges = np.array(self.EDGES, dtype=np.float32)
        x = np.concatenate([below_8, float32_bits(self.EIGHT, self.INF, 65537), edges, -edges])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T._erf(x)
        assert got.dtype == np.float32
        mismatched = x[got.view(np.uint32) != scipy_erf(x).view(np.uint32)]
        assert mismatched.size == 0, mismatched[:10]

    def test_float64_is_scipys_bit_for_bit_up_to_1_and_an_ulp_off_beyond(self):
        # float32 rounding hides most one-ulp float64 slips; |x| <= 1 takes no
        # exp, so there float64 must match too, and beyond only exp may differ
        scipy_erf = pytest.importorskip("scipy.special").erf
        rng = np.random.default_rng(2)
        tiny = np.geomspace(1e-300, 1.0, 1000)
        small = np.concatenate([rng.uniform(-1.0, 1.0, 20000), tiny, -tiny, [0.0, -0.0]])
        assert np.array_equal(T._erf(small).view(np.uint64), scipy_erf(small).view(np.uint64))
        large = rng.uniform(1.0, 9.0, 20000) * rng.choice([-1.0, 1.0], 20000)
        np.testing.assert_allclose(T._erf(large), scipy_erf(large), rtol=2.3e-16, atol=0)

    def test_edges(self):
        x = np.array([0.0, -0.0, 8.0, -8.0, np.inf, -np.inf, np.nan], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T._erf(x)
        assert np.array_equal(got[:6], [0, 0, 1, -1, 1, -1])
        assert np.array_equal(np.signbit(got[:2]), [False, True])
        assert np.isnan(got[6])

    def test_out_may_alias_the_input(self):
        # three blocks, the last one short, as _gelu_phi calls it: erf(phi, out=phi)
        x = np.random.default_rng(0).standard_normal(2 * T._ERF_BLOCK + 10).astype(np.float32)
        x[::7] *= 4  # both branches in every block
        want = T._erf(x)
        y = x.copy()
        assert T._erf(y, out=y) is y
        assert np.array_equal(y.view(np.uint32), want.view(np.uint32))
        x2 = x.reshape(2, -1)
        assert np.array_equal(T._erf(x2).reshape(-1), want)
        with pytest.raises(T.TensorError):  # it would write a copy
            T._erf(x2, out=np.empty(x2.shape[::-1], dtype=np.float32).T)

    def test_float64_is_within_1e_15_of_math_erf(self):
        rng = np.random.default_rng(1)
        tiny = np.geomspace(1e-300, 1.0, 500)
        x = np.concatenate([np.linspace(-9.0, 9.0, 4001), rng.standard_normal(4000) * 3, tiny, -tiny])
        got = T._erf(x)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, [math.erf(v) for v in x], rtol=1e-15, atol=0)


class TestImageHalves:
    """Tape-free `attention_block` and `weighted_rows_sum` over a `Stem`: one walk by image blocks on the caller.

    Named for the image-half split the walk once had; the test ids stay.
    """

    @pytest.mark.parametrize(
        "grid, d, heads",
        [(8, 32, 4), (14, 128, 8), (14, 32, 4)],  # the last one's small score products round another way
        ids=["8-32-4", "14-128-8", "14-32-4"],
    )
    def test_split_equals_the_unsplit_ops_at_every_chunk_size(self, grid, d, heads):
        # the two workload shapes in float32, and one whose small score products round
        # another way, at every chunk size protocol.infer can use
        rng = np.random.default_rng(grid + d)
        stem = [Tensor(a) for a in stem_arrays(rng, 64, grid, grid, 8, 64, d, np.float32)]
        block = [Tensor(a.astype(np.float32)) for a in block_arrays(rng, 1, 1, d, heads, d // heads)]
        q, _, gain, bias, w_k, w_v = block
        for bsz in range(1, 65):
            images = Tensor(stem[0].data[:bsz])
            mean = Tensor(np.full((bsz, grid * grid), 1.0 / (grid * grid), dtype=np.float32))
            rows = T.patch_embed(images, *stem[1:])
            out = T.attention_block(q, rows, gain, bias, w_k, w_v, heads, 0.5)
            pool = T.weighted_rows_sum(mean, rows)
            # the same ops streamed from the images, never forming the chunk's rows
            streamed = T.attention_block(q, T.Stem(images, *stem[1:]), gain, bias, w_k, w_v, heads, 0.5)
            streamed_pool = T.weighted_rows_sum(mean, T.Stem(images, *stem[1:]))
            assert np.array_equal(out.data, streamed.data), bsz
            assert np.array_equal(pool.data, streamed_pool.data), bsz

    @pytest.mark.parametrize(
        "bsz, grid, d, heads, want",
        [
            (9, 14, 128, 8, [(0, 9)]),  # a 1-image remainder joins its block
            (10, 14, 128, 8, [(0, 10)]),
            (18, 14, 128, 8, [(0, 8), (8, 18)]),
            (33, 14, 128, 8, [(0, 8), (8, 16), (16, 24), (24, 33)]),
            (64, 14, 128, 8, [(lo, lo + 8) for lo in range(0, 64, 8)]),
            (64, 8, 32, 4, [(0, 64)]),  # about 800 KB of rows: the whole chunk
            # a block of 8 would round its score rows unlike the chunk, so blocks take 10
            (64, 14, 128, 4, [(0, 10), (10, 20), (20, 30), (30, 40), (40, 50), (50, 64)]),
            (39, 14, 32, 4, [(0, 39)]),  # a product within the bound: blocks of 32, and 7 join
            (64, 14, 32, 4, [(0, 64)]),  # blocks of 32 would round unlike the chunk; 40 leave 24 to join
        ],
    )
    def test_a_stem_walks_each_half_in_blocks_sized_by_their_rows(self, monkeypatch, bsz, grid, d, heads, want):
        rng = np.random.default_rng(48)
        stem = T.Stem(*[Tensor(a) for a in stem_arrays(rng, bsz, grid, grid, 8, 64, d, np.float32)])
        block = block_arrays(rng, 1, 1, d, heads, d // heads)
        q, _, gain, bias, w_k, w_v = [Tensor(a.astype(np.float32)) for a in block]
        walks, base = [], stem.images.data.ctypes.data
        real_stem_into = T._stem_into

        def recording_stem_into(images, *args, **kwargs):  # one call per image block
            lo = (images.ctypes.data - base) // images.strides[0]
            walks.append((lo, lo + len(images)))
            return real_stem_into(images, *args, **kwargs)

        monkeypatch.setattr(T, "_stem_into", recording_stem_into)
        T.attention_block(q, stem, gain, bias, w_k, w_v, heads, 0.5)
        assert walks == want

    @pytest.mark.parametrize("op", ["patch_embed", "attention_block", "stem", "stem_inf", "pool"])
    def test_a_nan_image_in_the_second_half_fails_in_the_caller(self, op):
        rng = np.random.default_rng(46)
        bsz = 10
        stem = [Tensor(a) for a in stem_arrays(rng, bsz, 3, 3, 2, 5, 6)]
        q, _, gain, bias, w_k, w_v = [Tensor(a) for a in block_arrays(rng, 1, 1, 6, 2, 3)]
        if op == "attention_block":
            rows = T.patch_embed(*stem)
            rows.data[bsz - 1, 2, 0] = np.nan

            def call():
                return T.attention_block(q, rows, gain, bias, w_k, w_v, 2, 0.5)
        else:
            # as a corrupt image would arrive; an infinite one overflows on its way
            stem[0].data[bsz - 1, 1, 1, 0] = np.inf if op == "stem_inf" else np.nan

            def call():
                if op == "patch_embed":
                    return T.patch_embed(*stem)
                if op == "pool":
                    return T.weighted_rows_sum(Tensor(np.full((bsz, 9), 1.0 / 9)), T.Stem(*stem))
                return T.attention_block(q, T.Stem(*stem), gain, bias, w_k, w_v, 2, 0.5)

        with warnings.catch_warnings():  # a RuntimeWarning would raise, and not a TensorError
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(T.TensorError, match="non-finite"):
                call()

    def test_taped_ops_one_image_and_one_cpu_stay_on_the_caller(self, monkeypatch):
        # every op forms its stem rows on the calling thread, taped or not, from one image to many
        rng = np.random.default_rng(47)
        threads = set()
        real_stem_into = T._stem_into

        def recording_stem_into(*args, **kwargs):
            threads.add(threading.get_ident())
            return real_stem_into(*args, **kwargs)

        monkeypatch.setattr(T, "_stem_into", recording_stem_into)
        before = threading.active_count()
        for bsz in (1, 12, 64):
            leaves = stem_weights(stem_arrays(rng, bsz, 3, 3, 2, 4, 6))
            q, gain, bias, w_k, w_v = [rand_leaf(rng, *s) for s in [(6,), (6,), (6,), (6, 6), (6, 6)]]
            mean = Tensor(np.full((bsz, 9), 1.0 / 9))
            T.patch_embed(*leaves)
            T.attention_block(q, T.Stem(*leaves), gain, bias, w_k, w_v, 2, 0.5)
            T.weighted_rows_sum(mean, T.Stem(*leaves))
            with Tape():
                rows = T.patch_embed(*leaves)
                T.attention_block(q, rows, gain, bias, w_k, w_v, 2, 0.5)
                T.attention_block(q, T.Stem(*leaves), gain, bias, w_k, w_v, 2, 0.5)
                T.weighted_rows_sum(mean, T.Stem(*leaves))
        assert threads == {threading.get_ident()}
        assert threading.active_count() == before

    def test_an_empty_chunk_gives_an_empty_block(self):
        rng = np.random.default_rng(50)
        stem = [Tensor(a) for a in stem_arrays(rng, 3, 4, 4, 2, 5, 6)]
        stem[0] = Tensor(stem[0].data[:0])
        q, _, gain, bias, w_k, w_v = [Tensor(a) for a in block_arrays(rng, 1, 1, 6, 2, 3)]
        for rows in (T.Stem(*stem), T.patch_embed(*stem)):
            assert T.attention_block(q, rows, gain, bias, w_k, w_v, 2, 0.5).shape == (0, 2, 4)
            assert T.weighted_rows_sum(Tensor(np.ones((0, 16))), rows).shape == (0, 6)

    def test_a_taped_stem_is_patch_embed_then_the_rows_block(self):
        rng = np.random.default_rng(49)
        arrays = stem_arrays(rng, 12, 4, 4, 2, 5, 6)
        block = block_arrays(rng, 1, 1, 6, 2, 3)
        coef = rng.standard_normal((12, 2, 4))

        def run(stemmed):
            stem = stem_weights(arrays)
            q, _, gain, bias, w_k, w_v = [Tensor(a, requires_grad=True) for a in block]
            with Tape() as tape:
                rows = T.Stem(*stem) if stemmed else T.patch_embed(*stem)
                loss = dot(T.attention_block(q, rows, gain, bias, w_k, w_v, 2, 0.5), coef)
            records = len(tape)
            backward(loss)
            return [records, loss.data] + [leaf.grad for leaf in stem[1:5] + [q, gain, bias, w_k, w_v]]

        got, want = run(True), run(False)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)

    def test_a_taped_pooled_stem_is_patch_embed_then_the_rows_pool(self):
        rng = np.random.default_rng(51)
        arrays = stem_arrays(rng, 12, 4, 4, 2, 5, 6)
        weights = rng.uniform(0.0, 1.0, (12, 16))
        coef = rng.standard_normal((12, 6))

        def run(stemmed):
            stem = stem_weights(arrays)
            w = Tensor(weights, requires_grad=True)
            with Tape() as tape:
                rows = T.Stem(*stem) if stemmed else T.patch_embed(*stem)
                loss = dot(T.weighted_rows_sum(w, rows), coef)
            records = len(tape)
            backward(loss)
            return [records, loss.data] + [leaf.grad for leaf in stem[1:5] + [w]]

        got, want = run(True), run(False)
        assert got[0] == want[0] == 4  # patch_embed, the pool and dot's two records
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)

    def test_pooled_stem_shape_errors(self):
        rng = np.random.default_rng(52)
        stem = T.Stem(*[Tensor(a) for a in stem_arrays(rng, 3, 4, 4, 2, 5, 6)])
        for weights in (np.ones((3, 15)), np.ones((2, 16)), np.ones(48)):
            with pytest.raises(T.TensorError, match="weighted_rows_sum"):
                T.weighted_rows_sum(Tensor(weights), stem)


class TestInit:
    def test_uniform_param_bounds_and_determinism(self):
        rng1 = np.random.default_rng(123)
        rng2 = np.random.default_rng(123)
        p1 = T.uniform_param(rng1, (64, 16))
        p2 = T.uniform_param(rng2, (64, 16))
        assert np.array_equal(p1.data, p2.data)
        assert np.abs(p1.data).max() <= 1.0 / np.sqrt(64)
        assert p1.requires_grad
