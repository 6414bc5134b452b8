import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krt import tensor as T
from krt.tensor import Tape, Tensor, backward

from oracles import (
    FD_STEP,
    attention_block_oracle,
    finite_diff_grad,
    matmul_oracle,
    max_rel_err,
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
            num = finite_diff_grad(lambda: forward().item(), leaf.data, step)
            err = max_rel_err(leaf.grad, num)
            assert err < rtol, f"grad mismatch {err:.2e} (seed {seed})"
        tape.clear()


def rel_err(got, want):
    """Worst elementwise |got - want|, relative to |want| where that exceeds 1."""
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))


def projected_block_grads(q, rows, w_k, w_v, heads, scale, coef):
    """Gradients of sum(coef * attention_block(...)) for q, rows, w_k and w_v.

    Computed the direct way: every row is projected to its key and value,
    and the gradients flow back through those projections.
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


def rand_leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def project(rng, t):
    """Reduce any output to a scalar through a fixed random functional.

    The coefficients depend only on the output shape, never on how often
    the forward runs, so finite differencing sees one fixed function.
    """
    r = Tensor(np.random.default_rng(977).standard_normal(t.shape))
    return T.mul(t, r).sum()


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

    def test_eps_must_be_positive(self):
        with pytest.raises(T.TensorError):
            T.layer_norm(Tensor(np.ones(3)), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0)

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
        for _ in range(5):
            v = Tensor(rng.standard_normal(6))
            assert abs(T.cosine_similarity(v, v).item() - 1.0) < 1e-12

    def test_cosine_orthogonal_is_zero(self):
        a = Tensor([1.0, 0.0])
        b = Tensor([0.0, 1.0])
        assert abs(T.cosine_similarity(a, b).item()) < 1e-15

    def test_cosine_zero_norm_rejected(self):
        with pytest.raises(T.TensorError):
            T.cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))

    def test_concat_slice_roundtrip_bit_exact(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 5)))
        cat = T.concat([a, b], axis=1)
        assert np.array_equal(cat.slice(1, 0, 3).data, a.data)
        assert np.array_equal(cat.slice(1, 3, 8).data, b.data)

    def test_slice_out_of_range(self):
        with pytest.raises(T.TensorError):
            Tensor(np.ones((2, 3))).slice(1, 0, 4)

    def test_add_shape_mismatch(self):
        with pytest.raises(T.TensorError, match=r"\(2,\).*\(3,\)"):
            T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_scalar_broadcast_allowed(self):
        x = Tensor([1.0, 2.0])
        assert np.array_equal((x + 1.0).data, [2.0, 3.0])
        assert np.array_equal((2.0 * x).data, [2.0, 4.0])

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
            "sum": lambda rng: one_input(rng, T.sum_all, reduce=True),
            "cosine": lambda rng: two_input_vec(rng, T.cosine_similarity),
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


def two_input_vec(rng, op):
    a, b = rand_leaf(rng, 6), rand_leaf(rng, 6)
    return [a, b], lambda: op(a, b)


class TestShapeOps:
    def test_transpose_and_reshape_gradients(self):
        def build_t(rng):
            x = rand_leaf(rng, 3, 4)
            return [x], lambda: project(rng, T.transpose(x))

        def build_r(rng):
            x = rand_leaf(rng, 3, 4)
            return [x], lambda: project(rng, x.reshape(2, 6))

        fd_check(build_t, seeds=range(5))
        fd_check(build_r, seeds=range(5))

    def test_concat_slice_repeat_gradients(self):
        def build(rng):
            a = rand_leaf(rng, 2, 3)
            b = rand_leaf(rng, 2, 2)
            r = rand_leaf(rng, 1, 4)

            def forward():
                cat = T.concat([a, b], axis=1)
                sl = cat.slice(1, 1, 5)
                rep = T.repeat_rows(r, 2)
                return project(np.random.default_rng(0), T.add(sl, rep))

            return [a, b, r], forward

        fd_check(build, seeds=range(10))

    def test_affine_gradients(self):
        def build(rng):
            x, w, b = rand_leaf(rng, 4, 3), rand_leaf(rng, 3, 5), rand_leaf(rng, 5)
            return [x, w, b], lambda: project(rng, T.affine(x, w, b))

        fd_check(build)

    def test_weighted_rows_sum_gradients(self):
        def build(rng):
            w = rand_leaf(rng, 2, 5)
            v = rand_leaf(rng, 2, 5, 3)
            return [w, v], lambda: project(rng, T.weighted_rows_sum(w, v))

        fd_check(build)

    def test_conv3x3_gradients(self):
        def build(rng):
            x = rand_leaf(rng, 2, 3, 3, 2)
            w = rand_leaf(rng, 18, 2)
            b = rand_leaf(rng, 2)
            return [x, w, b], lambda: project(rng, T.conv3x3_same(x, w, b))

        fd_check(build, seeds=range(10))

    def test_conv3x3_is_local_sum(self):
        # one-hot weight picks out the centre offset -> identity map
        x = np.arange(2 * 2 * 3 * 1, dtype=float).reshape(2, 2, 3, 1)
        w = np.zeros((9, 1))
        w[4, 0] = 1.0  # offset (dy=1, dx=1) = centre
        out = T.conv3x3_same(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        assert np.array_equal(out.data, x)


class TestAttentionBlock:
    def test_matches_per_head_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            bsz, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            heads, dh, d = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
            l = heads * dh
            q, rows = rng.standard_normal(l), rng.standard_normal((bsz, n, d))
            w_k, w_v = rng.standard_normal((d, l)), rng.standard_normal((d, l))
            # every fifth trial puts scores in the hundreds, where exp overflows unshifted
            scale = 400.0 if trial % 5 == 0 else float(rng.uniform(0.1, 2.0))
            got = T.attention_block(
                Tensor(q), Tensor(rows), Tensor(w_k), Tensor(w_v), heads, scale
            ).data
            want = attention_block_oracle(q, rows, w_k, w_v, heads, scale)
            assert got.shape == (bsz, heads, dh + 1)
            assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-10

    def test_one_row_block_is_its_value_and_score(self):
        rng = np.random.default_rng(32)
        heads, dh, d = 3, 2, 5
        q, row = rng.standard_normal(heads * dh), rng.standard_normal((2, 1, d))
        w_k, w_v = rng.standard_normal((d, heads * dh)), rng.standard_normal((d, heads * dh))
        got = T.attention_block(Tensor(q), Tensor(row), Tensor(w_k), Tensor(w_v), heads, 0.7).data
        v = (row[:, 0] @ w_v).reshape(2, heads, dh)
        s = ((row[:, 0] @ w_k).reshape(2, heads, dh) * q.reshape(heads, dh)).sum(-1) * 0.7
        assert np.max(np.abs(got[..., :dh] - v) / np.maximum(np.abs(v), 1.0)) < 1e-12
        assert np.max(np.abs(got[..., dh] - s)) < 1e-12

    def test_paper_shape_matches_oracle_and_projected_gradients(self):
        rng = np.random.default_rng(33)
        bsz, n, d, heads = 2, 196, 128, 8
        scale = 1.0 / np.sqrt(d // heads)
        arrays = (
            rng.standard_normal(d),
            rng.standard_normal((bsz, n, d)),
            rng.standard_normal((d, d)) / np.sqrt(d),
            rng.standard_normal((d, d)) / np.sqrt(d),
        )
        coef = rng.standard_normal((bsz, heads, d // heads + 1))
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape():
            out = T.attention_block(*leaves, heads, scale)
            loss = T.mul(out, Tensor(coef)).sum()
        backward(loss)
        assert rel_err(out.data, attention_block_oracle(*arrays, heads, scale)) < 1e-12
        want = projected_block_grads(*arrays, heads, scale, coef)
        for leaf, grad in zip(leaves, want):
            assert rel_err(leaf.grad, grad) < 1e-12

    def test_each_gradient_is_independent_of_which_inputs_need_one(self):
        rng = np.random.default_rng(34)
        arrays = (
            rng.standard_normal(6),
            rng.standard_normal((3, 5, 4)),
            rng.standard_normal((4, 6)),
            rng.standard_normal((4, 6)),
        )
        coef = Tensor(rng.standard_normal((3, 2, 4)))

        def grads(wanted):
            leaves = [Tensor(a, requires_grad=i in wanted) for i, a in enumerate(arrays)]
            with Tape():
                loss = T.mul(T.attention_block(*leaves, 2, 0.8), coef).sum()
            backward(loss)
            return [leaf.grad for leaf in leaves]

        full = grads(range(4))
        for k in range(1, 5):
            for wanted in itertools.combinations(range(4), k):
                for i, grad in enumerate(grads(wanted)):
                    if i in wanted:
                        assert np.array_equal(grad, full[i]), (wanted, i)
                    else:
                        assert grad is None, (wanted, i)

    def test_shape_errors(self):
        q, rows, w = Tensor(np.ones(4)), Tensor(np.ones((1, 2, 3))), Tensor(np.ones((3, 4)))
        with pytest.raises(T.TensorError):
            T.attention_block(q, Tensor(np.ones((2, 3))), w, w, 2, 1.0)
        with pytest.raises(T.TensorError):
            T.attention_block(Tensor(np.ones(5)), rows, w, w, 2, 1.0)
        with pytest.raises(T.TensorError):
            T.attention_block(q, rows, w, w, 3, 1.0)

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
        q = rand_leaf(rng, heads * dh)
        rows = rand_leaf(rng, bsz, n, d)
        w_k, w_v = rand_leaf(rng, d, heads * dh), rand_leaf(rng, d, heads * dh)
        coef = rng.standard_normal((bsz, heads, dh + 1))
        if lse_only:
            coef[..., :dh] = 0.0  # the gradient arrives on the lse column alone

        def forward():
            out = T.attention_block(q, rows, w_k, w_v, heads, 0.6)
            return T.mul(out, Tensor(coef)).sum()

        with Tape():
            loss = forward()
        backward(loss)
        for leaf in (q, rows, w_k, w_v):
            num = finite_diff_grad(lambda: forward().item(), leaf.data)
            # central differences carry ~1e-10 of rounding noise (eps * |loss| / step),
            # so entries near zero are held to an absolute 1e-10
            err = max_rel_err(leaf.grad, num, floor=1e-6)
            assert err < 1e-4, f"grad mismatch {err:.2e}"


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape():
            loss = x.sum()
        backward(loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_2x(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape():
            loss = T.mul(x, x).sum()
        backward(loss)
        assert np.allclose(x.grad, [6.0])

    def test_repeated_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape():
            loss = T.mul(x, x).sum()
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
            loss = T.add(x, x).sum()
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
                att = T.attention_block(q, rows, w_k, w_v, heads=2, scale=0.5)
                act = T.gelu(T.layer_norm(x, gain, bias))
                loss = T.add(T.sum_all(att), T.sum_all(act))
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


class TestInit:
    def test_uniform_param_bounds_and_determinism(self):
        rng1 = np.random.default_rng(123)
        rng2 = np.random.default_rng(123)
        p1 = T.uniform_param(rng1, (64, 16))
        p2 = T.uniform_param(rng2, (64, 16))
        assert np.array_equal(p1.data, p2.data)
        assert np.abs(p1.data).max() <= 1.0 / np.sqrt(64)
        assert p1.requires_grad
