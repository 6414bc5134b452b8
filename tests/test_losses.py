import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from krt import tensor as T
from krt.ica import IcaConfig, add_session, forward_all_sessions, init_ica, tensor_fields
from krt.losses import LossConfig, asl_loss, kd_pooled_loss, token_loss, total_loss
from krt.optim import Adam
from krt.tensor import Tape, Tensor, backward

from oracles import asl_oracle, cosine_oracle, finite_diff_grad, max_rel_err


class TestAslLoss:
    def test_reduces_to_bce_single_cell(self):
        loss = asl_loss(Tensor([[0.5]]), [[1.0]], LossConfig(gamma_pos=0, gamma_neg=0))
        assert loss.data == pytest.approx(float(np.log(2.0)), abs=1e-12)
        assert f"{loss.data:.4f}" == "0.6931"

    def test_perfect_positive_is_near_zero(self):
        p = 1.0 - 1e-7
        for gp in (0.0, 1.0, 4.0):
            loss = asl_loss(Tensor([[p]]), [[1.0]], LossConfig(gamma_pos=gp))
            assert loss.data < 1e-6

    def test_focused_negative_scalar_matches_high_precision(self):
        loss = asl_loss(Tensor([[0.5]]), [[0.0]], LossConfig(gamma_pos=0, gamma_neg=4))
        with mpmath.workdps(50):
            want = float(mpmath.mpf(0.5) ** 4 * (-mpmath.log(mpmath.mpf(0.5))))
        assert loss.data == pytest.approx(want, abs=1e-12)
        assert loss.data == pytest.approx(0.04332, abs=1e-5)

    def test_bce_collapse_on_random_batches(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.uniform(0.01, 0.99, size=(6, 5))
            y = (rng.uniform(size=(6, 5)) < 0.4).astype(float)
            got = asl_loss(Tensor(p), y, LossConfig(gamma_pos=0, gamma_neg=0)).data
            bce = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
            assert abs(got - bce) < 1e-9

    def test_nonbinary_targets_rejected(self):
        with pytest.raises(ValueError):
            asl_loss(Tensor([[0.5]]), [[0.5]], LossConfig())

    def test_gradient_through_sigmoid(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        y = (rng.uniform(size=(3, 4)) < 0.5).astype(float)
        cfg = LossConfig(gamma_pos=1.0, gamma_neg=4.0)

        def forward():
            return asl_loss(T.sigmoid(logits), y, cfg)

        with Tape():
            loss = forward()
        backward(loss)
        num = finite_diff_grad(lambda: forward().data, logits.data)
        assert max_rel_err(logits.grad, num) < 1e-4

    def test_margin_variant_shifts_negatives(self):
        p = Tensor([[0.04]])
        cfg = LossConfig(gamma_pos=0, gamma_neg=2, neg_margin=0.05)
        # p - margin < 0 -> clipped to 0 -> zero loss on this negative
        assert asl_loss(p, [[0.0]], cfg).data == 0.0
        plain = asl_loss(p, [[0.0]], LossConfig(gamma_pos=0, gamma_neg=2)).data
        assert plain > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(gamma_neg=-1)
        with pytest.raises(ValueError):
            LossConfig(lam=-5)
        for margin in (-0.1, 1.0, 2.0):
            with pytest.raises(ValueError, match="neg_margin"):
                LossConfig(neg_margin=margin)


def asl_through_sigmoid(op, logits, y, gammas, margin):
    """(loss, logits gradient) of op(sigmoid(logits), y, *gammas, margin) on a fresh leaf."""
    x = Tensor(logits.copy(), requires_grad=True)
    with Tape():
        loss = op(T.sigmoid(x), y, *gammas, margin)
    backward(loss)
    return loss.data, x.grad


class TestAslOp:
    @pytest.mark.parametrize("margin", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_the_taped_chain(self, dtype, margin):
        rng = np.random.default_rng(int(margin * 100) + dtype().itemsize)
        for gammas in itertools.product([0.0, 0.5, 1.0, 2.0], [0.0, 1.0, 2.0, 4.0]):
            # logits up to 20 in size, so the sigmoid's clamp engages
            logits = rng.uniform(-20.0, 20.0, (7, 9)).astype(dtype)
            y = (rng.uniform(size=(7, 9)) < 0.3).astype(dtype)
            got = asl_through_sigmoid(T.asl, logits, y, gammas, margin)
            want = asl_through_sigmoid(asl_oracle, logits, y, gammas, margin)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype
                assert np.array_equal(a, b), gammas

    @settings(max_examples=40, deadline=None)
    @given(
        gamma_pos=st.floats(0.0, 4.0),
        gamma_neg=st.floats(0.0, 4.0),
        margin=st.sampled_from([0.0, 0.05, 0.3]) | st.floats(0.0, 0.5),
        seed=st.integers(0, 2**16),
    )
    def test_gradient_matches_finite_differences(self, gamma_pos, gamma_neg, margin, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.01, 0.99, (4, 5))
        # every cell at least 0.01 from the margin's kink at p = margin
        assume(margin == 0.0 or np.abs(p - margin).min() > 0.01)
        probs = Tensor(p, requires_grad=True)
        y = (rng.uniform(size=(4, 5)) < 0.4).astype(float)

        def forward():
            return T.asl(probs, y, gamma_pos, gamma_neg, margin)

        with Tape():
            loss = forward()
        backward(loss)
        num = finite_diff_grad(lambda: float(forward().data), probs.data)
        assert max_rel_err(probs.grad, num, floor=1e-6) < 1e-4

    def test_a_gated_negative_has_a_zero_gradient_below_gamma_one(self):
        # the margin gates the first cell's q to 0; 0 ** (0.5 - 1) made the chain's gradient NaN
        logits = np.array([[-5.0, 0.3]])
        y = np.array([[0.0, 1.0]])
        loss, grad = asl_through_sigmoid(T.asl, logits, y, (0.0, 0.5), 0.1)
        assert np.isfinite(grad).all()
        assert grad[0, 0] == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            want = asl_through_sigmoid(asl_oracle, logits, y, (0.0, 0.5), 0.1)
        assert np.isnan(want[1][0, 0])
        assert loss == want[0]
        assert grad[0, 1] == want[1][0, 1]

    def test_targets_must_match_the_probs(self):
        probs = Tensor(np.full((2, 3), 0.5))
        for y in (np.zeros((3, 2)), np.zeros((2, 3), dtype=np.float32)):
            with pytest.raises(T.TensorError, match="targets"):
                T.asl(probs, y, 0.0, 4.0, 0.0)


class TestTokenLoss:
    def test_identical_prefix_is_zero(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal((2, 4, 8))
        curr = Tensor(np.concatenate([e, rng.standard_normal((1, 4, 8))]))
        assert abs(token_loss(e, curr).data) < 1e-12

    def test_negated_prefix_is_two(self):
        rng = np.random.default_rng(3)
        e = rng.standard_normal((2, 4, 8))
        curr = Tensor(np.concatenate([-e, rng.standard_normal((1, 4, 8))]))
        assert token_loss(e, curr).data == pytest.approx(2.0, abs=1e-12)

    def test_matches_concatenated_cosine_oracle(self):
        rng = np.random.default_rng(4)
        prev = rng.standard_normal((2, 3, 8))  # t=3 -> 2 old
        curr = Tensor(rng.standard_normal((3, 3, 8)))
        got = token_loss(prev, curr).data
        cosines = [
            cosine_oracle(np.concatenate(list(curr.data[:2, i])), np.concatenate(list(prev[:, i])))
            for i in range(3)
        ]
        assert abs(got - (1.0 - np.mean(cosines))) < 1e-12

    def test_bounds_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            prev = rng.standard_normal((1, 2, 4))
            curr = Tensor(rng.standard_normal((2, 2, 4)))
            v = token_loss(prev, curr).data
            assert 0.0 <= v <= 2.0

    def test_no_gradient_into_snapshot(self):
        rng = np.random.default_rng(6)
        prev = rng.standard_normal((1, 2, 4))
        curr = Tensor(rng.standard_normal((2, 2, 4)), requires_grad=True)
        with Tape():
            loss = token_loss(prev, curr)
        backward(loss)
        assert np.all(curr.grad[0] != 0.0)
        assert np.all(curr.grad[1] == 0.0)  # newest embedding is not constrained

    def test_length_mismatch_rejected(self):
        shapes = [((1, 1, 4), (1, 1, 4)), ((0, 1, 4), (1, 1, 4)), ((1, 4), (2, 4)), ((1, 2, 4), (2, 1, 4))]
        for prev, curr in shapes:
            with pytest.raises(ValueError):
                token_loss(np.ones(prev), Tensor(np.ones(curr)))


class TestKdPooledLoss:
    def test_identical_features(self):
        x = np.random.default_rng(8).standard_normal((3, 5))
        assert abs(kd_pooled_loss(x, Tensor(x)).data) < 1e-12

    def test_orthogonal_features(self):
        a = np.array([[1.0, 0.0]])
        b = Tensor([[0.0, 1.0]])
        assert kd_pooled_loss(a, b).data == pytest.approx(1.0, abs=1e-12)

    def test_mean_over_batch(self):
        prev = np.array([[1.0, 0.0], [1.0, 0.0]])
        curr = Tensor([[1.0, 0.0], [0.0, 1.0]])  # cosines 1 and 0
        assert kd_pooled_loss(prev, curr).data == pytest.approx(0.5, abs=1e-12)


class TestTotalLoss:
    def test_first_session_is_classification_only(self):
        asl = Tensor(0.5)
        tok = Tensor(0.9)
        out = total_loss(asl, tok, LossConfig(lam=100.0), session=1)
        assert out is asl

    def test_lambda_zero_disables_token_term(self):
        out = total_loss(Tensor(0.5), Tensor(0.9), LossConfig(lam=0.0), session=3)
        assert out.data == 0.5

    def test_weighted_sum(self):
        out = total_loss(Tensor(0.5), Tensor(0.002), LossConfig(lam=100.0), session=2)
        assert out.data == pytest.approx(0.7, abs=1e-12)


class TestDescentProperty:
    def test_composite_loss_decreases_over_50_steps(self):
        rng = np.random.default_rng(9)
        state = init_ica(IcaConfig(d=8, heads=2, mlp_hidden=16), rng)
        add_session(state, rng)
        add_session(state, rng)
        patches = Tensor(rng.standard_normal((3, 4, 8)))
        y = (rng.uniform(size=(3, 2)) < 0.5).astype(float)
        heads = [
            (T.uniform_param(rng, (8, 1)), T.uniform_param(rng, (1,), fan_in=8))
            for _ in range(2)
        ]
        e_prev = forward_all_sessions(state, patches).data[:1].copy()
        cfg = LossConfig(gamma_pos=0, gamma_neg=4, lam=1.0)
        params = [t for _, t in tensor_fields(state)] + state.kr_tokens[-1:]
        params += [p for h in heads for p in h]
        opt = Adam(params, lr=1e-2)

        def step():
            with Tape() as tape:
                es = forward_all_sessions(state, patches)
                logits = T.session_heads(es, heads)
                loss = total_loss(
                    asl_loss(T.sigmoid(logits), y, cfg),
                    token_loss(e_prev, es),
                    cfg,
                    session=2,
                )
            backward(loss)
            opt.step()
            opt.zero_grad()
            tape.clear()
            return loss.data

        first = step()
        last = None
        for _ in range(49):
            last = step()
        assert last < first
