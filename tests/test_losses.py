import mpmath
import numpy as np
import pytest

from krt import tensor as T
from krt.ica import IcaConfig, add_session, forward_all_sessions, init_ica, tensor_fields
from krt.losses import LossConfig, asl_loss, kd_pooled_loss, token_loss, total_loss
from krt.optim import Adam
from krt.tensor import Tape, Tensor, backward

from oracles import cosine_oracle, finite_diff_grad, max_rel_err


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


class TestTokenLoss:
    def test_identical_prefix_is_zero(self):
        rng = np.random.default_rng(2)
        e = [rng.standard_normal((4, 8)) for _ in range(2)]
        curr = [Tensor(x) for x in e] + [Tensor(rng.standard_normal((4, 8)))]
        assert abs(token_loss(e, curr).data) < 1e-12

    def test_negated_prefix_is_two(self):
        rng = np.random.default_rng(3)
        e = [rng.standard_normal((4, 8)) for _ in range(2)]
        curr = [Tensor(-x) for x in e] + [Tensor(rng.standard_normal((4, 8)))]
        assert token_loss(e, curr).data == pytest.approx(2.0, abs=1e-12)

    def test_matches_concatenated_cosine_oracle(self):
        rng = np.random.default_rng(4)
        prev = [rng.standard_normal((3, 8)) for _ in range(2)]  # t=3 -> 2 old
        curr = [Tensor(rng.standard_normal((3, 8))) for _ in range(3)]
        got = token_loss(prev, curr).data
        cosines = [
            cosine_oracle(
                np.concatenate([c.data[i] for c in curr[:2]]),
                np.concatenate([p[i] for p in prev]),
            )
            for i in range(3)
        ]
        assert abs(got - (1.0 - np.mean(cosines))) < 1e-12

    def test_bounds_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            prev = [rng.standard_normal((2, 4))]
            curr = [Tensor(rng.standard_normal((2, 4))) for _ in range(2)]
            v = token_loss(prev, curr).data
            assert 0.0 <= v <= 2.0

    def test_no_gradient_into_snapshot(self):
        rng = np.random.default_rng(6)
        prev = [rng.standard_normal((2, 4))]
        curr = [
            Tensor(rng.standard_normal((2, 4)), requires_grad=True),
            Tensor(rng.standard_normal((2, 4)), requires_grad=True),
        ]
        with Tape():
            loss = token_loss(prev, curr)
        backward(loss)
        assert curr[0].grad is not None
        assert curr[1].grad is None  # newest embedding is not constrained

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            token_loss([np.ones((1, 4))], [Tensor(np.ones((1, 4)))])


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
        e_prev = [e.data.copy() for e in forward_all_sessions(state, patches)[:1]]
        cfg = LossConfig(gamma_pos=0, gamma_neg=4, lam=1.0)
        params = [t for _, t in tensor_fields(state)] + state.kr_tokens[-1:]
        params += [p for h in heads for p in h]
        opt = Adam(params, lr=1e-2)

        def step():
            with Tape() as tape:
                es = forward_all_sessions(state, patches)
                logits = T.concat([T.affine(e, w, b) for e, (w, b) in zip(es, heads)], axis=1)
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
