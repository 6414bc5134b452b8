import numpy as np
import pytest

from krt import tensor as T
from krt.ica import (
    IcaConfig,
    IcaState,
    add_session,
    forward_all_sessions,
    ica_forward,
    init_ica,
    tensor_fields,
)
from krt.optim import Adam
from krt.tensor import Tape, Tensor, backward

from oracles import finite_diff_grad, ica_embedding_oracle, max_rel_err


def small_state(seed=0, d=16, heads=2, sessions=1, mlp_hidden=0, dtype=np.float64) -> IcaState:
    rng = np.random.default_rng(seed)
    state = init_ica(IcaConfig(d=d, heads=heads, mlp_hidden=mlp_hidden), rng, dtype=dtype)
    for _ in range(sessions):
        add_session(state, rng)
    return state


def block_parameters(state: IcaState) -> list:
    """Shared-block weights, excluding tokens."""
    return [t for name, t in tensor_fields(state) if name != "kt_token"]


def trainable_parameters(state: IcaState) -> list:
    """The block, the transfer token and the retention tokens still training."""
    return [t for _, t in tensor_fields(state)] + [kr for kr in state.kr_tokens if kr.requires_grad]


class TestConfig:
    def test_default_scale_divisor(self):
        cfg = IcaConfig(d=384, heads=8)
        assert abs(1.0 / cfg.attn_scale - np.sqrt(48.0)) < 1e-12
        assert abs(1.0 / cfg.attn_scale - 6.9282) < 1e-4

    def test_dims_must_divide(self):
        with pytest.raises(ValueError):
            IcaConfig(d=10, heads=3)

    def test_mlp_hidden_defaults_to_4d(self):
        assert IcaConfig(d=16, heads=2).mlp_hidden == 64


def assert_matches_oracle(state, patches: np.ndarray, tol: float):
    es = forward_all_sessions(state, Tensor(patches)).data
    assert es.shape == (state.session_count, patches.shape[0], state.config.d)
    for s, e in enumerate(es, start=1):
        for b in range(patches.shape[0]):
            want = ica_embedding_oracle(state, s, patches[b])
            assert np.max(np.abs(e[b] - want)) < tol, (s, b)


class TestCrossAttention:
    def test_matches_naive_oracle(self):
        state = small_state(seed=3, d=16, heads=2, sessions=2)
        patches = np.random.default_rng(4).standard_normal((2, 4, 16))
        assert_matches_oracle(state, patches, 1e-10)

    def test_head_split_equivalence_all_small_configs(self):
        for d in (8, 16, 32):
            for heads in (1, 2, 4, 8):
                if d % heads:
                    continue
                state = small_state(seed=d + heads, d=d, heads=heads, sessions=2)
                patches = np.random.default_rng(d * 31 + heads).standard_normal((2, 3, d))
                assert_matches_oracle(state, patches, 1e-10)

    def test_merge_survives_a_score_gap_beyond_800(self):
        # norm1's gain of 30 lifts kr's score above every patch score by > 800,
        # so exp of the raw scores overflows; the two-entry softmax over the
        # blocks' lse subtracts the max
        state = small_state(seed=35, d=4, heads=2, sessions=1)
        for w in (state.w_q, state.w_k, state.w_v, state.w_o):
            w.data[:] = np.eye(4)
        state.b_o.data[:] = 0.0
        state.norm1_gain.data[:] = 30.0
        token = np.array([1.0, -1.0, 1.0, -1.0])
        state.kt_token.data[:] = token
        state.kr_tokens[0].data[:] = token
        noise = np.random.default_rng(36).standard_normal((1, 5, 4))
        patches = np.array([1.0, 1.0, -1.0, -1.0]) + 1e-3 * noise

        g1, b1 = state.norm1_gain, state.norm1_bias
        q = T.layer_norm(Tensor(token), g1, b1)

        def block(rows):
            scale = state.config.attn_scale
            return T.attention_block(q, Tensor(rows), g1, b1, state.w_k, state.w_v, 2, scale)

        own, rest = block(token[None, None]), block(patches)
        assert np.all(own.data[..., -1] - rest.data[..., -1] > 800)
        assert_matches_oracle(state, patches, 1e-12)

    def test_batched_equals_per_image(self):
        state = small_state(seed=5, d=8, heads=2, sessions=2)
        batch = np.random.default_rng(6).standard_normal((3, 5, 8))
        out_b = forward_all_sessions(state, Tensor(batch)).data
        for i in range(3):
            one = forward_all_sessions(state, Tensor(batch[i : i + 1])).data
            assert np.allclose(out_b[:, i], one[:, 0], atol=1e-12)

    def test_patches_must_be_batched(self):
        state = small_state(seed=5, d=8, heads=2, sessions=1)
        with pytest.raises(T.TensorError):
            forward_all_sessions(state, Tensor(np.zeros((5, 8))))


class TestIcaForward:
    def test_residual_identity_when_projections_zeroed(self):
        state = small_state(seed=7, d=8, heads=2, sessions=1)
        state.w_o.data[:] = 0.0
        state.b_o.data[:] = 0.0
        state.mlp_w2.data[:] = 0.0
        state.mlp_b2.data[:] = 0.0
        patches = Tensor(np.random.default_rng(8).standard_normal((1, 6, 8)))
        e = ica_forward(state, 1, patches)
        assert np.array_equal(e.data, state.kt_token.data[None])

    def test_output_shape_independent_of_patch_count(self):
        state = small_state(seed=9, d=8, heads=2, sessions=1)
        rng = np.random.default_rng(10)
        for L in (1, 3, 16):
            e = ica_forward(state, 1, Tensor(rng.standard_normal((1, L, 8))))
            assert e.shape == (1, 8)

    def test_session_index_out_of_range(self):
        state = small_state(sessions=2)
        patches = Tensor(np.zeros((1, 2, 16)))
        with pytest.raises(T.TensorError):
            ica_forward(state, 0, patches)
        with pytest.raises(T.TensorError):
            ica_forward(state, 3, patches)


class TestSessions:
    def test_base_case_single_embedding(self):
        state = small_state(seed=14, sessions=1)
        patches = Tensor(np.random.default_rng(15).standard_normal((1, 4, 16)))
        all_e = forward_all_sessions(state, patches).data
        assert all_e.shape == (1, 1, 16)
        assert np.array_equal(all_e[0], ica_forward(state, 1, patches).data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bsz", [1, 5, 12, 16])
    @pytest.mark.parametrize("sessions", [1, 2, 5])
    @pytest.mark.parametrize("d,heads,length", [(128, 8, 196), (32, 4, 64)])
    def test_expansion_leaves_old_embeddings_bit_identical(
        self, dtype, bsz, sessions, d, heads, length
    ):
        # the stacked tail must give each session the same bits at any
        # session count; a flat [t*B, d] GEMM or one retention block over
        # all t tokens rounds differently at some of these shapes
        state = small_state(seed=16, d=d, heads=heads, sessions=sessions, dtype=dtype)
        rng = np.random.default_rng(17)
        patches = Tensor(rng.standard_normal((bsz, length, d)).astype(dtype))
        before = forward_all_sessions(state, patches).data.copy()
        add_session(state, rng)
        after = forward_all_sessions(state, patches).data
        assert after.shape == (sessions + 1, bsz, d)
        assert np.array_equal(before, after[:sessions])

    def test_distinct_tokens_give_distinct_embeddings(self):
        state = small_state(seed=19, sessions=3)
        patches = Tensor(np.random.default_rng(20).standard_normal((1, 4, 16)))
        es = forward_all_sessions(state, patches).data
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(es[i] - es[j]) > 0

    def test_add_session_contract(self):
        rng = np.random.default_rng(21)
        state = init_ica(IcaConfig(d=16, heads=2), rng)
        block_before = [p.data.copy() for p in block_parameters(state)]
        for _ in range(3):
            add_session(state, rng)
        assert state.session_count == 3
        assert [kr.requires_grad for kr in state.kr_tokens] == [False, False, True]
        for before, p in zip(block_before, block_parameters(state)):
            assert np.array_equal(before, p.data)

    def test_add_session_preserves_old_tokens_bit_exact(self):
        state = small_state(seed=22, sessions=2)
        old = [kr.data.copy() for kr in state.kr_tokens]
        kt_before = state.kt_token.data.copy()
        add_session(state, np.random.default_rng(23))
        for prev, kr in zip(old, state.kr_tokens):
            assert np.array_equal(prev, kr.data)
        assert np.array_equal(kt_before, state.kt_token.data)
        assert state.kt_token.requires_grad

    def test_gradients_over_all_sessions_match_finite_differences(self):
        for sessions in (1, 3):
            self.check_gradients(sessions)

    @staticmethod
    def check_gradients(sessions):
        # a batch of two images: the shared patch block's backward must sum
        # what every session sends it; at t=3, kr_1 stays frozen
        state = small_state(seed=31, d=8, heads=2, sessions=sessions, mlp_hidden=16)
        live = state.kr_tokens[-2:]
        for kr in live:
            kr.requires_grad = True
        rng = np.random.default_rng(32)
        patches = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
        proj = Tensor(rng.standard_normal((sessions, 2, 8)))

        def forward():
            return T.mean_all(T.mul(forward_all_sessions(state, patches), proj))

        with Tape():
            loss = forward()
        backward(loss)
        assert all(kr.grad is None for kr in state.kr_tokens[:-2])

        leaves = {
            "patches": patches,
            "kt": state.kt_token,
            **{f"kr{i}": kr for i, kr in enumerate(live)},
            **{f"p{i}": p for i, p in enumerate(block_parameters(state))},
        }
        for name, leaf in leaves.items():
            num = finite_diff_grad(lambda: float(forward().data), leaf.data)
            err = max_rel_err(leaf.grad, num)
            assert err < 1e-4, f"t={sessions} {name}: {err:.2e}"

    @pytest.mark.parametrize("bsz", [1, 2])
    def test_one_taped_op_reads_the_patches_at_any_session_count(self, bsz):
        # norm1 sits inside the block op, so the patch side is one record
        # however many sessions share it
        def patch_readers(sessions):
            state = small_state(seed=33, d=8, heads=2, sessions=sessions, mlp_hidden=32)
            rng = np.random.default_rng(34)
            patches = Tensor(rng.standard_normal((bsz, 11, 8)), requires_grad=True)
            with Tape() as tape:
                forward_all_sessions(state, patches)
            return [
                out
                for out, bwd in tape._records
                if any(inp is patches for inp, _ in bwd(np.ones_like(out.data)))
            ]

        for sessions in (1, 6):
            readers = patch_readers(sessions)
            assert [out.shape for out in readers] == [(bsz, 2, 5)], sessions

    def test_each_added_session_adds_two_tape_records(self):
        # every retention token trainable, the most records a session can add:
        # its token's reshape and its block; the merge is one op at any count
        def records(sessions):
            state = small_state(seed=37, d=8, heads=2, sessions=sessions, mlp_hidden=32)
            for kr in state.kr_tokens:
                kr.requires_grad = True
            patches = Tensor(np.random.default_rng(38).standard_normal((2, 5, 8)))
            with Tape() as tape:
                forward_all_sessions(state, patches)
            return len(tape)

        counts = [records(t) for t in range(1, 7)]
        assert [b - a for a, b in zip(counts, counts[1:])] == [2] * 5, counts


class TestFreezing:
    def test_frozen_tokens_receive_no_gradient_and_never_move(self):
        state = small_state(seed=25, sessions=3)
        frozen_data = [kr.data.copy() for kr in state.kr_tokens[:2]]
        live_before = state.kr_tokens[2].data.copy()
        kt_before = state.kt_token.data.copy()
        patches = Tensor(np.random.default_rng(26).standard_normal((1, 4, 16)))
        opt = Adam(trainable_parameters(state), lr=1e-2)
        for _ in range(5):
            with Tape() as tape:
                loss = forward_all_sessions(state, patches).mean()
            backward(loss)
            opt.step()
            opt.zero_grad()
            tape.clear()
        for before, kr in zip(frozen_data, state.kr_tokens[:2]):
            assert kr.grad is None
            assert np.array_equal(before, kr.data)
        # the live token and the transfer token did move
        assert not np.array_equal(live_before, state.kr_tokens[2].data)
        assert not np.array_equal(kt_before, state.kt_token.data)

    def test_zero_lr_training_is_identity(self):
        state = small_state(seed=27, sessions=2)
        patches = Tensor(np.random.default_rng(28).standard_normal((1, 4, 16)))
        before = forward_all_sessions(state, patches).data.copy()
        opt = Adam(trainable_parameters(state), lr=0.0)
        for _ in range(3):
            with Tape() as tape:
                loss = forward_all_sessions(state, patches).mean()
            backward(loss)
            opt.step()
            opt.zero_grad()
            tape.clear()
        assert np.array_equal(before, forward_all_sessions(state, patches).data)

