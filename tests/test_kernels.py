"""Tests for single-device kernels: softmax/LSE, dense reference attention,
and the blockwise FlashAttention-style implementation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    attention_reference,
    attention_reference_backward,
    flash_attention_forward,
    flash_attention_backward,
    logsumexp,
    merge_lse,
    merge_states,
    softmax,
)
from repro.kernels.softmax import empty_state
from repro.masks import CausalMask, SlidingWindowMask


RNG = np.random.default_rng(1234)


def rand_qkv(s=32, d=8, heads=None, sk=None):
    shape_q = (s, d) if heads is None else (heads, s, d)
    sk = sk or s
    shape_k = (sk, d) if heads is None else (heads, sk, d)
    q = RNG.normal(size=shape_q)
    k = RNG.normal(size=shape_k)
    v = RNG.normal(size=shape_k)
    return q, k, v


class TestSoftmaxPrimitives:
    def test_logsumexp_matches_naive(self):
        x = RNG.normal(size=(5, 7))
        np.testing.assert_allclose(
            logsumexp(x), np.log(np.exp(x).sum(axis=-1)), rtol=1e-12
        )

    def test_logsumexp_stable_for_large_values(self):
        x = np.array([[1000.0, 1000.0]])
        assert np.isfinite(logsumexp(x)).all()

    def test_logsumexp_all_masked_row(self):
        x = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
        out = logsumexp(x)
        assert np.isneginf(out[0])
        assert out[1] == pytest.approx(np.log(2.0))

    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(4, 9))
        np.testing.assert_allclose(softmax(x).sum(axis=-1), 1.0, rtol=1e-12)

    def test_softmax_fully_masked_row_is_zero(self):
        x = np.array([[-np.inf, -np.inf]])
        np.testing.assert_array_equal(softmax(x), np.zeros((1, 2)))

    def test_merge_states_equals_joint_softmax(self):
        q, k, v = rand_qkv(s=16, d=4, sk=24)
        k1, k2 = k[:10], k[10:]
        v1, v2 = v[:10], v[10:]
        o1, l1 = attention_reference(q, k1, v1)
        o2, l2 = attention_reference(q, k2, v2)
        o, lse = merge_states(o1, l1, o2, l2)
        o_ref, lse_ref = attention_reference(q, k, v)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-10)

    def test_merge_with_empty_state_is_identity(self):
        q, k, v = rand_qkv(s=8, d=4)
        o, lse = attention_reference(q, k, v)
        o0, l0 = empty_state(o.shape)
        o2, l2 = merge_states(o0, l0, o, lse)
        np.testing.assert_allclose(o2, o, rtol=1e-12)
        np.testing.assert_allclose(l2, lse, rtol=1e-12)

    def test_merge_is_commutative(self):
        q, k, v = rand_qkv(s=8, d=4, sk=16)
        o1, l1 = attention_reference(q, k[:8], v[:8])
        o2, l2 = attention_reference(q, k[8:], v[8:])
        oa, la = merge_states(o1, l1, o2, l2)
        ob, lb = merge_states(o2, l2, o1, l1)
        np.testing.assert_allclose(oa, ob, rtol=1e-12)
        np.testing.assert_allclose(la, lb, rtol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(split=st.integers(1, 23), seed=st.integers(0, 2**16))
    def test_merge_property_any_split(self, split, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(6, 4))
        k = rng.normal(size=(24, 4))
        v = rng.normal(size=(24, 4))
        o1, l1 = attention_reference(q, k[:split], v[:split])
        o2, l2 = attention_reference(q, k[split:], v[split:])
        o, lse = merge_states(o1, l1, o2, l2)
        o_ref, lse_ref = attention_reference(q, k, v)
        np.testing.assert_allclose(o, o_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-9)


class TestReferenceAttention:
    def test_matches_naive_softmax_attention(self):
        q, k, v = rand_qkv(s=12, d=4)
        scale = 1.0 / np.sqrt(4)
        s = q @ k.T * scale
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        o, _ = attention_reference(q, k, v)
        np.testing.assert_allclose(o, p @ v, rtol=1e-12)

    def test_causal_mask_blocks_future(self):
        q, k, v = rand_qkv(s=8, d=4)
        mask = CausalMask().dense(8)
        o, _ = attention_reference(q, k, v, mask=mask)
        # Row 0 attends only to key 0 -> output equals v[0].
        np.testing.assert_allclose(o[0], v[0], rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        q, k, v = rand_qkv(s=6, d=3)
        mask = CausalMask().dense(6)
        o, lse = attention_reference(q, k, v, mask=mask)
        do = RNG.normal(size=o.shape)
        dq, dk, dv = attention_reference_backward(q, k, v, o, lse, do, mask=mask)

        def loss(q_, k_, v_):
            o_, _ = attention_reference(q_, k_, v_, mask=mask)
            return float(np.sum(o_ * do))

        eps = 1e-6
        for arr, grad, which in ((q, dq, 0), (k, dk, 1), (v, dv, 2)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in range(5):  # spot-check a few coordinates
                idx = tuple(
                    RNG.integers(0, dim) for dim in arr.shape
                )
                args = [q.copy(), k.copy(), v.copy()]
                args[which][idx] += eps
                up = loss(*args)
                args[which][idx] -= 2 * eps
                down = loss(*args)
                fd = (up - down) / (2 * eps)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_multi_head_batching(self):
        q, k, v = rand_qkv(s=10, d=4, heads=3)
        o, lse = attention_reference(q, k, v)
        assert o.shape == (3, 10, 4)
        assert lse.shape == (3, 10)
        o0, _ = attention_reference(q[0], k[0], v[0])
        np.testing.assert_allclose(o[0], o0, rtol=1e-12)


class TestFlashAttention:
    @pytest.mark.parametrize("block", [4, 7, 16, 64])
    def test_forward_matches_reference(self, block):
        q, k, v = rand_qkv(s=33, d=8)
        o_ref, lse_ref = attention_reference(q, k, v)
        o, lse = flash_attention_forward(q, k, v, block_q=block, block_k=block)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-10)

    @pytest.mark.parametrize("mask_cls", [CausalMask, lambda: SlidingWindowMask(5)])
    def test_forward_masked_matches_reference(self, mask_cls):
        q, k, v = rand_qkv(s=29, d=4)
        mask = mask_cls().dense(29)
        o_ref, lse_ref = attention_reference(q, k, v, mask=mask)
        o, lse = flash_attention_forward(q, k, v, mask=mask, block_q=8, block_k=8)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-10)

    def test_backward_matches_reference(self):
        q, k, v = rand_qkv(s=31, d=4)
        mask = CausalMask().dense(31)
        o, lse = flash_attention_forward(q, k, v, mask=mask, block_q=8, block_k=8)
        do = RNG.normal(size=o.shape)
        dq, dk, dv = flash_attention_backward(
            q, k, v, o, lse, do, mask=mask, block_q=8, block_k=8
        )
        dq_ref, dk_ref, dv_ref = attention_reference_backward(
            q, k, v, o, lse, do, mask=mask
        )
        np.testing.assert_allclose(dq, dq_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(dk, dk_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(dv, dv_ref, rtol=1e-9, atol=1e-11)

    def test_sliding_window_skips_empty_tiles(self):
        # With a tiny window and aligned blocks, far-off-diagonal tiles are
        # empty and must be skipped without corrupting the result.
        q, k, v = rand_qkv(s=64, d=4)
        mask = SlidingWindowMask(4).dense(64)
        o_ref, _ = attention_reference(q, k, v, mask=mask)
        o, _ = flash_attention_forward(q, k, v, mask=mask, block_q=8, block_k=8)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10, atol=1e-12)

    def test_multi_head(self):
        q, k, v = rand_qkv(s=16, d=4, heads=2)
        o_ref, _ = attention_reference(q, k, v)
        o, _ = flash_attention_forward(q, k, v, block_q=8, block_k=8)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10)

    @settings(deadline=None, max_examples=20)
    @given(
        s=st.integers(2, 40),
        d=st.sampled_from([2, 4, 8]),
        block=st.integers(2, 16),
        seed=st.integers(0, 2**16),
    )
    def test_flash_equals_reference_property(self, s, d, block, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(s, d))
        k = rng.normal(size=(s, d))
        v = rng.normal(size=(s, d))
        mask = CausalMask().dense(s)
        o_ref, lse_ref = attention_reference(q, k, v, mask=mask)
        o, lse = flash_attention_forward(
            q, k, v, mask=mask, block_q=block, block_k=block
        )
        np.testing.assert_allclose(o, o_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-9)


# ---------------------------------------------------------------------------
# edge cases of the flash core, on every mask path and backend
# ---------------------------------------------------------------------------

EDGE_PATHS = [
    (path, backend)
    for path in ("dense", "plan")
    for backend in ("reference", "threaded")
]


def _edge_run(path, backend_name, q, k, v, do, mask, q_idx, k_idx, block):
    """fwd+bwd through one backend with the mask given as ``mask=`` or as
    a :class:`TilePlan`, with every warning promoted to an error and every
    floating-point error raising except underflow (``exp`` of a score far
    below the row maximum rounding to 0 is the expected result)."""
    import warnings

    from repro.kernels import TilePlan, get_backend

    if path == "dense":
        kw = {"mask": mask.block(q_idx, k_idx), "block_q": block,
              "block_k": block}
    else:
        kw = {"plan": TilePlan.build(mask, q_idx, k_idx, block, block)}
    backend = get_backend(backend_name)
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        o, lse = backend.flash_forward(q, k, v, **kw)
        grads = backend.flash_backward(q, k, v, o, lse, do, **kw)
    return (o, lse, *grads)


def _edge_reference(q, k, v, do, dense):
    o, lse = attention_reference(q, k, v, mask=dense)
    return (o, lse, *attention_reference_backward(q, k, v, o, lse, do,
                                                  mask=dense))


def _assert_matches_reference(got, want, score_scale=1.0):
    """``score_scale`` widens ``atol``: the float64 reference's own
    gradient error grows with the magnitude of the scores."""
    for name, a, b in zip(("o", "lse", "dq", "dk", "dv"), got, want):
        np.testing.assert_allclose(a, b, rtol=1e-9,
                                   atol=1e-11 * score_scale, err_msg=name)


@pytest.mark.parametrize("path,backend", EDGE_PATHS)
class TestFlashEdgeCases:
    def test_dead_query_rows_of_a_striped_pair(self, path, backend):
        """Query shard 0 vs key shard 2 of a striped causal split: global
        query 0 sees no key at all.  Its row must come out as the empty
        state exactly (o = 0, lse = -inf, dq = 0), everything else finite."""
        from repro.partition import StripedPartitioner

        idxs = StripedPartitioner().indices(256, 4)
        q_idx, k_idx = idxs[0], idxs[2]
        rng = np.random.default_rng(0)
        q, do = (rng.normal(size=(2, len(q_idx), 8)) for _ in range(2))
        k, v = (rng.normal(size=(2, len(k_idx), 8)) for _ in range(2))
        mask = CausalMask()
        o, lse, dq, dk, dv = _edge_run(
            path, backend, q, k, v, do, mask, q_idx, k_idx, 16
        )
        dead = ~mask.block(q_idx, k_idx).any(axis=-1)
        assert dead.any() and not dead.all()
        assert (o[:, dead] == 0.0).all()
        assert np.isneginf(lse[:, dead]).all()
        assert (dq[:, dead] == 0.0).all()
        assert np.isfinite(lse[:, ~dead]).all()
        for a in (o, dq, dk, dv):
            assert np.isfinite(a).all()
        _assert_matches_reference(
            (o, lse, dq, dk, dv),
            _edge_reference(q, k, v, do, mask.block(q_idx, k_idx)),
        )

    def test_large_scores_stay_finite(self, path, backend):
        rng = np.random.default_rng(1)
        n = 64
        q, k, v, do = (rng.normal(size=(2, n, 8)) for _ in range(4))
        q = q * 300.0
        idx = np.arange(n)
        mask = CausalMask()
        got = _edge_run(path, backend, q, k, v, do, mask, idx, idx, 16)
        for a in (got[0], got[2], got[3], got[4]):
            assert np.isfinite(a).all()
        _assert_matches_reference(
            got, _edge_reference(q, k, v, do, mask.dense(n)),
            score_scale=300.0,
        )

    @pytest.mark.parametrize("sq,sk", [(70, 70), (40, 20)],
                             ids=["ragged-last-block", "sk-below-block"])
    def test_ragged_blocks(self, path, backend, sq, sk):
        rng = np.random.default_rng(2)
        q, do = (rng.normal(size=(2, sq, 8)) for _ in range(2))
        k, v = (rng.normal(size=(2, sk, 8)) for _ in range(2))
        q_idx, k_idx = np.arange(sq), np.arange(sk)
        mask = CausalMask()
        got = _edge_run(path, backend, q, k, v, do, mask, q_idx, k_idx, 32)
        _assert_matches_reference(
            got, _edge_reference(q, k, v, do, mask.block(q_idx, k_idx))
        )

    def test_row_with_two_runs(self, path, backend):
        """Non-empty k-blocks of the last q-block form two runs split by
        an empty block, so the running max is rescaled across runs."""
        from repro.kernels import EMPTY, TilePlan
        from repro.masks import BlockSparseMask

        block_mask = np.tril(np.ones((4, 4), dtype=bool))
        block_mask[3, 1] = False
        mask = BlockSparseMask(16, block_mask)
        n = 64
        idx = np.arange(n)
        row = TilePlan.build(mask, idx, idx, 16, 16).states[3]
        assert list(row != EMPTY) == [True, False, True, True]
        rng = np.random.default_rng(3)
        q, k, v, do = (rng.normal(size=(2, n, 8)) for _ in range(4))
        got = _edge_run(path, backend, q, k, v, do, mask, idx, idx, 16)
        _assert_matches_reference(
            got, _edge_reference(q, k, v, do, mask.dense(n))
        )
