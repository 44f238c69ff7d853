"""Autograd Function for (single-device) flash attention with checkpoint
policy support.

This node is where the checkpointing policies of Section 3.2 act:

* normal forward — compute ``(O, lse)``, save flash-backward state;
* checkpointed first pass (``no_grad``) — additionally stash ``(O, lse)``
  (all of it for selective++, the sequence suffix for sequence-level) in
  the layer's :class:`~repro.nn.checkpoint.AttentionOutputCache`;
* recomputation pass — consume the cache: selective++ skips the attention
  forward entirely, sequence-level recomputes only the front segment's
  rows (cheap under causal masking) and concatenates the stored suffix.

Recomputed attention work is tallied in the memory tracker's
``recompute_flops`` so the compute/memory trade-off of Fig. 7 is measured.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_backend, resolve_tiles
from repro.masks import MaskPattern
from repro.nn.checkpoint import (
    AttentionOutputCache,
    CheckpointMode,
    CheckpointPolicy,
    in_recompute,
)
from repro.nn.function import Function
from repro.nn.memory import get_tracker
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.obs.tracer import trace_span


def _attention_flops(pairs: int, heads: int, head_dim: int) -> float:
    """Matmul FLOPs for ``pairs`` allowed (q, k) pairs: QK^T plus PV."""
    return 4.0 * pairs * heads * head_dim


def _mask_pairs(mask: MaskPattern | None, sq: int, sk: int, q_off: int = 0) -> int:
    if mask is None:
        return sq * sk
    return mask.num_allowed(np.arange(q_off, q_off + sq), np.arange(sk))


class FlashAttentionFn(Function):
    """``o = attention(q, k, v)`` with mask pattern and checkpoint cache.

    Supports grouped-query attention: when ``k``/``v`` carry fewer heads
    than ``q`` (``H_q % H_kv == 0``), each KV head serves a group of query
    heads; KV gradients are summed back over the group.
    """

    def forward(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        mask: MaskPattern | None = None,
        scale: float | None = None,
        block_size: int = 128,
        cache: AttentionOutputCache | None = None,
        policy: CheckpointPolicy | None = None,
    ):
        from repro.attention.gqa import repeat_kv

        self.groups = 1
        if q.ndim == 3 and k.ndim == 3 and q.shape[0] != k.shape[0]:
            if q.shape[0] % k.shape[0] != 0:
                raise ValueError(
                    f"{q.shape[0]} query heads not divisible by "
                    f"{k.shape[0]} KV heads"
                )
            self.groups = q.shape[0] // k.shape[0]
            k = repeat_kv(k, self.groups)
            v = repeat_kv(v, self.groups)
        if scale is None:
            scale = 1.0 / np.sqrt(q.shape[-1])
        s = q.shape[-2]
        heads = q.shape[0] if q.ndim == 3 else 1
        head_dim = q.shape[-1]
        positions = np.arange(s)
        # A tile plan (the dense s x s mask never exists), or with planning
        # off the dense mask and bias.
        _, plan, dense, dense_bias = resolve_tiles(
            mask, positions, positions, block_size, allow_skip=False
        )
        self.mask_dense = dense
        self.bias_dense = dense_bias
        self.plan = plan
        self.scale = scale
        self.block_size = block_size

        policy = policy or CheckpointPolicy()
        cached = cache.pop(0) if (cache is not None and in_recompute()) else None

        if cached is not None and policy.mode is CheckpointMode.SELECTIVE_PP:
            o, lse = cached  # whole output whitelisted: zero recompute
        elif cached is not None and policy.mode is CheckpointMode.SEQUENCE_LEVEL:
            split = int(round(s * policy.split_fraction))
            o_back, lse_back = cached
            _, front_plan, front_mask, front_bias = resolve_tiles(
                mask, positions[:split], positions, block_size,
                allow_skip=False,
            )
            with trace_span("ckpt.recompute-front", phase="ckpt-recompute",
                            split=split, seq=s):
                o_front, lse_front = get_backend().flash_forward(
                    q[..., :split, :], k, v, mask=front_mask, scale=scale,
                    block_q=block_size, block_k=block_size, bias=front_bias,
                    plan=front_plan,
                )
            get_tracker().add_recompute_flops(
                _attention_flops(_mask_pairs(mask, split, s), heads, head_dim)
            )
            o = np.concatenate([o_front, o_back], axis=-2)
            lse = np.concatenate([lse_front, lse_back], axis=-1)
        else:
            o, lse = get_backend().flash_forward(
                q, k, v, mask=dense, scale=scale,
                block_q=block_size, block_k=block_size, bias=dense_bias,
                plan=plan,
            )
            if in_recompute():
                get_tracker().add_recompute_flops(
                    _attention_flops(_mask_pairs(mask, s, s), heads, head_dim)
                )

        if (
            cache is not None
            and policy.caches_attention_output
            and not in_recompute()
            and not is_grad_enabled()
        ):
            # First (no-grad) pass of a checkpointed layer: whitelist the
            # outputs the recompute pass will want.
            if policy.mode is CheckpointMode.SELECTIVE_PP:
                cache.put(0, o.copy(), lse.copy())
            else:  # SEQUENCE_LEVEL: store the expensive-to-recompute suffix
                split = int(round(s * policy.split_fraction))
                cache.put(0, o[..., split:, :].copy(), lse[..., split:].copy())

        self.save_for_backward(q, k, v, o, lse)
        return o

    def backward(self, grad_out: np.ndarray):
        from repro.attention.gqa import fold_kv_grad

        q, k, v, o, lse = self.saved
        dq, dk, dv = get_backend().flash_backward(
            q, k, v, o, lse, grad_out,
            mask=self.mask_dense, scale=self.scale,
            block_q=self.block_size, block_k=self.block_size,
            bias=self.bias_dense,
            plan=self.plan,
        )
        if self.groups > 1:
            dk = fold_kv_grad(dk, self.groups)
            dv = fold_kv_grad(dv, self.groups)
        return dq, dk, dv


def flash_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: MaskPattern | None = None,
    scale: float | None = None,
    block_size: int = 128,
    cache: AttentionOutputCache | None = None,
    policy: CheckpointPolicy | None = None,
) -> Tensor:
    """Differentiable flash attention over ``(H, S, Dh)`` tensors."""
    return FlashAttentionFn.apply(
        q, k, v, mask=mask, scale=scale, block_size=block_size,
        cache=cache, policy=policy,
    )
