"""DeepSpeed-Ulysses head parallelism.

Instead of circulating KV shards, Ulysses re-partitions the data with
all-to-all collectives: starting from sequence-sharded ``(H, N/G, D)``
tensors, each rank exchanges chunks so it ends up holding *all* ``N``
tokens for ``H/G`` of the heads, runs ordinary (full-sequence) local
attention, and all-to-alls the outputs back to sequence sharding.

Communication per rank is ``4 · (N/G) · d · (G-1)/G`` elements per pass —
asymptotically ``G×`` cheaper than ring methods — but the all-to-all
cannot be overlapped with attention compute (the compute cannot start
until the collective completes), and the method is *infeasible whenever
the head count is not divisible by the GPU count* (the paper's 14B model
has 40 heads, so Ulysses cannot run on 64 GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.comm import SimCommunicator
from repro.kernels import get_backend, resolve_tiles
from repro.masks import MaskPattern
from repro.obs.tracer import traced


def _check_contiguous(idxs: Sequence[np.ndarray]) -> None:
    """Ulysses reassembles the sequence by concatenating rank shards in
    rank order, which requires a contiguous ascending partition."""
    expect = 0
    for r, idx in enumerate(idxs):
        if idx[0] != expect or not np.array_equal(
            idx, np.arange(idx[0], idx[0] + len(idx))
        ):
            raise ValueError(
                f"Ulysses requires a contiguous partition; rank {r} shard "
                "is not a contiguous ascending range"
            )
        expect = int(idx[-1]) + 1


@dataclass
class UlyssesContext:
    """State saved between the forward and backward passes (head layout)."""

    q_h: list[np.ndarray]
    k_h: list[np.ndarray]
    v_h: list[np.ndarray]
    o_h: list[np.ndarray]
    lse_h: list[np.ndarray]
    seq_sizes: list[int]
    heads_per_rank: int
    #: per-rank ``(plan, dense_mask, dense_bias)`` from ``resolve_tiles``
    tiles: list[tuple]
    scale: float
    block_size: int


def _split_heads(x: np.ndarray, g: int) -> list[np.ndarray]:
    h = x.shape[0]
    hh = h // g
    return [x[i * hh : (i + 1) * hh] for i in range(g)]


@traced("attn.pass", "attn", algorithm="ulysses", direction="fwd")
def ulysses_attention_forward(
    comm: SimCommunicator,
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    idxs: Sequence[np.ndarray],
    mask: MaskPattern | None = None,
    scale: float | None = None,
    *,
    phase: str = "attn-fwd",
    block_size: int = 128,
) -> tuple[list[np.ndarray], list[np.ndarray], UlyssesContext]:
    """Ulysses forward: seq→head all-to-all, local attention, head→seq.

    Shards must be ``(H, S/G, D)`` with ``H`` divisible by the world size.
    Returns per-rank ``(os, lses)`` in the original sequence sharding plus
    the context for :func:`ulysses_attention_backward`.
    """
    g = comm.world_size
    h = qs[0].shape[0]
    if h % g != 0:
        raise ValueError(
            f"DeepSpeed-Ulysses infeasible: {h} heads not divisible by "
            f"{g} GPUs (the paper hits this with 40 heads on 64 GPUs)"
        )
    if ks[0].shape[0] != h:
        raise ValueError(
            "Ulysses head parallelism requires equal query/KV head counts; "
            f"got {h} vs {ks[0].shape[0]} (GQA is a ring-family feature)"
        )
    if scale is None:
        scale = 1.0 / np.sqrt(qs[0].shape[-1])
    _check_contiguous(idxs)
    seq_sizes = [q.shape[-2] for q in qs]
    n = sum(seq_sizes)

    # seq-shard -> head-shard: rank r sends head-chunk h to rank h.
    chunks = [
        [
            (qc, kc, vc)
            for qc, kc, vc in zip(
                _split_heads(qs[r], g), _split_heads(ks[r], g), _split_heads(vs[r], g)
            )
        ]
        for r in range(g)
    ]
    received = comm.all_to_all(chunks, phase=phase, tag="ulysses-qkv")
    q_h, k_h, v_h = [], [], []
    for r in range(g):
        q_h.append(np.concatenate([received[r][s][0] for s in range(g)], axis=-2))
        k_h.append(np.concatenate([received[r][s][1] for s in range(g)], axis=-2))
        v_h.append(np.concatenate([received[r][s][2] for s in range(g)], axis=-2))

    tiles = [(None, None, None)] * g
    hh = h // g
    if mask is not None:
        idx = np.arange(n)
        # Validate per-head bias geometry from a 1x1 probe tile — the full
        # (H, N, N) bias is never materialised on the plan path.
        probe = mask.bias_block(idx[:1], idx[:1])
        if probe is not None and (probe.ndim != 3 or probe.shape[0] != h):
            raise ValueError(
                "Ulysses needs a per-head bias matching the head count"
            )
        # Every rank sees the same full-sequence tile grid; each views its
        # own head group of the bias.
        tiles = [
            resolve_tiles(
                mask, idx, idx, block_size,
                head_slice=slice(r * hh, (r + 1) * hh), allow_skip=False,
            )[1:]
            for r in range(g)
        ]
    o_h, lse_h = [], []
    for r in range(g):
        plan, dense, bias = tiles[r]
        o, lse = get_backend().flash_forward(
            q_h[r], k_h[r], v_h[r], mask=dense, scale=scale,
            block_q=block_size, block_k=block_size, bias=bias, plan=plan,
        )
        o_h.append(o)
        lse_h.append(lse)

    # head-shard -> seq-shard for the outputs (and lse for completeness).
    bounds = np.cumsum([0] + seq_sizes)
    out_chunks = [
        [
            (o_h[r][:, bounds[d] : bounds[d + 1], :], lse_h[r][:, bounds[d] : bounds[d + 1]])
            for d in range(g)
        ]
        for r in range(g)
    ]
    received_o = comm.all_to_all(out_chunks, phase=phase, tag="ulysses-out")
    os_out, lses_out = [], []
    for r in range(g):
        os_out.append(np.concatenate([received_o[r][s][0] for s in range(g)], axis=0))
        lses_out.append(np.concatenate([received_o[r][s][1] for s in range(g)], axis=0))

    ctx = UlyssesContext(
        q_h=q_h, k_h=k_h, v_h=v_h, o_h=o_h, lse_h=lse_h,
        seq_sizes=seq_sizes, heads_per_rank=h // g,
        tiles=tiles, scale=scale, block_size=block_size,
    )
    return os_out, lses_out, ctx


@traced("attn.pass", "attn", algorithm="ulysses", direction="bwd")
def ulysses_attention_backward(
    comm: SimCommunicator,
    ctx: UlyssesContext,
    dos: Sequence[np.ndarray],
    *,
    phase: str = "attn-bwd",
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Ulysses backward: dO to head layout, local backward, grads back."""
    g = len(dos)
    chunks = [[_split_heads(dos[r], g)[d] for d in range(g)] for r in range(g)]
    received = comm.all_to_all(chunks, phase=phase, tag="ulysses-dout")
    do_h = [
        np.concatenate([received[r][s] for s in range(g)], axis=-2) for r in range(g)
    ]

    dq_h, dk_h, dv_h = [], [], []
    for r in range(g):
        plan, dense, bias = ctx.tiles[r]
        dq, dk, dv = get_backend().flash_backward(
            ctx.q_h[r], ctx.k_h[r], ctx.v_h[r], ctx.o_h[r], ctx.lse_h[r],
            do_h[r], mask=dense, scale=ctx.scale,
            block_q=ctx.block_size, block_k=ctx.block_size,
            bias=bias, plan=plan,
        )
        dq_h.append(dq)
        dk_h.append(dk)
        dv_h.append(dv)

    bounds = np.cumsum([0] + ctx.seq_sizes)
    grad_chunks = [
        [
            (
                dq_h[r][:, bounds[d] : bounds[d + 1], :],
                dk_h[r][:, bounds[d] : bounds[d + 1], :],
                dv_h[r][:, bounds[d] : bounds[d + 1], :],
            )
            for d in range(g)
        ]
        for r in range(g)
    ]
    received_g = comm.all_to_all(grad_chunks, phase=phase, tag="ulysses-grads")
    dqs, dks, dvs = [], [], []
    for r in range(g):
        dqs.append(np.concatenate([received_g[r][s][0] for s in range(g)], axis=0))
        dks.append(np.concatenate([received_g[r][s][1] for s in range(g)], axis=0))
        dvs.append(np.concatenate([received_g[r][s][2] for s in range(g)], axis=0))
    return dqs, dks, dvs


def ulysses_attention(
    comm: SimCommunicator,
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    idxs: Sequence[np.ndarray],
    mask: MaskPattern | None = None,
    scale: float | None = None,
    dos: Sequence[np.ndarray] | None = None,
    *,
    block_size: int = 128,
) -> dict:
    """One-call convenience wrapper: forward, and backward when ``dos``
    is given.  Returns a dict with ``os``, ``lses`` and (optionally)
    ``dqs/dks/dvs``."""
    os_out, lses_out, ctx = ulysses_attention_forward(
        comm, qs, ks, vs, idxs, mask, scale, block_size=block_size
    )
    result = {"os": os_out, "lses": lses_out}
    if dos is not None:
        dqs, dks, dvs = ulysses_attention_backward(comm, ctx, dos)
        result.update({"dqs": dqs, "dks": dks, "dvs": dvs})
    return result
