"""BurstAttention's Algorithm 2 backward pass.

The key identity (Eq. 7–8 of the paper): with ``P_i = softmax(S_i)`` and
``dP_i = dO_i V^T``,

    dS_i = P_i ∘ dP_i − D_i P_i,     where  D_i = rowsum(dO_i ∘ O_i)

so the full row of output states ``O_i`` never needs to travel — only the
scalar-per-row statistics ``D_i`` and ``Lse_i``.  BurstAttention therefore
pins ``(K_i, V_i, dK_i, dV_i)`` on their owner and circulates
``(Q_j, dQ_j, dO_j, D_j, Lse_j)`` instead:

=================  =======================  ======================
                   Algorithm 1 (Ring)       Algorithm 2 (Burst)
-----------------  -----------------------  ----------------------
circulates         K, V, dK, dV             Q, dQ, dO, D, Lse
per-hop payload    4 (N/G) d                3 (N/G) d + 2 (N/G)
total per rank     4Nd                      3Nd + 2N   (≈ −25 %)
D recomputation    every round              once, before the loop
=================  =======================  ======================

Numerically the result is identical to Algorithm 1 and to the dense
reference — the tests assert both, along with the exact traffic volumes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm import BidirectionalFlow, RingSchedule, SimCommunicator
from repro.comm.ring import check_ring_mode
from repro.kernels import TilePlan, get_backend, resolve_tiles
from repro.masks import MaskPattern
from repro.obs.tracer import traced


def _tile_backward_qgrad(
    q_j: np.ndarray,
    k_i: np.ndarray,
    v_i: np.ndarray,
    do_j: np.ndarray,
    d_j: np.ndarray,
    lse_j: np.ndarray,
    tile: np.ndarray | None,
    scale: float,
    block_q: int,
    block_k: int,
    bias: np.ndarray | None = None,
    plan: TilePlan | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Algorithm-2 device step: given the circulating query-side bundle
    and the pinned ``(K_i, V_i)``, compute ``(dQ_j part, dK_i part, dV_i
    part)``.  Tiled like the flash kernel so no full score matrix forms.

    This mirrors lines 7–13 of Algorithm 2 with ``D_j``/``Lse_j`` taken
    from the ring instead of recomputed (the paper's Algorithm 2 line 11
    writes ``D_i``; the derivation in Eq. 7–8 shows the query-side ``D_j``
    is the quantity required, which is what travels).  The tile loop is
    :func:`repro.kernels.flash_backward_tiles` — the same backward core as
    :func:`~repro.kernels.flash_attention_backward` minus the local ``D``
    recomputation, so it consumes tile plans natively.
    """
    return get_backend().flash_backward_tiles(
        q_j, k_i, v_i, lse_j, d_j, do_j,
        mask=tile, scale=scale, block_q=block_q, block_k=block_k,
        bias=bias, plan=plan,
    )


@traced("attn.pass", "attn", algorithm="burst-alg2", direction="bwd")
def burst_attention_backward(
    comm: SimCommunicator,
    schedule: RingSchedule,
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    os: Sequence[np.ndarray],
    lses: Sequence[np.ndarray],
    dos: Sequence[np.ndarray],
    idxs: Sequence[np.ndarray],
    mask: MaskPattern | None = None,
    scale: float | None = None,
    *,
    phase: str = "attn-bwd",
    block_size: int = 128,
    ring_mode: str = "unidirectional",
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Algorithm 2: BurstAttention's communication-optimised backward pass.

    Per-rank send volume is exactly ``3Nd + 2N·H`` elements (``H`` = number
    of leading head slots; the paper's single-head statement is ``3Nd+2N``),
    ~25 % below Algorithm 1's ``4Nd``.  Returns per-rank ``(dqs, dks, dvs)``.

    Under ``ring_mode="bidirectional"`` the read-only ``(Q, dO, D, Lse)``
    parts of the bundle split across two counter-rotating streams while
    the ``dQ`` accumulator rides the full forward circulation (keeping its
    addition order, and therefore the results, bitwise identical); once
    the reverse stream takes over, the forward bundle and the return hop
    carry ``dQ`` alone.
    """
    check_ring_mode(ring_mode)
    g = comm.world_size
    if scale is None:
        scale = 1.0 / np.sqrt(qs[0].shape[-1])
    origins = schedule.origins()
    steps = schedule.num_steps

    dks = [np.zeros_like(k) for k in ks]
    dvs = [np.zeros_like(v) for v in vs]
    # D_i computed once, locally, before the ring starts (Alg. 2 line 2).
    ds = [np.sum(dos[r] * os[r], axis=-1) for r in range(g)]

    bufs: list[object] = [
        (
            qs[r].copy(),
            np.zeros_like(qs[r]),  # dQ accumulator rides the ring
            dos[r].copy(),
            ds[r].copy(),
            lses[r].copy(),
        )
        for r in range(g)
    ]
    flow = (
        BidirectionalFlow(
            comm, schedule,
            [(bufs[r][0], bufs[r][2], bufs[r][3], bufs[r][4]) for r in range(g)],
            phase=phase, tag="q+grads",
        )
        if ring_mode == "bidirectional"
        else None
    )
    ro: list[object] | None = None

    for t in range(steps):
        for r in range(g):
            j = origins[t][r]
            if ro is None:
                q_j, dq_j, do_j, d_j, lse_j = bufs[r]
            else:
                q_j, do_j, d_j, lse_j = ro[r]
                (dq_j,) = bufs[r]
            # Queries are shard j, keys/values are pinned shard r.
            skip, plan, tile, bias = resolve_tiles(
                mask, idxs[j], idxs[r], block_size
            )
            if skip:
                continue
            dq_part, dk_part, dv_part = _tile_backward_qgrad(
                q_j, ks[r], vs[r], do_j, d_j, lse_j, tile, scale,
                block_size, block_size,
                bias=bias, plan=plan,
            )
            dks[r] += dk_part
            dvs[r] += dv_part
            if ro is None:
                bufs[r] = (q_j, dq_j + dq_part, do_j, d_j, lse_j)
            else:
                bufs[r] = (dq_j + dq_part,)
        if t < steps - 1:
            if flow is not None and t == flow.forward_transitions:
                # Query-side delivery is now the reverse stream's job;
                # only the dQ accumulator stays on the forward circulation.
                bufs = [(b[1],) for b in bufs]
            bufs = schedule.apply(comm, bufs, t, phase=phase, tag="q+grads")
            if flow is not None:
                flow.poststep(t)
                ro = flow.delivered(t + 1)

    # Final hop: dQ accumulators return to their owners.
    if flow is not None:
        bufs = [b if len(b) == 1 else (b[1],) for b in bufs]
    bufs = comm.exchange(
        bufs, schedule.return_permutation(), phase=phase, tag="q+grads-return"
    )
    dqs = [bufs[r][1] if flow is None else bufs[r][0] for r in range(g)]
    return dqs, dks, dvs
