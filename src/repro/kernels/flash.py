"""Blockwise (FlashAttention-2 style) exact attention in numpy.

The computation is tiled over query blocks and never materialises the
full ``Sq x Sk`` score matrix.  Within a query block, the key axis is
walked in *runs*: maximal stretches of consecutive ``block_k`` sub-tiles
that hold at least one allowed (query, key) pair.  Each run is one GEMM
against the contiguous K/V slab it covers, so a causal q-block costs one
score GEMM rather than one per sub-tile.  The forward pass keeps the
FlashAttention-2 running row maximum and denominator across runs and
normalises once per q-block; the backward pass re-forms each run's
probabilities from the saved ``lse`` (plus the ``D = rowsum(dO * O)`` row
statistics) with one GEMM each for ``dV``, ``dP``, ``dQ`` and ``dK``.
These kernels are what every distributed attention method in
:mod:`repro.attention` runs locally on each simulated device.

Masking comes in two forms, both classified into the same per-sub-tile
``EMPTY``/``PARTIAL``/``FULL`` states and run through the same core:

* a :class:`~repro.kernels.tileplan.TilePlan` (``plan=``) — the fast path.
  The plan classifies sub-tiles from the mask pattern without
  materialising it and already holds its resolved runs; each invocation
  replays its executed/skipped sub-tile census into
  :data:`repro.kernels.tileplan.counters`.
* a dense boolean array (``mask=``) broadcastable to ``(..., Sq, Sk)`` —
  classified per sub-tile with ``all``/``any``.  Kept for references,
  fuzzers and the bench harness's dense-vs-planned comparison.

Only the slab columns of ``PARTIAL`` sub-tiles get a ``-inf`` fill; full
sub-tiles take no mask pass at all.  A partial sub-tile whose boolean tile
turns out empty (a conservative plan verdict) ends a run exactly as an
``EMPTY`` one does, so both mask forms produce the same runs and
bitwise-equal outputs.  Scratch is ``O(block_q * run width)`` score-shaped
buffers per q-block (:func:`flash_scratch_bytes`), recorded on the
``transient`` memory series once per kernel invocation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels.softmax import NEG_INF
from repro.kernels.tileplan import (
    EMPTY, FULL, PARTIAL, TilePlan, backend_label, counters, tile_runs,
)
from repro.obs.mem import transient_scope
from repro.obs.tracer import NOOP_SPAN, trace_span


DEFAULT_BLOCK = 128

#: Label key of the tile counts these (reference) kernels account.
_REFERENCE_LABEL = backend_label("reference")


def flash_scratch_bytes(
    batch: int, rows: int, width: int, backward: bool = False
) -> int:
    """Score-shaped float64 scratch one q-block holds at its widest run.

    The forward keeps one ``(batch, rows, width)`` buffer (scores turned
    into probabilities in place); the backward keeps two (probabilities
    and ``dP``, which becomes ``dS`` in place).  The kernels size their
    ``flash.fwd``/``flash.bwd`` transient scopes with this.
    """
    return (2 if backward else 1) * batch * rows * width * 8


def _dense_runs(mask, bias, sq, sk, block_q, block_k):
    """:func:`~repro.kernels.tileplan.tile_runs` of a dense ``mask=`` /
    ``bias=`` pair, classified per sub-tile with ``all``/``any`` into the
    states a plan would hold (uncached, uncounted)."""

    def tile(a, i, j):
        return a[..., i * block_q:(i + 1) * block_q,
                 j * block_k:(j + 1) * block_k]

    states = np.full((-(-sq // block_q), -(-sk // block_k)), FULL, np.int8)
    if mask is not None:
        for i, j in np.ndindex(*states.shape):
            m = tile(mask, i, j)
            if not m.all():
                states[i, j] = PARTIAL if m.any() else EMPTY
    runs, widths, _ = tile_runs(
        states, sq, sk, block_q, block_k,
        lambda i, j: tile(mask, i, j),
        lambda i, j: None if bias is None else tile(bias, i, j),
    )
    return runs, widths


def _resolve_runs(q, k, mask, scale, block_q, block_k, bias, plan, label):
    """The preamble every flash entry point shares.

    Returns ``(scale, block_q, runs, widths)`` (see
    :func:`~repro.kernels.tileplan.tile_runs`).  A plan already holds its
    runs; its census is replayed into :data:`counters` (also under
    ``label``) here, on the invoking thread.  A dense mask is resolved
    afresh on every call.
    """
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    sq, sk = q.shape[-2], k.shape[-2]
    if plan is None:
        runs, widths = _dense_runs(mask, bias, sq, sk, block_q, block_k)
        return scale, block_q, runs, widths
    if mask is not None or bias is not None:
        raise ValueError("pass either plan= or dense mask=/bias=, not both")
    plan.check_geometry(sq, sk)
    counters.replay(plan.census, label)
    return scale, plan.block_q, plan.runs, plan.widths


def _scores(q_blk, k, k0, k1, scale, edits):
    """Scaled, biased, masked scores of one run: a single GEMM against
    the contiguous key slab, then per-sub-tile bias adds and ``-inf``
    fills only where a sub-tile needs them."""
    s = np.matmul(q_blk, np.swapaxes(k[..., k0:k1, :], -1, -2))
    s *= scale
    for a, b, blocked, bias in edits:
        if bias is not None:
            s[..., a:b] += bias
        if blocked is not None:
            np.copyto(s[..., a:b], NEG_INF, where=blocked)
    return s


def _scratch_scope(q, block_q, widths, rows, backward):
    """One transient scope for q-blocks ``rows`` (a range), sized by
    :func:`flash_scratch_bytes` at the widest run among them."""
    batch = math.prod(q.shape[:-2])
    width = max(widths[rows.start:rows.stop], default=0)
    nbytes = flash_scratch_bytes(
        batch, min(block_q, q.shape[-2]), width, backward
    )
    site = "flash.bwd" if backward else "flash.fwd"
    return transient_scope(nbytes, site=site)


def _forward_rows(q, k, v, scale, block_q, runs, widths, rows, o, lse):
    """Forward over q-blocks ``rows``, writing their ``o``/``lse`` slices.

    Q-blocks touch only their own output slices, so any partition of the
    blocks across workers gives bitwise-identical results.
    """
    sq = q.shape[-2]
    with _scratch_scope(q, block_q, widths, rows, backward=False):
        for qi in rows:
            q0, q1 = qi * block_q, min((qi + 1) * block_q, sq)
            q_blk = q[..., q0:q1, :]
            m = l = acc = None
            for k0, k1, edits in runs[qi]:
                s = _scores(q_blk, k, k0, k1, scale, edits)
                m_new = s.max(axis=-1)
                if m is not None:
                    np.maximum(m, m_new, out=m_new)
                # Rows with nothing allowed yet keep m = -inf; shift them
                # by 0 so exp() sees -inf - 0 rather than -inf + inf.
                m_safe = np.where(m_new == NEG_INF, 0.0, m_new)
                s -= m_safe[..., None]
                p = np.exp(s, out=s)
                pv = np.matmul(p, v[..., k0:k1, :])
                if acc is None:
                    acc, l = pv, p.sum(axis=-1)
                else:
                    alpha = np.exp(m - m_safe)
                    acc *= alpha[..., None]
                    acc += pv
                    l *= alpha
                    l += p.sum(axis=-1)
                m = m_new
            if acc is None:  # the whole row of sub-tiles is empty
                o[..., q0:q1, :] = 0.0
                lse[..., q0:q1] = NEG_INF
                continue
            dead = m == NEG_INF
            if dead.any():
                l[dead] = 1.0  # o stays 0 and lse = -inf + log(1)
            o[..., q0:q1, :] = acc / l[..., None]
            lse[..., q0:q1] = m + np.log(l)


def _backward_rows(
    q, k, v, lse, d_stat, do, scale, block_q, runs, widths, rows, dq,
    dk=None, dv=None,
) -> list:
    """Backward over q-blocks ``rows``, writing their ``dq`` slices.

    With ``dk``/``dv`` given, each run's key/value gradient slab
    accumulates in place.  Without them the slabs are returned as
    ``[(k0, k1, dk_slab, dv_slab), ...]`` in q-block order, so a threaded
    caller merging them in ascending q-block order reproduces the
    sequential accumulation order on every ``dk``/``dv`` slice exactly.
    """
    sq = q.shape[-2]
    slabs: list = []
    with _scratch_scope(q, block_q, widths, rows, backward=True):
        for qi in rows:
            q0, q1 = qi * block_q, min((qi + 1) * block_q, sq)
            if not runs[qi]:
                dq[..., q0:q1, :] = 0.0
                continue
            q_blk = q[..., q0:q1, :]
            do_blk = do[..., q0:q1, :]
            d_blk = d_stat[..., q0:q1, None]
            # Dead rows (lse = -inf) shift by +inf so every p is exactly 0.
            lse_blk = lse[..., q0:q1]
            lse_safe = np.where(lse_blk == NEG_INF, np.inf, lse_blk)
            lse_safe = lse_safe[..., None]
            dq_blk = None
            for k0, k1, edits in runs[qi]:
                k_s, v_s = k[..., k0:k1, :], v[..., k0:k1, :]
                s = _scores(q_blk, k, k0, k1, scale, edits)
                s -= lse_safe
                p = np.exp(s, out=s)
                dv_s = np.matmul(np.swapaxes(p, -1, -2), do_blk)
                ds = np.matmul(do_blk, np.swapaxes(v_s, -1, -2))
                ds -= d_blk
                ds *= p
                dq_s = np.matmul(ds, k_s)
                dq_s *= scale
                if dq_blk is None:
                    dq_blk = dq_s
                else:
                    dq_blk += dq_s
                dk_s = np.matmul(np.swapaxes(ds, -1, -2), q_blk)
                dk_s *= scale
                if dk is None:
                    slabs.append((k0, k1, dk_s, dv_s))
                else:
                    dv[..., k0:k1, :] += dv_s
                    dk[..., k0:k1, :] += dk_s
            dq[..., q0:q1, :] = dq_blk
    return slabs


def flash_attention_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
    scale: float | None = None,
    block_q: int = DEFAULT_BLOCK,
    block_k: int = DEFAULT_BLOCK,
    bias: np.ndarray | None = None,
    plan: TilePlan | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Tiled exact attention forward.

    Parameters mirror :func:`repro.kernels.attention_reference`; returns
    the same ``(o, lse)`` pair.  ``block_q``/``block_k`` set the sub-tile
    grid (when ``plan`` is given, its block geometry wins).  ``bias`` is
    an additive score term (ALiBi) broadcastable to ``(..., Sq, Sk)``,
    added per sub-tile alongside the mask; a plan carries its own bias
    tiles instead.

    One ``flash.fwd`` span covers the whole invocation (never per run —
    the inner loop stays bench-clean).
    """
    span = trace_span("flash.fwd", phase="compute", backend="reference")
    if span is NOOP_SPAN:
        return forward_core(
            q, k, v, mask, scale, block_q, block_k, bias, plan
        )
    with span:
        span["sq"], span["sk"] = int(q.shape[-2]), int(k.shape[-2])
        span["planned"] = plan is not None
        return forward_core(
            q, k, v, mask, scale, block_q, block_k, bias, plan
        )


def forward_core(q, k, v, mask, scale, block_q, block_k, bias, plan,
                 map_rows=None, label=_REFERENCE_LABEL):
    """The forward every backend runs: take the runs (and account a
    plan's tiles under ``label``) on this thread, then
    :func:`_forward_rows` over all q-blocks — inline, or through
    ``map_rows(fn, n_blocks)``, which must call ``fn`` on ranges
    partitioning ``range(n_blocks)``."""
    scale, block_q, runs, widths = _resolve_runs(
        q, k, mask, scale, block_q, block_k, bias, plan, label
    )
    o = np.empty(q.shape[:-1] + (v.shape[-1],), dtype=np.float64)
    lse = np.empty(q.shape[:-1], dtype=np.float64)

    def fn(rows):
        _forward_rows(q, k, v, scale, block_q, runs, widths, rows, o, lse)

    if map_rows is None:
        fn(range(len(runs)))
    else:
        map_rows(fn, len(runs))
    return o, lse


def row_stat(do: np.ndarray, o: np.ndarray) -> np.ndarray:
    """FlashAttention's backward row statistic ``D = rowsum(dO * O)``."""
    return np.sum(do * o, axis=-1)


def flash_attention_backward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    o: np.ndarray,
    lse: np.ndarray,
    do: np.ndarray,
    mask: np.ndarray | None = None,
    scale: float | None = None,
    block_q: int = DEFAULT_BLOCK,
    block_k: int = DEFAULT_BLOCK,
    bias: np.ndarray | None = None,
    plan: TilePlan | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tiled exact attention backward.

    Uses the saved global ``lse`` to re-form each probability slab and the
    FlashAttention identity ``dS = P * (dP - D)``.  Returns ``(dq, dk, dv)``.
    """
    return flash_backward_tiles(
        q, k, v, lse, row_stat(do, o), do, mask=mask, scale=scale,
        block_q=block_q, block_k=block_k, bias=bias, plan=plan,
    )


def flash_backward_tiles(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    lse: np.ndarray,
    d_stat: np.ndarray,
    do: np.ndarray,
    mask: np.ndarray | None = None,
    scale: float | None = None,
    block_q: int = DEFAULT_BLOCK,
    block_k: int = DEFAULT_BLOCK,
    bias: np.ndarray | None = None,
    plan: TilePlan | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward with caller-supplied row statistics.

    This is the shared core of :func:`flash_attention_backward` (which
    derives ``D = rowsum(dO * O)`` itself) and BurstAttention's
    Algorithm 2 device step (whose ``D``/``Lse`` arrive over the ring
    instead of being recomputed — the saving the paper measures).

    One ``flash.bwd`` span covers the whole invocation.
    """
    span = trace_span("flash.bwd", phase="compute", backend="reference")
    if span is NOOP_SPAN:
        return backward_core(
            q, k, v, lse, d_stat, do, mask, scale, block_q, block_k, bias,
            plan,
        )
    with span:
        span["sq"], span["sk"] = int(q.shape[-2]), int(k.shape[-2])
        span["planned"] = plan is not None
        return backward_core(
            q, k, v, lse, d_stat, do, mask, scale, block_q, block_k, bias,
            plan,
        )


def backward_core(q, k, v, lse, d_stat, do, mask, scale, block_q, block_k,
                  bias, plan, map_rows=None, label=_REFERENCE_LABEL):
    """The backward every backend runs.  Inline, ``dk``/``dv`` slabs
    accumulate in place; through ``map_rows`` (which must return ``fn``'s
    results in ascending range order) each range's slabs are collected
    and folded here in ascending q-block order — the inline fold order,
    so both give bitwise-equal gradients."""
    scale, block_q, runs, widths = _resolve_runs(
        q, k, mask, scale, block_q, block_k, bias, plan, label
    )
    dq = np.empty_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)
    if map_rows is None:
        _backward_rows(
            q, k, v, lse, d_stat, do, scale, block_q, runs, widths,
            range(len(runs)), dq, dk, dv,
        )
        return dq, dk, dv

    def fn(rows):
        return _backward_rows(
            q, k, v, lse, d_stat, do, scale, block_q, runs, widths, rows,
            dq,
        )

    for slabs in map_rows(fn, len(runs)):
        for k0, k1, dk_s, dv_s in slabs:
            dv[..., k0:k1, :] += dv_s
            dk[..., k0:k1, :] += dk_s
    return dq, dk, dv
