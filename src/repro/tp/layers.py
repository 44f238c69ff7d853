"""Megatron-style tensor-parallel layers as autograd Functions.

Both fused blocks follow the canonical TP pattern:

* first projection(s) **column-parallel** — weight rows sharded, input
  replicated, activations come out feature-sharded, no communication;
* second projection **row-parallel** — weight columns sharded, partial
  outputs summed with an **all-reduce** (one per sub-block per
  direction; the backward all-reduces the partial input gradients).

All per-rank arithmetic is executed for real (shard products summed via
the logged ``all_reduce``), so numerics match the unsharded layer to
float64 precision and the traffic log carries TP's true volume:
``2 * S * D`` elements all-reduced per sub-block per step.
"""

from __future__ import annotations

import numpy as np

from repro.comm import SimCommunicator
from repro.kernels import get_backend, resolve_tiles
from repro.masks import MaskPattern
from repro.nn.function import Function
from repro.nn.tensor import Tensor


def shard_rows(w: np.ndarray, g: int) -> list[np.ndarray]:
    """Split a weight along its output (row) dimension."""
    if w.shape[0] % g != 0:
        raise ValueError(f"rows {w.shape[0]} not divisible by {g} ranks")
    step = w.shape[0] // g
    return [w[r * step : (r + 1) * step] for r in range(g)]


def shard_columns(w: np.ndarray, g: int) -> list[np.ndarray]:
    """Split a weight along its input (column) dimension."""
    if w.shape[1] % g != 0:
        raise ValueError(f"columns {w.shape[1]} not divisible by {g} ranks")
    step = w.shape[1] // g
    return [w[:, r * step : (r + 1) * step] for r in range(g)]


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def _dsilu(x: np.ndarray) -> np.ndarray:
    sig = 1.0 / (1.0 + np.exp(-x))
    return sig * (1.0 + x * (1.0 - sig))


class TPMLPFn(Function):
    """Tensor-parallel SwiGLU: column-parallel gate/up, row-parallel down."""

    def forward(self, x, w_gate, w_up, w_down, comm: SimCommunicator = None,
                phase: str = "tp-mlp"):
        if comm is None:
            raise ValueError("tp_mlp requires comm=")
        g = comm.world_size
        self.comm, self.phase, self.g = comm, phase, g
        wg = shard_rows(w_gate, g)
        wu = shard_rows(w_up, g)
        wd = shard_columns(w_down, g)

        gates, ups, hs, partials = [], [], [], []
        for r in range(g):
            g_r = x @ wg[r].T
            u_r = x @ wu[r].T
            h_r = _silu(g_r) * u_r
            gates.append(g_r)
            ups.append(u_r)
            hs.append(h_r)
            partials.append(h_r @ wd[r].T)
        y = comm.all_reduce(partials, phase=phase, tag="mlp-fwd-ar")[0]
        self.save_for_backward(x, *gates, *ups, *hs)
        self.shards = (wg, wu, wd)
        return y

    def backward(self, dy):
        g = self.g
        x = self.saved[0]
        gates = self.saved[1 : 1 + g]
        ups = self.saved[1 + g : 1 + 2 * g]
        hs = self.saved[1 + 2 * g : 1 + 3 * g]
        wg, wu, wd = self.shards

        dx_parts, dwg, dwu, dwd = [], [], [], []
        for r in range(g):
            dh_r = dy @ wd[r]
            dwd.append(dy.T @ hs[r])
            du_r = dh_r * _silu(gates[r])
            dg_r = dh_r * ups[r] * _dsilu(gates[r])
            dx_parts.append(dg_r @ wg[r] + du_r @ wu[r])
            dwg.append(dg_r.T @ x)
            dwu.append(du_r.T @ x)
        dx = self.comm.all_reduce(dx_parts, phase=self.phase,
                                  tag="mlp-bwd-ar")[0]
        return (
            dx,
            np.concatenate(dwg, axis=0),
            np.concatenate(dwu, axis=0),
            np.concatenate(dwd, axis=1),
        )


class TPAttentionFn(Function):
    """Tensor-parallel attention: heads sharded across ranks.

    Column-parallel Wq/Wk/Wv (each rank projects its own head group),
    local flash attention per head group, row-parallel Wo with a forward
    all-reduce.  The sequence stays *full-length on every rank* — TP's
    defining property and its long-context downfall.
    """

    def forward(self, x, wq, wk, wv, wo, comm: SimCommunicator = None,
                n_heads: int = 1, mask: MaskPattern | None = None,
                scale: float | None = None, block_size: int = 128,
                phase: str = "tp-attn"):
        if comm is None:
            raise ValueError("tp_attention requires comm=")
        g = comm.world_size
        if n_heads % g != 0:
            raise ValueError(f"{n_heads} heads not divisible by {g} TP ranks")
        s, d = x.shape
        hd = d // n_heads
        hh = n_heads // g
        if scale is None:
            scale = 1.0 / np.sqrt(hd)
        # TP ranks all see the full sequence, so one plan (without bias —
        # this path has never forwarded one) serves every head group; with
        # planning off, the dense mask does.
        _, plan, dense, _ = resolve_tiles(
            mask, np.arange(s), np.arange(s), block_size,
            include_bias=False, allow_skip=False,
        )
        self.comm, self.phase, self.g = comm, phase, g
        self.geom = (s, d, n_heads, hd, hh, scale, block_size)
        self.mask_dense = dense
        self.plan = plan

        wq_s, wk_s, wv_s = shard_rows(wq, g), shard_rows(wk, g), shard_rows(wv, g)
        wo_s = shard_columns(wo, g)
        qs, ks, vs, os_, lses, oflats, partials = [], [], [], [], [], [], []
        for r in range(g):
            q_r = (x @ wq_s[r].T).reshape(s, hh, hd).swapaxes(0, 1)
            k_r = (x @ wk_s[r].T).reshape(s, hh, hd).swapaxes(0, 1)
            v_r = (x @ wv_s[r].T).reshape(s, hh, hd).swapaxes(0, 1)
            o_r, lse_r = get_backend().flash_forward(
                q_r, k_r, v_r, mask=dense, scale=scale,
                block_q=block_size, block_k=block_size,
                plan=plan,
            )
            o_flat = o_r.swapaxes(0, 1).reshape(s, hh * hd)
            qs.append(q_r); ks.append(k_r); vs.append(v_r)
            os_.append(o_r); lses.append(lse_r); oflats.append(o_flat)
            partials.append(o_flat @ wo_s[r].T)
        y = comm.all_reduce(partials, phase=phase, tag="attn-fwd-ar")[0]
        self.save_for_backward(x, *qs, *ks, *vs, *os_, *lses, *oflats)
        self.shards = (wq_s, wk_s, wv_s, wo_s)
        return y

    def backward(self, dy):
        g = self.g
        s, d, n_heads, hd, hh, scale, block_size = self.geom
        x = self.saved[0]
        grab = lambda i: self.saved[1 + i * g : 1 + (i + 1) * g]
        qs, ks, vs, os_, lses, oflats = (grab(i) for i in range(6))
        wq_s, wk_s, wv_s, wo_s = self.shards

        dx_parts, dwq, dwk, dwv, dwo = [], [], [], [], []
        for r in range(g):
            do_flat = dy @ wo_s[r]
            dwo.append(dy.T @ oflats[r])
            do_r = do_flat.reshape(s, hh, hd).swapaxes(0, 1)
            dq_r, dk_r, dv_r = get_backend().flash_backward(
                qs[r], ks[r], vs[r], os_[r], lses[r], do_r,
                mask=self.mask_dense, scale=scale,
                block_q=block_size, block_k=block_size,
                plan=self.plan,
            )
            dq_f = dq_r.swapaxes(0, 1).reshape(s, hh * hd)
            dk_f = dk_r.swapaxes(0, 1).reshape(s, hh * hd)
            dv_f = dv_r.swapaxes(0, 1).reshape(s, hh * hd)
            dx_parts.append(dq_f @ wq_s[r] + dk_f @ wk_s[r] + dv_f @ wv_s[r])
            dwq.append(dq_f.T @ x)
            dwk.append(dk_f.T @ x)
            dwv.append(dv_f.T @ x)
        dx = self.comm.all_reduce(dx_parts, phase=self.phase,
                                  tag="attn-bwd-ar")[0]
        return (
            dx,
            np.concatenate(dwq, axis=0),
            np.concatenate(dwk, axis=0),
            np.concatenate(dwv, axis=0),
            np.concatenate(dwo, axis=1),
        )


def tp_mlp(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor,
           comm: SimCommunicator) -> Tensor:
    """Differentiable tensor-parallel SwiGLU block."""
    return TPMLPFn.apply(x, w_gate, w_up, w_down, comm=comm)


def tp_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                 comm: SimCommunicator, n_heads: int,
                 mask: MaskPattern | None = None,
                 block_size: int = 128) -> Tensor:
    """Differentiable tensor-parallel attention block."""
    return TPAttentionFn.apply(
        x, wq, wk, wv, wo, comm=comm, n_heads=n_heads, mask=mask,
        block_size=block_size,
    )
