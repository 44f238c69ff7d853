"""Block-wise sparse masks (Section 3.4 of the paper).

The sequence is divided into blocks of ``block_size`` tokens and a
``(n_blocks x n_blocks)`` boolean *block-masking matrix* ``M_blk`` states
which block pairs may attend (``M_blk[i, j] = 1`` iff every token of block
``i`` may attend to every token of block ``j``).  An optional
``intra_block_causal`` flag additionally applies token-level causality, so
common patterns like block-wise sliding-window attention stay autoregressive.
"""

from __future__ import annotations

import numpy as np

from repro.masks.patterns import MaskPattern


class BlockSparseMask(MaskPattern):
    """Token-level mask induced by a block-masking matrix.

    Parameters
    ----------
    block_size:
        Tokens per block (the paper's ``N_blk``).
    block_mask:
        Boolean ``(n_blocks, n_blocks)`` matrix; entry ``[i, j]`` allows
        block ``i``'s tokens to attend to block ``j``'s tokens.
    intra_block_causal:
        If ``True``, token-level causality ``k <= q`` is applied on top of
        the block structure (needed for autoregressive training).
    """

    def __init__(
        self,
        block_size: int,
        block_mask: np.ndarray,
        intra_block_causal: bool = True,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        # A private read-only copy: patterns are immutable (plans are
        # cached per pattern), so a later edit of the caller's array must
        # not reach this one.
        block_mask = np.array(block_mask, dtype=bool)
        block_mask.setflags(write=False)
        if block_mask.ndim != 2 or block_mask.shape[0] != block_mask.shape[1]:
            raise ValueError(f"block_mask must be square 2-D, got {block_mask.shape}")
        self.block_size = block_size
        self.block_mask = block_mask
        self.intra_block_causal = intra_block_causal

    @property
    def n_blocks(self) -> int:
        return self.block_mask.shape[0]

    @property
    def seq_len(self) -> int:
        return self.n_blocks * self.block_size

    def block(self, q_idx: np.ndarray, k_idx: np.ndarray) -> np.ndarray:
        qb = np.asarray(q_idx) // self.block_size
        kb = np.asarray(k_idx) // self.block_size
        if (qb >= self.n_blocks).any() or (kb >= self.n_blocks).any():
            raise ValueError(
                f"token index beyond mask extent ({self.seq_len} tokens)"
            )
        allowed = self.block_mask[qb[:, None], kb[None, :]]
        if self.intra_block_causal:
            allowed = allowed & (
                np.asarray(q_idx)[:, None] >= np.asarray(k_idx)[None, :]
            )
        return allowed

    def tile_state(self, q_idx: np.ndarray, k_idx: np.ndarray) -> str:
        """Block-level test that avoids materialising token tiles.

        Exact for ``empty``; ``full`` only without intra-block causality
        (with it, diagonal blocks are always partial at token level).
        """
        qb = np.unique(np.asarray(q_idx) // self.block_size)
        kb = np.unique(np.asarray(k_idx) // self.block_size)
        if (qb >= self.n_blocks).any() or (kb >= self.n_blocks).any():
            raise ValueError(
                f"token index beyond mask extent ({self.seq_len} tokens)"
            )
        sub = self.block_mask[np.ix_(qb, kb)]
        if not sub.any():
            return "empty"
        if self.intra_block_causal:
            if int(np.asarray(q_idx).min()) >= int(np.asarray(k_idx).max()) and sub.all():
                return "full"
            return "partial"
        return "full" if sub.all() else "partial"

    def block_density(self) -> float:
        """Fraction of allowed block pairs (compute saving upper bound)."""
        return float(self.block_mask.mean())


def sliding_window_block_mask(
    seq_len: int,
    block_size: int,
    window_blocks: int,
    causal: bool = True,
) -> BlockSparseMask:
    """Block-wise sliding-window attention (the paper's SWA setting).

    Block ``i`` attends to blocks ``i - window_blocks + 1 .. i`` (and only
    backwards when ``causal``).  With ``block_size = 32K`` over 1M tokens
    and ``window_blocks = 1`` this reproduces the Table 3 SWA workload.
    """
    if seq_len % block_size != 0:
        raise ValueError(
            f"seq_len {seq_len} is not a multiple of block_size {block_size}"
        )
    n_blocks = seq_len // block_size
    i = np.arange(n_blocks)
    diff = i[:, None] - i[None, :]
    if causal:
        allowed = (diff >= 0) & (diff < window_blocks)
    else:
        allowed = np.abs(diff) < window_blocks
    return BlockSparseMask(block_size, allowed, intra_block_causal=causal)
