"""Mask-aware tile planning for the flash kernels.

The distributed layer already skips whole shard-pair tiles through
:meth:`repro.masks.MaskPattern.tile_state`, but inside a shard pair the
flash kernels used to compute every ``(block_q x block_k)`` sub-tile and
resolve partial masks as dense ``Sq x Sk`` arrays — ``O(N^2)`` memory and
roughly twice the necessary work under causal masking.  This module pushes
the mask structure *into* the kernel:

* :class:`TilePlan` classifies every ``(q-block, k-block)`` sub-tile as
  ``empty`` / ``full`` / ``partial`` directly from a
  :class:`~repro.masks.MaskPattern` and the global token-index arrays of
  the two shards, reusing the pattern's ``tile_state`` fast path.  The
  dense boolean mask is never materialised; boolean tiles are built lazily
  and only for ``partial`` sub-tiles.
* :class:`BiasTileCache` memoises additive-bias tiles (ALiBi) across ring
  steps: the bias depends only on relative offsets, so contiguous tiles
  with the same ``q0 - k0`` offset and shape share one tile no matter
  which shard pair asked for it.
* :data:`counters` tallies computed/skipped sub-tiles and (query, key)
  pairs — the machine-readable numbers the bench harness
  (``python -m repro.perf.bench``) and the tile-count invariants in
  :mod:`repro.testing.invariants` consume.

The flash kernels classify a dense ``mask=`` into the same states and
run both through one core (runs of non-empty sub-tiles, one GEMM per
run), so plan-driven and dense-mask outputs are bitwise equal, which the
golden fixtures and the property tests assert.  ``use_planning(False)``
restores the legacy dense shard-mask resolution — the bench harness times
it as the baseline.  The kernels resolve plans and account tiles on the
invoking thread only; the threaded backend's workers never touch a plan
or the counters.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.masks import MaskPattern
from repro.obs.metrics import MetricsRegistry, get_registry

#: Sub-tile classification codes (stored in ``TilePlan.states`` as int8).
EMPTY, PARTIAL, FULL = 0, 1, 2

_STATE_CODE = {"empty": EMPTY, "partial": PARTIAL, "full": FULL}


# --- execution accounting -----------------------------------------------------


#: Counter fields, in snapshot order.  Each is backed by a registry
#: counter named ``tileplan.<field>`` so one registry snapshot covers them.
_TILE_FIELDS = (
    "computed_full",
    "computed_partial",
    "skipped_empty",
    "computed_pairs",
    "skipped_pairs",
    "bias_tiles_built",
    "bias_tiles_reused",
)


class TileCounters:
    """Global tally of sub-tile work the plan-driven kernels performed.

    ``computed_pairs``/``skipped_pairs`` count (query, key) *positions*
    inside computed/skipped sub-tiles — the unit the FLOP invariants tie
    to the :mod:`repro.perf.cost` closed forms.

    The fields are properties over :class:`repro.obs.metrics.Counter`
    objects (``tileplan.*`` in the given registry — the process-global
    one for the module singleton), so ``counters.computed_full += n``
    keeps working verbatim while ``repro.obs`` sees the same numbers.

    The kernels account their work through :meth:`add`, always on the
    thread that invoked the kernel (never from a worker thread).
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        if registry is None:
            registry = MetricsRegistry()
        self._backing = {
            name: registry.counter(f"tileplan.{name}") for name in _TILE_FIELDS
        }

    def add(self, name: str, n: int = 1) -> None:
        """Account ``n`` into field ``name``."""
        self._backing[name]._value += n

    @contextmanager
    def backend_scope(self, backend: str):
        """Attribute the tile work of the enclosed kernel invocation to
        ``backend`` as labeled ``tileplan.*`` counter values.

        Reads the unlabeled totals before/after and adds the delta under
        a ``backend=<name>`` label, so ``repro.obs`` can break tile
        counts down per backend while the unlabeled fast path stays a
        single attribute add.
        """
        before = [self._backing[f]._value for f in _TILE_FIELDS]
        try:
            yield
        finally:
            for fname, prev in zip(_TILE_FIELDS, before):
                delta = self._backing[fname]._value - prev
                if delta:
                    self._backing[fname].inc(delta, backend=backend)

    @property
    def computed(self) -> int:
        return self.computed_full + self.computed_partial

    @property
    def total(self) -> int:
        return self.computed + self.skipped_empty

    @property
    def skip_fraction(self) -> float:
        return self.skipped_empty / self.total if self.total else 0.0

    def reset(self) -> None:
        for metric in self._backing.values():
            metric.reset()

    def snapshot(self) -> dict[str, int | float]:
        out: dict[str, int | float] = {
            name: getattr(self, name) for name in _TILE_FIELDS
        }
        out["tiles_computed"] = self.computed
        out["tiles_skipped"] = self.skipped_empty
        out["skip_fraction"] = self.skip_fraction
        return out


def _tile_counter_property(fname: str) -> property:
    def _get(self) -> int:
        return int(self._backing[fname]._value)

    def _set(self, value: int) -> None:
        self._backing[fname]._value = float(value)

    return property(_get, _set)


for _fname in _TILE_FIELDS:
    setattr(TileCounters, _fname, _tile_counter_property(_fname))
del _fname


#: Module-wide counters; reset before a measured region, snapshot after.
#: Backed by the global metrics registry (``tileplan.*`` counters).
counters = TileCounters(registry=get_registry())


# --- planning on/off switch ---------------------------------------------------

_PLANNING_ENABLED = True


def planning_enabled() -> bool:
    """Whether call sites should build tile plans (default) or fall back
    to legacy dense shard-mask resolution."""
    return _PLANNING_ENABLED


@contextmanager
def use_planning(enabled: bool = True):
    """Temporarily force tile planning on or off.

    ``use_planning(False)`` is the dense-mask baseline the bench harness
    measures speedups against; tests use it to assert the two paths agree.
    """
    global _PLANNING_ENABLED
    previous = _PLANNING_ENABLED
    _PLANNING_ENABLED = bool(enabled)
    try:
        yield
    finally:
        _PLANNING_ENABLED = previous


# --- bias tile cache ----------------------------------------------------------


class BiasTileCache:
    """Memoises additive-bias tiles across ring steps.

    A pattern opts in through :meth:`~repro.masks.MaskPattern.bias_cache_key`
    (ALiBi keys tiles by ``(q0 - k0, len_q, len_k)`` — its bias depends
    only on relative offsets).  Patterns returning ``None`` keys are
    recomputed every time, so the cache is always sound.
    """

    def __init__(self):
        self._tiles: dict = {}

    def get(
        self, mask: MaskPattern, q_idx: np.ndarray, k_idx: np.ndarray
    ) -> np.ndarray | None:
        key = mask.bias_cache_key(q_idx, k_idx)
        if key is None:
            counters.add("bias_tiles_built")
            return mask.bias_block(q_idx, k_idx)
        tile = self._tiles.get(key)
        if tile is None:
            tile = mask.bias_block(q_idx, k_idx)
            self._tiles[key] = tile
            counters.add("bias_tiles_built")
        else:
            counters.add("bias_tiles_reused")
        return tile

    def __len__(self) -> int:
        return len(self._tiles)


# --- the plan -----------------------------------------------------------------


def _block_bounds(n: int, block: int) -> list[tuple[int, int]]:
    return [(start, min(start + block, n)) for start in range(0, n, block)]


@dataclass
class TilePlan:
    """Sub-tile classification of one (query-shard, key-shard) pair.

    Built once per shard pair per pass; consumed by
    :func:`repro.kernels.flash_attention_forward` /
    :func:`~repro.kernels.flash_attention_backward`, which batch each
    row's maximal stretch of non-``EMPTY`` sub-tiles into one GEMM, run
    ``FULL`` sub-tiles without any mask handling, and materialise a
    boolean tile only for ``PARTIAL`` sub-tiles.
    """

    mask: MaskPattern | None
    q_idx: np.ndarray
    k_idx: np.ndarray
    block_q: int
    block_k: int
    states: np.ndarray  # (n_q_blocks, n_k_blocks) int8 of EMPTY/PARTIAL/FULL
    has_bias: bool = False
    bias_cache: BiasTileCache | None = None
    head_slice: slice | None = None
    _q_bounds: list[tuple[int, int]] = field(default_factory=list, repr=False)
    _k_bounds: list[tuple[int, int]] = field(default_factory=list, repr=False)
    _mask_tiles: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(
        cls,
        mask: MaskPattern | None,
        q_idx: np.ndarray,
        k_idx: np.ndarray,
        block_q: int,
        block_k: int,
        *,
        bias_cache: BiasTileCache | None = None,
        include_bias: bool = True,
        assume_full: bool = False,
        head_slice: slice | None = None,
    ) -> "TilePlan":
        """Classify every sub-tile from the pattern's ``tile_state``.

        ``assume_full`` short-circuits classification when the caller
        already knows the whole shard pair is ``full`` (the shard-level
        fast path); ``include_bias=False`` reproduces call sites that
        never forwarded the pattern's bias (TP, selective, the engine's
        local fallback).  The dense mask is never materialised.
        """
        q_idx = np.asarray(q_idx)
        k_idx = np.asarray(k_idx)
        q_bounds = _block_bounds(len(q_idx), block_q)
        k_bounds = _block_bounds(len(k_idx), block_k)
        states = np.full((len(q_bounds), len(k_bounds)), FULL, dtype=np.int8)
        if mask is not None and not assume_full:
            for i, (q0, q1) in enumerate(q_bounds):
                q_sub = q_idx[q0:q1]
                for j, (k0, k1) in enumerate(k_bounds):
                    states[i, j] = _STATE_CODE[
                        mask.tile_state(q_sub, k_idx[k0:k1])
                    ]
        has_bias = (
            include_bias
            and mask is not None
            and mask.bias_block(q_idx[:1], k_idx[:1]) is not None
        )
        return cls(
            mask=mask, q_idx=q_idx, k_idx=k_idx,
            block_q=block_q, block_k=block_k, states=states,
            has_bias=has_bias,
            bias_cache=bias_cache if has_bias else None,
            head_slice=head_slice,
            _q_bounds=q_bounds, _k_bounds=k_bounds,
        )

    # -- geometry -------------------------------------------------------------

    @property
    def n_q_blocks(self) -> int:
        return len(self._q_bounds)

    @property
    def n_k_blocks(self) -> int:
        return len(self._k_bounds)

    def check_geometry(self, sq: int, sk: int) -> None:
        if len(self.q_idx) != sq or len(self.k_idx) != sk:
            raise ValueError(
                f"plan covers ({len(self.q_idx)}, {len(self.k_idx)}) tokens "
                f"but the kernel got ({sq}, {sk})"
            )

    def q_range(self, i: int) -> tuple[int, int]:
        return self._q_bounds[i]

    def k_range(self, j: int) -> tuple[int, int]:
        return self._k_bounds[j]

    # -- per-tile resolution --------------------------------------------------

    def state(self, i: int, j: int) -> int:
        return int(self.states[i, j])

    def mask_tile(self, i: int, j: int) -> np.ndarray:
        """Boolean tile for a ``PARTIAL`` sub-tile (the only kind that
        ever materialises one).  Memoised so the backward pass (and any
        repeated traversal) reuses the forward's tiles instead of
        re-evaluating the pattern."""
        tile = self._mask_tiles.get((i, j))
        if tile is None:
            q0, q1 = self._q_bounds[i]
            k0, k1 = self._k_bounds[j]
            tile = self.mask.block(self.q_idx[q0:q1], self.k_idx[k0:k1])
            self._mask_tiles[(i, j)] = tile
        return tile

    def bias_tile(self, i: int, j: int) -> np.ndarray | None:
        if not self.has_bias:
            return None
        q0, q1 = self._q_bounds[i]
        k0, k1 = self._k_bounds[j]
        q_sub, k_sub = self.q_idx[q0:q1], self.k_idx[k0:k1]
        if self.bias_cache is not None:
            tile = self.bias_cache.get(self.mask, q_sub, k_sub)
        else:
            counters.add("bias_tiles_built")
            tile = self.mask.bias_block(q_sub, k_sub)
        if tile is not None and self.head_slice is not None:
            tile = tile[self.head_slice]
        return tile

    def with_head_slice(self, head_slice: slice) -> "TilePlan":
        """Shallow copy selecting a head range of the bias (Ulysses ranks
        share one plan and bias cache but see different head groups)."""
        return TilePlan(
            mask=self.mask, q_idx=self.q_idx, k_idx=self.k_idx,
            block_q=self.block_q, block_k=self.block_k, states=self.states,
            has_bias=self.has_bias, bias_cache=self.bias_cache,
            head_slice=head_slice,
            _q_bounds=self._q_bounds, _k_bounds=self._k_bounds,
            _mask_tiles=self._mask_tiles,
        )

    # -- accounting -----------------------------------------------------------

    @property
    def num_tiles(self) -> int:
        return int(self.states.size)

    @property
    def num_empty(self) -> int:
        return int((self.states == EMPTY).sum())

    @property
    def num_full(self) -> int:
        return int((self.states == FULL).sum())

    @property
    def num_partial(self) -> int:
        return int((self.states == PARTIAL).sum())

    @property
    def skip_fraction(self) -> float:
        return self.num_empty / self.num_tiles if self.num_tiles else 0.0

    def pair_counts(self) -> tuple[int, int]:
        """``(computed_pairs, skipped_pairs)`` summed over sub-tiles."""
        computed = skipped = 0
        for i, (q0, q1) in enumerate(self._q_bounds):
            for j, (k0, k1) in enumerate(self._k_bounds):
                area = (q1 - q0) * (k1 - k0)
                if self.states[i, j] == EMPTY:
                    skipped += area
                else:
                    computed += area
        return computed, skipped


def record_shard_skip(n_q: int, n_k: int, block_q: int, block_k: int) -> None:
    """Account a whole shard pair skipped at the shard-level fast path as
    if its plan had classified every sub-tile empty."""
    n_qb = -(-n_q // block_q)
    n_kb = -(-n_k // block_k)
    counters.add("skipped_empty", n_qb * n_kb)
    counters.add("skipped_pairs", n_q * n_k)
