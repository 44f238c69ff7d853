"""Mask-aware tile planning for the flash kernels.

The distributed layer skips whole shard-pair tiles through
:meth:`repro.masks.MaskPattern.tile_state`; inside a shard pair the flash
kernels skip, batch and mask ``(block_q x block_k)`` sub-tiles from a plan
instead of a dense ``Sq x Sk`` mask:

* :class:`TilePlan` classifies every sub-tile of one (query-shard,
  key-shard) pair as ``empty`` / ``full`` / ``partial`` directly from a
  :class:`~repro.masks.MaskPattern` and the two shards' global token
  indices, and resolves at build time everything a kernel invocation
  reads: each q-block's runs of non-empty sub-tiles (with the boolean
  tiles of ``partial`` sub-tiles and any bias tiles), each q-block's
  widest run (the scratch size) and the sub-tile census.  The dense mask
  is never materialised.
* :func:`resolve_tiles` is the one way call sites obtain a plan.  For a
  fixed pattern and partition a shard pair's plan is the same on every
  ring step, layer, checkpoint recompute and training step, so each is
  built once and cached per pattern object — weakly held, so a pattern's
  plans are dropped with it — keyed on both shards' index contents, the
  block size, ``include_bias`` and ``head_slice``.  Patterns are
  immutable (see :class:`~repro.masks.MaskPattern`), which is what makes
  the cache sound.
* :class:`BiasTileCache` shares additive-bias tiles (ALiBi) between the
  plans of one pattern: the bias depends only on relative offsets, so
  contiguous tiles with the same ``q0 - k0`` offset and shape share one
  tile no matter which shard pair asked for it.
* :data:`counters` tallies computed/skipped sub-tiles and (query, key)
  pairs — the machine-readable numbers the bench harness
  (``python -m repro.perf.bench``) and the tile-count invariants in
  :mod:`repro.testing.invariants` consume.  Every kernel invocation
  replays its plan's census, so a cached plan counts exactly what a
  freshly built one does.

The flash kernels classify a dense ``mask=`` into the same states and
resolve both through :func:`tile_runs`, so plan-driven and dense-mask
outputs are bitwise equal, which the golden fixtures and the property
tests assert.  ``use_planning(False)`` makes :func:`resolve_tiles` return
the legacy dense shard-pair mask and bias instead, uncached — the bench
harness times it as the baseline.  Plans are read-only once built; the
threaded backend's workers share their runs.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.masks import MaskPattern
from repro.obs.metrics import MetricsRegistry, get_registry, label_key

#: Sub-tile classification codes (stored in ``TilePlan.states`` as int8).
EMPTY, PARTIAL, FULL = 0, 1, 2

_STATE_CODE = {"empty": EMPTY, "partial": PARTIAL, "full": FULL}


# --- execution accounting -----------------------------------------------------


#: Counter fields, in snapshot (and census) order.  Each is backed by a
#: registry counter named ``tileplan.<field>`` so one registry snapshot
#: covers them.
_TILE_FIELDS = (
    "computed_full",
    "computed_partial",
    "skipped_empty",
    "computed_pairs",
    "skipped_pairs",
    "bias_tiles_built",
    "bias_tiles_reused",
)


def backend_label(name: str) -> str:
    """The registry label key tile counts of backend ``name`` go under."""
    return label_key({"backend": name})


class TileCounters:
    """Global tally of sub-tile work the plan-driven kernels performed.

    ``computed_pairs``/``skipped_pairs`` count (query, key) *positions*
    inside computed/skipped sub-tiles — the unit the FLOP invariants tie
    to the :mod:`repro.perf.cost` closed forms.  ``bias_tiles_built`` /
    ``bias_tiles_reused`` say how the invoked plans obtained their bias
    tiles when they were resolved: built, or shared with an earlier plan
    of the same pattern.

    The fields are properties over :class:`repro.obs.metrics.Counter`
    objects (``tileplan.*`` in the given registry — the process-global
    one for the module singleton), so ``counters.computed_full += n``
    keeps working verbatim while ``repro.obs`` sees the same numbers.

    The kernels account their work through :meth:`replay`, always on the
    thread that invoked the kernel (never from a worker thread).
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        if registry is None:
            registry = MetricsRegistry()
        self._backing = {
            name: registry.counter(f"tileplan.{name}") for name in _TILE_FIELDS
        }
        self._ordered = tuple(self._backing[name] for name in _TILE_FIELDS)

    def add(self, name: str, n: int = 1) -> None:
        """Account ``n`` into field ``name``."""
        self._backing[name]._value += n

    def replay(self, census: tuple[int, ...], label: str | None = None) -> None:
        """Account a plan's ``census`` (one count per field, in field
        order).  With ``label`` (a :func:`backend_label` key) every
        non-zero count is also added under that label, so ``repro.obs``
        can break tile counts down per kernel backend."""
        for metric, n in zip(self._ordered, census):
            if n:
                metric._value += n
                if label is not None:
                    metric.inc_key(label, n)

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
    """Whether :func:`resolve_tiles` hands out tile plans (default) or the
    legacy dense shard-pair mask and bias."""
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
    """Memoises additive-bias tiles across the plans of one pattern.

    A pattern opts in through :meth:`~repro.masks.MaskPattern.bias_cache_key`
    (ALiBi keys tiles by ``(q0 - k0, len_q, len_k)`` — its bias depends
    only on relative offsets).  Patterns returning ``None`` keys are
    recomputed every time, so the cache is always sound.
    """

    def __init__(self):
        self._tiles: dict = {}

    def get(
        self, mask: MaskPattern, q_idx: np.ndarray, k_idx: np.ndarray
    ) -> tuple[np.ndarray | None, bool]:
        """``(tile, reused)`` — ``reused`` when the tile came from the
        cache rather than from ``mask.bias_block``."""
        key = mask.bias_cache_key(q_idx, k_idx)
        if key is None:
            return mask.bias_block(q_idx, k_idx), False
        tile = self._tiles.get(key)
        if tile is not None:
            return tile, True
        tile = mask.bias_block(q_idx, k_idx)
        self._tiles[key] = tile
        return tile, False

    def __len__(self) -> int:
        return len(self._tiles)


# --- runs ---------------------------------------------------------------------


def tile_runs(states, sq, sk, block_q, block_k, mask_tile, bias_tile):
    """Resolve a grid of sub-tile states into the flash kernels' runs.

    Returns ``(runs, widths, census)``.  ``runs[i]`` lists q-block ``i``'s
    runs — maximal stretches of consecutive sub-tiles holding an allowed
    pair — as ``(k0, k1, edits)``: the key slab's token bounds and the
    ``(offset, end, blocked, bias)`` of every sub-tile inside it that
    needs a bias add or a ``-inf`` fill (``blocked`` is the negated
    boolean tile, or ``None``).  ``widths[i]`` is q-block ``i``'s widest
    run.  ``census`` holds ``computed_full, computed_partial,
    skipped_empty, computed_pairs, skipped_pairs``.

    ``bias_tile(i, j)`` is called for every non-``EMPTY`` sub-tile,
    ``mask_tile(i, j)`` only for ``PARTIAL`` ones; a partial sub-tile
    whose boolean tile holds no allowed pair ends a run exactly as an
    ``EMPTY`` one does, so a dense mask and a plan produce the same runs.
    """
    n_full = n_partial = n_empty = computed = skipped = 0
    runs = []
    widths = []
    for i, row in enumerate(states.tolist()):
        rows = min(block_q, sq - i * block_q)
        row_runs: list = []
        for j, state in enumerate(row):
            k0, k1 = j * block_k, min((j + 1) * block_k, sk)
            if state == EMPTY:
                n_empty += 1
                skipped += rows * (k1 - k0)
                continue
            computed += rows * (k1 - k0)
            b = bias_tile(i, j)
            blocked = None
            if state == FULL:
                n_full += 1
            else:
                n_partial += 1
                m = mask_tile(i, j)
                if not m.any():
                    continue
                blocked = ~m
            if row_runs and row_runs[-1][1] == k0:
                row_runs[-1][1] = k1
            else:
                row_runs.append([k0, k1, []])
            if blocked is not None or b is not None:
                start = row_runs[-1][0]
                row_runs[-1][2].append((k0 - start, k1 - start, blocked, b))
        runs.append(tuple((k0, k1, tuple(e)) for k0, k1, e in row_runs))
        widths.append(max((k1 - k0 for k0, k1, _ in row_runs), default=0))
    census = (n_full, n_partial, n_empty, computed, skipped)
    return tuple(runs), tuple(widths), census


# --- the plan -----------------------------------------------------------------


def _frozen(idx) -> np.ndarray:
    """A read-only private copy (a cached plan must not alias an array
    its caller may later change)."""
    idx = np.array(idx)
    idx.setflags(write=False)
    return idx


@dataclass(frozen=True, eq=False)
class TilePlan:
    """Sub-tile classification and resolved runs of one (query-shard,
    key-shard) pair.

    Built once per pattern, shard pair, block size and bias view (see
    :func:`resolve_tiles`) and read-only afterwards; consumed by
    :func:`repro.kernels.flash_attention_forward` /
    :func:`~repro.kernels.flash_attention_backward`, which run one GEMM
    per entry of :attr:`runs`, take ``FULL`` sub-tiles without any mask
    handling and fill ``-inf`` only into ``PARTIAL`` sub-tile columns.
    :attr:`census` is what each invocation adds to :data:`counters`
    (fields in :class:`TileCounters` order).  A plan holds no reference
    to its pattern, so a cached plan does not keep the pattern alive.
    """

    q_idx: np.ndarray
    k_idx: np.ndarray
    block_q: int
    block_k: int
    states: np.ndarray  # (n_q_blocks, n_k_blocks) int8 of EMPTY/PARTIAL/FULL
    runs: tuple = field(repr=False)
    widths: tuple = field(repr=False)
    census: tuple

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
        assume_empty: bool = False,
        head_slice: slice | None = None,
    ) -> "TilePlan":
        """Classify every sub-tile from the pattern's ``tile_state`` and
        resolve the runs.

        ``assume_full``/``assume_empty`` short-circuit classification when
        the caller already knows the whole shard pair's state (the
        shard-level test); ``include_bias=False`` reproduces call sites
        that never forwarded the pattern's bias (TP, selective, the
        engine's local paths); ``head_slice`` selects a head range of the
        bias tiles (Ulysses ranks each hold one head group).  The dense
        mask is never materialised.
        """
        q_idx, k_idx = _frozen(q_idx), _frozen(k_idx)
        sq, sk = len(q_idx), len(k_idx)
        shape = (-(-sq // block_q), -(-sk // block_k))
        states = np.full(shape, EMPTY if assume_empty else FULL, np.int8)
        if mask is not None and not (assume_full or assume_empty):
            for i in range(shape[0]):
                q_sub = q_idx[i * block_q:(i + 1) * block_q]
                for j in range(shape[1]):
                    states[i, j] = _STATE_CODE[
                        mask.tile_state(q_sub, k_idx[j * block_k:(j + 1) * block_k])
                    ]
        states.setflags(write=False)
        has_bias = (
            include_bias
            and mask is not None
            and mask.bias_block(q_idx[:1], k_idx[:1]) is not None
        )
        bias_counts = [0, 0]  # built, reused

        def subs(i, j):
            return (q_idx[i * block_q:(i + 1) * block_q],
                    k_idx[j * block_k:(j + 1) * block_k])

        def bias_tile(i, j):
            if not has_bias:
                return None
            if bias_cache is None:
                tile, reused = mask.bias_block(*subs(i, j)), False
            else:
                tile, reused = bias_cache.get(mask, *subs(i, j))
            bias_counts[reused] += 1
            if tile is not None and head_slice is not None:
                tile = tile[head_slice]
            return tile

        runs, widths, census = tile_runs(
            states, sq, sk, block_q, block_k,
            lambda i, j: mask.block(*subs(i, j)), bias_tile,
        )
        return cls(
            q_idx=q_idx, k_idx=k_idx,
            block_q=block_q, block_k=block_k, states=states,
            runs=runs, widths=widths, census=census + tuple(bias_counts),
        )

    # -- geometry -------------------------------------------------------------

    @property
    def n_q_blocks(self) -> int:
        return self.states.shape[0]

    @property
    def n_k_blocks(self) -> int:
        return self.states.shape[1]

    def check_geometry(self, sq: int, sk: int) -> None:
        if len(self.q_idx) != sq or len(self.k_idx) != sk:
            raise ValueError(
                f"plan covers ({len(self.q_idx)}, {len(self.k_idx)}) tokens "
                f"but the kernel got ({sq}, {sk})"
            )

    def q_range(self, i: int) -> tuple[int, int]:
        return i * self.block_q, min((i + 1) * self.block_q, len(self.q_idx))

    def k_range(self, j: int) -> tuple[int, int]:
        return j * self.block_k, min((j + 1) * self.block_k, len(self.k_idx))

    # -- accounting -----------------------------------------------------------

    def state(self, i: int, j: int) -> int:
        return int(self.states[i, j])

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
        return self.census[3], self.census[4]


# --- the resolver -------------------------------------------------------------


class _PatternPlans:
    """The cached resolutions of one pattern and its shared bias tiles."""

    __slots__ = ("ref", "plans", "bias")

    def __init__(self, ref: weakref.ref):
        self.ref = ref
        self.plans: dict = {}
        self.bias = BiasTileCache()


#: ``id(pattern) -> _PatternPlans``; an entry leaves with its pattern.
_RESOLVED: dict[int, _PatternPlans] = {}


def _pattern_plans(mask: MaskPattern) -> _PatternPlans:
    key = id(mask)
    entry = _RESOLVED.get(key)
    if entry is None or entry.ref() is not mask:

        def forget(ref, resolved=_RESOLVED):
            # Binds the dict: module globals may already be gone when a
            # pattern dies at interpreter exit.
            if getattr(resolved.get(key), "ref", None) is ref:
                del resolved[key]

        entry = _RESOLVED[key] = _PatternPlans(weakref.ref(mask, forget))
    return entry


def resolve_tiles(
    mask: MaskPattern | None,
    q_idx: np.ndarray,
    k_idx: np.ndarray,
    block_size: int,
    *,
    include_bias: bool = True,
    head_slice: slice | None = None,
    allow_skip: bool = True,
) -> tuple[bool, TilePlan | None, np.ndarray | None, np.ndarray | None]:
    """How a kernel should see one (query-shard, key-shard) pair.

    Returns ``(skip, plan, dense_tile, dense_bias)``.  ``skip`` means the
    whole pair is masked: its census has been accounted as skipped and
    the caller runs no kernel.  Callers that must produce an output for
    every pair (the single-device paths) pass ``allow_skip=False`` and
    get a plan of ``EMPTY`` sub-tiles instead.  With planning enabled
    (the default) the pair comes back as a cached :class:`TilePlan`,
    built on first use; with ``use_planning(False)`` the legacy
    uncached ``(dense_tile, dense_bias)`` arrays are returned instead
    (``None`` tile = unmasked), which is the baseline the bench harness
    measures against.  ``head_slice`` selects a head range of the bias.
    """
    if mask is None:
        return False, None, None, None
    q_idx, k_idx = np.asarray(q_idx), np.asarray(k_idx)
    if not _PLANNING_ENABLED:
        state = mask.tile_state(q_idx, k_idx)
        if state == "empty" and allow_skip:
            return True, None, None, None
        tile = None if state == "full" else mask.block(q_idx, k_idx)
        bias = mask.bias_block(q_idx, k_idx) if include_bias else None
        if bias is not None and head_slice is not None:
            bias = bias[head_slice]
        return False, None, tile, bias
    entry = _pattern_plans(mask)
    key = (
        q_idx.dtype, q_idx.tobytes(), k_idx.dtype, k_idx.tobytes(),
        block_size, include_bias,
        None if head_slice is None
        else (head_slice.start, head_slice.stop, head_slice.step),
    )
    resolved = entry.plans.get(key)
    if resolved is None:
        state = mask.tile_state(q_idx, k_idx)
        plan = TilePlan.build(
            mask, q_idx, k_idx, block_size, block_size,
            bias_cache=entry.bias, include_bias=include_bias,
            assume_full=state == "full", assume_empty=state == "empty",
            head_slice=head_slice,
        )
        resolved = entry.plans[key] = (state == "empty", plan)
    empty, plan = resolved
    if empty and allow_skip:
        counters.replay(plan.census)
        return True, None, None, None
    return False, plan, None, None
