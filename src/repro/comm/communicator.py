"""The simulated SPMD communicator.

:class:`SimCommunicator` executes collective operations for *all* ranks at
once.  Per-rank data is passed as a list indexed by global rank; each entry
may be a numpy array or any pytree of arrays (tuples/lists/dicts).  The
communicator both moves the data (copying, so sender buffers can be reused
exactly as with real double-buffered NCCL transfers) and appends one
:class:`~repro.comm.traffic.TransferRecord` per point-to-point hop.

Collectives that real NCCL implements with ring algorithms (all-gather,
reduce-scatter, all-reduce) are *logged* as their ring realisations so the
recorded per-link traffic matches what the hardware would carry, while the
numerics are computed directly.

Interception
------------
Every op runs through one ordered chain of *interceptors* (outermost
first).  An interceptor is any object with ``intercept(ctx, proceed)``: it
sees the op's :class:`OpContext`, calls ``proceed()`` to run the rest of
the chain (again, to re-issue the op), and returns the delivery.  The
innermost step is fixed: it moves the data, writes the traffic log and
opens the ``comm.<op>`` span, so the log is written in exactly one place
and every re-issued op (a checksum retry) is logged and traced like the
first.  Fault injectors (:class:`TargetedFault` subclasses) install
themselves as the innermost interceptor; checksum-retry
(:class:`~repro.resilience.comm.ChecksumRetry`) and lease detection
(:class:`~repro.comm.FailureDetector`) are passed in ``interceptors=``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from repro.comm.traffic import TrafficLog, TransferRecord
from repro.obs.tracer import NOOP_SPAN, trace_span
from repro.topology import ClusterTopology
from repro.utils.pytree import tree_flatten, tree_map


#: Process-wide issue order of traced communicator ops; gives every
#: ``comm.*`` span a monotonically increasing ``call`` attribute so the
#: flow-event deriver (:mod:`repro.obs.flow`) can chain producer→consumer
#: edges deterministically even when wall-clock timestamps tie.
_CALL_SEQ = itertools.count(1)

#: Ops that hand each receiving rank one sender's buffer unchanged.  These
#: are the ops checksum-retry can verify and message faults can damage.
DELIVERY_OPS = frozenset(
    {"send", "exchange", "ring_shift", "all_to_all", "group_all_to_all"}
)


class OpContext:
    """One communicator op on its way through the interceptor chain.

    ``op`` / ``phase`` (the logical phase) / ``tag`` (as passed) /
    ``channel`` label the op; ``operands`` is its data argument (``bufs``,
    ``chunks``, ``payload``, ...); ``call`` is its 1-based index among the
    ops issued on this communicator, shared by every re-issue.  ``timing``
    is the per-rank :class:`~repro.comm.OpTiming` a rank fault reports for
    the lease detector (``None``: every rank answered nominally).

    :attr:`sources` and :attr:`participants` are computed on first access,
    so a chain that never asks pays nothing for them.
    """

    __slots__ = ("op", "phase", "tag", "channel", "operands", "call",
                 "timing", "_deliver", "_sources", "_participants")

    def __init__(self, op, phase, tag, channel, operands, call, deliver,
                 sources, participants):
        self.op = op
        self.phase = phase
        self.tag = tag
        self.channel = channel
        self.operands = operands
        self.call = call
        self.timing = None
        self._deliver = deliver
        self._sources = sources
        self._participants = participants

    @property
    def sources(self) -> dict[int, object] | None:
        """Receiving rank -> the sender buffer it must get, for the
        :data:`DELIVERY_OPS` (``None`` for the reducing collectives)."""
        if callable(self._sources):
            self._sources = self._sources()
        return self._sources

    @property
    def participants(self) -> Sequence[int]:
        """The ranks taking part in the op."""
        if callable(self._participants):
            self._participants = self._participants()
        return self._participants


class SimCommunicator:
    """Single-process stand-in for a NCCL/MPI communicator.

    Parameters
    ----------
    topology:
        Cluster layout used to classify each hop as intra- or inter-node.
    log:
        Optional shared :class:`TrafficLog`; a fresh one is created if
        omitted and is available as :attr:`log`.
    interceptors:
        The interceptor chain, outermost first (see the module docstring).
    """

    def __init__(
        self,
        topology: ClusterTopology,
        log: TrafficLog | None = None,
        interceptors: Sequence[object] = (),
    ):
        self.topology = topology
        self.log = log if log is not None else TrafficLog()
        self.interceptors = tuple(interceptors)
        self.calls = 0

    @property
    def world_size(self) -> int:
        return self.topology.world_size

    def on_step_start(self, step: int) -> None:
        """Training-step boundary: forwarded to every interceptor that
        defines ``on_step_start`` (rank faults, the lease detector)."""
        for icpt in self.interceptors:
            hook = getattr(icpt, "on_step_start", None)
            if hook is not None and icpt is not self:
                hook(step)

    # --- internals -----------------------------------------------------------

    def _run(self, op: str, phase: str, tag: str, operands: object,
             deliver: Callable[[], object], *, channel: str = "fwd",
             sources=None, participants=None) -> object:
        """Run one op through the interceptor chain.

        ``deliver`` moves and logs the data; ``sources`` / ``participants``
        are the op's :class:`OpContext` facts, as values or as callables
        evaluated on first access (participants default to every rank).
        """
        self.calls += 1
        ctx = OpContext(
            op, phase, tag, channel, operands, self.calls, deliver, sources,
            range(self.world_size) if participants is None else participants,
        )
        return self._proceed(ctx, 0)

    def _proceed(self, ctx: OpContext, i: int) -> object:
        if i < len(self.interceptors):
            return self.interceptors[i].intercept(
                ctx, lambda: self._proceed(ctx, i + 1)
            )
        # The innermost step: move the data, log it, trace it.
        span = trace_span(f"comm.{ctx.op}", phase="comm", logical=ctx.phase,
                          tag=ctx.tag)
        if span is NOOP_SPAN:
            return ctx._deliver()
        mark = len(self.log.records)
        with span:
            out = ctx._deliver()
            new = self.log.records[mark:]
            span["transfers"] = len(new)
            span["nbytes"] = sum(r.nbytes for r in new)
            span["op"] = ctx.op
            span["channel"] = ctx.channel
            span["call"] = next(_CALL_SEQ)
        return out

    def _check_bufs(self, bufs: Sequence[object]) -> None:
        if len(bufs) != self.world_size:
            raise ValueError(
                f"expected one buffer per rank ({self.world_size}), got {len(bufs)}"
            )

    def _record(
        self,
        src: int,
        dst: int,
        tree: object,
        phase: str,
        tag: str,
        channel: str = "fwd",
    ) -> None:
        leaves, _ = tree_flatten(tree)
        nbytes = sum(leaf.nbytes for leaf in leaves)
        nelems = sum(leaf.size for leaf in leaves)
        self.log.add(
            TransferRecord(
                src=src,
                dst=dst,
                nbytes=nbytes,
                nelems=nelems,
                link=self.topology.link_class(src, dst),
                phase=phase,
                tag=tag,
                channel=channel,
            )
        )

    # --- point-to-point --------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        payload: object,
        *,
        phase: str,
        tag: str = "",
    ) -> object:
        """Single point-to-point transfer; returns the received copy.

        Used by selective (sparsity-aware) communication patterns that
        fetch only the shards a mask actually needs, instead of ring-
        circulating everything.
        """

        def deliver():
            if not 0 <= src < self.world_size or not 0 <= dst < self.world_size:
                raise ValueError(f"rank out of range: {src} -> {dst}")
            if src != dst:
                self._record(src, dst, payload, phase, tag or "p2p")
            return tree_map(np.copy, payload)

        return self._run("send", phase, tag, payload, deliver,
                         sources=lambda: {dst: payload},
                         participants=(src, dst))

    def exchange(
        self,
        bufs: Sequence[object],
        dest_of: Sequence[int],
        *,
        phase: str,
        tag: str = "",
        channel: str = "fwd",
    ) -> list[object]:
        """Generic permutation send: rank ``r`` sends its buffer to
        ``dest_of[r]``.  ``dest_of`` must be a permutation of the ranks.
        Returns the received buffer per rank (deep-copied).  ``channel``
        attributes the transfers to a ring direction in the traffic log.
        """

        def deliver():
            self._check_bufs(bufs)
            if sorted(dest_of) != list(range(self.world_size)):
                raise ValueError("dest_of must be a permutation of all ranks")
            received: list[object] = [None] * self.world_size
            for src, dst in enumerate(dest_of):
                if src != dst:
                    self._record(src, dst, bufs[src], phase, tag, channel=channel)
                received[dst] = tree_map(np.copy, bufs[src])
            return received

        def sources():
            expected = dict.fromkeys(range(len(bufs)))
            for src, dst in enumerate(dest_of):
                expected[dst] = bufs[src]
            return expected

        return self._run("exchange", phase, tag, bufs, deliver,
                         channel=channel, sources=sources)

    # --- ring primitives ---------------------------------------------------------

    def ring_shift(
        self,
        bufs: Sequence[object],
        ring: Sequence[int],
        *,
        phase: str,
        tag: str = "",
        reverse: bool = False,
    ) -> list[object]:
        """One ring step along ``ring``: each listed rank sends its buffer to
        its successor in the ring and receives from its predecessor.  Ranks
        not in ``ring`` keep their buffers untouched (identity, no copy).

        With ``reverse=True`` the data flows the other way — each rank sends
        to its *predecessor* — exactly inverting the forward step.  Reverse
        transfers are attributed to the ``"rev"`` channel in the traffic
        log, modelling the second direction of a full-duplex P2P link.
        """
        step = -1 if reverse else 1
        channel = "rev" if reverse else "fwd"

        def deliver():
            self._check_bufs(bufs)
            k = len(ring)
            if k != len(set(ring)):
                raise ValueError("ring contains duplicate ranks")
            out: list[object] = list(bufs)
            for pos in range(k):
                src = ring[pos]
                dst = ring[(pos + step) % k]
                if src != dst:
                    self._record(src, dst, bufs[src], phase, tag, channel=channel)
                out[dst] = tree_map(np.copy, bufs[src])
            return out

        def sources():
            expected = dict(enumerate(bufs))
            k = len(ring)
            for pos in range(k):
                expected[ring[(pos + step) % k]] = bufs[ring[pos]]
            return expected

        return self._run("ring_shift", phase, tag, bufs, deliver,
                         channel=channel, sources=sources, participants=ring)

    # --- collectives ---------------------------------------------------------

    def all_gather(
        self,
        shards: Sequence[np.ndarray],
        *,
        axis: int = 0,
        phase: str,
        tag: str = "",
    ) -> list[np.ndarray]:
        """All-gather along ``axis`` using the ring realisation for logging.

        Every rank receives ``concat(shards, axis)``.  The ring algorithm
        forwards each shard ``G - 1`` hops, which is what gets logged.
        """

        def deliver():
            self._check_bufs(shards)
            g = self.world_size
            ring = self.topology.global_ring()
            # Ring all-gather: at step t, rank ring[p] sends the shard that
            # originated at ring[(p - t) % g] to ring[(p + 1) % g].
            for t in range(g - 1):
                for p in range(g):
                    src = ring[p]
                    dst = ring[(p + 1) % g]
                    origin = ring[(p - t) % g]
                    if src != dst:
                        self._record(src, dst, shards[origin], phase,
                                     tag or "all_gather")
            full = np.concatenate(list(shards), axis=axis)
            return [full.copy() for _ in range(g)]

        return self._run("all_gather", phase, tag, shards, deliver)

    def reduce_scatter(
        self,
        contributions: Sequence[Sequence[np.ndarray]],
        *,
        phase: str,
        tag: str = "",
    ) -> list[np.ndarray]:
        """Reduce-scatter with summation.

        ``contributions[r][j]`` is rank ``r``'s addend destined for rank
        ``j``.  Rank ``j`` receives ``sum_r contributions[r][j]``.  Logged as
        the ring realisation: each rank sends ``G - 1`` partial chunks.
        """

        def deliver():
            self._check_bufs(contributions)
            g = self.world_size
            for r, chunks in enumerate(contributions):
                if len(chunks) != g:
                    raise ValueError(
                        f"rank {r} contributed {len(chunks)} chunks, expected {g}"
                    )
            ring = self.topology.global_ring()
            # Ring reduce-scatter: at step t, rank ring[p] sends the partial
            # sum for destination ring[(p - t) % g] onward.
            for t in range(g - 1):
                for p in range(g):
                    src = ring[p]
                    dst = ring[(p + 1) % g]
                    dest_chunk = ring[(p - t) % g]
                    if src != dst:
                        self._record(
                            src, dst, contributions[src][dest_chunk], phase,
                            tag or "reduce_scatter",
                        )
            out: list[np.ndarray] = []
            for j in range(g):
                acc = np.zeros_like(contributions[0][j])
                for r in range(g):
                    acc = acc + contributions[r][j]
                out.append(acc)
            return out

        return self._run("reduce_scatter", phase, tag, contributions, deliver)

    def all_reduce(
        self,
        bufs: Sequence[np.ndarray],
        *,
        phase: str,
        tag: str = "",
    ) -> list[np.ndarray]:
        """Sum all-reduce, logged as ring reduce-scatter + all-gather."""

        def deliver():
            self._check_bufs(bufs)
            g = self.world_size
            total = np.zeros_like(bufs[0])
            for buf in bufs:
                if buf.shape != bufs[0].shape:
                    raise ValueError(
                        "all_reduce requires identical shapes on all ranks"
                    )
                total = total + buf
            # Ring all-reduce traffic: each rank sends 2 * (G - 1) chunks of
            # size |buf| / G.
            ring = self.topology.global_ring()
            for t in range(2 * (g - 1)):
                for p in range(g):
                    src = ring[p]
                    dst = ring[(p + 1) % g]
                    if src == dst:
                        continue
                    self.log.add(
                        TransferRecord(
                            src=src,
                            dst=dst,
                            nbytes=bufs[src].nbytes // g,
                            nelems=bufs[src].size // g,
                            link=self.topology.link_class(src, dst),
                            phase=phase,
                            tag=tag or "all_reduce",
                        )
                    )
            return [total.copy() for _ in range(g)]

        return self._run("all_reduce", phase, tag, bufs, deliver)

    def all_to_all(
        self,
        chunks: Sequence[Sequence[object]],
        *,
        phase: str,
        tag: str = "",
    ) -> list[list[object]]:
        """All-to-all: rank ``j`` receives ``[chunks[0][j], ..., chunks[G-1][j]]``.

        This is the collective at the heart of DeepSpeed-Ulysses head
        parallelism.  Every off-diagonal chunk is one logged transfer.
        """

        def deliver():
            self._check_bufs(chunks)
            g = self.world_size
            for r, row in enumerate(chunks):
                if len(row) != g:
                    raise ValueError(
                        f"rank {r} provided {len(row)} chunks, expected {g}"
                    )
            out: list[list[object]] = [[None] * g for _ in range(g)]
            for src in range(g):
                for dst in range(g):
                    if src != dst:
                        self._record(src, dst, chunks[src][dst], phase,
                                     tag or "all_to_all")
                    out[dst][src] = tree_map(np.copy, chunks[src][dst])
            return out

        def sources():
            g = len(chunks)
            return {dst: [chunks[src][dst] for src in range(g)]
                    for dst in range(g)}

        return self._run("all_to_all", phase, tag, chunks, deliver,
                         sources=sources)

    def group_all_to_all(
        self,
        chunks: Sequence[Sequence[object]],
        groups: Sequence[Sequence[int]],
        *,
        phase: str,
        tag: str = "",
    ) -> list[list[object]]:
        """All-to-all restricted to disjoint rank groups.

        ``groups`` partitions (a subset of) the ranks; rank ``r`` in a group
        of size ``u`` provides ``chunks[r]`` with ``u`` entries and receives
        the ``u`` chunks addressed to it by its group peers (ordered by
        position in the group).  This is the collective DeepSpeed-Ulysses
        runs inside each head-parallel group.
        """

        def deliver():
            self._check_bufs(chunks)
            seen: set[int] = set()
            for grp in groups:
                for r in grp:
                    if r in seen:
                        raise ValueError(f"rank {r} appears in multiple groups")
                    seen.add(r)
            out: list[list[object]] = [None] * self.world_size  # type: ignore[list-item]
            for grp in groups:
                u = len(grp)
                for r in grp:
                    if len(chunks[r]) != u:
                        raise ValueError(
                            f"rank {r} provided {len(chunks[r])} chunks for a "
                            f"group of size {u}"
                        )
                for dst_pos, dst in enumerate(grp):
                    row = []
                    for src in grp:
                        if src != dst:
                            self._record(
                                src, dst, chunks[src][dst_pos], phase,
                                tag or "group_all_to_all",
                            )
                        row.append(tree_map(np.copy, chunks[src][dst_pos]))
                    out[dst] = row
            return out

        def sources():
            expected = dict.fromkeys(range(self.world_size))
            for grp in groups:
                for dst_pos, dst in enumerate(grp):
                    expected[dst] = [chunks[src][dst_pos] for src in grp]
            return expected

        return self._run("group_all_to_all", phase, tag, chunks, deliver,
                         sources=sources,
                         participants=lambda: [r for grp in groups for r in grp])

    def broadcast(
        self,
        buf: np.ndarray,
        root: int,
        *,
        phase: str,
        tag: str = "",
    ) -> list[np.ndarray]:
        """Broadcast from ``root``; logged as a ring pipeline (G - 1 hops)."""

        def deliver():
            g = self.world_size
            ring = self.topology.global_ring()
            start = ring.index(root)
            for off in range(g - 1):
                src = ring[(start + off) % g]
                dst = ring[(start + off + 1) % g]
                if src != dst:
                    self._record(src, dst, buf, phase, tag or "broadcast")
            return [buf.copy() for _ in range(g)]

        return self._run("broadcast", phase, tag, buf, deliver)


class TargetedFault(SimCommunicator):
    """Base of every fault injector: a communicator that installs itself as
    the innermost interceptor, after ``interceptors``, and aims its fault
    with one targeting predicate (:meth:`_strikes`).

    Parameters
    ----------
    phase, tag:
        Substring filters on the op's logical phase and tag.
    op, channel:
        Exact-match filters on the op name and ring direction
        (``"fwd"`` / ``"rev"``).
    at_call:
        1-based index among the matching ops of the one to strike;
        ``None`` strikes every match.

    A ``None`` filter matches anything.
    """

    fault_name = "base"

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        phase: str | None = None,
        tag: str | None = None,
        op: str | None = None,
        channel: str | None = None,
        at_call: int | None = 1,
        log: TrafficLog | None = None,
        interceptors: Sequence[object] = (),
    ):
        super().__init__(topology, log=log,
                         interceptors=(*interceptors, self))
        if at_call is not None and at_call < 1:
            raise ValueError(f"at_call is 1-based, got {at_call}")
        self.target_phase = phase
        self.target_tag = tag
        self.target_op = op
        self.target_channel = channel
        self.at_call = at_call
        self.calls_matched = 0
        self.injections = 0

    def _describe_fields(self) -> list[tuple[str, object]]:
        return [
            ("phase", self.target_phase), ("tag", self.target_tag),
            ("op", self.target_op), ("channel", self.target_channel),
            ("at_call", self.at_call),
        ]

    def describe(self) -> str:
        filters = ", ".join(
            f"{k}={v!r}" for k, v in self._describe_fields() if v is not None
        )
        return f"{self.fault_name}({filters})"

    def _strikes(self, ctx: OpContext) -> bool:
        """Count ``ctx`` if it matches the filters; true when it is the
        targeted match (counted in :attr:`injections`)."""
        if (
            (self.target_op is not None and self.target_op != ctx.op)
            or (self.target_phase is not None and self.target_phase not in ctx.phase)
            or (self.target_tag is not None and self.target_tag not in ctx.tag)
            or (self.target_channel is not None
                and self.target_channel != ctx.channel)
        ):
            return False
        self.calls_matched += 1
        if self.at_call is None or self.calls_matched == self.at_call:
            self.injections += 1
            return True
        return False
