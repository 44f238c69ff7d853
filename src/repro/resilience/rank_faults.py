"""Rank-scoped fault injectors: crash, hang, and straggler on tap.

The message injectors (:mod:`repro.testing.faults`) damage *messages*; the
classes here kill or slow down *ranks* — the dominant availability risk of
month-long multi-node runs.  Each is a :class:`~repro.comm.SimCommunicator`
that runs as the innermost interceptor of its own chain and shares the
message faults' targeting predicate
(:class:`~repro.comm.communicator.TargetedFault`: ``op`` / ``phase`` /
``tag`` filters and a 1-based ``at_call``, over all nine ops), plus a
rank-level ``at_step`` trigger fed by the trainer's ``on_step_start``
notification.  Once triggered the victim ``rank`` is failed *permanently*
— a crashed process does not come back — and every subsequent operation
reports the failure as the op context's :class:`~repro.comm.OpTiming`:

===========================  =================================================
:class:`CrashRankComm`       the rank's process dies: no response, ever
                             (``inf`` delay, kind ``"crash"``) — peers see
                             the connection reset quickly
:class:`HangRankComm`        the rank wedges (GC pause, driver livelock):
                             no response and **no error** (``inf`` delay,
                             kind ``"hang"``) — peers must wait out the lease
:class:`StragglerRankComm`   the rank answers ``slowdown_factor`` x slower
                             than :data:`~repro.comm.NOMINAL_OP_S` — mild
                             slowdowns are tolerated by lease escalation,
                             extreme ones get the rank declared dead
===========================  =================================================

Numerics are untouched: a :class:`~repro.comm.FailureDetector` stacked on
the injector (``make_rank_fault("crash", topo,
interceptors=[FailureDetector()])``) raises
:class:`~repro.comm.RankFailure` before a dead rank's data is ever
consumed, exactly as survivors abort a collective in a real elastic
runtime.  Without a detector the injected failures are invisible — which
is the deadlock these classes exist to prove the detector prevents.
"""

from __future__ import annotations

from repro.comm import NOMINAL_OP_S, OpTiming
from repro.comm.communicator import TargetedFault
from repro.topology import ClusterTopology

__all__ = [
    "RANK_FAULT_REGISTRY",
    "RankFaultComm",
    "CrashRankComm",
    "HangRankComm",
    "StragglerRankComm",
    "make_rank_fault",
]


class RankFaultComm(TargetedFault):
    """Base class: fails one rank when the targeting filters first match.

    Parameters
    ----------
    rank:
        The global rank to fail.
    phase, tag, op, at_call, interceptors:
        As for :class:`~repro.comm.communicator.TargetedFault`; with
        ``at_call=None`` the first match triggers.
    at_step:
        Training step the failure is confined to (requires the caller to
        forward ``on_step_start``); ``None`` means any step.
    """

    fault_name = "rank-base"
    kind = "crash"

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        rank: int = 0,
        phase: str | None = None,
        tag: str | None = None,
        op: str | None = None,
        at_call: int | None = 1,
        at_step: int | None = None,
        log=None,
        interceptors=(),
    ):
        if not 0 <= rank < topology.world_size:
            raise ValueError(
                f"victim rank {rank} out of range [0, {topology.world_size})"
            )
        super().__init__(topology, phase=phase, tag=tag, op=op,
                         at_call=at_call, log=log, interceptors=interceptors)
        self.rank = rank
        self.at_step = at_step
        self.current_step = -1
        self.failed = False

    def _describe_fields(self) -> list[tuple[str, object]]:
        return [("rank", self.rank), *super()._describe_fields(),
                ("at_step", self.at_step)]

    def on_step_start(self, step: int) -> None:
        self.current_step = step
        super().on_step_start(step)

    def _victim_delay(self) -> float:
        """Response delay of the failed rank (``inf`` = never answers)."""
        return float("inf")

    def intercept(self, ctx, proceed):
        out = proceed()
        if (
            not self.failed
            and (self.at_step is None or self.current_step == self.at_step)
            and self._strikes(ctx)
        ):
            self.failed = True
        if self.failed:
            ctx.timing = OpTiming(
                delays={self.rank: self._victim_delay()},
                kinds={self.rank: self.kind},
            )
        return out


class CrashRankComm(RankFaultComm):
    """The victim's process dies: peers get a fast connection reset."""

    fault_name = "crash"
    kind = "crash"


class HangRankComm(RankFaultComm):
    """The victim wedges silently: no response, no transport error."""

    fault_name = "hang"
    kind = "hang"


class StragglerRankComm(RankFaultComm):
    """The victim answers ``slowdown_factor`` x slower than nominal.

    The default factor (4x) sits inside the detector's escalated-lease
    tolerance, so a straggler is *survived* by default; chaos scenarios
    pass an extreme factor to exercise the declared-dead path.
    """

    fault_name = "straggler"
    kind = "straggler"

    def __init__(self, topology, slowdown_factor: float = 4.0, **kw):
        super().__init__(topology, **kw)
        if slowdown_factor <= 1.0:
            raise ValueError(
                f"slowdown_factor must exceed 1, got {slowdown_factor}"
            )
        self.slowdown_factor = slowdown_factor

    def describe(self) -> str:
        base = super().describe()
        return base[:-1] + f", slowdown={self.slowdown_factor:g})"

    def _victim_delay(self) -> float:
        return self.slowdown_factor * NOMINAL_OP_S


RANK_FAULT_REGISTRY: dict[str, type[RankFaultComm]] = {
    "crash": CrashRankComm,
    "hang": HangRankComm,
    "straggler": StragglerRankComm,
}


def make_rank_fault(
    name: str, topology: ClusterTopology, **kwargs
) -> RankFaultComm:
    """Instantiate a rank-fault communicator by registry name."""
    try:
        cls = RANK_FAULT_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown rank fault {name!r}; available: "
            f"{sorted(RANK_FAULT_REGISTRY)}"
        ) from None
    return cls(topology, **kwargs)
