"""Fault-injecting communicators: realistic distributed-systems bugs on tap.

A reproduction's tests are only as good as their ability to *fail*.  Each
class here is a :class:`~repro.comm.SimCommunicator` that sabotages the
delivery of one (or every) matching transfer; the meta-tests then assert
that :func:`repro.attention.verify.verify_method` catches the damage for
every method in the registry, and the differential fuzzer uses the same
classes to prove it reports (and shrinks) injected failures.

Targeting
---------
Only the delivery ops (:data:`~repro.comm.communicator.DELIVERY_OPS`:
``ring_shift`` / ``exchange`` / ``all_to_all`` / ``group_all_to_all`` /
``send``) are candidates; :class:`~repro.comm.communicator.TargetedFault`
documents the filters (``phase`` / ``tag`` substrings, exact ``op`` /
``channel``, 1-based ``at_call``).  So

* ``CorruptPayloadComm(topo)`` — corrupt the very first transfer of the run;
* ``CorruptPayloadComm(topo, phase="attn-bwd", at_call=1)`` — corrupt the
  first backward transfer only, leaving the forward clean;
* ``DropTransferComm(topo, op="exchange", tag="return")`` — lose the
  gradient-return message of Algorithms 1/2.

Each fault runs as the innermost interceptor of its own chain, so recovery
layers stack on top of it:
``make_fault("corrupt", topo, interceptors=[ChecksumRetry()])``.

The fault models
----------------
===============================  ===============================================
:class:`CorruptPayloadComm`      delivered floats perturbed by additive noise
:class:`DropTransferComm`        one rank's delivery silently zeroed (lost msg)
:class:`MisrouteHopComm`         deliveries rotated to the wrong ranks
:class:`StaleBufferComm`         previous delivery served again (double-buffer
                                 reuse without waiting for the transfer)
:class:`DuplicateDeliveryComm`   message applied twice (doubled payload, as a
                                 reduce would see a re-sent packet)
===============================  ===============================================
"""

from __future__ import annotations

import numpy as np

from repro.comm.communicator import DELIVERY_OPS, TargetedFault
from repro.topology import ClusterTopology
from repro.utils.pytree import tree_map


def _perturb_floats(tree: object, fn) -> object:
    """Apply ``fn`` to every floating-point leaf of a pytree."""
    return tree_map(
        lambda a: fn(a) if getattr(a, "dtype", None) is not None
        and a.dtype.kind == "f" else a,
        tree,
    )


def _copy_tree(tree: object) -> object:
    return tree_map(np.copy, tree)


class FaultInjectingCommunicator(TargetedFault):
    """Base class: lets a subclass damage the received buffers of the
    targeted delivery op (the base itself only counts matches).

    ``victim`` is, for per-rank faults (corrupt / drop / duplicate on list
    deliveries), the index of the delivered entry to damage.  The other
    keywords are the :class:`~repro.comm.communicator.TargetedFault`
    filters plus ``interceptors=``.
    """

    def __init__(self, topology: ClusterTopology, *, victim: int = 0, **kw):
        super().__init__(topology, **kw)
        self.victim = victim
        # Last *clean* delivery per op — what a stale double-buffer holds.
        self._history: dict[str, object] = {}

    # --- subclass hooks ----------------------------------------------------

    def _fault_list(
        self, op: str, operands: list, out: list, prev: list | None
    ) -> list:
        """Damage a per-rank list delivery; ``prev`` is the previous clean
        delivery of the same op (or ``None``)."""
        return out

    def _fault_payload(
        self, op: str, payload: object, received: object, prev: object | None
    ) -> object:
        """Damage a single point-to-point delivery."""
        return received

    # --- interception ------------------------------------------------------

    def intercept(self, ctx, proceed):
        out = proceed()
        op = ctx.op
        if op not in DELIVERY_OPS:
            return out
        prev = self._history.get(op)
        if op == "send":
            self._history[op] = _copy_tree(out)
            if self._strikes(ctx):
                return self._fault_payload(op, ctx.operands, out, prev)
            return out
        self._history[op] = [_copy_tree(b) for b in out]
        if self._strikes(ctx):
            return self._fault_list(op, list(ctx.operands), list(out), prev)
        return out


class CorruptPayloadComm(FaultInjectingCommunicator):
    """Additive-noise corruption of the victim's delivered floats — a
    flipped mantissa bit, an overwritten buffer, a bad NCCL reduction."""

    fault_name = "corrupt"

    def __init__(self, topology, noise: float = 1e-3, **kw):
        super().__init__(topology, **kw)
        self.noise = noise

    def _fault_list(self, op, operands, out, prev):
        v = self.victim % len(out)
        out[v] = _perturb_floats(out[v], lambda a: a + self.noise)
        return out

    def _fault_payload(self, op, payload, received, prev):
        return _perturb_floats(received, lambda a: a + self.noise)


class DropTransferComm(FaultInjectingCommunicator):
    """A lost message: the victim receives zeros instead of the payload."""

    fault_name = "drop"

    def _fault_list(self, op, operands, out, prev):
        v = self.victim % len(out)
        out[v] = tree_map(np.zeros_like, out[v])
        return out

    def _fault_payload(self, op, payload, received, prev):
        return tree_map(np.zeros_like, received)


class MisrouteHopComm(FaultInjectingCommunicator):
    """A routing bug: every delivery lands one rank over.  For a single
    point-to-point transfer, the receiver gets the *previous* message on
    the wire instead (zeros when there was none)."""

    fault_name = "misroute"

    def _fault_list(self, op, operands, out, prev):
        g = len(out)
        return [out[(i + 1) % g] for i in range(g)]

    def _fault_payload(self, op, payload, received, prev):
        if prev is not None:
            return _copy_tree(prev)
        return tree_map(np.zeros_like, received)


class StaleBufferComm(FaultInjectingCommunicator):
    """Double-buffering bug: the receiver reuses the previous step's buffer
    without waiting for the new transfer to land.  On the first matching
    call there is no previous delivery, so the pre-transfer operands are
    served (the buffer simply never moved)."""

    fault_name = "stale"

    def _fault_list(self, op, operands, out, prev):
        if prev is not None:
            return [_copy_tree(b) for b in prev]
        return [_copy_tree(b) for b in operands]

    def _fault_payload(self, op, payload, received, prev):
        if prev is not None:
            return _copy_tree(prev)
        return tree_map(np.zeros_like, received)


class DuplicateDeliveryComm(FaultInjectingCommunicator):
    """A re-sent packet consumed twice: the victim's delivered floats are
    doubled, as an accumulating receiver would observe."""

    fault_name = "duplicate"

    def _fault_list(self, op, operands, out, prev):
        v = self.victim % len(out)
        out[v] = _perturb_floats(out[v], lambda a: a + a)
        return out

    def _fault_payload(self, op, payload, received, prev):
        return _perturb_floats(received, lambda a: a + a)


FAULT_REGISTRY: dict[str, type[FaultInjectingCommunicator]] = {
    "corrupt": CorruptPayloadComm,
    "drop": DropTransferComm,
    "misroute": MisrouteHopComm,
    "stale": StaleBufferComm,
    "duplicate": DuplicateDeliveryComm,
}


def make_fault(
    name: str, topology: ClusterTopology, **kwargs
) -> FaultInjectingCommunicator:
    """Instantiate a fault-injecting communicator by registry name."""
    try:
        cls = FAULT_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown fault {name!r}; available: {sorted(FAULT_REGISTRY)}"
        ) from None
    return cls(topology, **kwargs)
