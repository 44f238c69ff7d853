"""Communicator stack signatures pinned against a recorded fixture.

Each stack composes a fault injector with a recovery layer and either
trains a tiny bidirectional BurstEngine or sweeps all nine communicator
ops once, under tracing.  Everything observable about
how the stack handled the fault — every logged transfer, every monitor
event, the detector's lease state and the ordered comm / resilience spans —
is compared with ``tests/golden/comm_stacks.json``.  Refactoring how the
layers compose must leave all of it unchanged.

Regenerate (only when a change *intends* to alter these signatures)::

    PYTHONPATH=src python -m tests.test_comm_stack_signatures --update
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.comm import FailureDetector, RankFailure
from repro.engine import Trainer
from repro.nn.rng import set_seed
from repro.obs import use_tracing
from repro.resilience import ChecksumRetry, FaultMonitor
from repro.resilience.chaos import _make_batches, _make_engine, _topology
from repro.resilience.rank_faults import RANK_FAULT_REGISTRY, make_rank_fault
from repro.testing.faults import FAULT_REGISTRY, make_fault

FIXTURE = Path(__file__).resolve().parent / "golden" / "comm_stacks.json"

#: Span families whose order and attributes make up a stack's signature.
SPAN_PREFIXES = ("comm.", "resilient.", "lease.", "failure.detect")

MESSAGE_STACKS = [
    f"{name}-{channel}" for name in sorted(FAULT_REGISTRY)
    for channel in ("fwd", "rev")
]
RANK_STACKS = sorted(RANK_FAULT_REGISTRY)
#: Retry and detector stacked both ways round, driven through every op.
SWEEP_STACKS = ["retry-detector-straggler", "detector-retry-corrupt"]


def _build_message_stack(key: str):
    name, channel = key.rsplit("-", 1)
    monitor = FaultMonitor()
    # The reverse stream carries few transfers per step; strike it early.
    comm = make_fault(name, _topology(), channel=channel,
                      at_call=1 if channel == "rev" else 2,
                      interceptors=[ChecksumRetry(monitor=monitor)])
    return comm, monitor, None


def _build_rank_stack(kind: str):
    detector = FailureDetector()
    comm = make_rank_fault(kind, _topology(), rank=1, at_step=1, at_call=2,
                           interceptors=[detector])
    return comm, None, detector


def _build_sweep_stack(key: str):
    monitor = FaultMonitor()
    retry, detector = ChecksumRetry(monitor=monitor), FailureDetector()
    if key == "retry-detector-straggler":
        comm = make_rank_fault("straggler", _topology(), rank=2, at_call=3,
                               interceptors=[retry, detector])
    else:
        comm = make_fault("corrupt", _topology(), at_call=3,
                          interceptors=[detector, retry])
    return comm, monitor, detector


def _sweep(comm) -> None:
    """Issue each of the nine ops once (ring_shift both ways)."""
    g = comm.world_size
    bufs = [np.full(3, float(r)) for r in range(g)]
    chunks = [[np.full(2, 10.0 * r + c) for c in range(g)] for r in range(g)]
    comm.send(0, 2, bufs[0], phase="p2p", tag="s")
    comm.exchange(bufs, [1, 0, 3, 2], phase="x", tag="e", channel="rev")
    comm.ring_shift(bufs, list(range(g)), phase="r", tag="f")
    comm.ring_shift(bufs, [0, 1, 2], phase="r", tag="b", reverse=True)
    comm.all_to_all(chunks, phase="a2a")
    comm.group_all_to_all([row[:2] for row in chunks], [[0, 1], [2, 3]],
                          phase="ga2a")
    comm.all_gather(bufs, phase="ag")
    comm.reduce_scatter(chunks, phase="rs")
    comm.all_reduce(bufs, phase="ar")
    comm.broadcast(bufs[1], 1, phase="bc")


def _span_signature(spans) -> list[list]:
    """``(name, call, attempts, channel)`` per span, with the process-wide
    ``comm.*`` call counter rebased so the first comm span is call 1."""
    picked = [s for s in spans if s.name.startswith(SPAN_PREFIXES)]
    comm_calls = [s.attrs["call"] for s in picked if s.name.startswith("comm.")]
    base = min(comm_calls) - 1 if comm_calls else 0
    out = []
    for s in picked:
        call = s.attrs.get("call")
        if s.name.startswith("comm."):
            call -= base
        out.append([s.name, call, s.attrs.get("attempts"),
                    s.attrs.get("channel")])
    return out


def signature(kind: str, key: str) -> dict:
    """Drive one stack and capture its signature."""
    build = {"message": _build_message_stack, "rank": _build_rank_stack,
             "sweep": _build_sweep_stack}[kind]
    comm, monitor, detector = build(key)
    if kind == "sweep":
        run = lambda: _sweep(comm)  # noqa: E731
    else:
        set_seed(0)
        trainer = Trainer(
            _make_engine("burst", comm=comm, ring_mode="bidirectional"),
            clip_norm=1.0,
        )
        run = lambda: trainer.fit(_make_batches(seed=0), 2)  # noqa: E731
    error = None
    with use_tracing() as tracer:
        try:
            run()
        except RankFailure as exc:
            error = {
                "rank": exc.rank, "op": exc.op, "phase": exc.phase,
                "step": exc.step, "kind": exc.kind,
                "call_index": exc.call_index, "sim_time": exc.sim_time,
            }
    sig = {
        "log": [
            [r.src, r.dst, r.nbytes, r.nelems, r.phase, r.tag, r.channel]
            for r in comm.log.records
        ],
        "spans": _span_signature(tracer.spans()),
        "error": error,
    }
    if monitor is not None:
        sig["events"] = [asdict(e) for e in monitor.events]
        sig["recoveries"] = [list(r) for r in monitor.recoveries]
    if detector is not None:
        sig["clock"] = detector.clock.now
        sig["call_index"] = detector.call_index
        sig["tolerated"] = [list(t) for t in detector.tolerated]
    return sig


def _all_keys() -> list[tuple[str, str]]:
    return ([("message", k) for k in MESSAGE_STACKS]
            + [("rank", k) for k in RANK_STACKS]
            + [("sweep", k) for k in SWEEP_STACKS])


def _expected() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("kind,key", _all_keys())
def test_stack_signature_unchanged(kind, key):
    expected = _expected()[f"{kind}/{key}"]
    # Round-trip through JSON so tuples and lists compare alike.
    got = json.loads(json.dumps(signature(kind, key)))
    for field, value in expected.items():
        assert got[field] == value, f"{kind}/{key}: {field} changed"
    assert set(got) == set(expected)


def test_fixture_covers_every_stack():
    assert set(_expected()) == {f"{k}/{key}" for k, key in _all_keys()}


def _update() -> None:
    data = {f"{k}/{key}": signature(k, key) for k, key in _all_keys()}
    # One line per list entry (log row, span, event) keeps diffs readable.
    stacks = []
    for name, sig in sorted(data.items()):
        fields = []
        for field, value in sorted(sig.items()):
            if isinstance(value, list) and value:
                rows = ",\n".join("   " + json.dumps(v) for v in value)
                fields.append(f"  {json.dumps(field)}: [\n{rows}\n  ]")
            else:
                fields.append(f"  {json.dumps(field)}: {json.dumps(value)}")
        stacks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(fields) + "\n }")
    FIXTURE.write_text("{\n" + ",\n".join(stacks) + "\n}\n")
    print(f"wrote {len(data)} stack signatures to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.test_comm_stack_signatures --update")
    _update()
