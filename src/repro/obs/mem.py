"""Memory observability: allocation timelines, attribution, budget watchdog.

The time half of the observability layer (tracer → Chrome trace → critical
path) got built first; this module is the memory half.  It turns the
single current/peak gauge pair of :class:`repro.nn.memory.MemoryTracker`
into an *observable* signal:

* **Timeline.**  While a :class:`MemoryTimeline` is installed
  (:func:`use_memory_timeline`), every tracker ``register``/``release``
  and every kernel transient allocation lands here as a timestamped
  :class:`MemEvent` carrying the post-event watermark and an *owner*
  record — the enclosing tracer span, the layer index, the memory phase
  (``fwd``/``bwd``/``recompute``) and the attention method, supplied by
  :func:`memory_scope` context managers instrumented through the model
  and trainer.  Timestamps share the tracer's epoch whenever tracing is
  on, so the exported Chrome counter tracks (``"ph": "C"``) line up under
  the span rows in Perfetto.
* **Two series.**  ``saved`` is the autograd persistent set (what
  checkpointing trades against recomputation); ``transient`` is kernel
  scratch — the flash kernels' per-invocation scopes and the chunked
  SwiGLU backward's working set — so observed transients can be pinned
  against :func:`repro.kernels.flash.flash_scratch_bytes` and
  :func:`repro.perf.memory.swiglu_chunked_transient_bytes`.
* **Attribution.**  :func:`peak_attribution` sweeps a timeline to name
  the span/layer/phase owning the global peak plus a top-K table of the
  allocations live at that instant; :func:`leak_report` pairs allocation
  lifetimes and lists handles never released (the saved series must
  drain to zero by step end).
* **Budget watchdog.**  :class:`MemoryBudget` watches the combined
  watermark and, on first crossing, dumps an ``oom/v1`` post-mortem
  bundle through the active :class:`~repro.obs.flightrec.FlightRecorder`
  (same machinery, same validation) — the admission-control primitive
  the roadmap's serving engine consumes.

Layering: this module imports only the two bottom-layer obs modules
(:mod:`repro.obs.tracer`, :mod:`repro.obs.metrics`) plus stdlib, so
``repro.nn.memory`` and ``repro.kernels`` can call into it without
cycles; the flight recorder is imported lazily at dump time.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer

__all__ = [
    "MEMDIFF_SCHEMA",
    "MEMORY_TIMELINE_SCHEMA",
    "OOM_SCHEMA",
    "MemEvent",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "MemoryTimeline",
    "active_budget",
    "active_timeline",
    "current_memory_scope",
    "leak_report",
    "memory_counter_events",
    "memory_phase",
    "memory_scope",
    "observe",
    "peak_attribution",
    "reset_transients",
    "timeline_json",
    "transient_alloc",
    "transient_free",
    "transient_scope",
    "use_memory_budget",
    "use_memory_timeline",
    "validate_memdiff_json",
    "validate_memory_timeline",
    "validate_oom_postmortem",
]

MEMORY_TIMELINE_SCHEMA = "memory-timeline/v1"
OOM_SCHEMA = "oom/v1"
MEMDIFF_SCHEMA = "obs-memdiff/v1"

#: the two watermark series
SAVED = "saved"
TRANSIENT = "transient"

#: keys the ``budget`` block of an ``oom/v1`` bundle must carry
OOM_BUDGET_KEYS = ("limit_bytes", "watermark_bytes", "series")


@dataclass
class MemEvent:
    """One allocation or release, with the post-event watermark.

    ``current`` is the series watermark *after* applying ``delta``, so a
    timeline replays into an exact step function; ``owner`` carries the
    attribution scope active at the call site (span, layer, phase,
    method, step — whatever the instrumented layers pushed).
    """

    ts: float
    series: str          # "saved" | "transient"
    kind: str            # "alloc" | "free"
    delta: int
    current: int
    handle: int
    site: str
    owner: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "ts": self.ts,
            "series": self.series,
            "kind": self.kind,
            "delta": self.delta,
            "current": self.current,
            "handle": self.handle,
            "site": self.site,
            "owner": dict(self.owner),
        }


class MemoryTimeline:
    """Bounded, thread-safe record of :class:`MemEvent` samples.

    Older events are never dropped silently mid-stream: once ``capacity``
    is reached further events only bump ``truncated`` (the exporter and
    validator surface the count), keeping the retained prefix replayable.
    """

    def __init__(self, capacity: int = 200_000):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.truncated = 0
        self._events: list[MemEvent] = []
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    def now(self) -> float:
        """Seconds since the shared epoch (the tracer's when tracing)."""
        tracer = get_tracer()
        epoch = tracer._epoch if tracer.enabled else self._epoch
        return time.perf_counter() - epoch

    def record(self, event: MemEvent) -> None:
        with self._lock:
            if len(self._events) >= self.capacity:
                self.truncated += 1
                return
            self._events.append(event)

    def events(self) -> list[MemEvent]:
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events = []
            self.truncated = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


# --- attribution scopes (thread-local) ----------------------------------------

_SCOPES = threading.local()


def _scope_stack() -> list[dict[str, Any]]:
    stack = getattr(_SCOPES, "stack", None)
    if stack is None:
        stack = []
        _SCOPES.stack = stack
    return stack


@contextmanager
def memory_scope(**attrs: Any) -> Iterator[None]:
    """Attribute allocations inside the block (layer=, method=, step=, ...).

    Scopes nest and merge innermost-wins; the instrumented layers push
    ``layer`` (block index), ``mem_phase`` (``fwd``/``bwd``/``recompute``),
    ``method`` and ``step``.  Near-free: one list append/pop.
    """
    stack = _scope_stack()
    stack.append(attrs)
    try:
        yield
    finally:
        if stack and stack[-1] is attrs:
            stack.pop()
        else:  # tolerate leaked inner scopes, mirroring the tracer
            while stack:
                top = stack.pop()
                if top is attrs:
                    break


def memory_phase(phase: str):
    """Sugar for ``memory_scope(mem_phase=phase)``."""
    return memory_scope(mem_phase=phase)


def current_memory_scope() -> dict[str, Any]:
    """The merged attribution scope of the calling thread.

    Includes the innermost live tracer span's name under ``"span"`` when
    tracing is enabled, so every sample is pinned to the span that will
    render above it in Perfetto.
    """
    merged: dict[str, Any] = {}
    for scope in _scope_stack():
        merged.update(scope)
    tracer = get_tracer()
    if tracer.enabled:
        stack = tracer._stack()
        if stack:
            live = stack[-1]
            merged["span"] = live.name
            merged.setdefault("phase", live.phase)
    merged.setdefault("mem_phase", "fwd")
    return merged


# --- process-global timeline / budget ----------------------------------------

_LOCK = threading.RLock()
_TIMELINE: MemoryTimeline | None = None
_BUDGET: "MemoryBudget | None" = None
_CURRENT = {SAVED: 0, TRANSIENT: 0}


def active_timeline() -> MemoryTimeline | None:
    return _TIMELINE


def active_budget() -> "MemoryBudget | None":
    return _BUDGET


@contextmanager
def use_memory_timeline(capacity: int = 200_000) -> Iterator[MemoryTimeline]:
    """Install a fresh timeline for the duration of the block."""
    global _TIMELINE
    timeline = MemoryTimeline(capacity=capacity)
    with _LOCK:
        prev = _TIMELINE
        _TIMELINE = timeline
    try:
        yield timeline
    finally:
        with _LOCK:
            _TIMELINE = prev


@contextmanager
def use_memory_budget(budget: "MemoryBudget") -> Iterator["MemoryBudget"]:
    """Install a :class:`MemoryBudget` watchdog for the block."""
    global _BUDGET
    with _LOCK:
        prev = _BUDGET
        _BUDGET = budget
    try:
        yield budget
    finally:
        with _LOCK:
            _BUDGET = prev


def observe(
    series: str,
    kind: str,
    delta: int,
    current: int,
    handle: int,
    site: str = "",
) -> None:
    """Record one watermark sample; called by the tracker and kernels.

    The disabled fast path is two module-global reads — instrumented
    allocation paths pay nothing while no timeline or budget is
    installed.
    """
    timeline = _TIMELINE
    budget = _BUDGET
    if timeline is None and budget is None:
        return
    _CURRENT[series] = current
    owner = current_memory_scope()
    if timeline is not None:
        timeline.record(
            MemEvent(
                ts=timeline.now(),
                series=series,
                kind=kind,
                delta=delta,
                current=current,
                handle=handle,
                site=site,
                owner=owner,
            )
        )
    if budget is not None and kind == "alloc":
        budget.check(
            _CURRENT[SAVED] + _CURRENT[TRANSIENT],
            series=series,
            owner=owner,
            timeline=timeline,
        )


# --- transient working sets ---------------------------------------------------

_TRANSIENT_LOCK = threading.RLock()
_TRANSIENT_LIVE: dict[int, tuple[int, str]] = {}
_TRANSIENT_NEXT = 0


#: Fetched once: every kernel invocation allocates and frees a scope, and
#: a registry lookup takes the registry lock.
_TRANSIENT_BYTES = get_registry().gauge("memory.transient_bytes")
_PEAK_TRANSIENT_BYTES = get_registry().gauge("memory.peak_transient_bytes")


def transient_alloc(nbytes: int, site: str = "kernel") -> int:
    """Account a kernel scratch allocation; returns a release handle.

    Backed by the ``memory.transient_bytes`` / ``memory.peak_transient_bytes``
    gauges and recorded on the active timeline as the ``transient``
    series.  Thread-safe (worker threads of the threaded backend open
    their scopes concurrently).
    """
    global _TRANSIENT_NEXT
    with _TRANSIENT_LOCK:
        handle = _TRANSIENT_NEXT
        _TRANSIENT_NEXT += 1
        _TRANSIENT_LIVE[handle] = (int(nbytes), site)
        current = int(_TRANSIENT_BYTES.value()) + int(nbytes)
        _TRANSIENT_BYTES.set(float(current))
        if current > _PEAK_TRANSIENT_BYTES.value():
            _PEAK_TRANSIENT_BYTES.set(float(current))
        observe(TRANSIENT, "alloc", int(nbytes), current, handle, site)
    return handle


def transient_free(handle: int) -> None:
    """Release a :func:`transient_alloc` handle (unknown handles ignored:
    a scope may outlive a per-step :func:`reset_transients`)."""
    with _TRANSIENT_LOCK:
        entry = _TRANSIENT_LIVE.pop(handle, None)
        if entry is None:
            return
        nbytes, site = entry
        current = int(_TRANSIENT_BYTES.value()) - nbytes
        _TRANSIENT_BYTES.set(float(current))
        observe(TRANSIENT, "free", -nbytes, current, handle, site)


@contextmanager
def transient_scope(nbytes: int, site: str = "kernel") -> Iterator[None]:
    """Account ``nbytes`` of scratch for the duration of the block."""
    handle = transient_alloc(nbytes, site)
    try:
        yield
    finally:
        transient_free(handle)


def reset_transients() -> None:
    """Zero the transient gauges and live set (between steps/experiments)."""
    with _TRANSIENT_LOCK:
        _TRANSIENT_LIVE.clear()
        _TRANSIENT_BYTES.set(0.0)
        _PEAK_TRANSIENT_BYTES.set(0.0)
        _CURRENT[TRANSIENT] = 0


# --- timeline analysis --------------------------------------------------------


def peak_attribution(
    events: Sequence[MemEvent | dict],
    series: str = SAVED,
    top: int = 5,
) -> dict[str, Any]:
    """Sweep a timeline and attribute the global peak of ``series``.

    Returns the peak watermark, its timestamp, the owning span/scope, and
    a top-K table of the allocations live at the peak grouped by
    ``(site, layer, mem_phase)``.
    """
    evs = [_as_event(e) for e in events if _as_event(e).series == series]
    live: dict[int, MemEvent] = {}
    peak_bytes = 0
    peak_event: MemEvent | None = None
    peak_live: dict[int, MemEvent] = {}
    for ev in evs:
        if ev.kind == "alloc":
            live[ev.handle] = ev
        else:
            live.pop(ev.handle, None)
        if ev.current > peak_bytes:
            peak_bytes = ev.current
            peak_event = ev
            peak_live = dict(live)
    groups: dict[tuple, dict[str, Any]] = {}
    for ev in peak_live.values():
        key = (
            ev.site,
            ev.owner.get("layer"),
            ev.owner.get("mem_phase"),
        )
        g = groups.setdefault(
            key,
            {
                "site": ev.site,
                "layer": ev.owner.get("layer"),
                "mem_phase": ev.owner.get("mem_phase"),
                "bytes": 0,
                "allocations": 0,
            },
        )
        g["bytes"] += ev.delta
        g["allocations"] += 1
    table = sorted(groups.values(), key=lambda g: -g["bytes"])[:top]
    return {
        "series": series,
        "peak_bytes": peak_bytes,
        "ts": peak_event.ts if peak_event is not None else None,
        "span": peak_event.owner.get("span") if peak_event is not None else None,
        "owner": dict(peak_event.owner) if peak_event is not None else {},
        "live_allocations": len(peak_live),
        "top": table,
    }


def leak_report(
    events: Sequence[MemEvent | dict], series: str = SAVED
) -> list[dict[str, Any]]:
    """Allocation-lifetime pairing: handles never released, largest first.

    By the end of a training step the autograd backward must have
    released every saved-activation handle, so a non-empty report on the
    ``saved`` series is a leak (and ``memdiff`` fails on it).
    """
    live: dict[int, MemEvent] = {}
    for e in events:
        ev = _as_event(e)
        if ev.series != series:
            continue
        if ev.kind == "alloc":
            live[ev.handle] = ev
        else:
            live.pop(ev.handle, None)
    return [
        {
            "handle": ev.handle,
            "bytes": ev.delta,
            "site": ev.site,
            "ts": ev.ts,
            "owner": dict(ev.owner),
        }
        for ev in sorted(live.values(), key=lambda e: -e.delta)
    ]


def _as_event(e: MemEvent | dict) -> MemEvent:
    if isinstance(e, MemEvent):
        return e
    return MemEvent(
        ts=e["ts"],
        series=e["series"],
        kind=e["kind"],
        delta=e["delta"],
        current=e["current"],
        handle=e["handle"],
        site=e.get("site", ""),
        owner=dict(e.get("owner", {})),
    )


def memory_counter_events(
    events: Sequence[MemEvent | dict], pid: int = 2
) -> list[dict[str, Any]]:
    """Render a timeline as Chrome-trace counter events (``"ph": "C"``).

    One counter track per series (``memory.saved_bytes`` /
    ``memory.transient_bytes``); Perfetto draws them as area charts under
    the span rows of the same pid.  Samples carry the owning step in
    ``args`` when the scope recorded one, which the strict validator uses
    to pin each sample inside its ``train.step`` span.
    """
    out: list[dict[str, Any]] = []
    for e in events:
        ev = _as_event(e)
        args: dict[str, Any] = {"bytes": ev.current}
        if "step" in ev.owner:
            args["step"] = ev.owner["step"]
        out.append(
            {
                "name": f"memory.{ev.series}_bytes",
                "ph": "C",
                "ts": round(ev.ts * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": args,
            }
        )
    return out


def timeline_json(
    timeline: MemoryTimeline,
    path: str | None = None,
    *,
    metadata: dict[str, Any] | None = None,
) -> str:
    """Serialise a timeline as a validated ``memory-timeline/v1`` artifact."""
    doc: dict[str, Any] = {
        "schema": MEMORY_TIMELINE_SCHEMA,
        "capacity": timeline.capacity,
        "truncated": timeline.truncated,
        "events": [ev.as_dict() for ev in timeline.events()],
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    payload = json.dumps(doc, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(payload)
    return payload


def validate_memory_timeline(payload: str | dict) -> dict[str, Any]:
    """Strictly validate a ``memory-timeline/v1`` document; raise on damage.

    Checks the schema tag, per-event fields, non-negative watermarks, and
    that each series' watermark replays exactly (``current`` equals the
    running sum of ``delta``) — a truncated or reordered timeline fails.
    """
    if isinstance(payload, str):
        try:
            doc = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ValueError(f"memory timeline is truncated or corrupt: {exc}")
    else:
        doc = payload
    if not isinstance(doc, dict):
        raise ValueError("memory timeline is not a JSON object")
    if doc.get("schema") != MEMORY_TIMELINE_SCHEMA:
        raise ValueError(
            f"memory timeline has schema {doc.get('schema')!r}, "
            f"expected {MEMORY_TIMELINE_SCHEMA!r}"
        )
    events = doc.get("events")
    if not isinstance(events, list):
        raise ValueError("memory timeline carries no 'events' list")
    running: dict[str, int] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event #{i} is not an object")
        for key in ("ts", "series", "kind", "delta", "current", "handle"):
            if key not in ev:
                raise ValueError(f"event #{i} missing {key!r}")
        if ev["series"] not in (SAVED, TRANSIENT):
            raise ValueError(f"event #{i} has unknown series {ev['series']!r}")
        if ev["kind"] not in ("alloc", "free"):
            raise ValueError(f"event #{i} has unknown kind {ev['kind']!r}")
        if ev["current"] < 0:
            raise ValueError(
                f"event #{i}: negative watermark {ev['current']} "
                f"on series {ev['series']!r}"
            )
        expect = running.get(ev["series"], 0) + ev["delta"]
        if expect != ev["current"]:
            raise ValueError(
                f"event #{i}: series {ev['series']!r} watermark "
                f"{ev['current']} does not replay (expected {expect}) — "
                "timeline truncated or reordered"
            )
        running[ev["series"]] = ev["current"]
    if doc.get("truncated", 0) and not events:
        raise ValueError("memory timeline dropped every event")
    return doc


# --- budget watchdog ----------------------------------------------------------


class MemoryBudgetExceeded(RuntimeError):
    """Raised by a :class:`MemoryBudget` with ``raise_on_breach=True``."""


class MemoryBudget:
    """Watchdog over the combined (saved + transient) watermark.

    On the first crossing of ``limit_bytes`` it records the breach,
    increments ``memory.budget_breaches``, dumps an ``oom/v1`` bundle
    through the active flight recorder (if one is installed), invokes
    ``on_breach`` and — when ``raise_on_breach`` — raises
    :class:`MemoryBudgetExceeded`.  Subsequent allocations are not
    re-reported (one bundle per breach episode); :meth:`reset` re-arms.
    """

    def __init__(
        self,
        limit_bytes: int,
        *,
        raise_on_breach: bool = False,
        on_breach=None,
    ):
        if limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be > 0, got {limit_bytes}")
        self.limit_bytes = int(limit_bytes)
        self.raise_on_breach = raise_on_breach
        self.on_breach = on_breach
        self.breached = False
        self.watermark_bytes = 0
        self.bundle_path: str | None = None

    def reset(self) -> None:
        self.breached = False
        self.watermark_bytes = 0
        self.bundle_path = None

    def check(
        self,
        total_bytes: int,
        *,
        series: str = SAVED,
        owner: dict[str, Any] | None = None,
        timeline: MemoryTimeline | None = None,
    ) -> None:
        if total_bytes > self.watermark_bytes:
            self.watermark_bytes = int(total_bytes)
        if self.breached or total_bytes <= self.limit_bytes:
            return
        self.breached = True
        get_registry().counter("memory.budget_breaches").inc()
        reason = {
            "kind": "memory-budget-breach",
            "limit_bytes": self.limit_bytes,
            "watermark_bytes": int(total_bytes),
            "series": series,
            "owner": dict(owner or {}),
        }
        self.bundle_path = dump_oom_postmortem(
            reason=reason, budget=self, timeline=timeline
        )
        if self.on_breach is not None:
            self.on_breach(self)
        if self.raise_on_breach:
            raise MemoryBudgetExceeded(
                f"memory budget breached: {total_bytes} B > "
                f"{self.limit_bytes} B (bundle: {self.bundle_path})"
            )


def dump_oom_postmortem(
    *,
    reason: dict[str, Any],
    budget: MemoryBudget | None = None,
    timeline: MemoryTimeline | None = None,
    path: str | None = None,
) -> str | None:
    """Dump an ``oom/v1`` bundle through the active flight recorder.

    Reuses the ``postmortem/v1`` machinery wholesale (span ring buffer,
    metrics snapshot, critical path) with the schema tag swapped and a
    ``budget`` block plus the timeline's peak attribution and leak report
    attached.  Returns the bundle path, or ``None`` when no recorder is
    installed (the default — zero cost on the hot path).
    """
    from repro.obs.flightrec import get_active_recorder

    rec = get_active_recorder()
    if rec is None:
        return None
    events = timeline.events() if timeline is not None else []
    extra: dict[str, Any] = {
        "budget": {
            "limit_bytes": budget.limit_bytes if budget else None,
            "watermark_bytes": (
                budget.watermark_bytes
                if budget
                else reason.get("watermark_bytes")
            ),
            "series": reason.get("series", SAVED),
        },
        "peak_attribution": peak_attribution(events) if events else None,
        "leaks": leak_report(events) if events else [],
    }
    return rec.dump(path, reason=reason, schema=OOM_SCHEMA, extra=extra)


#: keys every ``obs-memdiff/v1`` cell must carry
MEMDIFF_CELL_KEYS = (
    "method",
    "policy",
    "observed_peak_bytes",
    "predicted_peak_bytes",
    "match",
    "peak_span",
    "leaks",
)


def validate_memdiff_json(doc: dict) -> dict:
    """Validate an ``obs-memdiff/v1`` document; raise ``ValueError``."""
    if not isinstance(doc, dict):
        raise ValueError("memdiff document is not a JSON object")
    if doc.get("schema") != MEMDIFF_SCHEMA:
        raise ValueError(
            f"memdiff document has schema {doc.get('schema')!r}, "
            f"expected {MEMDIFF_SCHEMA!r}"
        )
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("memdiff document carries no cells")
    for i, cell in enumerate(cells):
        missing = [k for k in MEMDIFF_CELL_KEYS if k not in cell]
        if missing:
            raise ValueError(f"memdiff cell #{i} missing keys: {missing}")
        if cell["match"] and (
            cell["observed_peak_bytes"] != cell["predicted_peak_bytes"]
        ):
            raise ValueError(
                f"memdiff cell #{i} claims match but "
                f"{cell['observed_peak_bytes']} != "
                f"{cell['predicted_peak_bytes']}"
            )
    for key in ("curve", "transient", "ok"):
        if key not in doc:
            raise ValueError(f"memdiff document missing {key!r}")
    return doc


def validate_oom_postmortem(payload: str | dict) -> dict[str, Any]:
    """Validate an ``oom/v1`` bundle (superset of ``postmortem/v1``)."""
    from repro.obs.flightrec import validate_postmortem

    doc = validate_postmortem(payload, schema=OOM_SCHEMA)
    budget = doc.get("budget")
    if not isinstance(budget, dict):
        raise ValueError("oom bundle missing its 'budget' block")
    missing = [k for k in OOM_BUDGET_KEYS if k not in budget]
    if missing:
        raise ValueError(f"oom bundle budget block missing keys: {missing}")
    if budget["limit_bytes"] is not None and (
        budget["watermark_bytes"] is None
        or budget["watermark_bytes"] <= budget["limit_bytes"]
    ):
        raise ValueError(
            "oom bundle watermark does not exceed its budget — not a breach"
        )
    if "leaks" not in doc:
        raise ValueError("oom bundle missing its 'leaks' list")
    return doc
