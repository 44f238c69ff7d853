"""A minimal metrics registry: counters, gauges, histograms, one snapshot.

Before this module existed the repo had three disconnected tallies —
``repro.kernels.tileplan.counters`` (tile planning), the
``repro.nn.memory`` tracker (activation bytes / recompute FLOPs) and
``repro.resilience``'s ``FaultMonitor`` (delivery faults) — each with its
own reset/readout idiom.  All of them are now backed by (or mirrored
into) the process-global registry returned by :func:`get_registry`, so
one ``snapshot()`` captures the whole picture and one ``reset()`` starts
a clean measurement window.

Hot-path discipline: metric objects expose their unlabeled value as a
plain ``_value`` float attribute, so instrumented inner loops (sub-tile
classification, autograd save hooks) pay one attribute add — no dict
lookups, no label tuple construction — unless they actually use labels.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "label_key",
]


def label_key(labels: dict[str, Any]) -> str:
    """The key a label set is stored under (``"k1=v1,k2=v2"``, sorted)."""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class Counter:
    """Monotonically increasing tally (resettable), optionally labeled."""

    kind = "counter"
    __slots__ = ("name", "help", "_value", "_labeled")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._labeled: dict[str, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if labels:
            self.inc_key(label_key(labels), amount)
        else:
            self._value += amount

    def inc_key(self, key: str, amount: float) -> None:
        """:meth:`inc` under a label key precomputed with :func:`label_key`
        (hot paths that always use the same labels)."""
        self._labeled[key] = self._labeled.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        if labels:
            return self._labeled.get(label_key(labels), 0.0)
        return self._value

    def reset(self) -> None:
        self._value = 0.0
        self._labeled.clear()

    def snapshot(self) -> float | int | dict[str, float]:
        val = int(self._value) if self._value == int(self._value) else self._value
        if not self._labeled:
            return val
        out: dict[str, Any] = {"": val} if self._value else {}
        for key, v in sorted(self._labeled.items()):
            out[key] = int(v) if v == int(v) else v
        return out


class Gauge(Counter):
    """A value that can go up and down (e.g. live activation bytes)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels: Any) -> None:
        if labels:
            self._labeled[label_key(labels)] = value
        else:
            self._value = value

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


#: Samples retained per label set for percentile estimation; once full,
#: further observations update only the streaming stats (deterministic —
#: no reservoir randomness).
HISTOGRAM_SAMPLE_CAP = 2048

#: Percentiles reported in histogram snapshots.
HISTOGRAM_PERCENTILES = (50, 95, 99)


def _nearest_rank(sorted_samples: list[float], p: float) -> float:
    """Nearest-rank percentile (exact for pinned test inputs)."""
    n = len(sorted_samples)
    return sorted_samples[max(0, math.ceil(p / 100.0 * n) - 1)]


class Histogram:
    """Streaming summary stats per label set, with bounded percentiles.

    ``count``/``total``/``min``/``max`` are exact over every observation;
    ``p50``/``p95``/``p99`` are nearest-rank percentiles over the first
    :data:`HISTOGRAM_SAMPLE_CAP` observations per label set.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "_stats", "_samples")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._stats: dict[str, dict[str, float]] = {}
        self._samples: dict[str, list[float]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = label_key(labels)
        s = self._stats.get(key)
        if s is None:
            self._stats[key] = {
                "count": 1, "total": float(value),
                "min": float(value), "max": float(value),
            }
            self._samples[key] = [float(value)]
        else:
            s["count"] += 1
            s["total"] += value
            if value < s["min"]:
                s["min"] = value
            if value > s["max"]:
                s["max"] = value
            samples = self._samples[key]
            if len(samples) < HISTOGRAM_SAMPLE_CAP:
                samples.append(float(value))

    def _with_percentiles(self, key: str) -> dict[str, float]:
        out = dict(self._stats.get(key, {}))
        samples = self._samples.get(key)
        if samples:
            ordered = sorted(samples)
            for p in HISTOGRAM_PERCENTILES:
                out[f"p{p}"] = _nearest_rank(ordered, p)
        return out

    def stats(self, **labels: Any) -> dict[str, float]:
        return self._with_percentiles(label_key(labels))

    def reset(self) -> None:
        self._stats.clear()
        self._samples.clear()

    def snapshot(self) -> dict[str, Any]:
        if set(self._stats) <= {""}:
            return self._with_percentiles("")
        return {k: self._with_percentiles(k) for k in sorted(self._stats)}


class MetricsRegistry:
    """Named metrics with get-or-create semantics and one snapshot/reset.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` return the
    existing metric when the name is already registered (the kind must
    match).  ``register_collector`` attaches a callable whose return
    value is merged into :meth:`snapshot` under its name — used to pull
    in state that lives elsewhere (e.g. a ``FaultMonitor``'s summary).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: dict[str, Callable[[], Any]] = {}

    def _get_or_create(self, cls, name: str, help: str):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)

    def register_collector(self, name: str, fn: Callable[[], Any]) -> None:
        with self._lock:
            self._collectors[name] = fn

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time readout of every metric (and collector) by name."""
        with self._lock:
            metrics = dict(self._metrics)
            collectors = dict(self._collectors)
        out: dict[str, Any] = {
            name: m.snapshot() for name, m in sorted(metrics.items())
        }
        for name, fn in sorted(collectors.items()):
            out[name] = fn()
        return out

    def reset(self) -> None:
        """Zero every metric (collectors are read-only and untouched)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            m.reset()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry backing the built-in instrumentation."""
    return _REGISTRY
