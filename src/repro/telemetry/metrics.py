"""Named counters, gauges, and histograms with a merge algebra.

Mirrors the :class:`repro.tracesim.cache.CacheStats` contract: every
metric's canonical state (:meth:`as_dict`) forms a **commutative
monoid** under :meth:`merge` — identity is the fresh metric — so
per-worker registries collected from the sweep pool aggregate
losslessly and order-independently:

- **counter** — a sum; merge adds values;
- **gauge** — a summary of observations (count / sum / min / max);
  merge combines summaries.  The most recent ``set`` value is kept
  locally for convenient reading but is *not* part of the canonical
  state (last-write-wins cannot be commutative);
- **histogram** — power-of-two buckets plus count / sum / min / max;
  merge adds bucket counts.

Registries serialise to JSON-native dicts (:meth:`MetricsRegistry.as_dict`
/ :meth:`from_dict`) so they can cross the process-pool boundary and be
embedded in :func:`~repro.telemetry.export.telemetry_to_json` snapshots.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "reset_metrics",
]

#: Histogram bucket for non-positive observations.
_NEG_BUCKET = -(10**6)


def _bucket_exponent(value) -> int:
    """The power-of-two bucket (``value <= 2**e``) an observation
    falls in; non-positive values share one underflow bucket."""
    if value <= 0:
        return _NEG_BUCKET
    return max(_NEG_BUCKET + 1, math.ceil(math.log2(value)))


class Counter:
    """Monotonically accumulating sum."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, value=0):
        self.value = value

    def inc(self, value=1) -> None:
        self.value += value

    def merge(self, other: "Counter") -> "Counter":
        return Counter(self.value + other.value)

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Counter":
        return cls(doc.get("value", 0))


class Gauge:
    """Point-in-time observations, summarised mergeably."""

    __slots__ = ("count", "sum", "min", "max", "last")
    kind = "gauge"

    def __init__(self, count=0, sum=0, min=None, max=None, last=None):
        self.count = count
        self.sum = sum
        self.min = min
        self.max = max
        self.last = last

    def set(self, value) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.last = value

    @property
    def mean(self):
        return self.sum / self.count if self.count else None

    def merge(self, other: "Gauge") -> "Gauge":
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        return Gauge(
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(mins) if mins else None,
            max=max(maxs) if maxs else None,
            last=None,  # not mergeable commutatively
        )

    def as_dict(self) -> dict:
        return {
            "type": "gauge",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Gauge":
        return cls(
            count=doc.get("count", 0),
            sum=doc.get("sum", 0),
            min=doc.get("min"),
            max=doc.get("max"),
        )


class Histogram:
    """Power-of-two-bucketed distribution of observations."""

    __slots__ = ("buckets", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, buckets=None, count=0, sum=0, min=None, max=None):
        self.buckets: dict[int, int] = dict(buckets or {})
        self.count = count
        self.sum = sum
        self.min = min
        self.max = max

    def observe(self, value) -> None:
        e = _bucket_exponent(value)
        self.buckets[e] = self.buckets.get(e, 0) + 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self):
        return self.sum / self.count if self.count else None

    def bucket_bounds(self) -> list[tuple[float, int]]:
        """Sorted ``(upper_bound, count)`` pairs (bound in value units)."""
        out = []
        for e in sorted(self.buckets):
            bound = 0.0 if e == _NEG_BUCKET else float(2.0**e)
            out.append((bound, self.buckets[e]))
        return out

    def merge(self, other: "Histogram") -> "Histogram":
        buckets = dict(self.buckets)
        for e, n in other.buckets.items():
            buckets[e] = buckets.get(e, 0) + n
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        return Histogram(
            buckets=buckets,
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(mins) if mins else None,
            max=max(maxs) if maxs else None,
        )

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "buckets": {str(e): n for e, n in sorted(self.buckets.items())},
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Histogram":
        return cls(
            buckets={int(e): int(n) for e, n in doc.get("buckets", {}).items()},
            count=doc.get("count", 0),
            sum=doc.get("sum", 0),
            min=doc.get("min"),
            max=doc.get("max"),
        )


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Name → metric mapping with get-or-create accessors.

    Thread-safe for creation; individual metric updates are plain
    attribute arithmetic (the GIL makes them atomic enough for
    telemetry purposes, and each worker process owns its registry).
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, cls())
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def inc(self, name: str, value=1) -> None:
        """Shortcut: bump a counter."""
        self.counter(name).inc(value)

    # ------------------------------------------------------------------
    # Introspection / serialisation
    # ------------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str):
        """The metric object registered under ``name`` (or None)."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def as_dict(self) -> dict:
        """Canonical JSON-native state, sorted by name."""
        return {name: self._metrics[name].as_dict() for name in self.names()}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "MetricsRegistry":
        reg = cls()
        for name, metric_doc in doc.items():
            kind = metric_doc.get("type")
            if kind not in _KINDS:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")
            reg._metrics[name] = _KINDS[kind].from_dict(metric_doc)
        return reg

    # ------------------------------------------------------------------
    # Merge algebra
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Combine two registries into a new one (commutative,
        associative on canonical states; identity is the empty
        registry).  Same-named metrics must share a kind."""
        out = MetricsRegistry()
        for name in set(self._metrics) | set(other._metrics):
            a = self._metrics.get(name)
            b = other._metrics.get(name)
            if a is not None and b is not None:
                if type(a) is not type(b):
                    raise TypeError(
                        f"cannot merge metric {name!r}: "
                        f"{type(a).kind} vs {type(b).kind}"
                    )
                out._metrics[name] = a.merge(b)
            else:
                survivor = a if a is not None else b
                out._metrics[name] = type(survivor).from_dict(survivor.as_dict())
        return out

    def __add__(self, other):
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.merge(other)

    def __radd__(self, other):
        if other == 0:  # supports sum(registries)
            return self.merge(MetricsRegistry())
        return self.__add__(other)

    @classmethod
    def merge_all(cls, shards: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        total = cls()
        for shard in shards:
            total = total.merge(shard)
        return total

    def ingest(self, doc: Mapping) -> None:
        """Merge a serialised registry (e.g. shipped from a worker
        process) into this one, in place."""
        merged = self.merge(MetricsRegistry.from_dict(doc))
        self._metrics = merged._metrics

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()


_GLOBAL = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global registry spans fold into."""
    return _GLOBAL


def reset_metrics() -> None:
    """Clear the process-global registry."""
    _GLOBAL.clear()
