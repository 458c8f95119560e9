"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` owns a set of named metrics behind a single
re-entrant lock, so a multi-metric update (serve's batch completion bumps
six counters that must agree with each other) can be made atomic by holding
``registry.lock`` around the increments, and :meth:`MetricsRegistry.snapshot`
reads every value under that same lock — the coherent-read guarantee the
serve ``/stats`` race fix is built on.

Naming convention (rendered verbatim by the Prometheus exposition in
:mod:`repro.obs.exposition`): ``repro_<subsystem>_<noun>[_<unit>]`` with the
``_total`` suffix on counters — e.g. ``repro_serve_admitted_total``,
``repro_serve_queue_depth``, ``repro_serve_request_latency_seconds``.

Gauges may be *callback-backed* (:meth:`Gauge.set_function`): the callable
is evaluated at collection time, **outside** the registry lock, so callbacks
are free to take their own locks (serve's queue-depth gauge) without any
lock-ordering entanglement with writers.

:func:`nearest_rank_percentile` is the service's latency percentile (the
``p50``/``p95`` values of ``/stats``).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "nearest_rank_percentile",
]

LabelPairs = Tuple[Tuple[str, str], ...]


def nearest_rank_percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over *values*; ``0.0`` for an empty window.

    Sort, then index ``round(fraction * (n - 1))`` clamped to the last
    element — a single sample is every percentile of itself.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return float(ordered[index])


def _label_key(labels: Dict[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing: name, help text, and the registry's lock."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.RLock) -> None:
        self.name = name
        self.help_text = help_text
        self._lock = lock


class Counter(_Metric):
    """Monotonic count, optionally split by labels.

    ``inc(**labels)`` with no labels maintains one unlabeled series;
    with labels, one series per distinct label set (serve's
    ``rejected_total{reason=...}``).
    """

    kind = "counter"

    def __init__(self, name: str, help_text: str, lock: threading.RLock) -> None:
        super().__init__(name, help_text, lock)
        self._values: Dict[LabelPairs, float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0)

    def series(self) -> List[Tuple[Dict[str, str], float]]:
        """Every (labels, value) pair, for exposition and snapshots."""
        with self._lock:
            return [(dict(key), value) for key, value in self._values.items()]

    def as_dict(self, label: str) -> Dict[str, float]:
        """Collapse single-label series to ``{label_value: count}`` (the
        shape of serve's ``/stats`` ``rejected`` field)."""
        out: Dict[str, float] = {}
        with self._lock:
            for key, value in self._values.items():
                pairs = dict(key)
                if label in pairs:
                    out[pairs[label]] = value
        return out


class Gauge(_Metric):
    """Point-in-time value: set directly, or backed by a callback.

    Callback series (:meth:`set_function`) are evaluated at
    :meth:`collect` time and shadow any static value under the same
    labels.  Callbacks run without the registry lock held.
    """

    kind = "gauge"

    def __init__(self, name: str, help_text: str, lock: threading.RLock) -> None:
        super().__init__(name, help_text, lock)
        self._values: Dict[LabelPairs, float] = {}
        self._functions: Dict[LabelPairs, Callable[[], float]] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1, **labels: str) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float], **labels: str) -> None:
        with self._lock:
            self._functions[_label_key(labels)] = fn

    def value(self, **labels: str) -> float:
        key = _label_key(labels)
        with self._lock:
            fn = self._functions.get(key)
        if fn is not None:
            return float(fn())
        with self._lock:
            return self._values.get(key, 0.0)

    def series(self) -> List[Tuple[Dict[str, str], float]]:
        with self._lock:
            static = dict(self._values)
            functions = dict(self._functions)
        for key, fn in functions.items():
            static[key] = float(fn())  # outside the lock, by design
        return [(dict(key), value) for key, value in static.items()]


class Histogram(_Metric):
    """Fixed-bucket histogram with an optional bounded percentile window.

    Buckets are cumulative upper bounds (Prometheus ``le`` semantics, +Inf
    implicit); ``sum``/``count`` are lifetime totals.  When *window* is
    given, the most recent *window* observations are additionally kept in a
    deque for nearest-rank percentiles — serve's latency p50/p95 are
    windowed (matching the old ``deque(maxlen=latency_window)``) while the
    exposition's ``_bucket``/``_sum``/``_count`` stay lifetime-accurate.
    """

    kind = "histogram"

    DEFAULT_BUCKETS = (
        0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
        1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    )

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.RLock,
        buckets: Optional[Sequence[float]] = None,
        window: Optional[int] = None,
    ) -> None:
        super().__init__(name, help_text, lock)
        bounds = tuple(sorted(buckets if buckets is not None else self.DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError(f"histogram {self.name} needs at least one bucket")
        self.buckets = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._window: Optional[deque] = (
            deque(maxlen=window) if window is not None else None
        )

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            placed = False
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    placed = True
                    break
            if not placed:
                self._bucket_counts[-1] += 1
            self._sum += value
            self._count += 1
            if self._window is not None:
                self._window.append(value)

    @property
    def count(self) -> int:
        """Lifetime observation count."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def window_values(self) -> List[float]:
        """The retained window, oldest first (empty when unwindowed)."""
        with self._lock:
            return list(self._window) if self._window is not None else []

    def window_count(self) -> int:
        with self._lock:
            return len(self._window) if self._window is not None else 0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over the retained window."""
        return nearest_rank_percentile(self.window_values(), fraction)

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(inf, count)``."""
        with self._lock:
            counts = list(self._bucket_counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out


class MetricsRegistry:
    """A named set of metrics behind one re-entrant lock.

    ``registry.lock`` is public on purpose: writers hold it around
    multi-metric updates that must be observed together, and
    :meth:`snapshot` reads under it, which is what makes cross-metric
    invariants (serve: ``queue_depth <= admitted``) race-free.  Lock
    ordering rule for callers that also own their own locks: take *your*
    lock first, the registry lock second, never the reverse (gauge
    callbacks run unlocked, so they are exempt).
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._metrics: "Dict[str, _Metric]" = {}

    def _register(self, metric: _Metric) -> _Metric:
        with self.lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        f"metric {metric.name!r} already registered as "
                        f"{existing.kind}"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the counter *name* (idempotent per registry)."""
        return self._register(Counter(name, help_text, self.lock))

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge(name, help_text, self.lock))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
        window: Optional[int] = None,
    ) -> Histogram:
        return self._register(
            Histogram(name, help_text, self.lock, buckets=buckets, window=window)
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self.lock:
            return self._metrics.get(name)

    def collect(self) -> List[_Metric]:
        """Registered metrics in registration order (exposition input)."""
        with self.lock:
            return list(self._metrics.values())

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe coherent view of every metric, read under one lock.

        Gauge callbacks are re-evaluated afterwards (unlocked), so a
        snapshot is coherent across all *stored* values.
        """
        with self.lock:
            metrics = list(self._metrics.values())
            out: Dict[str, Any] = {}
            for metric in metrics:
                if isinstance(metric, Counter):
                    out[metric.name] = {
                        "type": "counter",
                        "series": [
                            {"labels": labels, "value": value}
                            for labels, value in metric.series()
                        ],
                    }
                elif isinstance(metric, Histogram):
                    out[metric.name] = {
                        "type": "histogram",
                        "count": metric.count,
                        "sum": metric.sum,
                        "buckets": [
                            {"le": le, "count": count}
                            for le, count in metric.cumulative_buckets()
                        ],
                        "window_count": metric.window_count(),
                        "p50": metric.percentile(0.50),
                        "p95": metric.percentile(0.95),
                    }
        for metric in metrics:  # gauges last, callbacks outside the lock
            if isinstance(metric, Gauge):
                out[metric.name] = {
                    "type": "gauge",
                    "series": [
                        {"labels": labels, "value": value}
                        for labels, value in metric.series()
                    ],
                }
        return out


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (services may own private ones)."""
    return _default_registry
