"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

No external dependencies: the registry is a thread-safe dict of metric
families, each holding one value per label combination, rendered in a
Prometheus-like text exposition or as JSON.  The middleware feeds it from
hooks in the Query Handler, Extractor Manager, semantic store, retry loop
and circuit breakers; share one registry across middleware instances to
aggregate, or inject a fresh one per test for isolation.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

#: Default latency buckets (seconds): sub-ms to 10s, roughly logarithmic.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((name, str(value))
                        for name, value in labels.items()))


class Metric:
    """Base class: one named family of labelled series."""

    kind = "metric"

    def __init__(self, name: str, help_text: str = "") -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()

    def series(self) -> Iterator[tuple[LabelKey, Any]]:
        """(label key, value) pairs, sorted by label key."""
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current count for the exact label set (0.0 when unseen)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._values.values())

    def series(self) -> Iterator[tuple[LabelKey, float]]:
        with self._lock:
            items = sorted(self._values.items())
        return iter(items)


class Gauge(Metric):
    """A value that can go up and down (e.g. open breakers)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def series(self) -> Iterator[tuple[LabelKey, float]]:
        with self._lock:
            items = sorted(self._values.items())
        return iter(items)


class HistogramSeries:
    """Bucket counts + sum + count for one label combination."""

    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 = overflow (+Inf)
        self.total = 0.0
        self.count = 0


class Histogram(Metric):
    """Fixed-bucket distribution (cumulative buckets on render)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending tuple")
        self.buckets = tuple(float(b) for b in buckets)
        self._series: dict[LabelKey, HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = HistogramSeries(len(self.buckets))
                self._series[key] = series
            index = len(self.buckets)  # overflow bucket by default
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            series.bucket_counts[index] += 1
            series.total += value
            series.count += 1

    def count(self, **labels: Any) -> int:
        """Observations for the exact label set."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series is not None else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.total if series is not None else 0.0

    def series(self) -> Iterator[tuple[LabelKey, HistogramSeries]]:
        with self._lock:
            items = sorted(self._series.items())
        return iter(items)


class MetricsRegistry:
    """Named metric families, created lazily and shared freely.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    fixes the family's kind (and buckets); later calls return the same
    object, so instrumentation points never coordinate registration.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, **kwargs) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {kind.__name__.lower()}")
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(name, Counter, help_text=help_text)  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help_text=help_text)  # type: ignore[return-value]

    def histogram(self, name: str, help_text: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(name, Histogram, help_text=help_text,  # type: ignore[return-value]
                                   buckets=buckets)

    def get(self, name: str) -> Metric | None:
        """The family by name, or None when never touched."""
        with self._lock:
            return self._metrics.get(name)

    def value(self, name: str, **labels: Any) -> float:
        """Shortcut: a counter/gauge series value (0.0 when unseen)."""
        metric = self.get(name)
        if metric is None:
            return 0.0
        if isinstance(metric, (Counter, Gauge)):
            return metric.value(**labels)
        raise ValueError(f"metric {name!r} is a {metric.kind}; "
                         "read histograms through get()")

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def metrics(self) -> list[Metric]:
        """Every family, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render_text(self) -> str:
        """Prometheus-like text exposition (see :mod:`repro.obs.export`)."""
        from .export import render_metrics
        return render_metrics(self)

    def to_dict(self) -> dict[str, Any]:
        from .export import metrics_to_dict
        return metrics_to_dict(self)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


#: The process-wide default registry: what every middleware built without
#: an explicit ``metrics=`` argument reports into.
DEFAULT_REGISTRY = MetricsRegistry()
