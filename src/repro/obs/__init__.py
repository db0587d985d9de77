"""Observability: per-query tracing + a process-wide metrics registry.

The ROADMAP's north star (heavy traffic, "as fast as the hardware
allows") needs measurement before it needs optimization.  This package
is the measuring kit, with zero external dependencies:

* :class:`Tracer` / :class:`Trace` / :class:`Span` — a per-query tree of
  nested, wall-clock-timed spans over the pipeline stages of Figures 1
  and 5 (parse → plan → per-source extract → per-entry rule eval →
  retry/breaker decisions → instance generation → condition
  filtering), timed on the injectable :mod:`repro.clock`;
* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — cumulative process-wide counts fed by hooks in
  the Query Handler, Extractor Manager, semantic store, retry loop and
  circuit breakers (:data:`DEFAULT_REGISTRY` is the shared default);
* exporters — traces and metrics rendered as indented text or JSON
  (``S2SMiddleware.explain()``, the CLI ``--trace``/``--metrics`` flags
  and the benchmark stage-breakdown tables all go through these).

Tracing is opt-in and free when off: the pipeline carries
:data:`NULL_SPAN` (a no-op sink) unless a tracer is installed.

See ``docs/observability.md`` for a walk-through.
"""

from .export import (metrics_to_dict, metrics_to_json, render_metrics,
                     render_span, render_trace, trace_to_json)
from .metrics import (DEFAULT_BUCKETS, DEFAULT_REGISTRY, Counter, Gauge,
                      Histogram, MetricsRegistry)
from .trace import NULL_SPAN, NullSpan, Span, Trace, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "DEFAULT_REGISTRY",
    "Span", "NullSpan", "NULL_SPAN", "Trace", "Tracer",
    "render_span", "render_trace", "trace_to_json",
    "render_metrics", "metrics_to_dict", "metrics_to_json",
]
