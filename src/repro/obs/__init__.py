"""Unified observability layer: metrics registry, spans, Prometheus text.

See :mod:`repro.obs.metrics` for the registry/rendering/delta machinery
and :mod:`repro.obs.spans` for stage timing and trace propagation. The
rest of the stack imports from this package root.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    REQUIRED_FAMILIES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ambient,
    diff_state,
    get_registry,
    parse_prometheus_text,
    use_registry,
)
from .spans import (
    STAGE_HISTOGRAM,
    Span,
    SpanRecorder,
    current_trace,
    record_stage,
    use_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_REGISTRY",
    "REQUIRED_FAMILIES",
    "STAGE_HISTOGRAM",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "ambient",
    "current_trace",
    "diff_state",
    "get_registry",
    "parse_prometheus_text",
    "record_stage",
    "use_registry",
    "use_trace",
]
