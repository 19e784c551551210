"""End-to-end observability: tracing, metrics, and exporters.

Three pieces, one story — *where did the time go for this request*:

* :mod:`.trace` — spans with trace/parent links and contextvar-carried
  ancestry (asyncio-safe), a bounded :class:`~.trace.SpanBuffer`, and
  cross-process propagation through the executor record path.  The
  span is the only stage primitive: every span also times its stage
  into ``repro_stage_seconds``, traced or not.  The process-global
  tracer is :data:`TRACER` (tracing disabled by default; the serve CLI
  and benches turn it on).
* :mod:`.metrics` — thread-safe counters / gauges / fixed-bucket
  histograms in the process-global :data:`METRICS` registry, rendered
  by the serve ``/metrics`` endpoint as Prometheus text.  The
  ``repro.perf`` ``PERF`` registry is a view over this store.
* :mod:`.export` — Chrome/Perfetto ``trace.json``, JSONL span logs, and
  per-stage summaries (``repro trace export|summary``).

See ``docs/observability.md`` for the span model and a worked trace.
"""

from .metrics import METRICS, MetricsRegistry
from .trace import TRACER, Span, SpanBuffer, Tracer

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "TRACER",
    "Span",
    "SpanBuffer",
    "Tracer",
]
