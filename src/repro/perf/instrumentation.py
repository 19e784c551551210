"""Perf views: stage timings (fed by spans) + event counters.

The analytical tier's value proposition is wall-clock speed (the paper
sweeps five datasets × five baselines × ablations through it), so the
hot path carries permanent, near-zero-cost instrumentation:

* **stage timings** — every :meth:`repro.telemetry.trace.Tracer.span`
  (``partition``, ``tiling``, ``mapping``, ``traffic``, ``noc``,
  ``dram``, ``compute_count`` …) adds its wall time to the
  ``repro_stage_seconds`` histogram family, labelled by span name,
  whether tracing is on or off.  The span is the only stage primitive;
  :attr:`PerfRegistry.stages` is a read-only view of that family;
* **counters** — integer event counts, used for the memoization layers'
  hit/miss bookkeeping (``mapping.tile_cache_hit``,
  ``tiling.plan_cache_hit``, ``partition.sample_cache_hit`` …), kept in
  the ``repro_events_total`` family (labelled by event).

Both families live in the process-global
:data:`~repro.telemetry.metrics.METRICS` store, which the serve
``/metrics`` endpoint renders as Prometheus text.  The ``stages`` /
``counters`` / ``snapshot()`` views keep their historical shapes, which
perfbench and the test-suite rely on.

Thread safety: the underlying metric children carry their own locks, so
spans and ``incr`` calls from serve's executor threads never lose
updates and ``snapshot()`` never reads a torn ``calls``/``seconds`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..telemetry.metrics import METRICS
from ..telemetry.trace import STAGE_SECONDS

__all__ = ["PerfRegistry", "StageStat", "PERF"]


@dataclass
class StageStat:
    """Accumulated wall time of one named stage."""

    calls: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "seconds": self.seconds}


class PerfRegistry:
    """Span-fed stage timings and event counters in :data:`METRICS`."""

    def __init__(self) -> None:
        self._stages = STAGE_SECONDS
        self._events = METRICS.counter(
            "repro_events_total",
            help="Instrumentation event counts (cache hits, sheds, …)",
            labelnames=("event",),
        )

    # -- counters ------------------------------------------------------
    def incr(self, name: str, n: int = 1) -> None:
        self._events.labels(event=name).inc(n)

    # -- views ---------------------------------------------------------
    @property
    def stages(self) -> dict[str, StageStat]:
        """Live per-stage view: ``{name: StageStat(calls, seconds)}``."""
        out = {}
        for (name,), hist in self._stages.series().items():
            state = hist.as_dict()  # lock-consistent count/sum pair
            out[name] = StageStat(calls=state["count"], seconds=state["sum"])
        return out

    @property
    def counters(self) -> dict[str, int]:
        """Live counter view: ``{name: count}`` (ints, as historically)."""
        return {
            name: int(counter.get())
            for (name,), counter in self._events.series().items()
        }

    # -- lifecycle -----------------------------------------------------
    def reset(self) -> None:
        """Clear the perf families (other families in the shared
        registry, e.g. serve request metrics, are left alone)."""
        self._stages.clear()
        self._events.clear()

    def snapshot(self) -> dict:
        """JSON-ready view: stage timings plus counters."""
        return {
            "stages": {
                name: stat.as_dict() for name, stat in sorted(self.stages.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


#: The process-global registry every instrumented module reports into,
#: sharing its backing store with the ``/metrics`` endpoint.
PERF = PerfRegistry()
