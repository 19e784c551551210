"""Lightweight perf instrumentation: stage timers + event counters.

The analytical tier's value proposition is wall-clock speed (the paper
sweeps five datasets × five baselines × ablations through it), so the
hot path carries permanent, near-zero-cost instrumentation:

* **stage timers** — monotonic (``time.perf_counter``) accumulators per
  named stage (``mapping``, ``traffic``, ``noc``, ``compute_count``,
  ``tiling``, ``dram`` …), threaded through the simulator, the mapping
  layer, the NoC model, and the job runtime;
* **counters** — integer event counts, used for the memoization layers'
  hit/miss bookkeeping (``mapping.tile_cache_hit``,
  ``noc.model_cache_hit``, ``config.plan_cache_hit`` …).

Since the telemetry subsystem landed, :class:`PerfRegistry` is a **thin
adapter** over :mod:`repro.telemetry.metrics`: ``add_time`` observes
into the ``repro_stage_seconds`` histogram family (labelled by stage)
and ``incr`` increments ``repro_events_total`` (labelled by event) — so
every existing ``PERF`` call site also feeds the store the serve
``/metrics`` endpoint renders as Prometheus text.  The ``stages`` /
``counters`` / ``snapshot()`` views keep their historical shapes, which
perfbench and the test-suite rely on.

Thread safety: the underlying metric children carry their own locks, so
``add_time``/``incr`` from serve's executor threads never lose updates
and ``snapshot()`` never reads a torn ``calls``/``seconds`` pair.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..telemetry.metrics import METRICS, MetricsRegistry

__all__ = ["PerfRegistry", "StageStat", "PERF"]

#: Buckets for the stage-seconds histograms: per-tile stages run in the
#: 10µs–10ms range, end-to-end jobs and requests in the 10ms–60s range.
STAGE_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 60.0,
)


@dataclass
class StageStat:
    """Accumulated wall time of one named stage."""

    calls: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "seconds": self.seconds}


class PerfRegistry:
    """Stage timings and event counters, backed by the metrics registry.

    By default each instance gets a private :class:`MetricsRegistry`
    (hermetic, as tests expect); the process-global :data:`PERF` wraps
    the process-global :data:`~repro.telemetry.metrics.METRICS` so perf
    signals surface on ``/metrics`` too.
    """

    def __init__(
        self, enabled: bool = True, registry: MetricsRegistry | None = None
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self._stages = self.registry.histogram(
            "repro_stage_seconds",
            help="Wall time per instrumented pipeline stage",
            labelnames=("stage",),
            buckets=STAGE_BUCKETS,
        )
        self._events = self.registry.counter(
            "repro_events_total",
            help="Instrumentation event counts (cache hits, sheds, …)",
            labelnames=("event",),
        )

    # -- timers --------------------------------------------------------
    @contextmanager
    def timer(self, name: str):
        """Time a ``with`` block and accumulate it under ``name``."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    def add_time(self, name: str, seconds: float) -> None:
        if not self.enabled:
            return
        self._stages.labels(stage=name).observe(seconds)

    # -- counters ------------------------------------------------------
    def incr(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            return
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
        """Clear the perf families (other families in a shared registry,
        e.g. serve request metrics, are left alone)."""
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
PERF = PerfRegistry(registry=METRICS)
