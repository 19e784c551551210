"""Metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` holds named metric *families*; a family with
label names fans out into one child series per label-value tuple (the
Prometheus data model, minus the pull protocol).  Everything is
thread-safe: serve's executor threads, the event loop, and process-pool
collection all report into one process-global :data:`METRICS`.

Two families carry the program's instrumentation: every
:meth:`repro.telemetry.trace.Tracer.span` observes its wall time into
``repro_stage_seconds`` (labelled by span name), and ``PERF.incr``
counts into ``repro_events_total``.  :class:`repro.perf.instrumentation.
PerfRegistry` is a view over both, so stages, counters and ``/metrics``
read one store.

Histogram quantiles are *bucket-resolution estimates*: ``quantile(q)``
returns the upper bound of the bucket containing the q-th sample, which
is exactly the fidelity Prometheus' ``histogram_quantile`` offers.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from math import inf

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "METRICS",
    "DEFAULT_BUCKETS",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")

#: Log-spaced seconds buckets covering 10µs … 60s — wide enough for both
#: per-tile stage timers and end-to-end request latencies.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += n

    def get(self) -> float:
        with self._lock:
            return self.value

    def as_dict(self) -> dict:
        return {"value": self.get()}


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self.value -= n

    def get(self) -> float:
        with self._lock:
            return self.value

    def as_dict(self) -> dict:
        return {"value": self.get()}


class Histogram:
    """Fixed-bucket histogram with count, sum, and quantile estimates."""

    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self._lock = threading.Lock()
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # trailing +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float | None:
        """Bucket-upper-bound estimate of the q-th quantile."""
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            total = self.count
            counts = list(self.counts)
        if total == 0:
            return None
        target = q * total
        cumulative = 0
        for i, n in enumerate(counts):
            cumulative += n
            if cumulative >= target and n:
                return self.buckets[i] if i < len(self.buckets) else inf
        return inf

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.sum,
                "buckets": dict(zip(self.buckets, self.counts)),
                "overflow": self.counts[-1],
            }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric, fanned out by label values."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _LABEL_RE.fullmatch(label):
                raise ValueError(f"invalid label name: {label!r}")
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {sorted(_KINDS)}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        if not self.labelnames:  # an unlabelled family is its one child
            self._children[()] = self._make()

    def _make(self):
        if self.kind == "histogram":
            return Histogram(self._buckets)
        return _KINDS[self.kind]()

    def labels(self, **labelvalues):
        """The child series for one label-value assignment."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make())
        return child

    # Unlabelled convenience pass-throughs -----------------------------
    def inc(self, n: float = 1.0) -> None:
        self._children[()].inc(n)

    def set(self, value: float) -> None:
        self._children[()].set(value)

    def dec(self, n: float = 1.0) -> None:
        self._children[()].dec(n)

    def observe(self, value: float) -> None:
        self._children[()].observe(value)

    def get(self):
        return self._children[()].get()

    def quantile(self, q: float):
        return self._children[()].quantile(q)

    # ------------------------------------------------------------------
    def series(self) -> dict[tuple[str, ...], "Counter | Gauge | Histogram"]:
        with self._lock:
            return dict(self._children)

    def clear(self) -> None:
        """Drop every child series (and re-seed the unlabelled one)."""
        with self._lock:
            self._children.clear()
            if not self.labelnames:
                self._children[()] = self._make()


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _labels_text(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{n}="{_escape(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """Process-wide collection of metric families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _get_or_create(self, name: str, kind: str, **kwargs) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, **kwargs)
                self._families[name] = family
                return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._get_or_create(
            name, "counter", help=help, labelnames=labelnames
        )

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._get_or_create(
            name, "gauge", help=help, labelnames=labelnames
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._get_or_create(
            name, "histogram", help=help, labelnames=labelnames, buckets=buckets
        )

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def reset(self) -> None:
        """Clear every series (families stay registered)."""
        for family in self.families():
            family.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view of every family and series."""
        out: dict = {}
        for family in self.families():
            series = {}
            for key, child in sorted(family.series().items()):
                label = ",".join(key) if key else ""
                series[label] = child.as_dict()
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "labels": list(family.labelnames),
                "series": series,
            }
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for family in sorted(self.families(), key=lambda f: f.name):
            if family.help:
                lines.append(f"# HELP {family.name} {_escape(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in sorted(family.series().items()):
                labels = _labels_text(family.labelnames, key)
                if isinstance(child, Histogram):
                    state = child.as_dict()
                    cumulative = 0
                    for bound, count in state["buckets"].items():
                        cumulative += count
                        le = _labels_text(
                            family.labelnames, key, extra=f'le="{bound:g}"'
                        )
                        lines.append(f"{family.name}_bucket{le} {cumulative}")
                    le = _labels_text(
                        family.labelnames, key, extra='le="+Inf"'
                    )
                    lines.append(
                        f"{family.name}_bucket{le} {state['count']}"
                    )
                    lines.append(
                        f"{family.name}_sum{labels} {state['sum']:g}"
                    )
                    lines.append(
                        f"{family.name}_count{labels} {state['count']}"
                    )
                else:
                    lines.append(f"{family.name}{labels} {child.get():g}")
        return "\n".join(lines) + "\n"


#: The process-global registry ``/metrics`` renders and ``PERF`` feeds.
METRICS = MetricsRegistry()
