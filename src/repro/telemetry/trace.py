"""Structured tracing: spans, context propagation, and a bounded buffer.

The span is the program's one stage primitive.  One request through the
stack (serve → runtime → simulator) produces a *trace*: a tree of
:class:`Span` records sharing a ``trace_id``, each span naming one stage
(``http``, ``admission``, ``batcher``, ``run_jobs``, ``executor.job``,
``simulate_layer``, ``partition``, ``mapping`` …) with a wall-clock
start, a monotonic duration, and free-form attributes.  Whether tracing
is on or off, every span also adds its wall time to the
``repro_stage_seconds{stage=name}`` histogram (:data:`STAGE_SECONDS`),
which ``/metrics`` renders and ``PERF.stages`` reads — so one ``with
TRACER.span(name)`` feeds the stage timer, the trace and (through
:attr:`Tracer.on_span`) the live ``/observe`` event.

Design constraints, in order:

* **negligible cost when off** — the process-global :data:`TRACER`
  starts disabled; :meth:`Tracer.span` then times the block (two
  ``perf_counter`` reads and one histogram observe) and yields a shared
  no-op span without allocating, so permanently instrumented hot paths
  stay hot;
* **asyncio-safe context** — the current span lives in a
  :mod:`contextvars` variable, so concurrent requests on one event loop
  each see their own ancestry, and ``asyncio.to_thread`` /
  ``loop.create_task`` propagate it for free;
* **process-boundary propagation** — a span context serializes to a
  plain dict (:meth:`Tracer.current_context`); a worker process
  re-activates it with :meth:`Tracer.remote` + :meth:`Tracer.collect`,
  and the finished child spans travel back inside the executor's
  :class:`~repro.runtime.executor.ExecutionRecord` to be merged into
  the parent's buffer (:meth:`Tracer.merge`) — yielding one tree;
* **bounded memory** — finished spans land in a ring
  (:class:`SpanBuffer`); overflow drops the oldest and counts the drop.
"""

from __future__ import annotations

import contextvars
import os
import random
import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from .metrics import METRICS

__all__ = ["Span", "SpanBuffer", "Tracer", "TRACER", "STAGE_SECONDS"]

#: Buckets for the stage-seconds histograms: per-tile stages run in the
#: 10µs–10ms range, end-to-end jobs and requests in the 10ms–60s range.
STAGE_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 60.0,
)
#: Wall time of every span, labelled by span name, traced or not.
STAGE_SECONDS = METRICS.histogram(
    "repro_stage_seconds",
    help="Wall time per instrumented pipeline stage (every span)",
    labelnames=("stage",),
    buckets=STAGE_BUCKETS,
)

#: Span accounting exposed on /metrics (the buffer keeps the same
#: numbers for /stats).  Module-level handles survive METRICS.reset()
#: because the registry re-seeds families instead of dropping them.
_SPANS_TOTAL = METRICS.counter(
    "repro_spans_total",
    help="Spans recorded into the tracer buffer (local + merged)",
)
_SPANS_DROPPED = METRICS.counter(
    "repro_spans_dropped_total",
    help="Spans evicted from the tracer ring buffer by overflow",
)
_SAMPLE_RATE = METRICS.gauge(
    "repro_trace_sample_rate",
    help="Configured head-sampling rate of the tracer",
)

#: Context variable holding the innermost active span (or ``None``).
_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_current_span", default=None
)
#: When set, finished spans append here instead of the tracer buffer —
#: the executor uses this to ship a job's spans across the process gap.
_COLLECTOR: contextvars.ContextVar["list[Span] | None"] = contextvars.ContextVar(
    "repro_span_collector", default=None
)

_TRACE_ID_RE = re.compile(r"[0-9a-f]{1,32}")


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


def valid_trace_id(value: str | None) -> str | None:
    """Sanitize an externally supplied trace id (header) or ``None``."""
    if not value:
        return None
    value = value.strip().lower()
    return value if _TRACE_ID_RE.fullmatch(value) else None


@dataclass
class Span:
    """One timed stage of a trace.

    ``start_time`` is epoch seconds (comparable across processes on one
    machine); ``duration`` comes from ``perf_counter`` deltas so it is
    immune to wall-clock steps.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start_time: float = 0.0
    duration: float | None = None
    attributes: dict = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None
    sampled: bool = True
    _t0: float | None = field(default=None, repr=False, compare=False)

    def set(self, **attributes) -> "Span":
        """Attach attributes after the span started (fluent)."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration": self.duration,
            "attributes": self.attributes,
            "status": self.status,
        }
        if self.error is not None:
            data["error"] = self.error
        return data

    @staticmethod
    def from_dict(data: dict) -> "Span":
        return Span(
            name=data["name"],
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start_time=data.get("start_time", 0.0),
            duration=data.get("duration"),
            attributes=dict(data.get("attributes") or {}),
            status=data.get("status", "ok"),
            error=data.get("error"),
        )


class _NoopSpan:
    """Shared inert span the disabled fast path yields."""

    __slots__ = ()
    name = ""
    trace_id = None
    span_id = None
    parent_id = None
    sampled = False
    attributes: dict = {}

    def set(self, **attributes) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class SpanBuffer:
    """Bounded, thread-safe ring of finished spans."""

    def __init__(self, maxlen: int = 4096) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.maxlen = maxlen
        self._spans: deque[Span] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self.total = 0  # spans ever recorded
        self.dropped = 0  # spans evicted by overflow

    def add(self, span: Span) -> bool:
        """Append one span; ``True`` when an old span was evicted."""
        with self._lock:
            dropped = len(self._spans) == self.maxlen
            if dropped:
                self.dropped += 1
            self._spans.append(span)
            self.total += 1
        return dropped

    def add_many(self, spans: "list[Span]") -> None:
        for span in spans:
            self.add(span)

    def spans(self, *, trace_id: str | None = None) -> list[Span]:
        """A snapshot list, optionally filtered to one trace."""
        with self._lock:
            items = list(self._spans)
        if trace_id is not None:
            items = [s for s in items if s.trace_id == trace_id]
        return items

    def drain(self) -> list[Span]:
        with self._lock:
            items = list(self._spans)
            self._spans.clear()
        return items

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.total = 0
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def stats(self) -> dict:
        with self._lock:
            return {
                "buffered": len(self._spans),
                "capacity": self.maxlen,
                "total": self.total,
                "dropped": self.dropped,
            }


class Tracer:
    """Creates spans, owns the buffer, and carries context across gaps."""

    def __init__(
        self,
        *,
        enabled: bool = False,
        sample_rate: float = 1.0,
        buffer_size: int = 4096,
        rng: random.Random | None = None,
    ) -> None:
        self.enabled = enabled
        self.sample_rate = sample_rate
        self.buffer = SpanBuffer(buffer_size)
        self._rng = rng or random.Random()
        #: Optional callable fired with every span that lands in the
        #: buffer (locally finished or merged from a worker) — the
        #: bridge ``repro.observe`` uses for its push channel.  Must
        #: never raise; exceptions are swallowed so observability can
        #: never break the traced path.
        self.on_span = None

    # -- configuration --------------------------------------------------
    def configure(
        self,
        *,
        enabled: bool | None = None,
        sample_rate: float | None = None,
        buffer_size: int | None = None,
    ) -> None:
        if enabled is not None:
            self.enabled = enabled
        if sample_rate is not None:
            if not (0.0 <= sample_rate <= 1.0):
                raise ValueError("sample_rate must be in [0, 1]")
            self.sample_rate = sample_rate
            _SAMPLE_RATE.set(sample_rate)
        if buffer_size is not None and buffer_size != self.buffer.maxlen:
            self.buffer = SpanBuffer(buffer_size)

    @contextmanager
    def session(self, *, enabled: bool = True, sample_rate: float = 1.0):
        """Temporarily reconfigure (benches, tests); restores on exit.

        The buffer is cleared on entry so the session sees only its own
        spans; contents survive exit for the caller to snapshot.
        """
        saved = (self.enabled, self.sample_rate)
        self.buffer.clear()
        self.enabled = enabled
        self.sample_rate = sample_rate
        try:
            yield self
        finally:
            self.enabled, self.sample_rate = saved

    def snapshot(self) -> dict:
        """Config + buffer stats for ``/stats`` and bench snapshots."""
        return {
            "enabled": self.enabled,
            "sample_rate": self.sample_rate,
            **self.buffer.stats(),
        }

    # -- span lifecycle --------------------------------------------------
    def current_span(self) -> "Span | None":
        return _CURRENT.get()

    def current_context(self) -> dict | None:
        """The active span as a serializable context, ``None`` if absent
        or unsampled (nothing downstream would record anyway)."""
        span = _CURRENT.get()
        if span is None or not span.sampled or span.trace_id is None:
            return None
        return {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "sampled": True,
        }

    @contextmanager
    def span(
        self,
        name: str,
        attributes: dict | None = None,
        *,
        trace_id: str | None = None,
    ):
        """Open one span under the current context; time it as a stage.

        On exit the block's wall time is observed into
        :data:`STAGE_SECONDS` under ``name`` — also when tracing is off,
        and also when the block raises.  Roots (no active parent) draw a
        fresh ``trace_id`` — or adopt the supplied one — and make the
        sampling decision for the whole trace; children inherit both.
        Exceptions mark the span ``status="error"`` and re-raise.
        """
        if not self.enabled:
            t0 = time.perf_counter()
            try:
                yield _NOOP
            finally:
                STAGE_SECONDS.labels(stage=name).observe(time.perf_counter() - t0)
            return
        parent = _CURRENT.get()
        if parent is None or parent.trace_id is None:
            tid = trace_id or _new_id(16)
            parent_id = None
            sampled = (
                True
                if trace_id is not None
                else self.sample_rate >= 1.0
                or self._rng.random() < self.sample_rate
            )
        else:
            tid = parent.trace_id
            parent_id = parent.span_id
            sampled = parent.sampled
        span = Span(
            name=name,
            trace_id=tid,
            span_id=_new_id(8),
            parent_id=parent_id,
            start_time=time.time(),
            attributes=dict(attributes) if attributes else {},
            sampled=sampled,
            _t0=time.perf_counter(),
        )
        token = _CURRENT.set(span)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            _CURRENT.reset(token)
            span.duration = time.perf_counter() - (span._t0 or 0.0)
            STAGE_SECONDS.labels(stage=name).observe(span.duration)
            if span.sampled:
                self._record(span)

    def _record(self, span: Span) -> None:
        collector = _COLLECTOR.get()
        if collector is not None:
            # Diverted spans ship to the parent process and re-enter
            # through merge(); counting or hooking them here would
            # double-report.
            collector.append(span)
            return
        self._buffer_span(span)

    def _buffer_span(self, span: Span) -> None:
        _SPANS_TOTAL.inc()
        if self.buffer.add(span):
            _SPANS_DROPPED.inc()
        hook = self.on_span
        if hook is not None:
            try:
                hook(span)
            except Exception:  # noqa: BLE001 — observers must not
                # break the traced path
                pass

    # -- cross-boundary propagation --------------------------------------
    @contextmanager
    def remote(self, ctx: dict):
        """Adopt a serialized parent context (worker-process side).

        Re-enables the tracer for the block if needed — a fresh worker
        process starts with tracing off, but a context only exists
        because the parent *is* tracing.
        """
        marker = Span(
            name="<remote-parent>",
            trace_id=ctx["trace_id"],
            span_id=ctx["span_id"],
            sampled=bool(ctx.get("sampled", True)),
        )
        saved_enabled = self.enabled
        self.enabled = True
        token = _CURRENT.set(marker)
        try:
            yield
        finally:
            _CURRENT.reset(token)
            self.enabled = saved_enabled

    @contextmanager
    def collect(self):
        """Divert spans finished in this context into a local list."""
        spans: list[Span] = []
        token = _COLLECTOR.set(spans)
        try:
            yield spans
        finally:
            _COLLECTOR.reset(token)

    def merge(self, span_dicts: "list[dict]") -> int:
        """Fold serialized child spans into this tracer's buffer."""
        if not self.enabled or not span_dicts:
            return 0
        merged = 0
        for data in span_dicts:
            try:
                span = Span.from_dict(data)
            except (KeyError, TypeError):
                continue  # a malformed record must not kill the sweep
            self._buffer_span(span)
            merged += 1
        return merged


#: The process-global tracer every instrumented module reports into.
TRACER = Tracer()
