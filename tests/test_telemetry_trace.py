"""Tracer core: nesting, sampling, buffering, and propagation."""

import asyncio
import threading

import pytest

from repro.runtime.executor import FakeExecutor, SerialExecutor
from repro.runtime.jobs import SimJob
from repro.runtime.runner import run_jobs
from repro.telemetry.trace import (
    TRACER,
    Span,
    SpanBuffer,
    Tracer,
    valid_trace_id,
)


def make_tracer(**kwargs) -> Tracer:
    kwargs.setdefault("enabled", True)
    return Tracer(**kwargs)


class TestSpanNesting:
    def test_root_span_gets_trace_and_span_ids(self):
        tracer = make_tracer()
        with tracer.span("root") as span:
            assert span.trace_id and span.span_id
            assert span.parent_id is None

    def test_children_inherit_trace_id_and_parent_link(self):
        tracer = make_tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                with tracer.span("grandchild") as grand:
                    assert grand.parent_id == child.span_id

    def test_sibling_spans_share_parent(self):
        tracer = make_tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_finished_spans_land_in_buffer_children_first(self):
        tracer = make_tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        names = [s.name for s in tracer.buffer.spans()]
        assert names == ["child", "root"]

    def test_exception_marks_error_and_reraises(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("kaput")
        (span,) = tracer.buffer.spans()
        assert span.status == "error"
        assert "kaput" in span.error

    def test_duration_and_attributes_recorded(self):
        tracer = make_tracer()
        with tracer.span("stage", {"k": 1}) as span:
            span.set(extra="v")
        (got,) = tracer.buffer.spans()
        assert got.duration >= 0.0
        assert got.attributes == {"k": 1, "extra": "v"}


class TestDisabledFastPath:
    def test_disabled_tracer_yields_shared_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                assert a is b  # the shared no-op instance
        assert a.sampled is False
        assert len(tracer.buffer) == 0

    def test_noop_span_accepts_set(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a") as span:
            assert span.set(anything=1) is span

    def test_global_tracer_starts_disabled(self):
        assert TRACER.enabled is False

    def test_current_context_is_none_when_disabled(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a"):
            assert tracer.current_context() is None


class TestSampling:
    def test_sample_rate_zero_records_nothing(self):
        tracer = make_tracer(sample_rate=0.0)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert len(tracer.buffer) == 0

    def test_sampling_decided_at_root_inherited_by_children(self):
        import random

        tracer = make_tracer(sample_rate=0.5, rng=random.Random(42))
        for _ in range(50):
            with tracer.span("root") as root:
                with tracer.span("child") as child:
                    assert child.sampled == root.sampled
        by_trace = {}
        for span in tracer.buffer.spans():
            by_trace.setdefault(span.trace_id, []).append(span)
        # A sampled trace always keeps both members — never half a tree.
        assert all(len(members) == 2 for members in by_trace.values())
        assert 0 < len(by_trace) < 50

    def test_explicit_trace_id_forces_sampling(self):
        tracer = make_tracer(sample_rate=0.0)
        with tracer.span("root", trace_id="abc123") as span:
            assert span.sampled is True
            assert span.trace_id == "abc123"
        assert len(tracer.buffer) == 1


class TestSpanBuffer:
    def test_bounded_with_drop_accounting(self):
        buf = SpanBuffer(maxlen=3)
        for i in range(5):
            buf.add(Span(name=f"s{i}", trace_id="t", span_id=str(i)))
        assert len(buf) == 3
        assert buf.total == 5
        assert buf.dropped == 2
        assert [s.name for s in buf.spans()] == ["s2", "s3", "s4"]

    def test_trace_id_filter(self):
        buf = SpanBuffer()
        buf.add(Span(name="a", trace_id="t1", span_id="1"))
        buf.add(Span(name="b", trace_id="t2", span_id="2"))
        assert [s.name for s in buf.spans(trace_id="t2")] == ["b"]

    def test_drain_empties_and_returns(self):
        buf = SpanBuffer()
        buf.add(Span(name="a", trace_id="t", span_id="1"))
        assert [s.name for s in buf.drain()] == ["a"]
        assert len(buf) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpanBuffer(maxlen=0)

    def test_concurrent_adds_lose_nothing(self):
        buf = SpanBuffer(maxlen=100_000)
        n, workers = 2_000, 8

        def pump(w: int) -> None:
            for i in range(n):
                buf.add(Span(name="s", trace_id="t", span_id=f"{w}-{i}"))

        threads = [
            threading.Thread(target=pump, args=(w,)) for w in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert buf.total == n * workers
        assert len(buf) == n * workers


class TestSerialization:
    def test_round_trip(self):
        span = Span(
            name="stage",
            trace_id="t",
            span_id="s",
            parent_id="p",
            start_time=12.5,
            duration=0.25,
            attributes={"k": "v"},
            status="error",
            error="ValueError: nope",
        )
        assert Span.from_dict(span.to_dict()) == span

    def test_valid_trace_id_sanitizer(self):
        assert valid_trace_id("ABCDEF12") == "abcdef12"
        assert valid_trace_id("  deadbeef  ") == "deadbeef"
        assert valid_trace_id("") is None
        assert valid_trace_id(None) is None
        assert valid_trace_id("not-hex!") is None
        assert valid_trace_id("a" * 33) is None


class TestAsyncPropagation:
    def test_concurrent_tasks_see_their_own_ancestry(self):
        tracer = make_tracer()

        async def request(name: str) -> tuple[str, str]:
            with tracer.span(name) as root:
                await asyncio.sleep(0)
                with tracer.span(f"{name}.child") as child:
                    await asyncio.sleep(0)
                    return child.trace_id, root.trace_id

        async def main():
            return await asyncio.gather(request("r1"), request("r2"))

        (c1, r1), (c2, r2) = asyncio.run(main())
        assert c1 == r1 and c2 == r2
        assert r1 != r2

    def test_to_thread_inherits_current_span(self):
        tracer = make_tracer()

        def work() -> dict | None:
            return tracer.current_context()

        async def main():
            with tracer.span("root") as root:
                ctx = await asyncio.to_thread(work)
                return root, ctx

        root, ctx = asyncio.run(main())
        assert ctx is not None
        assert ctx["trace_id"] == root.trace_id
        assert ctx["span_id"] == root.span_id


class TestRemoteAndCollect:
    def test_collect_diverts_spans_from_buffer(self):
        tracer = make_tracer()
        with tracer.collect() as collected:
            with tracer.span("inner"):
                pass
        assert [s.name for s in collected] == ["inner"]
        assert len(tracer.buffer) == 0

    def test_remote_adopts_context_and_merge_rebuilds_tree(self):
        parent = make_tracer()
        with parent.span("run_jobs") as sweep:
            ctx = parent.current_context()
        # Simulate the worker process: a fresh, disabled tracer.
        worker = Tracer(enabled=False)
        with worker.remote(ctx), worker.collect() as collected:
            with worker.span("executor.job"):
                pass
        assert worker.enabled is False  # restored after the block
        shipped = [s.to_dict() for s in collected]
        assert parent.merge(shipped) == 1
        spans = parent.buffer.spans(trace_id=sweep.trace_id)
        job = next(s for s in spans if s.name == "executor.job")
        assert job.parent_id == sweep.span_id

    def test_merge_skips_malformed_records(self):
        tracer = make_tracer()
        good = Span(name="ok", trace_id="t", span_id="1").to_dict()
        assert tracer.merge([{"nope": 1}, good, "junk"]) == 1


class TestRunJobsIntegration:
    def job(self, seed: int = 7) -> SimJob:
        return SimJob(
            model="gcn", dataset="cora", scale=0.05, hidden=4, seed=seed
        )

    def test_run_jobs_produces_single_tree(self):
        with TRACER.session():
            with TRACER.span("request") as root:
                report = run_jobs([self.job()], executor=SerialExecutor())
            assert report.outcomes[0].ok
            spans = TRACER.buffer.spans(trace_id=root.trace_id)
        names = {s.name for s in spans}
        assert {"run_jobs", "cache.probe", "executor.job", "simulate_layer"} <= names
        ids = {s.span_id for s in spans} | {root.span_id}
        assert all(
            s.parent_id in ids for s in spans if s.parent_id is not None
        )

    def test_fake_executor_carries_trace_ctx(self):
        with TRACER.session():
            with TRACER.span("request"):
                run_jobs([self.job()], executor=FakeExecutor())
            names = {s.name for s in TRACER.buffer.spans()}
        assert "executor.job" in names

    def test_session_restores_disabled_state(self):
        assert TRACER.enabled is False
        with TRACER.session():
            assert TRACER.enabled is True
        assert TRACER.enabled is False
