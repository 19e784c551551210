"""Span-fed stage timings under concurrency: no lost updates, no torn reads.

Serve drives the simulator from executor threads, so spans (which time
their stage into ``repro_stage_seconds`` on exit) and ``PERF.incr`` race
with each other and with ``snapshot()`` reads from the stats endpoint.
These tests hammer the stage family from many threads, through traced
and untraced tracers, and assert (a) every observation lands and (b) a
concurrent reader never observes a histogram whose count disagrees with
its buckets.
"""

import sys
import threading

from repro.perf import PERF
from repro.telemetry import Tracer
from repro.telemetry.trace import STAGE_SECONDS

WORKERS = 8
N = 2_000


def run_threads(targets) -> None:
    """Run every target on its own thread with frequent thread switches."""
    threads = [threading.Thread(target=t) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestConcurrentWrites:
    def setup_method(self):
        PERF.reset()

    def test_concurrent_spans_lose_no_observation(self):
        traced, untraced = Tracer(enabled=True), Tracer(enabled=False)

        def pump(w: int):
            tracer = traced if w % 2 else untraced
            stage = f"stage{w % 3}"

            def run() -> None:
                for _ in range(N):
                    with tracer.span(stage):
                        pass

            return run

        run_threads([pump(w) for w in range(WORKERS)])
        stages = PERF.stages
        assert sum(s.calls for s in stages.values()) == WORKERS * N
        assert all(s.seconds >= 0.0 for s in stages.values())
        assert traced.buffer.stats()["total"] == WORKERS // 2 * N

    def test_timer_contextmanager_concurrent(self):
        tracer = Tracer()
        rounds = 500

        def pump() -> None:
            for _ in range(rounds):
                with tracer.span("stage"):
                    pass

        run_threads([pump] * WORKERS)
        assert PERF.stages["stage"].calls == WORKERS * rounds

    def test_incr_loses_no_updates(self):
        def pump(w: int):
            def run() -> None:
                for _ in range(N):
                    PERF.incr(f"event{w % 3}")

            return run

        run_threads([pump(w) for w in range(WORKERS)])
        assert sum(PERF.counters.values()) == WORKERS * N


class TestConcurrentReads:
    def setup_method(self):
        PERF.reset()

    def test_snapshot_never_torn(self):
        """A reader's count/sum pair comes from one locked read: the
        histogram's buckets always add up to its count."""
        tracer = Tracer()
        stop = threading.Event()
        failures: list[str] = []

        def writer() -> None:
            while not stop.is_set():
                with tracer.span("s"):
                    pass
                PERF.incr("e")

        def reader() -> None:
            while not stop.is_set():
                state = STAGE_SECONDS.labels(stage="s").as_dict()
                binned = sum(state["buckets"].values()) + state["overflow"]
                if binned != state["count"] or state["sum"] < 0.0:
                    failures.append(
                        f"torn read: count={state['count']} binned={binned}"
                    )
                    return
                stage = PERF.snapshot()["stages"].get("s")
                if stage is not None and (stage["calls"] < 0 or stage["seconds"] < 0):
                    failures.append(f"negative stage: {stage}")
                    return

        writers = [threading.Thread(target=writer) for _ in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in writers + readers:
            t.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for t in readers:
            t.join()
        stop.set()
        timer.cancel()
        for t in writers:
            t.join()
        assert failures == []

    def test_reset_during_writes_keeps_invariants(self):
        tracer = Tracer()
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                with tracer.span("s"):
                    pass

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                PERF.reset()
                snap = PERF.snapshot()["stages"].get("s")
                if snap is not None:
                    assert snap["calls"] >= 0
                    assert snap["seconds"] >= 0.0
        finally:
            stop.set()
            for t in threads:
                t.join()
