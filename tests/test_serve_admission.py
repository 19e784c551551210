"""Tests for the bounded admission controller and drain lifecycle."""

import asyncio

import pytest

from repro.serve.admission import AdmissionController


class TestBudget:
    def test_admits_up_to_depth_then_sheds(self):
        ctl = AdmissionController(max_pending=2)
        assert ctl.try_acquire()
        assert ctl.try_acquire()
        assert not ctl.try_acquire()  # full → shed
        assert ctl.snapshot()["admitted"] == 2
        assert ctl.snapshot()["shed"] == 1
        assert ctl.in_flight == 2

    def test_release_frees_a_slot(self):
        ctl = AdmissionController(max_pending=1)
        assert ctl.try_acquire()
        assert not ctl.try_acquire()
        ctl.release()
        assert ctl.try_acquire()
        assert ctl.snapshot()["completed"] == 1

    def test_unmatched_release_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController().release()

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)


class TestDrain:
    def test_draining_rejects_new_work(self):
        ctl = AdmissionController(max_pending=4)
        ctl.begin_drain()
        assert not ctl.try_acquire()
        assert ctl.snapshot()["rejected_draining"] == 1
        assert ctl.snapshot()["shed"] == 0  # distinct counter from load shedding

    def test_wait_drained_immediate_when_idle(self):
        ctl = AdmissionController()

        async def run():
            return await ctl.wait_drained(timeout=0.1)

        assert asyncio.run(run()) is True

    def test_wait_drained_completes_on_last_release(self):
        ctl = AdmissionController()
        assert ctl.try_acquire()

        async def run():
            async def finish_later():
                await asyncio.sleep(0.02)
                ctl.release()

            task = asyncio.ensure_future(finish_later())
            drained = await ctl.wait_drained(timeout=2.0)
            await task
            return drained

        assert asyncio.run(run()) is True

    def test_wait_drained_times_out(self):
        ctl = AdmissionController()
        assert ctl.try_acquire()  # never released

        async def run():
            return await ctl.wait_drained(timeout=0.05)

        assert asyncio.run(run()) is False

    def test_snapshot_shape(self):
        ctl = AdmissionController(max_pending=3)
        ctl.try_acquire()
        snap = ctl.snapshot()
        assert snap["max_pending"] == 3
        assert snap["in_flight"] == 1
        assert snap["draining"] is False
        assert snap["admitted"] == 1
