"""Admission control: a bounded in-flight budget with load shedding.

The service never queues unboundedly: each accepted request holds one
slot from admission to response, and when all ``max_pending`` slots are
taken new requests are *shed* immediately (HTTP 429) instead of piling
up RAM and latency.  Shedding is the resilient-client's cue to back off
and retry — see :mod:`repro.serve.client`.

The controller also owns the drain lifecycle: once draining, nothing new
is admitted (HTTP 503) and :meth:`wait_drained` completes when the last
in-flight request finishes — which is exactly the SIGTERM story.
"""

from __future__ import annotations

import asyncio

from ..telemetry.metrics import MetricFamily, event_children

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded concurrent-request budget with immediate shedding.

    Its lifetime counts (admitted, shed, rejected while draining,
    released) are children of the owner's ``events`` family.
    """

    def __init__(
        self, max_pending: int = 64, *, events: MetricFamily | None = None
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        self._admitted, self._shed, self._rejected, self._released = (
            event_children(
                events, "admitted", "shed", "rejected_draining", "released"
            )
        )
        self._in_flight = 0
        self._draining = False
        self._idle: asyncio.Event | None = None

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def draining(self) -> bool:
        return self._draining

    def try_acquire(self) -> bool:
        """Claim one slot; ``False`` sheds the request (429/503)."""
        if self._draining:
            self._rejected.inc()
            return False
        if self._in_flight >= self.max_pending:
            self._shed.inc()
            return False
        self._in_flight += 1
        self._admitted.inc()
        if self._idle is not None:
            self._idle.clear()
        return True

    def release(self) -> None:
        """Return a slot claimed by :meth:`try_acquire`."""
        if self._in_flight <= 0:
            raise RuntimeError("release() without a matching try_acquire()")
        self._in_flight -= 1
        self._released.inc()
        if self._in_flight == 0 and self._idle is not None:
            self._idle.set()

    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting; already-admitted requests run to completion."""
        self._draining = True

    async def wait_drained(self, timeout: float | None = None) -> bool:
        """Await zero in-flight requests; ``False`` if ``timeout`` hit."""
        if self._in_flight == 0:
            return True
        if self._idle is None:
            self._idle = asyncio.Event()
        if self._in_flight == 0:  # re-check: release() may have raced
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    def snapshot(self) -> dict:
        """Stats view for ``/stats``."""
        return {
            "max_pending": self.max_pending,
            "in_flight": self._in_flight,
            "draining": self._draining,
            "admitted": int(self._admitted.get()),
            "shed": int(self._shed.get()),
            "rejected_draining": int(self._rejected.get()),
            "completed": int(self._released.get()),
        }
