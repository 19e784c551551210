"""Structured deadlock reporting for the flit-level simulator.

When a run fails to drain, :class:`~repro.arch.noc.network.NoCSimulator`
raises :class:`NoCDeadlockError` instead of a bare ``RuntimeError`` — the
message keeps the historical "did not drain" phrasing, but the exception
also carries the cycle, the outstanding packet count, and the per-router
queue depths at the point of failure, which is what you need to tell a
true routing deadlock (a cyclic channel dependency holding buffers full)
from an undersized ``max_cycles``.
"""

from __future__ import annotations

__all__ = ["NoCDeadlockError"]


class NoCDeadlockError(RuntimeError):
    """A NoC run hit ``max_cycles`` with traffic still outstanding.

    Subclasses ``RuntimeError`` so existing ``except RuntimeError`` /
    ``pytest.raises(RuntimeError, match="did not drain")`` call sites
    keep working.

    Attributes:
        cycle: simulator cycle at which the run gave up.
        outstanding_packets: packets injected but not fully ejected.
        queue_depths: ``{router id: resident flits}`` for routers with a
            non-empty input queue when the run stopped.
        context: optional caller-supplied mapping (e.g. the tile and
            mapping the :class:`~repro.core.cycle_engine.CycleTileEngine`
            was executing).
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: int,
        outstanding_packets: int,
        queue_depths: dict[int, int],
        context: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.outstanding_packets = outstanding_packets
        self.queue_depths = queue_depths
        self.context = dict(context) if context else {}

    def with_context(self, **context) -> "NoCDeadlockError":
        """A copy carrying extra caller context (tile, mapping, ...)."""
        merged = {**self.context, **context}
        err = NoCDeadlockError(
            str(self.args[0]) if self.args else "NoC did not drain",
            cycle=self.cycle,
            outstanding_packets=self.outstanding_packets,
            queue_depths=self.queue_depths,
            context=merged,
        )
        return err

