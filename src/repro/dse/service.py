"""Async search management for the serving layer.

``POST /dse`` cannot block a request thread for a whole search, so the
:class:`DSEManager` runs each accepted search on a daemon thread and
hands back a search id; ``GET /dse/<id>`` polls a thread-safe snapshot
(state, evaluation count, running best, trajectory tail).  Searches
share the server's :class:`ResultCache`, so a search warms the cache
for the serving path and vice versa — one content-addressed store under
everything.

Budgets are clamped server-side (``MAX_EVALUATIONS_CAP``,
``MAX_SECONDS_CAP``, bounded concurrent searches) so one client cannot
wedge a replica with an unbounded search.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time

from .artifacts import read_trajectory
from .runner import DSERunner, SearchSpec

__all__ = ["DSEManager", "MAX_EVALUATIONS_CAP", "MAX_SECONDS_CAP"]

#: Hard server-side caps on a single ``POST /dse`` request.
MAX_EVALUATIONS_CAP = 512
MAX_SECONDS_CAP = 300.0
MAX_BATCH_CAP = 32

#: Finished searches kept for polling before eviction (FIFO).
KEEP_FINISHED = 32


class _Search:
    """One accepted search: its runner, thread, and final result."""

    def __init__(self, search_id: str, runner: DSERunner) -> None:
        self.id = search_id
        self.runner = runner
        self.result = None
        self.error: str | None = None
        self.created = time.time()
        self.thread = threading.Thread(
            target=self._run, name=f"dse-{search_id}", daemon=True
        )

    def _run(self) -> None:
        try:
            self.result = self.runner.run()
        except Exception as exc:  # noqa: BLE001 — surfaced via polling
            self.error = f"{type(exc).__name__}: {exc}"

    @property
    def state(self) -> str:
        if self.error is not None:
            return "error"
        if self.thread.is_alive():
            return "running"
        if self.result is not None:
            return "done"
        return "pending"


class DSEManager:
    """Accept, run and expose budgeted searches for one server replica."""

    def __init__(
        self,
        *,
        cache=None,
        artifact_dir=None,
        max_active: int = 2,
        replica_id: str = "0",
    ) -> None:
        self.cache = cache
        self.artifact_dir = artifact_dir
        self.max_active = max_active
        self.replica_id = replica_id
        self._searches: dict[str, _Search] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count()
        self.started_total = 0
        self.rejected_total = 0

    # -- admission -----------------------------------------------------
    def _next_id(self, spec: SearchSpec) -> str:
        seq = next(self._counter)
        blob = f"{self.replica_id}:{seq}:{spec.as_dict()}:{time.time_ns()}"
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def _active_count(self) -> int:
        return sum(
            1 for s in self._searches.values() if s.thread.is_alive()
        )

    def parse_spec(self, body: dict) -> SearchSpec:
        """Validate a request body into a clamped :class:`SearchSpec`.

        Raises ``ValueError`` with a client-presentable message for any
        malformed or over-budget field.
        """
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        spec = SearchSpec.from_dict(body)
        if spec.max_evaluations > MAX_EVALUATIONS_CAP:
            raise ValueError(
                f"max_evaluations exceeds server cap ({MAX_EVALUATIONS_CAP})"
            )
        if spec.max_seconds is not None and spec.max_seconds > MAX_SECONDS_CAP:
            raise ValueError(
                f"max_seconds exceeds server cap ({MAX_SECONDS_CAP:g})"
            )
        if spec.batch > MAX_BATCH_CAP:
            raise ValueError(f"batch exceeds server cap ({MAX_BATCH_CAP})")
        if spec.max_seconds is None:
            # Every hosted search gets a wall-clock bound even if the
            # client didn't ask for one.
            spec = SearchSpec.from_dict(
                {**spec.as_dict(), "max_seconds": MAX_SECONDS_CAP}
            )
        return spec

    def start(self, body: dict) -> dict:
        """Accept a search request; returns the poll handle.

        Raises ``ValueError`` for bad specs and ``RuntimeError`` when the
        replica is already running its maximum concurrent searches.
        """
        spec = self.parse_spec(body)
        with self._lock:
            if self._active_count() >= self.max_active:
                self.rejected_total += 1
                raise RuntimeError("too many concurrent searches")
            search_id = self._next_id(spec)
            if self.artifact_dir is None:
                import tempfile

                self.artifact_dir = tempfile.mkdtemp(prefix="repro-dse-")
            from pathlib import Path

            trajectory_path = Path(self.artifact_dir) / f"dse_{search_id}.jsonl"
            runner = DSERunner(
                spec,
                cache=self.cache,
                trajectory_path=trajectory_path,
            )
            search = _Search(search_id, runner)
            self._searches[search_id] = search
            self.started_total += 1
            self._evict_finished()
        search.thread.start()
        return {
            "search_id": search_id,
            "status": "accepted",
            "poll": f"/dse/{search_id}",
            "spec": spec.as_dict(),
        }

    def _evict_finished(self) -> None:
        finished = [
            sid
            for sid, s in self._searches.items()
            if not s.thread.is_alive() and s.thread.ident is not None
        ]
        while len(finished) > KEEP_FINISHED:
            self._searches.pop(finished.pop(0), None)

    # -- polling -------------------------------------------------------
    def status(self, search_id: str, *, tail: int = 5) -> dict | None:
        """Poll snapshot for one search (None for unknown ids)."""
        with self._lock:
            search = self._searches.get(search_id)
        if search is None:
            return None
        snapshot = search.runner.snapshot()
        payload = {
            "search_id": search_id,
            "state": search.state,
            "spec": search.runner.spec.as_dict(),
            **snapshot,
        }
        if search.error is not None:
            payload["error"] = search.error
        if search.result is not None:
            payload["result"] = search.result.as_dict()
        trajectory_path = search.runner.trajectory_path
        if trajectory_path is not None and trajectory_path.exists():
            try:
                _, records = read_trajectory(trajectory_path)
                payload["trajectory_tail"] = records[-tail:]
            except Exception:  # noqa: BLE001 — partial write mid-poll
                pass
        return payload

    def cancel(self, search_id: str) -> bool:
        """Request cooperative cancellation of a running search."""
        with self._lock:
            search = self._searches.get(search_id)
        if search is None:
            return False
        search.runner.cancel.set()
        return True

    def stats(self) -> dict:
        with self._lock:
            return {
                "active": self._active_count(),
                "tracked": len(self._searches),
                "started_total": self.started_total,
                "rejected_total": self.rejected_total,
            }
