"""Async simulation service: long-lived, batching, cache-fronted.

Turns the one-shot simulation CLI into a daemon that amortizes warm
state across requests:

* :mod:`.http` — minimal stdlib HTTP/1.1 on asyncio streams;
* :mod:`.protocol` — request canonicalization into frozen
  :class:`~repro.runtime.SimJob` specs and response encoding;
* :mod:`.admission` — bounded in-flight budget with 429 shedding and
  the drain lifecycle;
* :mod:`.batcher` — single-flight deduplication + micro-batching over
  :func:`repro.runtime.run_jobs`;
* :mod:`.server` — the service, ``/simulate`` ``/healthz`` ``/stats``,
  SIGTERM drain, and a thread host for tests/benches;
* :mod:`.client` — blocking client with retries, exponential backoff +
  jitter, and deadline propagation.

CLI: ``repro serve`` / ``repro request``; see ``docs/serving.md``.
"""

from .admission import AdmissionController
from .batcher import JobBatcher
from .client import (
    DeadlineExceeded,
    RequestFailed,
    ServeClient,
    ServeError,
    ServiceUnavailable,
)
from .protocol import ProtocolError, parse_simulation_request
from .server import LatencyWindow, ServerThread, SimulationService, serve_forever

__all__ = [
    "AdmissionController",
    "JobBatcher",
    "ServeClient",
    "ServeError",
    "RequestFailed",
    "DeadlineExceeded",
    "ServiceUnavailable",
    "ProtocolError",
    "parse_simulation_request",
    "LatencyWindow",
    "ServerThread",
    "SimulationService",
    "serve_forever",
]
