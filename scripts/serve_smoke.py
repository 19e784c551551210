"""CI smoke test for `repro serve`.

Boots the real server as a subprocess, drives it with the resilient
client — concurrent cold requests (single-flight), a warm cache hit
with a latency bound that runs no batch, overload shedding — exports the request traces as a
Chrome ``trace.json`` (validated: well-formed events, at least one
complete request tree), then checks the SIGTERM drain contract and
writes the final ``/stats`` snapshot to SERVE_STATS.json.  Both JSON
files are uploaded as CI artifacts.  The last requests go over a
kept-alive connection that stays open and idle across the SIGTERM: the
server must close it and exit 0 within its drain timeout (Python 3.12+
``Server.wait_closed`` would otherwise wait on it for ever).

Run from the repo root:

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient, ServeError  # noqa: E402
from repro.telemetry.export import (  # noqa: E402
    trace_roots,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.trace import Span  # noqa: E402

SMALL = {"dataset": "cora", "scale": 0.2, "hidden": 16, "layers": 1}
WARM_LATENCY_BUDGET = 2.0  # generous for shared CI runners
DRAIN_TIMEOUT = 10.0  # the server's --drain-timeout


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"smoke: {label}: {status}", flush=True)
    if not condition:
        raise SystemExit(f"smoke check failed: {label}")


def boot(cache_dir: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env["REPRO_CACHE_DIR"] = cache_dir
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--queue-depth", "16", "--drain-timeout", str(DRAIN_TIMEOUT)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise SystemExit("smoke: server died during startup")
        if "listening on" in line:
            return process, int(line.rsplit(":", 1)[1])
    raise SystemExit("smoke: server never reported its port")


def main() -> int:
    with tempfile.TemporaryDirectory() as cache_dir:
        process, port = boot(cache_dir)
        try:
            client = ServeClient("127.0.0.1", port, timeout=60.0)
            check(client.healthz()["status"] == "ok", "healthz")

            # Concurrent identical cold requests: exactly one execution.
            with ThreadPoolExecutor(4) as pool:
                payloads = list(
                    pool.map(lambda _: client.simulate(SMALL), range(4))
                )
            keys = {p["key"] for p in payloads}
            check(len(keys) == 1, "all requests produced one key")
            stats = client.stats()
            check(
                stats["batcher"]["jobs_run"] <= 1 + stats["cache"]["hits"],
                "concurrent identical requests ran once",
            )
            check(
                stats["tile_cache"]["stats"]["stores"] >= 1,
                "/stats counts the cold request's tile stores",
            )

            # Warm request: a cache hit answered before the batch window
            # (no batch runs), and fast.
            batches_before = client.stats()["batcher"]["batches_run"]
            start = time.perf_counter()
            warm = client.simulate(SMALL)
            warm_latency = time.perf_counter() - start
            check(warm["cached"] is True, "warm request hit the cache")
            batches_after = client.stats()["batcher"]["batches_run"]
            check(
                batches_after == batches_before,
                f"warm request ran no batch ({batches_before} → {batches_after})",
            )
            check(
                warm_latency < WARM_LATENCY_BUDGET,
                f"warm latency {warm_latency:.3f}s < {WARM_LATENCY_BUDGET}s",
            )

            # Distinct cold requests all land (retries absorb any sheds).
            with ThreadPoolExecutor(8) as pool:
                results = list(
                    pool.map(
                        lambda seed: client.simulate({**SMALL, "seed": seed}),
                        range(1, 9),
                    )
                )
            check(len(results) == 8, "burst of distinct requests completed")

            # Telemetry: /metrics is parseable Prometheus text, and the
            # recorded spans export as a valid Chrome trace holding at
            # least one complete request tree.
            metrics_text = client.metrics()
            check(
                "repro_requests_total" in metrics_text
                and "# TYPE" in metrics_text,
                "/metrics returns Prometheus text",
            )
            spans = [
                Span.from_dict(s) for s in client.trace().get("spans", [])
            ]
            check(len(spans) > 0, "server recorded spans")
            doc = write_chrome_trace("trace.json", spans)
            problems = validate_chrome_trace(doc)
            check(not problems, f"trace.json is valid ({problems[:3]})")
            trees = trace_roots(spans)
            check(
                len(trees) >= 1,
                f"trace.json holds ≥1 complete request tree ({len(trees)})",
            )
            print("smoke: wrote trace.json", flush=True)

            try:
                snapshot = client.stats()
            except ServeError:
                snapshot = stats
            Path("SERVE_STATS.json").write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
            )
            print("smoke: wrote SERVE_STATS.json", flush=True)

            # SIGTERM drain with this thread's kept-alive connection
            # open and idle: the process must exit 0 within the drain
            # timeout, not hang on the idle connection.
            check(client.healthz()["status"] == "ok", "kept-alive healthz")
            process.send_signal(signal.SIGTERM)
            start = time.monotonic()
            try:
                exit_code = process.wait(timeout=DRAIN_TIMEOUT)
            except subprocess.TimeoutExpired:
                exit_code = None
            elapsed = time.monotonic() - start
            check(
                exit_code == 0,
                f"SIGTERM with an idle kept-alive client drained and "
                f"exited 0 in {elapsed:.2f}s (exit {exit_code}, "
                f"drain timeout {DRAIN_TIMEOUT:g}s)",
            )
            client.close()
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()
            process.wait()
    print("smoke: all checks passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
