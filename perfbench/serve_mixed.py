"""serve-mixed: a closed-loop request script against ``repro serve``.

The server is a ``repro serve`` subprocess with its defaults except port
and cache dir; one client connection (``ServeClient(retries=0)``) sends
the next request only after the previous reply.  One pass is a seeded
script of three request kinds:

* **warm hits** on the :data:`WARM_KEYS` keys pre-warmed in set-up —
  serve, the batcher and the result cache do the work (the ROADMAP's
  warm-hit item);
* **cold misses** on never-seen small graphs — cache writes beside the
  reads, and graph generation;
* one **1%-dirty delta**: a degree-preserving rewire of 4 non-empty
  rows in one of the 49 tiles of the pubmed@0.5 base (BENCH_8's
  ``pubmed-delta`` configuration), answered from the per-tile cache.

The delta leads each pass, so exactly :data:`COLD_PER_PASS` distinct new
graphs load between consecutive deltas: more than the 4-entry dataset
snapshot memo holds, so every delta pays the base graph's regeneration.

The mix is an assumption, not a measured or published traffic trace:
there is none for this program.  It is sized so that warm hits take
most of a pass's time (see perfbench/README.md for the traced shares),
keeping ``ops_per_s`` a measure of the serve, batcher and result-cache
path, while the one delta per pass stays a visible minority of it.
"""

from __future__ import annotations

import ctypes
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

from . import accuracy, layers
from .common import (
    ROOT,
    STATE_DIR,
    PassResult,
    Workload as BaseWorkload,
    child_env,
    median_or_zero,
    peak_rss_mb,
    rng_for,
)

NAME = "serve-mixed"
WARM_KEYS = 8
WARM_PER_PASS = 360
COLD_PER_PASS = 5
SMALL_DATASETS = ("cora", "citeseer")
SMALL_SCALE = 0.2
BASE_TILES = 49
ROWS_PER_DELTA = 4
#: Span buffer of the traced server: a pass records a few thousand spans.
TRACE_BUFFER = 65536


def base_request() -> dict:
    """The delta base: pubmed@0.5 on a 16×16 array with 1 KiB PE buffers
    (49 tiles), as a flat request."""
    from repro.config import default_config
    from repro.runtime import SimJob

    cfg = default_config().scaled(array_k=16, pe_buffer_bytes=1024)
    job = SimJob(dataset="pubmed", scale=0.5, hidden=32, config=cfg)
    return {k: v for k, v in job.as_dict().items() if k != "mutations"}


def warm_requests(seed: int) -> list:
    """The pre-warmed keys: small graphs with seed-drawn graph seeds."""
    seeds = rng_for(seed, NAME, "warm").sample(range(1, 10**6), WARM_KEYS)
    return [
        {"dataset": SMALL_DATASETS[i % 2], "scale": SMALL_SCALE, "seed": s}
        for i, s in enumerate(seeds)
    ]


def _cold_seed(seed: int, index: int, i: int) -> int:
    # Above every warm seed and unique per (pass, position): a cold miss
    # is never a key this run has seen.
    return 10**6 * (1 + seed % 1000) + (index + 2) * 100 + i


def pass_inputs(seed: int, index: int) -> list:
    """The pass's script: ``[("delta", spec), *shuffled cold and warm]``."""
    rng = rng_for(seed, NAME, index)
    cold = [
        (
            "cold",
            {
                "dataset": rng.choice(SMALL_DATASETS),
                "scale": SMALL_SCALE,
                "seed": _cold_seed(seed, index, i),
            },
        )
        for i in range(COLD_PER_PASS)
    ]
    warm = [("warm", rng.randrange(WARM_KEYS)) for _ in range(WARM_PER_PASS)]
    mix = cold + warm
    rng.shuffle(mix)
    delta = ("delta", {"tile": rng.randrange(BASE_TILES), "seed": rng.randrange(2**31)})
    return [delta, *mix]


def make_client(port: int, transport=None):
    """The benchmark's only client: one connection, no retries, so a 429
    shed or a 503 is a failed request and never a hidden second try."""
    from repro.serve.client import ServeClient

    return ServeClient("127.0.0.1", port, retries=0, timeout=120.0, transport=transport)


def send(client, body: dict, trace_id: str | None = None) -> tuple:
    """One request: ``(payload or None, client latency in ms)``.

    Any refusal or error is a failure.  The client is built with
    ``retries=0``, so a 429 shed or a 503 comes back as a failure
    instead of being retried.
    """
    from repro.serve.client import ServeError

    t0 = time.perf_counter()
    try:
        payload = client.simulate(body, trace_id=trace_id)
    except ServeError:
        payload = None
    return payload, (time.perf_counter() - t0) * 1e3


def warm_ok(payload: dict | None, first: dict) -> bool:
    """A warm hit is a cache hit whose result equals the key's first reply."""
    return payload is not None and payload["cached"] and payload["result"] == first


def delta_ok(payload: dict | None) -> bool:
    """A delta's rows all lie in one tile, so at most that tile is
    recomputed in each layer and every other tile is reused.

    A tile whose simulated outcome the rewire leaves unchanged may be
    reused too, so the split varies between deltas (96/2 or 98/0 on the
    two-layer base); it is fixed by the seed.
    """
    if payload is None:
        return False
    total = payload["tiles_reused"] + payload["tiles_recomputed"]
    layers_run = total // BASE_TILES
    return total == layers_run * BASE_TILES and payload["tiles_recomputed"] <= layers_run


def matches_in_process(body: dict, payload: dict) -> bool:
    """The served result equals an in-process ``execute_job`` of the job."""
    from repro.runtime.jobs import execute_job
    from repro.serve.protocol import parse_simulation_request

    local = execute_job(parse_simulation_request(body))
    local.pop("_exec", None)
    return json.loads(json.dumps(local)) == payload["result"]


def _die_with_parent() -> None:  # pragma: no cover - runs in the child
    # PR_SET_PDEATHSIG: the server gets SIGTERM if the benchmark dies,
    # so no server outlives a killed run.
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(1, signal.SIGTERM)


def parse_metrics(text: str) -> tuple:
    """``PERF`` stage seconds and event counts from ``/metrics`` text."""
    stages: dict = {}
    counters: dict = {}
    for line in text.splitlines():
        if line.startswith("repro_stage_seconds_sum{"):
            name = line.split('stage="', 1)[1].split('"', 1)[0]
            stages[name] = float(line.rsplit(" ", 1)[1])
        elif line.startswith("repro_events_total{"):
            name = line.split('event="', 1)[1].split('"', 1)[0]
            counters[name] = float(line.rsplit(" ", 1)[1])
    return stages, counters


def _diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


class Server:
    """One ``repro serve`` subprocess with its own cache dir."""

    def __init__(self, *, traced: bool) -> None:
        self.cache_dir = tempfile.mkdtemp(dir=STATE_DIR / "tmp", prefix="serve-")
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("traced_server.py"))]
            extra = ["--trace-buffer", str(TRACE_BUFFER)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve"]
            extra = []
        self.proc = subprocess.Popen(
            [*cmd, "--port", "0", "--cache-dir", self.cache_dir, *extra],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
            preexec_fn=_die_with_parent,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        self.client = make_client(port)
        self.client.healthz()
        self.first: dict = {}

    def prewarm(self, warm: list, base: dict) -> None:
        """Fill the result cache with the warm keys and the tile cache
        with the delta base; the replies are the warm keys' references."""
        for i, request in enumerate(warm):
            self.first[i] = self.client.simulate(request)["result"]
        self.client.simulate(base)

    def snapshot(self) -> dict:
        stats = self.client.stats()
        stages, counters = parse_metrics(self.client.metrics())
        return {
            "stages": stages,
            "counters": counters,
            "requests": stats["requests"]["requests"],
            "batches": stats["batcher"]["batches_run"],
            "joins": stats["batcher"]["singleflight_joins"],
            "shed": stats["admission"]["shed"],
        }

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class Workload(BaseWorkload):
    op = "warm hit"
    # A warm hit is mostly the 5 ms batch window, a timer: report measured
    # times, not times scaled to a reference CPU.
    normalized = False

    def __init__(self, seed: int) -> None:
        from repro.core.simulator import _BUFFER_UTIL
        from repro.graphs.datasets import load_dataset
        from repro.graphs.delta import tile_boundaries
        from repro.graphs.tiling import tile_graph
        from repro.runtime import SimJob

        # Input generation (benchmark side, outside set-up timing): the
        # base graph the deltas rewire and its tile boundaries.
        self.seed = seed
        self.warm = warm_requests(seed)
        self.base = base_request()
        job = SimJob.from_request(self.base)
        cfg = job.resolved_config()
        self.base_graph = load_dataset(job.dataset, scale=job.scale, seed=job.seed)
        plan = tile_graph(
            self.base_graph,
            int(cfg.onchip_bytes * _BUFFER_UTIL),
            bytes_per_value=cfg.bytes_per_value,
        )
        if plan.num_tiles != BASE_TILES:
            raise RuntimeError(f"delta base has {plan.num_tiles} tiles, not {BASE_TILES}")
        self.bounds = tile_boundaries(plan)
        (STATE_DIR / "tmp").mkdir(parents=True, exist_ok=True)
        self.servers: list = []
        self.server = None
        self.traced_server = None
        #: The distinct (tiles_reused, tiles_recomputed) delta replies.
        self.delta_tiles: set = set()

    def _boot(self, *, traced: bool) -> Server:
        server = Server(traced=traced)
        self.servers.append(server)
        server.prewarm(self.warm, self.base)
        return server

    def setup(self) -> None:
        self.server = self._boot(traced=False)

    def discard(self) -> None:
        self.server.stop()

    def warm_up(self, trace: bool) -> None:
        self.run_pass(-1, traced=False)
        if trace:
            self.traced_server = self._boot(traced=True)
            self.run_pass(-2, traced=True)

    def _script(self, index: int) -> list:
        from repro.graphs.delta import rewire_delta

        script = []
        for kind, spec in pass_inputs(self.seed, index):
            if kind == "warm":
                script.append((kind, self.warm[spec], spec))
            elif kind == "cold":
                script.append((kind, spec, None))
            else:
                # The tile's first rows with out-edges: rewire skips
                # empty rows, and a delta of only empty rows is no delta.
                start = int(self.bounds[spec["tile"]])
                end = int(self.bounds[spec["tile"] + 1])
                rows = [r for r in range(start, end) if self.base_graph.neighbors(r).size]
                delta = rewire_delta(self.base_graph, rows[:ROWS_PER_DELTA], seed=spec["seed"])
                body = {"base": self.base, "mutations": [delta.as_dict()]}
                script.append((kind, body, None))
        return script

    def run_pass(self, index: int, traced: bool) -> PassResult:
        server = self.traced_server if traced else self.server
        client = server.client
        script = self._script(index)
        before = server.snapshot() if traced else None
        latency: dict = {"warm": [], "cold": [], "delta": []}
        replies = []
        failed = 0
        start = time.perf_counter()
        for kind, body, key in script:
            trace_id = uuid.uuid4().hex if traced else None
            payload, ms = send(client, body, trace_id)
            latency[kind].append(ms)
            if kind == "warm":
                ok = warm_ok(payload, server.first[key])
            else:
                ok = delta_ok(payload) if kind == "delta" else payload is not None
            failed += not ok
            replies.append((kind, body, payload, ms, trace_id, ok))
        wall = time.perf_counter() - start

        # Untimed: the first good cold miss and the delta must equal an
        # in-process simulation of the same job.
        for kind in ("cold", "delta"):
            checked = next((r for r in replies if r[0] == kind and r[5]), None)
            if checked is not None and not matches_in_process(checked[1], checked[2]):
                failed += 1
        for kind, _body, payload, *_ in replies:
            if kind == "delta" and payload is not None:
                self.delta_tiles.add(
                    (payload.get("tiles_reused"), payload.get("tiles_recomputed"))
                )

        raw = self._trace(server, before, replies, latency, wall) if traced else None
        parts = [(kind, ms) for kind, _b, _p, ms, _t, _ok in replies]
        return PassResult(wall, len(script), failed, latency["warm"], raw, parts)

    def _trace(self, server, before, replies, latency, wall) -> dict:
        after = server.snapshot()
        wanted = {r[4] for r in replies}
        by_trace: dict = {}
        for span in server.client.trace()["spans"]:
            if span["trace_id"] in wanted:
                by_trace.setdefault(span["trace_id"], []).append(span)
        raw = {
            "ops": len(replies),
            "wall": wall,
            "stages": _diff(after["stages"], before["stages"]),
            "counters": _diff(after["counters"], before["counters"]),
            "spans": layers.span_totals(s for spans in by_trace.values() for s in spans),
            "cold_ms": latency["cold"],
            "delta_ms": latency["delta"],
            "tiles_reused": 0,
            "tiles_recomputed": 0,
        }
        for key in ("requests", "batches", "joins", "shed"):
            raw[key] = after[key] - before[key]
        for key in ("http", "admission", "batch_wait", "transport", "probe", "unattributed", "client"):
            raw["warm_" + key] = []
        for kind, _body, payload, ms, trace_id, ok in replies:
            if kind == "delta" and payload is not None:
                raw["tiles_reused"] += payload.get("tiles_reused", 0)
                raw["tiles_recomputed"] += payload.get("tiles_recomputed", 0)
            if kind != "warm" or not ok:
                continue
            d = layers.span_totals(by_trace.get(trace_id, []))
            if "http" not in d or "batch" not in d:
                continue  # evicted from the span buffer
            http_ms = d["http"] * 1e3
            raw["warm_client"].append(ms)
            raw["warm_http"].append((d["http"] - d["admission"] - d["batcher"]) * 1e3)
            raw["warm_admission"].append(d["admission"] * 1e3)
            raw["warm_batch_wait"].append((d["batcher"] - d["batch"]) * 1e3)
            raw["warm_transport"].append(ms - http_ms)
            raw["warm_probe"].append(d.get("cache.probe", 0.0) * 1e3)
            raw["warm_unattributed"].append((d["batch"] - d.get("cache.probe", 0.0)) * 1e3 / ms)
        return raw

    def accuracy(self) -> tuple:
        return accuracy.ledger_paper_gap(), accuracy.ledger_drain_err(), {}

    def detail(self) -> dict:
        return {"delta_tiles_reused_recomputed": sorted(self.delta_tiles)}

    def peak_rss(self) -> float:
        """Peak resident set of the servers (waited-for children)."""
        self.close()
        return peak_rss_mb(children=True)

    def layer_metrics(self, raw: dict) -> dict:
        out = layers.common_layers(raw)
        requests = max(raw["requests"], 1)
        out["serve.http_ms"] = median_or_zero(raw["warm_http"])
        out["serve.admission_ms"] = median_or_zero(raw["warm_admission"])
        out["serve.batch_wait_ms"] = median_or_zero(raw["warm_batch_wait"])
        out["serve.transport_ms"] = median_or_zero(raw["warm_transport"])
        out["runtime.cache_probe_ms"] = median_or_zero(raw["warm_probe"])
        out["serve.batches_per_request"] = raw["batches"] / requests
        out["serve.shed_frac"] = raw["shed"] / requests
        out["serve.join_frac"] = raw["joins"] / requests
        out["serve.cold_p50_ms"] = median_or_zero(raw["cold_ms"])
        out["serve.delta_p50_ms"] = median_or_zero(raw["delta_ms"])
        tiles = raw["tiles_reused"] + raw["tiles_recomputed"]
        out["runtime.tiles_reused_ratio"] = raw["tiles_reused"] / tiles if tiles else 0.0
        out["unattributed_frac"] = median_or_zero(raw["warm_unattributed"])
        return out

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        self.servers = []
