"""Intra-job tile fan-out: shard planning and the fan-out driver.

A single simulation request walks a layer's tiles serially; this module
lets it use the whole machine instead.  Tiles are independent, so the
driver:

1. probes the per-tile :class:`~repro.runtime.cache.ResultCache` sub-keys
   (content-addressed by tile subgraph + workload + config — a dirty
   tile recomputes alone, clean siblings are served from disk),
2. batches the cold tiles into contiguous shards with
   :class:`TileShardPlanner` (small tiles are grouped so process-pool
   dispatch overhead amortizes; contiguity keeps result order — and the
   order-sensitive float accumulations built on it — deterministic),
3. fans the shards out through the existing :mod:`repro.runtime`
   executors, propagating the caller's telemetry trace context so each
   shard's spans merge back into one request tree,
4. recovers from crashed/timed-out pool shards by recomputing them
   serially in-process (one bad worker degrades throughput, never
   correctness),
5. returns per-tile payloads *in tile order*.

Worker-count discipline comes from :mod:`repro.runtime.budget`: the
driver leases workers from the shared budget, and inside a pool worker
(e.g. a tile fan-out nested under ``repro serve``'s batch pool) the
lease collapses to 1 so the machine is never oversubscribed.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

from ..perf import PERF
from ..telemetry import TRACER
from .budget import BUDGET
from .cache import ResultCache
from .executor import ExecutionRecord, ProcessExecutor

__all__ = [
    "TILE_SHARD_SCHEMA_VERSION",
    "TILE_MEMO_MAX",
    "TileShard",
    "TileShardJob",
    "TileShardPlanner",
    "tile_sub_key",
    "run_tile_shards",
    "clear_tile_memo",
]

#: Bump when the per-tile cache payload layout changes incompatibly.
TILE_SHARD_SCHEMA_VERSION = 1

#: Memory tier over the disk tile cache.  A persistent process serving a
#: mutation stream probes the same clean-tile sub-keys request after
#: request; parsing their JSON blobs off disk every time costs more than
#: the dirty-tile recompute.  Entries are small per-tile payload dicts
#: (~1 KiB), shared read-only between probes, and scoped to the disk
#: cache root they mirror so distinct caches never alias.
TILE_MEMO_MAX = 8192

_TILE_MEMO: "OrderedDict[tuple[str, str], dict]" = OrderedDict()


def clear_tile_memo() -> None:
    """Drop the in-process tile payload memo (tests, cold benches)."""
    _TILE_MEMO.clear()


def _memo_put(memo_key: tuple[str, str], payload) -> None:
    _TILE_MEMO[memo_key] = payload
    _TILE_MEMO.move_to_end(memo_key)
    while len(_TILE_MEMO) > TILE_MEMO_MAX:
        _TILE_MEMO.popitem(last=False)


def tile_sub_key(kind: str, parts: dict) -> str:
    """Content-addressed cache sub-key for one tile of one job.

    ``parts`` must be JSON-serializable and capture everything the tile
    result depends on (tile subgraph content key, workload dims, config
    digest, policy knobs).  The engine choice is deliberately *not* part
    of the key: all NoC engines are property-tested bit-identical, so a
    tile result is a property of the workload, not of which engine
    computed it.
    """
    blob = json.dumps(
        {"version": TILE_SHARD_SCHEMA_VERSION, "kind": kind, **parts},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class TileShard:
    """A contiguous run of tile positions executed by one worker."""

    index: int
    tile_indices: tuple[int, ...]
    cost: float


class TileShardPlanner:
    """Batches tiles into contiguous, cost-balanced shards.

    ``shards_per_worker`` controls load-balance granularity (more shards
    → better balance, more dispatch overhead); ``min_shard_cost`` keeps
    tiny tiles from becoming tiny shards — a shard is only closed early
    once it has accumulated at least this much cost.  Costs are unitless
    (callers typically pass edge counts or packet estimates).

    Planning is deterministic: same costs + same worker count → same
    shards, and shard order concatenates back to tile order.
    """

    def __init__(
        self, *, shards_per_worker: int = 2, min_shard_cost: float = 0.0
    ) -> None:
        if shards_per_worker < 1:
            raise ValueError("shards_per_worker must be >= 1")
        self.shards_per_worker = shards_per_worker
        self.min_shard_cost = min_shard_cost

    def plan(
        self, costs: Sequence[float], workers: int
    ) -> list[TileShard]:
        n = len(costs)
        if n == 0:
            return []
        workers = max(1, workers)
        if workers == 1:
            return [TileShard(0, tuple(range(n)), float(sum(costs)))]
        total = float(sum(costs))
        target_shards = min(n, workers * self.shards_per_worker)
        target_cost = max(total / target_shards, self.min_shard_cost)
        shards: list[TileShard] = []
        start = 0
        acc = 0.0
        for i, cost in enumerate(costs):
            acc += float(cost)
            remaining_tiles = n - i - 1
            # Close the shard once it is full — unless the tail would
            # then be left without tiles to form at least one shard.
            if acc >= target_cost and remaining_tiles >= 0 and i + 1 > start:
                shards.append(
                    TileShard(len(shards), tuple(range(start, i + 1)), acc)
                )
                start = i + 1
                acc = 0.0
        if start < n:
            shards.append(
                TileShard(len(shards), tuple(range(start, n)), acc)
            )
        return shards


@dataclass(frozen=True)
class TileShardJob:
    """One executor job: a shard's worth of per-tile payloads.

    ``payloads`` are opaque picklable per-tile job descriptions consumed
    by the worker function.
    """

    kind: str
    shard_index: int
    tile_indices: tuple[int, ...]
    payloads: tuple

    def label(self) -> str:
        first, last = self.tile_indices[0], self.tile_indices[-1]
        return f"{self.kind}:shard{self.shard_index}[{first}..{last}]"


@dataclass
class TileFanout:
    """Per-tile payloads in tile order, plus how they were obtained."""

    payloads: list
    stats: dict


def run_tile_shards(
    payloads: "Sequence | int",
    worker_fn: Callable[[TileShardJob], dict],
    *,
    kind: str,
    tile_workers: int = 1,
    costs: Sequence[float] | None = None,
    tile_keys: Sequence[str | None] | None = None,
    cache: ResultCache | None = None,
    planner: TileShardPlanner | None = None,
    timeout: float | None = None,
    executor=None,
    payload_builder: Callable[[list], Sequence] | None = None,
) -> TileFanout:
    """Run one per-tile payload each through ``worker_fn``, sharded.

    ``worker_fn`` must be a module-level (picklable) callable taking a
    :class:`TileShardJob` and returning ``{"tiles": [payload, ...]}``
    with one JSON-serializable payload per ``tile_indices`` entry, in
    order.  Returns the per-tile payloads in tile order.

    With ``payload_builder``, ``payloads`` is the tile *count* (or any
    sized sequence used only for its length) and the builder is called
    once — after the cache probe — with the sorted cold tile indices,
    returning one payload per cold tile.  Callers with expensive payload
    construction (tile mapping, batched traffic extraction) use this so
    a mostly-warm incremental re-simulation never pays for clean tiles.

    With one worker or one shard the shards run in this process, and a
    shard that raises fails the call with its own exception.  A shard
    whose pool worker crashes or times out is recomputed serially in
    this process — the mid-shard-crash property tests pin that the
    result is byte-identical either way.
    """
    n = payloads if isinstance(payloads, int) else len(payloads)
    results: list = [None] * n
    cache_hits = 0
    memo_hits = 0
    if n == 0:
        return TileFanout(
            [], {"tiles": 0, "shards": 0, "cache_hits": 0, "memo_hits": 0}
        )

    # ---- per-tile cache probe (memory tier, then disk sub-keys) -------
    keys = list(tile_keys) if tile_keys is not None else [None] * n
    if cache is not None:
        root = str(cache.root)
        for i, key in enumerate(keys):
            if key is None:
                continue
            memo_key = (root, key)
            hit = _TILE_MEMO.get(memo_key)
            if hit is not None:
                _TILE_MEMO.move_to_end(memo_key)
                results[i] = hit
                cache_hits += 1
                memo_hits += 1
                continue
            hit = cache.load(key)
            if hit is not None:
                results[i] = hit
                cache_hits += 1
                _memo_put(memo_key, hit)

    cold = [i for i in range(n) if results[i] is None]
    PERF.incr("tiles.cache_hit", cache_hits)
    PERF.incr("tiles.memo_hit", memo_hits)
    PERF.incr("tiles.cache_miss", len(cold))
    if not cold:
        return TileFanout(
            results,
            {
                "tiles": n,
                "shards": 0,
                "cache_hits": cache_hits,
                "memo_hits": memo_hits,
                "workers": 0,
                "recovered_shards": 0,
            },
        )

    # ---- build cold payloads (lazy path) or index the eager ones ------
    if payload_builder is not None:
        built = list(payload_builder(list(cold)))
        if len(built) != len(cold):
            raise RuntimeError(
                f"payload_builder returned {len(built)} payloads for "
                f"{len(cold)} cold tiles"
            )
        cold_payloads = dict(zip(cold, built))
    elif isinstance(payloads, int):
        raise TypeError("payload_builder required when payloads is a count")
    else:
        cold_payloads = {i: payloads[i] for i in cold}

    # ---- shard the cold tiles, lease workers from the shared budget ---
    planner = planner or TileShardPlanner()
    workers = BUDGET.lease("tile-fanout", max(1, tile_workers))
    try:
        cold_costs = (
            [float(costs[i]) for i in cold] if costs is not None
            else [1.0] * len(cold)
        )
        shards = planner.plan(cold_costs, workers)
        jobs = [
            TileShardJob(
                kind=kind,
                shard_index=shard.index,
                tile_indices=tuple(cold[j] for j in shard.tile_indices),
                payloads=tuple(
                    cold_payloads[cold[j]] for j in shard.tile_indices
                ),
            )
            for shard in shards
        ]

        # ``executor`` is an injection point for tests (e.g. a
        # FakeExecutor scripting a mid-shard worker crash).
        in_process = executor is None and (workers == 1 or len(jobs) == 1)
        if executor is None and not in_process:
            executor = ProcessExecutor(workers, timeout=timeout)
        trace_ctx = TRACER.current_context()
        with TRACER.span(
            "tiles.fanout",
            {
                "kind": kind,
                "tiles": n,
                "cold": len(cold),
                "shards": len(jobs),
                "workers": workers,
                "executor": "serial" if in_process else executor.name,
            },
        ):
            if in_process:
                # No worker to lose, so nothing to recover: a shard that
                # raises fails the call once, with its own exception.
                records = [ExecutionRecord(job, worker_fn(job)) for job in jobs]
            else:
                records = executor.run(jobs, fn=worker_fn, trace_ctx=trace_ctx)
    finally:
        BUDGET.release("tile-fanout")

    # ---- merge, recovering failed pool shards serially -----------------
    recovered = 0
    for job, record in zip(jobs, records):
        if record.ok:
            if record.spans:
                TRACER.merge(record.spans)
            shard_payload = record.payload
        else:
            # Worker crashed or timed out: the tiles are still needed,
            # so recompute the shard here.  Any exception now is real
            # and propagates.
            recovered += 1
            with TRACER.span(
                "tiles.recover_shard",
                {"kind": kind, "shard": job.shard_index, "error": record.error},
            ):
                shard_payload = worker_fn(job)
        tiles = shard_payload["tiles"]
        if len(tiles) != len(job.tile_indices):
            raise RuntimeError(
                f"shard {job.shard_index} returned {len(tiles)} tiles, "
                f"expected {len(job.tile_indices)}"
            )
        for tile_index, payload in zip(job.tile_indices, tiles):
            results[tile_index] = payload
            key = keys[tile_index]
            if cache is not None and key is not None:
                cache.store(key, payload)
                _memo_put((str(cache.root), key), payload)

    return TileFanout(
        results,
        {
            "tiles": n,
            "shards": len(jobs),
            "cache_hits": cache_hits,
            "memo_hits": memo_hits,
            "workers": workers,
            "recovered_shards": recovered,
        },
    )
