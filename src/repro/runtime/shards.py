"""Per-tile result cache around a layer's tile loop.

A layer's tiles are independent, so their results can be cached one
tile at a time.  :func:`run_tile_shards` runs one layer's tiles in the
calling process:

1. probes the per-tile :class:`~repro.runtime.cache.ResultCache`
   sub-keys (content-addressed by tile subgraph + workload + config —
   a dirty tile recomputes alone, clean siblings are served by the
   cache's memory tier or from disk),
2. hands the cold tiles, in tile order, to the caller's worker function
   in one call, so payload construction is paid for cold tiles only,
3. stores the cold results under their sub-keys,
4. returns per-tile payloads *in tile order*.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Sequence

from ..perf import PERF
from .cache import ResultCache

__all__ = [
    "TILE_SHARD_SCHEMA_VERSION",
    "ColdTiles",
    "tile_sub_key",
    "tile_sub_keys",
    "run_tile_shards",
]

#: Bump when the per-tile cache payload layout changes incompatibly.
TILE_SHARD_SCHEMA_VERSION = 1


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


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def tile_sub_keys(kind: str, context: dict, tiles: Sequence[dict]) -> list[str]:
    """``tile_sub_key(kind, {**context, **parts})`` for each ``parts`` in
    ``tiles``, with the layer ``context`` serialised once.

    The key text is one JSON object with sorted members, so the
    context's members are rendered here once and each tile renders only
    its own fields into their sorted places: the keys are byte-identical
    to :func:`tile_sub_key`'s.  Every entry of ``tiles`` has the same
    field names, none of them a context name.
    """
    if not tiles:
        return []
    fields = sorted(tiles[0])
    members = {"version": TILE_SHARD_SCHEMA_VERSION, "kind": kind, **context}
    if members.keys() & set(fields):
        raise ValueError("per-tile fields must not repeat a context name")
    text = {
        name: f"{_ENCODER.encode(name)}:{_ENCODER.encode(value)}"
        for name, value in members.items()
    }
    order = sorted([*text, *fields])
    template = [text.get(name) for name in order]
    slots = [(order.index(name), name, _ENCODER.encode(name) + ":") for name in fields]
    keys = []
    for parts in tiles:
        if len(parts) != len(fields):
            raise ValueError("every tile must have the same fields")
        line = template.copy()
        for slot, name, prefix in slots:
            line[slot] = prefix + _ENCODER.encode(parts[name])
        blob = "{" + ",".join(line) + "}"
        keys.append(hashlib.sha256(blob.encode()).hexdigest())
    return keys


@dataclass(frozen=True)
class ColdTiles:
    """The tiles the cache could not serve, in tile order."""

    tile_indices: tuple[int, ...]
    payloads: tuple


@dataclass
class TileRun:
    """Per-tile payloads in tile order, plus how they were obtained."""

    payloads: list
    stats: dict


def run_tile_shards(
    payloads: Sequence,
    worker_fn: Callable[[ColdTiles], dict],
    *,
    kind: str,
    tile_keys: Sequence[str | None] | None = None,
    cache: ResultCache | None = None,
) -> TileRun:
    """Run a layer's tiles through ``worker_fn``, serving cached ones.

    ``payloads`` holds one opaque per-tile input each.  ``worker_fn``
    is called once, in this process, with the :class:`ColdTiles` the
    cache could not serve, and returns ``{"tiles": [payload, ...]}``
    with one JSON-serializable payload per cold tile, in order.  A
    worker that raises fails the call with its own exception.  Returns
    the per-tile payloads in tile order.
    """
    n = len(payloads)
    results: list = [None] * n
    cache_hits = memo_hits = 0
    keys = list(tile_keys) if tile_keys is not None else [None] * n
    if cache is not None:
        memory_before = cache.stats.memory_hits
        for i, key in enumerate(keys):
            if key is None:
                continue
            hit = cache.load(key)
            if hit is not None:
                results[i] = hit
                cache_hits += 1
        memo_hits = cache.stats.memory_hits - memory_before

    cold = [i for i in range(n) if results[i] is None]
    if cache is not None:
        PERF.incr("tiles.cache_hit", cache_hits)
        PERF.incr("tiles.memo_hit", memo_hits)
        PERF.incr("tiles.cache_miss", len(cold))
    if cold:
        computed = worker_fn(
            ColdTiles(tuple(cold), tuple(payloads[i] for i in cold))
        )["tiles"]
        if len(computed) != len(cold):
            raise RuntimeError(
                f"{kind} worker returned {len(computed)} tiles for "
                f"{len(cold)} cold tiles"
            )
        for i, payload in zip(cold, computed):
            results[i] = payload
            key = keys[i]
            if cache is not None and key is not None:
                cache.store(key, payload)

    return TileRun(
        results,
        {"tiles": n, "cache_hits": cache_hits, "memo_hits": memo_hits},
    )
