"""Dataset registry mirroring the paper's evaluation datasets.

The paper evaluates on Cora, Citeseer, Pubmed, Nell and Reddit.  Each entry
here records the published structural statistics and produces a
deterministic synthetic graph matched to them (see DESIGN.md for why this
substitution preserves the evaluated behaviour).

Large datasets can be *scaled*: ``load_dataset("reddit", scale=0.01)``
shrinks vertex and edge counts proportionally while preserving feature
width, density and the degree-distribution exponent, which is what the
cycle-tier simulator needs for tractable runs.  The analytical tier uses
``scale=1.0`` statistics directly via :func:`dataset_profile`.
"""

from __future__ import annotations

import base64
import hashlib
import json
import operator
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..perf import PERF
from .csr import CSRGraph
from .generators import (
    bipartite_graph,
    near_clique_hub_graph,
    power_law_graph,
    star_graph,
)

__all__ = [
    "DatasetProfile",
    "DATASETS",
    "ADVERSARIAL_DATASETS",
    "dataset_profile",
    "load_dataset",
    "list_datasets",
    "list_adversarial_datasets",
    "clear_snapshot_cache",
]

#: Process-local snapshot memo bound: repeated loads of the same
#: ``(name, scale, seed)`` reuse one immutable snapshot.  Synthesis is
#: still the dominant cost of a load (pubmed at scale 0.5 ~0.17 s, the
#: five paper datasets at their sweep scales ~0.47 s on a 2-vCPU x86
#: container), while a design-search evaluation, which loads its graph
#: through :func:`repro.runtime.jobs.run_job`, costs ~13 ms.  Serve
#: requests load through it too.  Small: full-scale graphs are large.
#: A delta base outlives its memo entry: the job runner passes the
#: per-tile result cache as ``store``, which keeps the synthesised
#: snapshot on disk (see :func:`load_dataset`), so a base evicted by
#: other graphs is read back (~3 ms for pubmed@0.5) instead of
#: re-synthesised.
SNAPSHOT_CACHE_MAX = 4

_SNAPSHOTS: "OrderedDict[tuple, CSRGraph]" = OrderedDict()


def clear_snapshot_cache() -> None:
    """Drop the process-local dataset snapshot memo (tests)."""
    _SNAPSHOTS.clear()


@dataclass(frozen=True)
class DatasetProfile:
    """Published statistics of an evaluation dataset."""

    name: str
    num_vertices: int
    num_edges: int  # directed edge count
    num_features: int
    num_classes: int
    feature_density: float
    degree_exponent: float  # power-law tail exponent used for generation
    locality: float = 0.6  # fraction of edges inside a community window

    @property
    def mean_degree(self) -> float:
        return self.num_edges / self.num_vertices


# Published statistics (|E| is the directed count used for traffic
# accounting; citation graphs are symmetrised).  Feature density for
# Reddit is >50% per the paper's §VI-D discussion.
DATASETS: dict[str, DatasetProfile] = {
    "cora": DatasetProfile(
        name="cora",
        num_vertices=2708,
        num_edges=10556,
        num_features=1433,
        num_classes=7,
        feature_density=0.0127,
        degree_exponent=2.2,
        locality=0.7,
    ),
    "citeseer": DatasetProfile(
        name="citeseer",
        num_vertices=3327,
        num_edges=9104,
        num_features=3703,
        num_classes=6,
        feature_density=0.0085,
        degree_exponent=2.3,
        locality=0.75,
    ),
    "pubmed": DatasetProfile(
        name="pubmed",
        num_vertices=19717,
        num_edges=88648,
        num_features=500,
        num_classes=3,
        feature_density=0.1002,
        degree_exponent=2.2,
        locality=0.65,
    ),
    "nell": DatasetProfile(
        name="nell",
        num_vertices=65755,
        num_edges=251550,
        num_features=5414,
        num_classes=210,
        feature_density=0.0002,
        degree_exponent=2.0,
        locality=0.6,
    ),
    "reddit": DatasetProfile(
        name="reddit",
        num_vertices=232965,
        num_edges=11606919,
        num_features=602,
        num_classes=41,
        feature_density=0.516,
        degree_exponent=1.9,
        locality=0.35,  # Reddit communities are broad: weaker id locality
    ),
}


# Adversarial synthetic workloads: degree-skew extremes the paper's five
# datasets miss.  They are deliberately *not* part of ``list_datasets`` (the
# paper's grid stays the paper's grid) but resolve through the same
# ``dataset_profile``/``load_dataset`` path so DSE searches and regression
# sweeps can name them like any other workload.  Each builder takes
# ``(profile, n, m, seed)`` where ``n``/``m`` are the scaled vertex/edge
# targets; ``m`` is a target, not an exact budget, for the structured
# generators.
ADVERSARIAL_DATASETS: dict[str, DatasetProfile] = {
    # One hub wired to every leaf: the extreme multicast / bypass-link case.
    "adv-star": DatasetProfile(
        name="adv-star",
        num_vertices=4097,
        num_edges=8192,
        num_features=128,
        num_classes=4,
        feature_density=0.25,
        degree_exponent=2.0,
        locality=0.0,
    ),
    # Every edge crosses the partition: worst case for locality-preserving
    # (sequential) mapping, neutral for hashing.
    "adv-bipartite": DatasetProfile(
        name="adv-bipartite",
        num_vertices=4096,
        num_edges=65536,
        num_features=128,
        num_classes=4,
        feature_density=0.25,
        degree_exponent=2.0,
        locality=0.0,
    ),
    # Dense near-clique core with sparse spokes: pathological PE-load and
    # hub-traffic concentration.
    "adv-hubclique": DatasetProfile(
        name="adv-hubclique",
        num_vertices=4096,
        num_edges=60000,
        num_features=128,
        num_classes=4,
        feature_density=0.25,
        degree_exponent=1.5,
        locality=0.0,
    ),
}


def _build_adv_star(prof: DatasetProfile, n: int, m: int, seed: int, name: str) -> CSRGraph:
    del m, seed  # structure is fully determined by the leaf count
    return star_graph(max(n - 1, 1), num_features=prof.num_features, name=name)


def _build_adv_bipartite(
    prof: DatasetProfile, n: int, m: int, seed: int, name: str
) -> CSRGraph:
    left = max(1, n // 2)
    right = max(1, n - left)
    m = min(m, 2 * left * right)
    return bipartite_graph(
        left,
        right,
        m,
        num_features=prof.num_features,
        feature_density=prof.feature_density,
        seed=seed,
        name=name,
    )


def _build_adv_hubclique(
    prof: DatasetProfile, n: int, m: int, seed: int, name: str
) -> CSRGraph:
    # Pick the core size so the near-clique supplies roughly half the edge
    # target: m/2 ≈ density * k * (k - 1).
    k = max(2, min(n, int(round((m / (2 * 0.9)) ** 0.5)) + 1))
    return near_clique_hub_graph(
        n,
        k,
        clique_density=0.9,
        spoke_degree=2,
        num_features=prof.num_features,
        feature_density=prof.feature_density,
        seed=seed,
        name=name,
    )


_ADVERSARIAL_BUILDERS = {
    "adv-star": _build_adv_star,
    "adv-bipartite": _build_adv_bipartite,
    "adv-hubclique": _build_adv_hubclique,
}


def list_datasets() -> list[str]:
    """Names of all registered datasets, in the paper's order."""
    return list(DATASETS)


def list_adversarial_datasets() -> list[str]:
    """Names of the adversarial regression/DSE workloads."""
    return list(ADVERSARIAL_DATASETS)


def dataset_profile(name: str) -> DatasetProfile:
    """Look up the published statistics for ``name`` (case-insensitive)."""
    key = name.lower()
    if key in DATASETS:
        return DATASETS[key]
    if key in ADVERSARIAL_DATASETS:
        return ADVERSARIAL_DATASETS[key]
    raise KeyError(
        f"unknown dataset {name!r}; available: "
        f"{', '.join((*DATASETS, *ADVERSARIAL_DATASETS))}"
    )


def _snapshot_key(memo_key: tuple) -> str:
    """The store key of one memo key's snapshot entry."""
    blob = json.dumps(["dataset-snapshot", 2, *memo_key], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _encode_ints(values: np.ndarray) -> str:
    """Base64 of ``values`` as little-endian int64: a memory tier that
    keeps the decoded entry holds one string, not a list of Python ints."""
    return base64.b64encode(values.astype("<i8").tobytes()).decode("ascii")


def _decode_ints(text) -> np.ndarray:
    """The int64 array :func:`_encode_ints` wrote.  Raises ``ValueError``
    (``binascii.Error`` included) for bad base64 or a byte count that is
    not a whole number of int64s, ``TypeError`` for a non-string."""
    raw = base64.b64decode(text, validate=True)
    return np.frombuffer(raw, dtype="<i8").astype(np.int64)


def _snapshot_entry(graph: CSRGraph) -> dict:
    return {
        "indptr": _encode_ints(graph.indptr),
        "indices": _encode_ints(graph.indices),
        "num_features": graph.num_features,
        "feature_density": graph.feature_density,
        "edge_feature_dim": graph.edge_feature_dim,
        "name": graph.name,
        "content_key": graph.content_key,
    }


def _snapshot_graph(entry: dict) -> CSRGraph | None:
    """The graph a stored entry holds, or ``None`` when it is damaged:
    malformed, or rebuilt to a different ``content_key``."""
    try:
        graph = CSRGraph(
            _decode_ints(entry["indptr"]),
            _decode_ints(entry["indices"]),
            num_features=entry["num_features"],
            feature_density=entry["feature_density"],
            edge_feature_dim=entry["edge_feature_dim"],
            name=entry["name"],
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if graph.content_key != entry.get("content_key"):
        return None
    return graph


def load_dataset(
    name: str,
    *,
    scale: float = 1.0,
    seed: int = 7,
    store=None,
) -> CSRGraph:
    """Generate the synthetic stand-in for dataset ``name``.

    Parameters
    ----------
    scale:
        Proportional shrink factor in ``(0, 1]`` applied to vertex and edge
        counts.  Feature width, density and degree skew are preserved, so a
        scaled graph exercises the same code paths with the same per-edge
        and per-vertex behaviour.
    seed:
        Non-negative integer generator seed; the default is fixed so
        experiment outputs are reproducible run to run.
    store:
        Optional snapshot store: any object with ``load(key)`` returning
        a dict or ``None`` and ``store(key, blob)`` (a
        :class:`repro.runtime.ResultCache`).  On a memo miss the stored
        snapshot is read before synthesising, and a synthesised graph is
        written to it.  An entry that is damaged or rebuilds to another
        ``content_key`` is a miss, synthesised and overwritten.
    """
    if not (0.0 < scale <= 1.0):
        raise ValueError("scale must be in (0, 1]")
    # Normalise before the memo lookup so a warm memo answers exactly
    # what a cold one would: 7.5 is no seed, and neither is -1.
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    prof = dataset_profile(name)
    memo_key = (prof.name, float(scale), seed)
    cached = _SNAPSHOTS.get(memo_key)
    if cached is not None:
        _SNAPSHOTS.move_to_end(memo_key)
        return cached
    graph = None
    if store is not None:
        store_key = _snapshot_key(memo_key)
        entry = store.load(store_key)
        graph = _snapshot_graph(entry) if entry is not None else None
        PERF.incr("graphs.snapshot_hit" if graph is not None else "graphs.snapshot_miss")
    if graph is None:
        graph = _synthesise(prof, scale, seed)
        if store is not None:
            store.store(store_key, _snapshot_entry(graph))
    _SNAPSHOTS[memo_key] = graph
    while len(_SNAPSHOTS) > SNAPSHOT_CACHE_MAX:
        _SNAPSHOTS.popitem(last=False)
    return graph


def _synthesise(prof: DatasetProfile, scale: float, seed: int) -> CSRGraph:
    n = max(16, int(round(prof.num_vertices * scale)))
    m = max(n, int(round(prof.num_edges * scale)))
    m = min(m, n * n)
    graph_name = prof.name if scale == 1.0 else f"{prof.name}@{scale:g}"
    builder = _ADVERSARIAL_BUILDERS.get(prof.name)
    if builder is not None:
        return builder(prof, n, m, seed, graph_name)
    return power_law_graph(
        n,
        m,
        exponent=prof.degree_exponent,
        locality=prof.locality,
        num_features=prof.num_features,
        feature_density=prof.feature_density,
        seed=seed,
        name=graph_name,
    )
