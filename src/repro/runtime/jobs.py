"""Simulation job specs: frozen, hashable, content-addressable.

A :class:`SimJob` captures *everything* that determines a simulation's
outcome — model, dataset, scale, seed, layer dimensioning, accelerator,
mapping policy, hardware configuration, and (for sensitivity sweeps) a
fully perturbed baseline-traits record.  Because the simulators are
deterministic functions of that spec, a job's canonical content hash
(:func:`job_key`) addresses its result: two equal hashes mean equal
results, which is what the on-disk cache and the sweep deduplication in
:mod:`repro.runtime.runner` rely on.

``run_job``/``execute_job`` are module-level so ``ProcessPoolExecutor``
workers can pickle them by reference.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

from ..baselines import BaselineAccelerator, BaselineTraits, make_baseline
from ..config import AcceleratorConfig, DRAMConfig, NoCConfig, default_config
from ..core.accelerator import layer_plan
from ..core.results import SimulationResult
from ..core.simulator import AuroraSimulator
from ..graphs.datasets import dataset_profile, load_dataset
from ..graphs.delta import EdgeDelta, apply_chain
from ..telemetry import TRACER
from ..models.zoo import get_model

__all__ = [
    "SimJob",
    "job_key",
    "run_job",
    "execute_job",
    "take_exec_meta",
    "ENV_TILE_CACHE_DIR",
]

#: Directory of the per-tile result cache the job runner should use.
#: Environment-propagated (rather than a parameter) so pool workers
#: executing pickled jobs inherit it from the serving parent.
ENV_TILE_CACHE_DIR = "REPRO_TILE_CACHE_DIR"

#: Wire-format aliases the service and CLI accept (`layers` mirrors the
#: ``repro simulate --layers`` flag, ``device`` its ``--device``).
REQUEST_ALIASES = {"layers": "num_layers", "device": "accelerator"}

def _as_int(value) -> int:
    """Strict int coercion: ``2.0`` and ``"2"`` pass, ``2.7``/bools fail.

    Plain ``int()`` would silently truncate ``1.5`` (simulating a
    different job than requested) and accept ``true``/``false`` via
    bool's int subtyping; a malformed spec must be rejected instead.
    """
    if isinstance(value, bool):
        raise ValueError("booleans are not integers")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError("value is not integral")
        return int(value)
    return int(value)


def _as_float(value) -> float:
    """Strict float coercion: rejects bools, accepts ints and numerals."""
    if isinstance(value, bool):
        raise ValueError("booleans are not numbers")
    return float(value)


#: Numeric coercions applied to loosely-typed request values so that
#: e.g. JSON ``"scale": 1`` and ``"scale": 1.0`` canonicalize to the
#: same job (and therefore the same content hash / cache entry); values
#: that would change meaning under coercion (``1.5`` for an int field,
#: ``true`` for any numeric field) are rejected, not truncated.
_REQUEST_COERCE = {
    "scale": ("float", _as_float),
    "hidden": ("int", _as_int),
    "num_layers": ("int", _as_int),
    "seed": ("int", _as_int),
}

#: Bump when the job schema or its execution semantics change in a way
#: that must invalidate previously cached results.
JOB_SCHEMA_VERSION = 1

MAPPING_POLICIES = ("degree-aware", "hashing")


@dataclass(frozen=True)
class SimJob:
    """One simulation point of a sweep, as pure data.

    ``accelerator`` is ``"aurora"`` or a baseline name accepted by
    :func:`repro.baselines.make_baseline`; ``baseline_traits`` overrides
    the registry with an explicit (possibly perturbed) traits record, as
    the sensitivity sweeps need.  ``scale_buffers`` reproduces the
    comparison harness's convention of shrinking the per-PE buffer with
    the dataset so tiling pressure matches the full-size run.
    """

    model: str = "gcn"
    dataset: str = "cora"
    accelerator: str = "aurora"
    scale: float = 1.0
    hidden: int = 64
    num_layers: int = 2
    seed: int = 7
    mapping: str = "degree-aware"
    strict: bool = False
    scale_buffers: bool = False
    config: AcceleratorConfig | None = None
    baseline_traits: BaselineTraits | None = None
    #: Ordered EdgeDelta chain applied over the loaded dataset before
    #: simulation — the ``{base, mutations}`` request form.  Canonical
    #: (each delta sorted/deduplicated, empty chain collapsed to None)
    #: so equivalent spellings share a content hash; the chain is part
    #: of :meth:`as_dict` and therefore of :func:`job_key`.
    mutations: tuple | None = None

    def __post_init__(self) -> None:
        if self.mapping not in MAPPING_POLICIES:
            raise ValueError(f"mapping must be one of {MAPPING_POLICIES}")
        if not (0.0 < self.scale <= 1.0):
            raise ValueError("scale must be in (0, 1]")
        if self.hidden < 1 or self.num_layers < 1:
            raise ValueError("hidden and num_layers must be >= 1")
        if self.mutations is not None:
            chain = tuple(
                d if isinstance(d, EdgeDelta) else EdgeDelta.from_dict(d)
                for d in self.mutations
            )
            object.__setattr__(self, "mutations", chain or None)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """Canonical JSON-encodable form (basis of :func:`job_key`)."""
        return {
            "model": self.model,
            "dataset": self.dataset,
            "accelerator": self.accelerator,
            "scale": self.scale,
            "hidden": self.hidden,
            "num_layers": self.num_layers,
            "seed": self.seed,
            "mapping": self.mapping,
            "strict": self.strict,
            "scale_buffers": self.scale_buffers,
            "config": asdict(self.config) if self.config is not None else None,
            "baseline_traits": (
                asdict(self.baseline_traits)
                if self.baseline_traits is not None
                else None
            ),
            "mutations": (
                [d.as_dict() for d in self.mutations]
                if self.mutations is not None
                else None
            ),
        }

    @staticmethod
    def from_dict(data: dict) -> "SimJob":
        """Inverse of :meth:`as_dict`."""
        config = data.get("config")
        if config is not None:
            config = AcceleratorConfig(
                **{
                    **{k: v for k, v in config.items() if k not in ("noc", "dram")},
                    "noc": NoCConfig(**config["noc"]),
                    "dram": DRAMConfig(**config["dram"]),
                }
            )
        traits = data.get("baseline_traits")
        if traits is not None:
            traits = BaselineTraits(**traits)
        mutations = data.get("mutations")
        if mutations is not None:
            mutations = tuple(EdgeDelta.from_dict(d) for d in mutations)
        known = (
            "model", "dataset", "accelerator", "scale", "hidden",
            "num_layers", "seed", "mapping", "strict", "scale_buffers",
        )
        return SimJob(
            **{k: data[k] for k in known if k in data},
            config=config,
            baseline_traits=traits,
            mutations=mutations,
        )

    @staticmethod
    def from_request(data: dict) -> "SimJob":
        """Canonicalize a loosely-keyed request dict into a job spec.

        This is the wire-format entry point (`repro.serve`, `repro
        request`): it accepts the CLI-style aliases (``layers``,
        ``device``), coerces numeric types so equivalent JSON spellings
        hash identically, and rejects unknown fields loudly — a typo
        must fail the request, not silently simulate the default.
        """
        if not isinstance(data, dict):
            raise TypeError("request must be a JSON object")
        known = set(SimJob().as_dict())
        normalized: dict = {}
        for key, value in data.items():
            field = REQUEST_ALIASES.get(key, key)
            if field not in known:
                raise KeyError(f"unknown request field: {key!r}")
            if field in normalized:
                raise ValueError(f"duplicate request field: {key!r}")
            coerce = _REQUEST_COERCE.get(field)
            if coerce is not None and value is not None:
                type_name, convert = coerce
                try:
                    value = convert(value)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"field {key!r} must be {type_name}, "
                        f"got {value!r}"
                    ) from None
            normalized[field] = value
        return SimJob.from_dict(normalized)

    # ------------------------------------------------------------------
    def resolved_config(self) -> AcceleratorConfig:
        """The hardware config this job simulates on."""
        cfg = self.config or default_config()
        if self.scale_buffers and self.scale < 1.0:
            cfg = cfg.scaled(
                pe_buffer_bytes=max(1024, int(cfg.pe_buffer_bytes * self.scale))
            )
        return cfg

    @property
    def key(self) -> str:
        return job_key(self)

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        return f"{self.model}/{self.dataset}@{self.scale:g}/{self.accelerator}"


def job_key(job: SimJob) -> str:
    """Canonical content hash of a job spec (hex sha256).

    Stable across processes and sessions: the hash covers the canonical
    JSON form with sorted keys plus a schema version, never object ids.
    """
    payload = {"version": JOB_SCHEMA_VERSION, **job.as_dict()}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Per-process scratch for the last execution's tile-reuse counters —
#: set by _run_job when a tile cache was active, harvested (and reset)
#: by execute_job right after the run so the serve/runner layers can
#: attach it to the wire payload without polluting SimulationResult.
_LAST_EXEC_META: dict | None = None


def take_exec_meta() -> dict | None:
    """Pop the tile-reuse counters of the most recent run_job call."""
    global _LAST_EXEC_META
    meta, _LAST_EXEC_META = _LAST_EXEC_META, None
    return meta


def _tile_cache():
    """The per-tile result cache named by the environment, if any: the
    process's one cache at that root, whose counters ``/stats`` reads."""
    root = os.environ.get(ENV_TILE_CACHE_DIR)
    if not root:
        return None
    from .cache import shared_cache

    return shared_cache(root)


def run_job(job: SimJob) -> SimulationResult:
    """Execute one job with fresh simulator/device instances."""
    with TRACER.span("runtime.job"):
        return _run_job(job)


def _run_job(job: SimJob) -> SimulationResult:
    global _LAST_EXEC_META
    cfg = job.resolved_config()
    tile_cache = _tile_cache()
    # A delta's base is kept beside its tiles, so a base that left the
    # snapshot memo is read back, not re-synthesised.  Other jobs read
    # their graph once: storing it would only cost a write.
    graph = load_dataset(
        job.dataset,
        scale=job.scale,
        seed=job.seed,
        store=tile_cache if job.mutations else None,
    )
    if job.mutations:
        # Incremental path: touched rows rebuild, row digests refresh
        # incrementally, so tile content keys of clean tiles are
        # unchanged and resolve from the per-tile cache below.
        graph = apply_chain(graph, job.mutations)
    profile = dataset_profile(job.dataset)
    dims = layer_plan(graph, job.hidden, job.num_layers, profile.num_classes)
    model = get_model(job.model)
    if job.baseline_traits is not None:
        device = BaselineAccelerator(job.baseline_traits, cfg)
        return device.simulate(model, graph, dims, strict=job.strict)
    if job.accelerator == "aurora":
        sim = AuroraSimulator(
            cfg, mapping_policy=job.mapping, tile_cache=tile_cache
        )
        result = sim.simulate(model, graph, dims)
        if tile_cache is not None:
            stats = sim.take_tile_stats()
            _LAST_EXEC_META = {
                "tiles": stats["tiles"],
                "tiles_reused": stats["reused"],
                "tiles_recomputed": stats["recomputed"],
            }
        return result
    device = make_baseline(job.accelerator, cfg)
    return device.simulate(model, graph, dims, strict=job.strict)


def execute_job(job: SimJob) -> dict:
    """``run_job`` in the wire/cache format (the worker entry point).

    Returning the dict form rather than the object keeps the serial,
    process-pool, and warm-cache paths on one representation, so all
    three produce bit-identical results.  When a per-tile cache was
    active, the payload additionally carries the run's tile-reuse
    counters under ``"_exec"`` — a sibling of the result fields that
    ``SimulationResult.from_dict`` ignores, so result identity across
    cached/uncached paths is untouched.
    """
    take_exec_meta()  # drop stale state from a prior failed run
    payload = run_job(job).to_dict()
    meta = take_exec_meta()
    if meta is not None:
        payload = {**payload, "_exec": meta}
    return payload
