"""Reset the hot path's memoization layers for cold measurements.

The benchmark (``perfbench/``) and the speedup gates under
``benchmarks/`` call :func:`clear_hot_path_caches` before every cold
timing so it reflects a from-scratch run.
"""

from __future__ import annotations

__all__ = ["clear_hot_path_caches"]


def clear_hot_path_caches() -> None:
    """Empty every memoization layer the hot path consults.

    Used before the cold measurement so it reflects a from-scratch run
    (the state a fresh process or a never-seen workload starts in).
    """
    from ..arch.noc.analytical import AnalyticalNoCModel
    from ..arch.noc.network import _clear_route_memo
    from ..core.configuration import ConfigurationUnit
    from ..core.simulator import clear_partition_sample_cache
    from ..graphs.tiling import clear_tiling_cache
    from ..mapping.degree_aware import _zorder_nodes_cached
    from ..mapping.memo import clear_mapping_cache
    from ..runtime.shards import clear_tile_memo

    clear_mapping_cache()
    AnalyticalNoCModel._cache.clear()
    ConfigurationUnit._cache.clear()
    _zorder_nodes_cached.cache_clear()
    _clear_route_memo()
    clear_tiling_cache()
    clear_tile_memo()
    clear_partition_sample_cache()
