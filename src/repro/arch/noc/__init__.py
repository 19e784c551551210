"""Flexible NoC: topology, routers, cycle simulator, analytical model."""

from .analytical import (
    AnalyticalNoCModel,
    AnalyticalNoCResult,
    TrafficMatrix,
    ceil_flits,
)
from .deadlock import DeadlockReport, build_channel_dependency_graph, check_deadlock_freedom
from .drain import NoCDeadlockError
from .multicast import MulticastSimulator, MulticastTree, build_tree
from .network import NoCSimulator, NoCStats
from .packet import Flit, Packet
from .router import INJECT_PORT, Router, RouterPort
from .routing import (
    bypass_choice,
    bypass_route,
    compute_route,
    compute_routes,
    ring_route,
    xy_route,
)
from .topology import BypassSegment, FlexibleMeshTopology, RingConfig

__all__ = [
    "FlexibleMeshTopology",
    "BypassSegment",
    "RingConfig",
    "xy_route",
    "bypass_route",
    "ring_route",
    "compute_route",
    "compute_routes",
    "bypass_choice",
    "Packet",
    "Flit",
    "Router",
    "RouterPort",
    "INJECT_PORT",
    "NoCSimulator",
    "NoCStats",
    "NoCDeadlockError",
    "TrafficMatrix",
    "AnalyticalNoCModel",
    "AnalyticalNoCResult",
    "ceil_flits",
    "DeadlockReport",
    "check_deadlock_freedom",
    "build_channel_dependency_graph",
    "MulticastSimulator",
    "MulticastTree",
    "build_tree",
]
