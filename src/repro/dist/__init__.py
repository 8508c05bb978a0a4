"""Distributed segment-controller runtime (paper Section 7.5).

One :class:`SegmentNode` per DHG class over a deterministic
fault-injecting :class:`SimNetwork`, fronted by a
:class:`DistributedRuntime` coordinator — a
:class:`~repro.scheduling.BaseScheduler` hosting the same protocol core
as the monolithic scheduler.  See DESIGN.md §11 and §17.  With
``transport="proc"`` the same nodes run in real OS worker processes
over a :class:`ProcNetwork` (DESIGN.md §16); the sim path stays the
deterministic twin.
"""

from repro.dist.digest import DigestLog, DigestTracker, RemoteClock
from repro.dist.net import Crash, FaultPlan, Message, Partition, SimNetwork
from repro.dist.node import SegmentNode, node_name
from repro.dist.proc import (
    FileBackedWAL,
    NodeConfig,
    ProcNetwork,
    ProcNodeProxy,
    ProcStoreProxy,
)
from repro.dist.runtime import (
    MODES,
    DistributedRuntime,
    FederatedStore,
    WallView,
)

__all__ = [
    "Crash",
    "DigestLog",
    "DigestTracker",
    "DistributedRuntime",
    "FaultPlan",
    "FederatedStore",
    "FileBackedWAL",
    "MODES",
    "Message",
    "NodeConfig",
    "Partition",
    "ProcNetwork",
    "ProcNodeProxy",
    "ProcStoreProxy",
    "RemoteClock",
    "SegmentNode",
    "SimNetwork",
    "WallView",
    "node_name",
]
