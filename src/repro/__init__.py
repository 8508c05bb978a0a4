"""repro — Hierarchical Database Decomposition concurrency control.

A full reproduction of Meichun Hsu, *Hierarchical Database
Decomposition: A Technique for Database Concurrency Control*
(INFOPLEX TR #12 / PODS 1983): the HDD scheduler with Protocols A, B
and C, the activity-link / time-wall machinery, the classical baselines
it is compared against (2PL, TO, MVTO, MV2PL, SDD-1-style pipelining),
a deterministic discrete-event simulator, and a serializability oracle.

Quickstart::

    from repro import (
        HierarchicalPartition, TransactionProfile, HDDScheduler,
    )

    partition = HierarchicalPartition(
        segments=["events", "inventory"],
        profiles=[
            TransactionProfile.update("log_event", writes=["events"]),
            TransactionProfile.update(
                "post_inventory", writes=["inventory"], reads=["events"]
            ),
        ],
    )
    scheduler = HDDScheduler(partition)
    txn = scheduler.begin(profile="post_inventory")
    outcome = scheduler.read(txn, "events:sale-1")   # Protocol A: no lock,
    scheduler.write(txn, "inventory:item-1", 42)     # no read timestamp
    scheduler.commit(txn)

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the full
system inventory.
"""

from repro.core.graph import (
    Digraph,
    SemiTreeIndex,
    is_semi_tree,
    is_transitive_semi_tree,
)
from repro.core.partition import (
    HierarchicalPartition,
    PartitionSummary,
    TransactionProfile,
    build_dhg,
)
from repro.core.activity import ActivityTracker
from repro.core.analysis import (
    DerivedPartition,
    GranuleProfile,
    coarsen_to_tst,
    derive_partition,
)
from repro.core.relation import audit_psr, topologically_follows
from repro.core.trace import (
    TraceProfile,
    collect_trace_profiles,
    derive_partition_from_trace,
)
from repro.database import Database, TransactionHandle, WouldBlock
from repro.core.restructure import (
    RestructurePlan,
    RestructuringHDDScheduler,
    plan_restructure,
    restructured_partition,
)
from repro.core.scheduler import HDDScheduler
from repro.core.timewall import TimeWall, TimeWallManager
from repro.baselines import (
    MultiversionTimestampOrdering,
    MultiversionTwoPhaseLocking,
    ReedMultiversionTimestampOrdering,
    SDD1Pipelining,
    TimestampOrdering,
    TwoPhaseLocking,
)
from repro.errors import (
    NotComputableError,
    NotSerializableError,
    PartitionError,
    ProtocolViolation,
    ReproError,
    TransactionAborted,
)
from repro.scheduling import (
    BaseScheduler,
    Outcome,
    OutcomeKind,
    SchedulerStats,
)
from repro.storage import MultiVersionStore, Version, VersionChain
from repro.txn import (
    LogicalClock,
    Schedule,
    Transaction,
    build_dependency_graph,
    closing_step,
    find_dependency_cycle,
    is_serializable,
    serialization_order,
)

__version__ = "1.0.0"

__all__ = [
    # graph theory
    "Digraph",
    "SemiTreeIndex",
    "is_semi_tree",
    "is_transitive_semi_tree",
    # decomposition
    "TransactionProfile",
    "HierarchicalPartition",
    "PartitionSummary",
    "build_dhg",
    # decomposition methodology and restructuring (paper §7 extensions)
    "GranuleProfile",
    "DerivedPartition",
    "derive_partition",
    "coarsen_to_tst",
    "RestructurePlan",
    "RestructuringHDDScheduler",
    "plan_restructure",
    "restructured_partition",
    "TraceProfile",
    "collect_trace_profiles",
    "derive_partition_from_trace",
    # user-facing facade
    "Database",
    "TransactionHandle",
    "WouldBlock",
    # HDD machinery
    "ActivityTracker",
    "topologically_follows",
    "audit_psr",
    "TimeWall",
    "TimeWallManager",
    "HDDScheduler",
    # baselines
    "TwoPhaseLocking",
    "TimestampOrdering",
    "MultiversionTimestampOrdering",
    "ReedMultiversionTimestampOrdering",
    "MultiversionTwoPhaseLocking",
    "SDD1Pipelining",
    # scheduling interface
    "BaseScheduler",
    "Outcome",
    "OutcomeKind",
    "SchedulerStats",
    # storage
    "MultiVersionStore",
    "Version",
    "VersionChain",
    # transactions and the oracle
    "LogicalClock",
    "Schedule",
    "Transaction",
    "build_dependency_graph",
    "closing_step",
    "find_dependency_cycle",
    "is_serializable",
    "serialization_order",
    # errors
    "ReproError",
    "PartitionError",
    "ProtocolViolation",
    "TransactionAborted",
    "NotComputableError",
    "NotSerializableError",
    "__version__",
]
