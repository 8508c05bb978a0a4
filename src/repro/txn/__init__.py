"""Transactions, logical time, schedules and the serializability oracle."""

from repro.txn.clock import (
    BOOTSTRAP_TS,
    BOOTSTRAP_TXN_ID,
    EPSILON,
    LogicalClock,
    Timestamp,
)
from repro.txn.depgraph import (
    Dependency,
    build_dependency_graph,
    closing_step,
    find_dependency_cycle,
    is_serializable,
    serialization_order,
)
from repro.txn.schedule import Action, Schedule, ScheduleIndex, Step
from repro.txn.transaction import (
    GranuleId,
    SegmentId,
    Transaction,
    TransactionKind,
    TransactionStatus,
)

__all__ = [
    "BOOTSTRAP_TS",
    "BOOTSTRAP_TXN_ID",
    "EPSILON",
    "LogicalClock",
    "Timestamp",
    "Dependency",
    "build_dependency_graph",
    "closing_step",
    "find_dependency_cycle",
    "is_serializable",
    "serialization_order",
    "Action",
    "Schedule",
    "ScheduleIndex",
    "Step",
    "GranuleId",
    "SegmentId",
    "Transaction",
    "TransactionKind",
    "TransactionStatus",
]
