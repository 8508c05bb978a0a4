"""Deterministic simulation: engine, workloads, metrics, reference schemas."""

from repro.obs.metrics import percentile
from repro.sim.engine import Simulator
from repro.sim.hierarchies import (
    build_hierarchy_workload,
    chain_partition,
    random_tst,
    star_partition,
    tree_partition,
)
from repro.sim.claims import build_claims_partition, build_claims_workload
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)
from repro.sim.messages import MessageReport, message_report
from repro.sim.metrics import SimulationResult, format_table
from repro.sim.oracle import (
    ReplayReport,
    counter_invariant,
    replay_serially,
    verify_serial_equivalence,
)
from repro.sim.workload import (
    Op,
    TransactionTemplate,
    TxnSpec,
    Workload,
)

__all__ = [
    "Simulator",
    "SimulationResult",
    "MessageReport",
    "message_report",
    "ReplayReport",
    "replay_serially",
    "verify_serial_equivalence",
    "counter_invariant",
    "format_table",
    "percentile",
    "Op",
    "TransactionTemplate",
    "TxnSpec",
    "Workload",
    "build_inventory_partition",
    "build_inventory_workload",
    "build_claims_partition",
    "build_claims_workload",
    "chain_partition",
    "star_partition",
    "tree_partition",
    "random_tst",
    "build_hierarchy_workload",
]
