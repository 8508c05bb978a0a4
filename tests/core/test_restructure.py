"""Tests for dynamic restructuring (§7.1.1)."""

import pytest

from repro.core.restructure import (
    RestructuringHDDScheduler,
    plan_restructure,
    restructured_partition,
)
from repro.errors import PartitionError, ProtocolViolation
from repro.sim.hierarchies import chain_partition
from repro.sim.inventory import build_inventory_partition
from repro.txn.depgraph import is_serializable


class TestPlanning:
    def test_legal_pattern_is_noop(self, inventory_partition):
        plan = plan_restructure(
            inventory_partition, writes=["orders"], reads=["events"]
        )
        assert plan.is_noop
        assert plan.new_root == "orders"

    def test_multi_write_merges(self, inventory_partition):
        plan = plan_restructure(
            inventory_partition, writes=["inventory", "orders"], reads=["events"]
        )
        assert plan.merge_groups == {"inventory": ["inventory", "orders"]}
        assert plan.new_root == "inventory"
        assert plan.merged_into["orders"] == "inventory"
        assert plan.merged_into["events"] == "events"

    def test_downward_read_merges(self, inventory_partition):
        # Writing events while reading orders: orders is BELOW events,
        # so the whole chain collapses.
        plan = plan_restructure(
            inventory_partition, writes=["events"], reads=["orders"]
        )
        merged = set(plan.merged_into.values())
        assert len(merged) < 3

    def test_unknown_segment_rejected(self, inventory_partition):
        with pytest.raises(PartitionError):
            plan_restructure(inventory_partition, writes=["nope"])

    def test_empty_writes_rejected(self, inventory_partition):
        with pytest.raises(PartitionError):
            plan_restructure(inventory_partition, writes=[])

    def test_restructured_partition_valid(self, inventory_partition):
        plan = plan_restructure(
            inventory_partition, writes=["inventory", "orders"], reads=["events"]
        )
        merged = restructured_partition(
            inventory_partition, plan, adhoc_profile="fixer"
        )
        assert "fixer" in merged.profiles
        # Old granule prefixes still resolve.
        assert merged.segment_of("orders:o1") == "inventory"
        assert merged.segment_of("inventory:i1") == "inventory"
        assert merged.segment_of("events:e1") == "events"


class TestLiveRestructure:
    def test_adhoc_profile_runs(self):
        s = RestructuringHDDScheduler(build_inventory_partition())
        t1 = s.begin(profile="type1_log_event")
        s.write(t1, "events:e1", 1)
        s.commit(t1)
        s.run_adhoc_profile(
            "fixer", writes=["inventory", "orders"], reads=["events"]
        )
        t2 = s.begin(profile="fixer")
        assert s.read(t2, "events:e1").value == 1
        s.write(t2, "inventory:i1", 2)
        s.write(t2, "orders:o1", 3)
        assert s.commit(t2).granted
        assert is_serializable(s.schedule)

    def test_in_flight_transactions_survive(self):
        s = RestructuringHDDScheduler(build_inventory_partition())
        live = s.begin(profile="type3_reorder")  # class 'orders'
        s.run_adhoc_profile(
            "fixer", writes=["inventory", "orders"], reads=["events"]
        )
        # The live transaction's class was remapped to the merged one.
        assert live.class_id == "inventory"
        assert s.read(live, "events:e1").granted
        s.write(live, "orders:o1", 7)
        assert s.commit(live).granted
        assert is_serializable(s.schedule)

    def test_in_flight_declared_reader_is_rerouted(self):
        """A declared-path reader's segments are renamed through the
        merge and its route re-decided: reads of a merged-away segment
        stay legal and use walls from below the *merged* class."""
        s = RestructuringHDDScheduler(build_inventory_partition())
        reader = s.begin(profile="level_check", read_only=True)
        assert s.read(reader, "inventory:i1").granted
        s.run_adhoc_profile(
            "fixer", writes=["events", "inventory"], reads=[]
        )
        assert s.protocol.ro_segments[reader.txn_id] == {"events"}
        assert s.protocol.ro_bottom[reader.txn_id] == "events"
        assert s.read(reader, "inventory:i1").granted
        assert s.commit(reader).granted
        assert is_serializable(s.schedule)

    def test_existing_profiles_still_work(self):
        s = RestructuringHDDScheduler(build_inventory_partition())
        s.run_adhoc_profile(
            "fixer", writes=["inventory", "orders"], reads=["events"]
        )
        t = s.begin(profile="type2_post_inventory")
        assert s.read(t, "events:e1").granted
        s.write(t, "inventory:i9", 4)
        assert s.commit(t).granted

    def test_duplicate_adhoc_name_rejected(self):
        s = RestructuringHDDScheduler(build_inventory_partition())
        s.run_adhoc_profile("fixer", writes=["orders"], reads=["events"])
        with pytest.raises(ProtocolViolation):
            s.run_adhoc_profile("fixer", writes=["orders"])

    def test_activity_history_preserved(self):
        """Walls computed after the merge still see pre-merge activity."""
        s = RestructuringHDDScheduler(build_inventory_partition())
        t1 = s.begin(profile="type2_post_inventory")  # active in 'inventory'
        s.run_adhoc_profile(
            "fixer", writes=["inventory", "orders"], reads=["events"]
        )
        # t1 is still active; a reader above it... no class reads
        # inventory from below except orders (merged).  Check the log.
        merged_log = s.tracker.logs["inventory"]
        assert any(
            record[0] == t1.txn_id for record in merged_log.records()
        )
        s.write(t1, "inventory:i1", 1)
        assert s.commit(t1).granted

    def test_gc_after_restructure_sweeps_the_new_partition(self):
        """The watermark plan is per partition: after a merge that
        renames a hop, GC must sweep the new class pairs (the stale plan
        asked the new tracker for a class that no longer exists) and
        keep the version an in-flight Protocol A reader is entitled to.
        """
        s = RestructuringHDDScheduler(chain_partition(4))
        for segment in ("L0", "L1", "L2", "L3"):
            for value in (1, 2):
                writer = s.begin(profile=f"update_{segment}")
                s.write(writer, f"{segment}:g0", value)
                s.commit(writer)
        s.collect_garbage()  # builds the plan for the 4-class chain
        reader = s.begin(profile="update_L3")
        before = s.read(reader, "L0:g0")
        assert before.granted
        newer = s.begin(profile="update_L0")
        s.write(newer, "L0:g0", 3)
        s.commit(newer)
        s.run_adhoc_profile("fixer", writes=["L1", "L2"], reads=["L0"])
        s.collect_garbage()
        assert set(s.safe_watermarks()) == set(s.partition.segments)
        assert {j for _, j, _ in s._watermark_plan()} <= set(
            s.partition.segments
        )
        after = s.read(reader, "L0:g0")
        assert after.granted
        assert after.version_ts == before.version_ts
        assert s.commit(reader).granted
        assert is_serializable(s.schedule)

    def test_noop_restructure(self):
        s = RestructuringHDDScheduler(build_inventory_partition())
        plan = plan_restructure(s.partition, writes=["orders"], reads=["events"])
        s.restructure(plan)  # no-op; nothing should break
        t = s.begin(profile="type3_reorder")
        assert s.read(t, "events:e1").granted
