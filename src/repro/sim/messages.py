"""Inter-controller message accounting (paper Section 7.5).

The paper's closing motivation is the INFOPLEX database computer: a
multi-processor where each data segment is served by its own *segment
controller*, and concurrency-control overhead shows up as messages
between levels.  This module prices a recorded execution under that
architecture so the claim — HDD reduces inter-level synchronization
communications — becomes measurable.

Cost model (documented, deliberately simple):

* every granted read or write is one request/response pair with the
  granule's segment controller ............................ 2 messages;
* every *read registration* is one extra message — the controller must
  durably note the read timestamp / lock, which in a multiprocessor is
  a write to controller state others consult ............... 1 message;
* every blocked attempt is a wasted round trip (request + "wait") ... 2;
* every explicit abort/rejection reply ........................... 1;
* commit/abort fan-out: one notification per segment the transaction
  wrote in ................................. 2 per touched segment;
* each Protocol C wall *release* broadcasts one component per segment
  .......................................... 1 per segment per wall.

The absolute numbers mean nothing (any linear pricing would do); the
*ratios* between schedulers are the result, and they are robust to the
pricing because HDD eliminates whole message categories rather than
shrinking them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scheduling import BaseScheduler
from repro.txn.schedule import Action


@dataclass
class MessageReport:
    """Message totals for one execution."""

    data_messages: int = 0
    registration_messages: int = 0
    blocking_messages: int = 0
    rejection_messages: int = 0
    commit_fanout_messages: int = 0
    wall_broadcast_messages: int = 0

    @property
    def synchronization_messages(self) -> int:
        """Everything that exists only because of concurrency control."""
        return (
            self.registration_messages
            + self.blocking_messages
            + self.rejection_messages
            + self.wall_broadcast_messages
        )

    @property
    def total(self) -> int:
        return (
            self.data_messages
            + self.synchronization_messages
            + self.commit_fanout_messages
        )

    def per_commit(self, commits: int) -> dict[str, float]:
        denominator = max(commits, 1)
        return {
            "data/commit": round(self.data_messages / denominator, 2),
            "sync/commit": round(
                self.synchronization_messages / denominator, 2
            ),
            "total/commit": round(self.total / denominator, 2),
        }


def message_report(
    scheduler: BaseScheduler, segment_of=None
) -> MessageReport:
    """Price the scheduler's recorded execution under the §7.5 model.

    ``segment_of`` maps granules to segments for the commit fan-out;
    when omitted, every transaction's fan-out is one segment (a single-
    controller lower bound).
    """
    report = MessageReport()
    stats = scheduler.stats

    data_ops = 0
    for step in scheduler.schedule.steps:
        if step.action in (Action.READ, Action.WRITE):
            data_ops += 1
    report.data_messages = 2 * data_ops

    report.registration_messages = stats.read_registrations
    report.blocking_messages = 2 * (
        stats.read_blocks
        + stats.write_blocks
        + stats.commit_blocks
        + stats.wall_blocks
    )
    report.rejection_messages = (
        stats.read_rejections + stats.write_rejections + stats.aborts
    )

    fanout = 0
    for txn in scheduler.transactions.values():
        if not (txn.is_committed or txn.is_aborted):
            continue
        if segment_of is None:
            segments = {"*"} if txn.write_set else set()
        else:
            segments = {segment_of(granule) for granule in txn.write_set}
        fanout += 2 * len(segments)
    report.commit_fanout_messages = fanout

    walls = getattr(scheduler, "walls", None)
    if walls is not None and walls.released:
        # Broadcasts happened at release time; retirement is local
        # bookkeeping and un-sends nothing, so price every release ever
        # (the monotonic counter), not just the walls still live.
        components = len(walls.released[-1].components)
        report.wall_broadcast_messages = components * walls.total_released
    return report


#: RPC kinds whose responses carry an outcome status (one data access).
_OP_KINDS = frozenset({"READ_A", "READ_B", "READ_C", "WRITE"})


def measured_message_report(runtime) -> tuple[MessageReport, dict[str, int]]:
    """Count the messages a distributed run *actually* sent.

    Takes a :class:`~repro.dist.runtime.DistributedRuntime` after a run
    and buckets its network log into the analytic categories of
    :func:`message_report`, so the §7.5 cost model can be validated
    against a wire (``BENCH_dist_messages.json`` records the ratios):

    * operation request/response pairs split by the response's outcome —
      granted pairs are *data*, blocked pairs are *blocking*, rejected
      pairs are *rejection* messages;
    * ``COMMIT_FINALIZE`` pairs are commit fan-out, ``ABORT_FINALIZE``
      pairs are rejection traffic;
    * ``WALL`` broadcasts map one-to-one onto wall-broadcast messages;
    * registration stays **zero**: read registration piggybacks on the
      read request itself (the engine writes the read timestamp on
      controller-local state), which is precisely the sense in which the
      analytic model's registration charge is an upper bound.

    Everything the analytic model does not price — BEGIN registration,
    wall polling, crash fencing, gossip, NACK repair, retransmits — is
    returned in the second mapping as runtime overhead, counted from the
    same log.  Dropped messages count where they were sent: the wire
    carried them.

    The wire the runtime chose from its plan (coalesced on an ideal
    plan, eager otherwise) changes the counts, not the model:
    ``gossip_entries`` counts the journal entries the GOSSIP messages
    carried, so ``gossip_entries / oneway.GOSSIP`` is the coalescing
    factor (1.0-ish eager, larger coalesced), and ``polls_skipped``
    reports the POLL round-trips the coordinator's governor proved
    unnecessary and never sent; an ideal-plan run sends no ``WALL``
    broadcast, so its wall-broadcast count is zero.
    """
    report = MessageReport()
    extras: dict[str, int] = {}

    def bump(key: str, by: int = 1) -> None:
        extras[key] = extras.get(key, 0) + by

    skipped = getattr(runtime, "polls_skipped", 0)
    if skipped:
        extras["polls_skipped"] = skipped
    request_kind: dict[object, str] = {}
    for message in runtime.network.log:
        payload = message.payload
        if message.kind == "RESP":
            kind = request_kind.get(payload.get("req"))
            if kind in _OP_KINDS:
                status = payload.get("status")
                if status == "granted":
                    report.data_messages += 2
                elif status == "blocked":
                    report.blocking_messages += 2
                else:
                    report.rejection_messages += 2
            elif kind == "COMMIT_FINALIZE":
                report.commit_fanout_messages += 2
            elif kind == "ABORT_FINALIZE":
                report.rejection_messages += 2
            else:
                bump(f"pair.{kind}", 2)
        elif message.kind == "WALL":
            report.wall_broadcast_messages += 1
        elif message.kind in ("GOSSIP", "NACK"):
            bump(f"oneway.{message.kind}")
            if message.kind == "GOSSIP":
                bump("gossip_entries", len(payload.get("entries", ())))
        else:
            req = payload.get("req")
            if req in request_kind:
                bump("retransmit")  # the pair above counts one exchange
            else:
                request_kind[req] = message.kind
    return report, extras
