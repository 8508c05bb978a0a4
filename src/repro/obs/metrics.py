"""A metrics-registry sink: counters and histograms over the event bus.

Attach a :class:`MetricsRegistry` (alone or inside a
:class:`~repro.obs.events.TeeSink`) to any scheduler and it aggregates
the trace online, without retaining events:

* **counters** — event counts by kind, reads split by protocol
  (``read.protocol.A/B/C`` vs ``read.protocol.none`` for baselines),
  blocks by wait-target category, aborts by reason, wall lifecycle and
  GC totals;
* **histograms** — block durations in engine steps, split by what was
  waited on (``block_steps.wall`` / ``.lock`` / ``.txn``), and
  ``wall_lag`` (release timestamp minus base time: how long each wall
  computation trailed the activity it certifies).

Block durations pair each :class:`~repro.obs.events.BlockedEvent` with
the same transaction's *next* event — a retry that blocks again simply
extends the episode, so the per-transaction sum matches the
simulator's ``blocked_client_steps`` accounting.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Optional, Sequence, Union

from repro.obs.events import (
    AbortedEvent,
    BeginEvent,
    BlockedEvent,
    CommittedEvent,
    DigestStalenessEvent,
    Event,
    EventSink,
    GCPassEvent,
    MessageDeliveredEvent,
    MessageDroppedEvent,
    MessageSentEvent,
    OpSpanEvent,
    ReadEvent,
    RunEndEvent,
    WallPinnedEvent,
    WallReleasedEvent,
    WallRetiredEvent,
    WallUnpinnedEvent,
    WriteEvent,
)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 if empty.

    Accepts any real-valued samples — latencies are ints, but staleness
    and wall-lag histograms feed floats.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    fraction = position - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


def abort_kind(reason: Optional[str]) -> str:
    """Bucket a free-form abort reason for counting.

    Reasons carry per-instance detail after a colon ("MVTO write
    rejected: inserting hub:g0^175 ..."); counters keep only the stable
    prefix so cardinality stays bounded.  Distributed-runtime reasons
    get their own stable buckets: ``node restart`` (an incarnation
    fence killed the transaction — including the colon-free phrasing a
    killed transaction's next operation reports) and ``dead on wire``
    (the wire fence fast-abandoned it while its node was down).  The
    transaction server's disconnect aborts arrive as ``client gone:
    connection N closed ...`` and bucket to ``client gone`` through the
    ordinary prefix rule.
    """
    if not reason:
        return "unknown"
    if reason.startswith("transaction killed by a node restart"):
        return "node restart"
    return reason.split(":", 1)[0].strip()


def wait_category(target: Union[int, str, None]) -> str:
    """Classify a wait target: ``wall`` / ``lock`` / ``txn`` / ``other``."""
    if isinstance(target, int):
        return "txn"
    if target == "timewall":
        return "wall"
    if isinstance(target, str) and target.startswith("lock:"):
        return "lock"
    return "other"


class Histogram:
    """A sample accumulator summarised through the shared percentile."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def record(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def quantile(self, q: float) -> float:
        return percentile(self.samples, q)

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "p50": round(self.quantile(0.50), 3),
            "p95": round(self.quantile(0.95), 3),
            "max": max(self.samples) if self.samples else 0.0,
        }


class MetricsRegistry(EventSink):
    """Aggregate a trace into counters and histograms, online."""

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()
        self.histograms: dict[str, Histogram] = {}
        #: Open blocked episode per transaction: (start step, category).
        self._blocked_since: dict[int, tuple[Optional[int], str]] = {}

    # ------------------------------------------------------------------
    # Sink contract
    # ------------------------------------------------------------------
    def emit(self, event: Event) -> None:
        self.counters[f"events.{event.kind}"] += 1
        if isinstance(event, ReadEvent):
            self._close_block(event)
            protocol = event.protocol if event.protocol else "none"
            self.counters[f"read.protocol.{protocol}"] += 1
        elif isinstance(event, WriteEvent):
            self._close_block(event)
        elif isinstance(event, BlockedEvent):
            category = wait_category(event.wait_target)
            self.counters[f"blocked.{category}"] += 1
            open_episode = self._blocked_since.get(event.txn_id)
            if open_episode is not None:
                self._record_block(open_episode, event.step)
            self._blocked_since[event.txn_id] = (event.step, category)
        elif isinstance(event, CommittedEvent):
            self._close_block(event)
        elif isinstance(event, AbortedEvent):
            self._close_block(event)
            self.counters[f"abort.reason.{abort_kind(event.reason)}"] += 1
        elif isinstance(event, BeginEvent):
            if event.read_only:
                self.counters["begin.read_only"] += 1
            else:
                self.counters["begin.update"] += 1
        elif isinstance(event, WallReleasedEvent):
            self.histogram("wall_lag").record(
                float(event.release_ts - event.base_time)
            )
            if event.delayed_by_class is not None:
                self.counters["wall.releases_delayed"] += 1
        elif isinstance(event, WallRetiredEvent):
            self.counters["wall.retired"] += event.count
        elif isinstance(event, GCPassEvent):
            self.counters["gc.pruned_versions"] += event.pruned_versions
        elif isinstance(event, RunEndEvent):
            self._drain_open_blocks(event.step)
        elif isinstance(event, MessageSentEvent):
            self.counters[f"net.sent.{event.msg_kind}"] += 1
            if event.retransmit_of is not None:
                self.counters[f"net.retransmit.{event.msg_kind}"] += 1
        elif isinstance(event, MessageDeliveredEvent):
            self.counters["net.delivered"] += 1
            self.histogram("net.delay").record(float(event.delay))
            self.histogram(
                f"net.delay.{event.src}->{event.dst}"
            ).record(float(event.delay))
        elif isinstance(event, MessageDroppedEvent):
            self.counters[f"net.dropped.{event.fate}"] += 1
        elif isinstance(event, DigestStalenessEvent):
            self.histogram("digest_staleness").record(
                float(event.staleness)
            )
            self.histogram(
                f"digest_staleness.{event.source_class}"
            ).record(float(event.staleness))
        elif isinstance(event, OpSpanEvent):
            self.histogram(f"op_ticks.{event.op}").record(
                float(event.end_tick - event.start_tick)
            )
        elif isinstance(event, (WallPinnedEvent, WallUnpinnedEvent)):
            pass  # the per-kind event counter above suffices

    # ------------------------------------------------------------------
    # Block-duration pairing
    # ------------------------------------------------------------------
    def _close_block(self, event: Event) -> None:
        open_episode = self._blocked_since.pop(getattr(event, "txn_id"), None)
        if open_episode is not None:
            self._record_block(open_episode, event.step)

    def _record_block(
        self, open_episode: tuple[Optional[int], str], end_step: Optional[int]
    ) -> None:
        start_step, category = open_episode
        if start_step is None or end_step is None:
            return  # no engine step context; duration unknowable
        self.histogram(f"block_steps.{category}").record(
            float(end_step - start_step)
        )

    def _drain_open_blocks(self, final_step: Optional[int]) -> None:
        for open_episode in self._blocked_since.values():
            self._record_block(open_episode, final_step)
        self._blocked_since.clear()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        return histogram

    def report(self) -> dict[str, object]:
        """Counters plus histogram summaries, sorted by name."""
        report: dict[str, object] = {
            name: self.counters[name] for name in sorted(self.counters)
        }
        for name in sorted(self.histograms):
            for key, value in self.histograms[name].summary().items():
                report[f"{name}.{key}"] = value
        return report

    def render(self) -> str:
        """An aligned one-metric-per-line view (CLI output)."""
        report = self.report()
        if not report:
            return "(no events)"
        width = max(len(name) for name in report)
        return "\n".join(
            f"{name.ljust(width)}  {value}" for name, value in report.items()
        )


def _log2_bucket(value: float) -> int:
    """0 for value <= 0, else 1 + floor(log2(value)) — coarse enough
    that a coverage signature is stable across harmless jitter, fine
    enough that a new behaviour regime (a 10x staleness raise, a wall
    wait an order of magnitude longer) registers as novel."""
    if value <= 0:
        return 0
    return max(1, int(value).bit_length())


def coverage_features(report: Mapping[str, object]) -> frozenset[str]:
    """The behaviour signature of one run, as a feature set.

    ``repro explore``'s fault-plan fuzzer keeps a plan on its frontier
    only when the plan's run exhibits a feature no earlier run did
    (AFL-style novelty search).  Features are drawn from a
    :meth:`MetricsRegistry.report` mapping:

    * which abort kinds occurred (``abort.reason.*``),
    * which read protocols served reads (``read.protocol.*``),
    * which message fates dropped traffic (``net.dropped.*``),
    * log2-bucketed p95s of the latency-shaping histograms —
      ``digest_staleness``, ``wall_lag``, ``net.delay`` and every
      ``block_steps.*`` category.
    """
    features: set[str] = set()
    for name, value in report.items():
        if not isinstance(value, (int, float)) or value <= 0:
            continue
        if name.startswith(
            ("abort.reason.", "read.protocol.", "net.dropped.", "net.retransmit.")
        ):
            features.add(name)
        elif name.endswith(".p95"):
            base = name[: -len(".p95")]
            if base in ("digest_staleness", "wall_lag", "net.delay") or (
                base.startswith("block_steps.")
            ):
                features.add(f"{base}.p95~2^{_log2_bucket(float(value))}")
    return frozenset(features)
