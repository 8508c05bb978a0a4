"""One explored run as pure data, and the machinery to execute it.

An :class:`ExploreCase` is everything needed to reproduce a run: the
target (a real scheduler or a corpus mutant), the workload and fault
plan, the seeds, and the recorded perturbation choices.  It is
JSON-round-trippable and canonically hashable — the minimizer shrinks
cases, the artifact layer serializes them, and ``repro explore
--replay`` re-executes them byte-identically on any worker count.

``run_case`` executes a case and returns a :class:`RunReport` carrying
both the byte-comparable outputs (schedule lines, message-log lines)
and the richer objects the oracle layer inspects (the scheduler, the
released walls, the captured event trace, the metrics report).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from repro.errors import ConfigError, ReproError
from repro.explore.perturb import (
    Choice,
    Perturber,
    ReplayPerturber,
)
from repro.obs import MemorySink, MetricsRegistry, TeeSink
from repro.sim.engine import Simulator
from repro.sweep.spec import (
    DIST_SCHEDULERS,
    SCHEDULER_FACTORIES,
    build_workload,
)

#: Bump when run semantics change and old artifacts stop replaying.
#: 2: the dist wire is chosen from the plan; cases carry no wire field.
ARTIFACT_VERSION = 2


def plan_to_dict(plan) -> dict[str, object]:
    """A :class:`~repro.dist.net.FaultPlan` as canonical pure data."""
    return {
        "latency": plan.latency,
        "jitter": plan.jitter,
        "drop_rate": plan.drop_rate,
        "spike_rate": plan.spike_rate,
        "spike_ticks": plan.spike_ticks,
        "partitions": [
            [w.start, w.end, sorted(w.left), sorted(w.right)]
            for w in plan.partitions
        ],
        "crashes": [[c.node, c.at, c.recover] for c in plan.crashes],
    }


def plan_from_dict(data: Mapping[str, object]):
    from repro.dist.net import Crash, FaultPlan, Partition

    return FaultPlan(
        latency=int(data.get("latency", 0)),
        jitter=int(data.get("jitter", 0)),
        drop_rate=float(data.get("drop_rate", 0.0)),
        spike_rate=float(data.get("spike_rate", 0.0)),
        spike_ticks=int(data.get("spike_ticks", 0)),
        partitions=tuple(
            Partition(
                int(start), int(end), frozenset(left), frozenset(right)
            )
            for start, end, left, right in data.get("partitions", [])
        ),
        crashes=tuple(
            Crash(str(node), int(at), int(recover))
            for node, at, recover in data.get("crashes", [])
        ),
    )


@dataclass(frozen=True)
class ExploreCase:
    """Pure data: one run the explorer wants (re-)executed.

    ``mutant`` names a corpus entry whose broken scheduler/runtime
    replaces the real one; ``None`` targets the genuine article.
    ``choices`` is the recorded perturbation trace (empty = baseline
    schedule).  ``plan`` is the serialized fault plan (dist only).
    """

    scheduler: str = "hdd"
    dist: bool = False
    mutant: Optional[str] = None
    workload: Mapping[str, object] = field(
        default_factory=lambda: {"schema": "inventory"}
    )
    clients: int = 8
    seed: int = 0
    net_seed: int = 0
    target_commits: Optional[int] = 60
    max_steps: int = 30_000
    wall_interval: int = 25
    heartbeat: int = 5
    plan: Mapping[str, object] = field(default_factory=dict)
    choices: tuple[Choice, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "version": ARTIFACT_VERSION,
            "scheduler": self.scheduler,
            "dist": self.dist,
            "mutant": self.mutant,
            "workload": dict(self.workload),
            "clients": self.clients,
            "seed": self.seed,
            "net_seed": self.net_seed,
            "target_commits": self.target_commits,
            "max_steps": self.max_steps,
            "wall_interval": self.wall_interval,
            "heartbeat": self.heartbeat,
            "plan": dict(self.plan),
            "choices": [choice.to_list() for choice in self.choices],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExploreCase":
        data = dict(data)
        version = data.pop("version", ARTIFACT_VERSION)
        if version != ARTIFACT_VERSION:
            raise ConfigError(
                f"explore case recorded at artifact version {version} "
                f"does not replay at version {ARTIFACT_VERSION}"
            )
        data["workload"] = dict(data.get("workload", {}))
        data["plan"] = dict(data.get("plan", {}))
        data["choices"] = tuple(
            Choice.from_list(item) for item in data.get("choices", [])
        )
        return cls(**data)

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def with_choices(
        self, choices: Sequence[Choice]
    ) -> "ExploreCase":
        return replace(self, choices=tuple(choices))

    @property
    def sim_level_only(self) -> bool:
        """Whether net-level perturbation points are off-limits.

        A dist run on an ideal plan rides the coalesced wire and its
        POLL governor, whose idle-skip contract assumes the network's
        baseline delivery order; reordering deliveries across links can
        stall it legally — a false positive on a correct scheduler — so
        those targets are explored at the simulator level only.
        """
        return self.dist and not dict(self.plan)

    @property
    def perturb_points(self) -> tuple[str, ...]:
        if not self.dist or self.sim_level_only:
            return ("ready", "arrival")
        return ("ready", "arrival", "deliver", "rto")


@dataclass
class RunReport:
    """Everything one executed case produced.

    ``schedule_lines`` and ``message_lines`` are the byte-comparable
    canonical outputs (the determinism and replay checks compare them
    verbatim); the object fields feed the oracle layer.
    """

    case: ExploreCase
    result: Optional[object] = None
    scheduler: Optional[object] = None
    schedule_lines: tuple[str, ...] = ()
    message_lines: tuple[str, ...] = ()
    metrics: Mapping[str, object] = field(default_factory=dict)
    events: Sequence[object] = ()
    error: Optional[str] = None
    perturber: Optional[Perturber] = None

    @property
    def walls(self):
        walls = getattr(self.scheduler, "walls", None)
        return getattr(walls, "released", []) if walls else []


def _build_scheduler(case: ExploreCase, partition):
    """The (possibly mutated) scheduler/runtime a case targets."""
    if case.mutant is not None:
        from repro.explore.corpus import corpus_entry

        return corpus_entry(case.mutant).build(case, partition)
    return build_real_scheduler(case, partition)


def build_real_scheduler(
    case: ExploreCase, partition, runtime_class=None
):
    """The unmutated target; ``runtime_class`` lets corpus entries swap
    in a broken :class:`~repro.dist.runtime.DistributedRuntime`."""
    if not case.dist:
        return SCHEDULER_FACTORIES[case.scheduler](partition)
    from repro.dist.runtime import DistributedRuntime

    if case.scheduler not in DIST_SCHEDULERS:
        raise ReproError(
            f"scheduler {case.scheduler!r} has no distributed runtime"
        )
    cls = runtime_class if runtime_class is not None else DistributedRuntime
    return cls(
        partition,
        mode=case.scheduler,
        plan=plan_from_dict(case.plan),
        seed=case.net_seed,
        wall_interval=case.wall_interval,
        heartbeat=case.heartbeat,
    )


def run_case(
    case: ExploreCase, perturber: Optional[Perturber] = None
) -> RunReport:
    """Execute a case and collect everything the oracles need.

    ``perturber`` defaults to replaying the case's recorded choices
    (those at the case's :attr:`~ExploreCase.perturb_points`);
    the explore engine passes live perturbers (random / neighborhood)
    instead.  One perturber serves both the simulator and the network —
    the choice points are disjoint, so the call counters never clash.

    Engine exceptions are *data*, not failures: a mutant that corrupts
    internal state typically dies in a stall or a ``KeyError`` long
    before producing a non-serializable schedule, and the oracle layer
    turns ``report.error`` into an ``engine-error`` violation (for
    mutants) or a real bug report (for genuine targets).
    """
    if perturber is None:
        # Choices at points that are off-limits for this case are inert:
        # the minimizer can shrink a faulty plan to the ideal one while
        # net-level choices recorded under it are still in the case,
        # and replaying those against the governed wire would report
        # the wire's broken contract, not the target's bug.
        perturber = ReplayPerturber(
            c for c in case.choices if c.point in case.perturb_points
        )
    workload = build_workload(case.workload)
    scheduler = _build_scheduler(case, workload.partition)
    registry = MetricsRegistry()
    sink: object = registry
    events: Sequence[object] = ()
    memory: Optional[MemorySink] = None
    if case.dist:
        # The critical-path exactness oracle replays the full event DAG.
        memory = MemorySink()
        sink = TeeSink([memory, registry])
        scheduler.network.perturb = perturber
    simulator = Simulator(
        scheduler,
        workload,
        clients=case.clients,
        seed=case.seed,
        max_steps=case.max_steps,
        target_commits=case.target_commits,
        audit=False,
        trace_sink=sink,
        perturb=perturber,
    )
    result = None
    error = None
    try:
        result = simulator.run()
    except Exception as exc:  # noqa: BLE001 - engine errors are data
        error = f"{type(exc).__name__}: {exc}"
    if memory is not None:
        events = list(memory.events)
    schedule = getattr(scheduler, "schedule", None)
    schedule_lines = (
        tuple(str(step) for step in schedule) if schedule is not None else ()
    )
    network = getattr(scheduler, "network", None)
    message_lines = (
        tuple(network.log_lines()) if network is not None else ()
    )
    return RunReport(
        case=case,
        result=result,
        scheduler=scheduler,
        schedule_lines=schedule_lines,
        message_lines=message_lines,
        metrics=registry.report(),
        events=events,
        error=error,
        perturber=perturber,
    )
