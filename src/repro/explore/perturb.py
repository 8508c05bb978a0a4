"""The perturbation decision stream behind every explored schedule.

A hooked component (simulator ready-set pick, closed/open-loop arrival
order, network same-tick delivery order, coordinator retransmit slip)
asks its perturber ``choose(point, n)`` — "here are ``n`` legal
candidates at choice point *point*; which one?" — and uses the answer
as an index.  Two invariants make the whole explore subsystem sound:

1. **Index 0 is the baseline.**  Every hook orders its candidates so
   that candidate 0 is exactly what the disarmed code would have done.
   An all-zeros perturber therefore reproduces the unhooked run
   byte-identically, which is both the disarmed-identity test and the
   reason a minimized artifact with an empty choice list replays the
   plain run.

2. **Choices are positional.**  The ``i``-th call at a given point is
   addressed as ``(point, i)``; a :class:`ReplayPerturber` maps those
   addresses back to picks.  Because a nonzero pick changes the
   schedule *after* the call that made it, the prefix of calls up to
   and including any recorded choice is identical between the
   recording run and the replay run — so replay is exact by induction.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Mapping, Sequence

#: The named choice points the hooks expose.
POINTS = ("ready", "arrival", "deliver", "rto")


class Choice:
    """One recorded nonzero decision: at call ``index`` of ``point``,
    candidate ``pick`` was chosen instead of the baseline 0."""

    __slots__ = ("point", "index", "pick")

    def __init__(self, point: str, index: int, pick: int) -> None:
        self.point = point
        self.index = index
        self.pick = pick

    def key(self) -> tuple[str, int]:
        return (self.point, self.index)

    def to_list(self) -> list:
        return [self.point, self.index, self.pick]

    @classmethod
    def from_list(cls, data: Sequence) -> "Choice":
        point, index, pick = data
        return cls(str(point), int(index), int(pick))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Choice)
            and self.point == other.point
            and self.index == other.index
            and self.pick == other.pick
        )

    def __hash__(self) -> int:
        return hash((self.point, self.index, self.pick))

    def __repr__(self) -> str:
        return f"Choice({self.point!r}, {self.index}, {self.pick})"


class Perturber:
    """Base perturber: counts calls, records nonzero decisions.

    Subclasses override :meth:`_pick`; the base class keeps the
    per-point call counters, the per-address candidate counts (used by
    :func:`neighborhood` to know how far a pick can legally reach), and
    the ``recorded`` list of nonzero choices that becomes the case's
    decision trace.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        #: Candidate count seen at each (point, index) address.
        self.seen: dict[tuple[str, int], int] = {}
        #: Every nonzero decision, in call order.
        self.recorded: list[Choice] = []

    def choose(self, point: str, n: int) -> int:
        index = self.calls.get(point, 0)
        self.calls[point] = index + 1
        self.seen[(point, index)] = n
        if n <= 1:
            return 0
        pick = self._pick(point, index, n)
        if pick:
            self.recorded.append(Choice(point, index, min(pick, n - 1)))
        return pick

    def _pick(self, point: str, index: int, n: int) -> int:
        return 0


class ZeroPerturber(Perturber):
    """Always the baseline — armed hooks, unchanged schedule.

    Running with a ``ZeroPerturber`` and with ``perturb=None`` must be
    byte-identical; the disarmed-identity tests assert exactly that.
    It is also the recording run for :func:`neighborhood` search: its
    ``seen`` map is the complete menu of legal single deviations.
    """


class RandomPerturber(Perturber):
    """Seeded random search: deviate at each choice point with
    probability ``rate``, picking uniformly among the non-baseline
    candidates.  The rate is deliberately small — one schedule with a
    handful of deviations explores further than noise at every step,
    because heavy perturbation mostly starves clients rather than
    creating meaningful races.

    ``points`` restricts deviations to a subset of choice points —
    ideal-plan dist targets are explored at the simulator level only
    (``("ready", "arrival")``), because cross-link delivery reorder can
    legally stall the POLL governor's idle-skip contract and would read
    as a false positive on a correct scheduler.

    The rng is consumed identically whether or not a point is eligible,
    so restricting points never shifts the random decisions made at the
    points that remain."""

    def __init__(
        self,
        seed: int,
        rate: float = 0.05,
        points: Sequence[str] = POINTS,
    ) -> None:
        super().__init__()
        self.rng = random.Random(seed)
        self.rate = rate
        self.points = frozenset(points)

    def _pick(self, point: str, index: int, n: int) -> int:
        deviate = self.rng.random() < self.rate
        if not deviate:
            return 0
        pick = self.rng.randrange(1, n)
        return pick if point in self.points else 0


class ReplayPerturber(Perturber):
    """Replay a recorded decision trace; every unlisted address is the
    baseline.  Picks are clamped to the live candidate count — a
    clamped (hence divergent) replay can only happen while the
    minimizer is probing subsets, never when replaying a trace the
    recording run itself produced."""

    def __init__(self, choices: Iterable[Choice]) -> None:
        super().__init__()
        self._table: dict[tuple[str, int], int] = {
            choice.key(): choice.pick for choice in choices
        }

    def _pick(self, point: str, index: int, n: int) -> int:
        pick = self._table.get((point, index), 0)
        return min(pick, n - 1)


def neighborhood(
    seen: Mapping[tuple[str, int], int],
    points: Sequence[str] = POINTS,
    stride: int = 1,
) -> Iterator[tuple[Choice]]:
    """Systematic single-deviation neighbourhood of a recorded baseline.

    ``seen`` is a baseline run's ``(point, index) -> n`` map.  Yields
    one single-``Choice`` tuple per legal deviation, in deterministic
    address order; ``stride`` subsamples addresses when the baseline
    has more choice points than the search budget can visit.
    """
    addresses = sorted(
        (key for key in seen if key[0] in points and seen[key] > 1),
    )
    for position, (point, index) in enumerate(addresses):
        if position % stride:
            continue
        for pick in range(1, seen[(point, index)]):
            yield (Choice(point, index, pick),)
