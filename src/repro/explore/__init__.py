"""Schedule-space exploration: find the interleaving that breaks you.

The determinism tripwires elsewhere in this repo prove *replay* — the
same seed gives the same bytes — but not *coverage*: a handful of seeds
and hand-written fault plans only ever visit a sliver of the schedule
space.  This package is the hunting side of that story (DESIGN.md §15):

* :mod:`repro.explore.perturb` — the perturbation decision stream.  The
  simulator, network and runtime expose named choice points (ready-set
  pick, arrival order, same-tick delivery order, retransmit slip);
  a :class:`Perturber` answers each with a candidate index where index
  0 is always the baseline, so disarmed ≡ all-zeros ≡ byte-identical.
* :mod:`repro.explore.cases` — :class:`ExploreCase`, the pure-data
  description of one explored run (target, workload, fault plan,
  recorded choices), and ``run_case`` which executes it.
* :mod:`repro.explore.oracles` — what "broken" means: serializability,
  digest conservatism, dist≡monolith equivalence, critical-path
  exactness, and plain engine errors.
* :mod:`repro.explore.fuzz` — budgeted :class:`FaultPlan` mutation with
  AFL-style coverage-novelty prioritisation.
* :mod:`repro.explore.minimize` — delta-debugging a violating case to a
  1-minimal repro.
* :mod:`repro.explore.corpus` — the mutation corpus: deliberately
  broken schedulers/runtimes the explorer must catch (and the real ones
  it must not).
* :mod:`repro.explore.engine` / :mod:`repro.explore.campaign` — the
  budgeted search loop and the multi-target campaign the CLI runs.
* :mod:`repro.explore.artifact` — canonical JSON repro artifacts and
  their byte-identical ``--replay``.
"""

from repro.explore.artifact import (
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.explore.campaign import (
    CampaignResult,
    campaign_units,
    execute_campaign_unit,
    run_campaign,
)
from repro.explore.cases import ExploreCase, RunReport, run_case
from repro.explore.corpus import CORPUS, CorpusEntry, corpus_entry, real_cases
from repro.explore.engine import ExploreBudget, ExploreResult, explore
from repro.explore.fuzz import CoverageMap, FaultBudget, PlanFuzzer
from repro.explore.minimize import minimize
from repro.explore.oracles import Violation, check_case
from repro.explore.perturb import (
    Choice,
    Perturber,
    RandomPerturber,
    ReplayPerturber,
    ZeroPerturber,
    neighborhood,
)

__all__ = [
    "CORPUS",
    "CampaignResult",
    "Choice",
    "CorpusEntry",
    "CoverageMap",
    "ExploreBudget",
    "ExploreCase",
    "ExploreResult",
    "FaultBudget",
    "Perturber",
    "PlanFuzzer",
    "RandomPerturber",
    "ReplayPerturber",
    "RunReport",
    "Violation",
    "ZeroPerturber",
    "campaign_units",
    "check_case",
    "corpus_entry",
    "execute_campaign_unit",
    "explore",
    "load_artifact",
    "real_cases",
    "minimize",
    "neighborhood",
    "replay_artifact",
    "run_campaign",
    "save_artifact",
]
