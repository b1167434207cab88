"""Surrogate-guided adaptive sweeps: simulate the hard points, predict the rest.

An exhaustive sweep pays one simulation per grid point.  The adaptive
planner spends a *budgeted* fraction of that: it predicts the whole grid
with the surrogate first, then simulates only

* **anchor points** — the first and last point of the grid (the
  extrapolation edges where any interpolator is weakest),
* **knee-adjacent points** — LLC allocations bracketing the workload's
  miss-ratio-curve knees, where the paper's §5 response curves actually
  bend and a smooth model is most likely to be wrong, and
* **high-uncertainty points** — the remaining budget, spent in
  descending order of the model's own uncertainty score,

and backfills everything else from the surrogate.  Every backfilled
:class:`~repro.core.measurement.Measurement` carries
``source="predicted"`` and the model's uncertainty; simulated points run
through the ordinary supervised runner, so they hit the result cache and
the attempt journal exactly as an exhaustive sweep would — which is what
makes an adaptive sweep *resumable*: re-running it serves the simulated
points from the cache and re-derives the predictions, and the journal's
``surrogate`` event lines record which points were predicted (with what
uncertainty) for post-hoc audit.

Predicted points are deliberately **never** written to the cache: the
cache is simulated ground truth, and a later exhaustive sweep of the
same grid must re-measure them (and would, since only simulated entries
exist under those digests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.experiment import ExperimentConfig
from repro.core.journal import SweepJournal
from repro.core.measurement import SOURCE_PREDICTED, Measurement
from repro.core.resultcache import ResultCache
from repro.core.runner import JOURNAL_BASENAME, SupervisionPolicy, run_supervised
from repro.errors import ConfigurationError
from repro.hardware.counters import (
    CounterSeries,
    DRAM_READ_BYTES,
    DRAM_WRITE_BYTES,
    INSTRUCTIONS,
    LLC_MISSES,
    SSD_READ_BYTES,
    SSD_WRITE_BYTES,
)
from repro.surrogate.corpus import TARGET_NAMES
from repro.surrogate.features import features_for_config, knee_adjacent_llc_mb
from repro.surrogate.model import Prediction, SurrogateModel
from repro.units import mb_per_s
from repro.workloads.base import ThroughputTracker

#: Default fraction of the grid the planner may simulate.
DEFAULT_BUDGET_FRACTION = 0.4

#: Synthetic instruction rate for predicted counter series: only the
#: *ratio* to the miss rate matters (it reproduces the predicted MPKI).
_SYNTH_INSTRUCTIONS = 1e9


@dataclass(frozen=True)
class AdaptivePlan:
    """Which grid indices run through the simulator, and why."""

    simulate: Tuple[int, ...]
    predict: Tuple[int, ...]
    #: index -> "anchor" | "knee" | "uncertain" for simulated points.
    reasons: Dict[int, str] = field(default_factory=dict)
    budget: int = 0

    def summary(self) -> str:
        kinds = {}
        for reason in self.reasons.values():
            kinds[reason] = kinds.get(reason, 0) + 1
        detail = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        return (
            f"{len(self.simulate)} simulated ({detail}), "
            f"{len(self.predict)} predicted, budget {self.budget}"
        )


@dataclass
class AdaptiveSweepResult:
    """An adaptive sweep's output: dense measurements plus provenance."""

    measurements: List[Measurement]
    plan: AdaptivePlan
    #: Per-predicted-index uncertainty scores.
    uncertainties: Dict[int, float] = field(default_factory=dict)
    cache_hits: int = 0

    @property
    def simulated(self) -> List[Measurement]:
        return [self.measurements[i] for i in self.plan.simulate]

    @property
    def predicted(self) -> List[Measurement]:
        return [self.measurements[i] for i in self.plan.predict]

    def summary(self) -> str:
        text = self.plan.summary()
        if self.cache_hits:
            text += f", {self.cache_hits} cached"
        return text


def plan_adaptive_sweep(
    configs: Sequence[ExperimentConfig],
    model: SurrogateModel,
    budget_fraction: float = DEFAULT_BUDGET_FRACTION,
    min_simulations: int = 2,
) -> Tuple[AdaptivePlan, List[Prediction]]:
    """Decide which points to simulate; returns the plan and every
    point's surrogate prediction (used later for backfill).

    The budget is ``max(min_simulations, ceil(fraction * len(grid)))``;
    anchors and knee-adjacent points are seeded first, remaining slots go
    to the highest-uncertainty predictions.  Deterministic: ties in
    uncertainty break by grid index.
    """
    if not 0.0 < budget_fraction <= 1.0:
        raise ConfigurationError("budget_fraction must be in (0, 1]")
    configs = list(configs)
    if not configs:
        return AdaptivePlan(simulate=(), predict=(), budget=0), []
    features = np.asarray([features_for_config(c) for c in configs])
    targets, uncertainties = model.predict_many(features)
    predictions = [
        Prediction(
            targets=dict(zip(TARGET_NAMES, targets[i].tolist())),
            uncertainty=float(uncertainties[i]),
        )
        for i in range(len(configs))
    ]
    budget = max(min(min_simulations, len(configs)),
                 math.ceil(budget_fraction * len(configs)))

    reasons: Dict[int, str] = {}

    def claim(index: int, reason: str) -> None:
        if index not in reasons and len(reasons) < budget:
            reasons[index] = reason

    # Anchors: the grid edges bracket the interpolation domain.
    claim(0, "anchor")
    claim(len(configs) - 1, "anchor")
    # Knee-adjacent LLC points: where the §5 response curves bend.
    for index, config in enumerate(configs):
        knees = knee_adjacent_llc_mb(config.workload, config.scale_factor)
        if config.allocation.llc_mb in knees:
            claim(index, "knee")
    # Remaining budget: the model's own least-trusted points.
    order = sorted(range(len(configs)),
                   key=lambda i: (-predictions[i].uncertainty, i))
    for index in order:
        claim(index, "uncertain")
    simulate = tuple(sorted(reasons))
    predict = tuple(i for i in range(len(configs)) if i not in reasons)
    plan = AdaptivePlan(simulate=simulate, predict=predict,
                        reasons=reasons, budget=budget)
    return plan, predictions


def predicted_measurement(
    config: ExperimentConfig, prediction: Prediction
) -> Measurement:
    """Synthesize a surrogate-sourced Measurement for one grid point.

    The counter series carries one synthetic tick per counter chosen so
    the *derived* observables (``ssd_read_mb``, ``mpki`` …) reproduce
    the predicted values — downstream report code reads predicted points
    through the same properties as simulated ones.  ``source`` and
    ``predicted_uncertainty`` are the provenance contract; the tracker
    is empty (no individual completions were simulated).
    """
    targets = prediction.targets
    counters = CounterSeries(interval=config.duration or 1.0)
    counters.append(INSTRUCTIONS, _SYNTH_INSTRUCTIONS)
    counters.append(
        LLC_MISSES, targets["mpki_model"] * _SYNTH_INSTRUCTIONS / 1000.0
    )
    counters.append(SSD_READ_BYTES, mb_per_s(targets["ssd_read_mb"]))
    counters.append(SSD_WRITE_BYTES, mb_per_s(targets["ssd_write_mb"]))
    counters.append(DRAM_READ_BYTES, mb_per_s(targets["dram_read_mb"]))
    counters.append(DRAM_WRITE_BYTES, mb_per_s(targets["dram_write_mb"]))
    return Measurement(
        workload=config.workload,
        scale_factor=config.scale_factor,
        allocation=config.allocation,
        duration=config.duration,
        primary_metric=targets["primary_metric"],
        counters=counters,
        tracker=ThroughputTracker(),
        mpki_model=targets["mpki_model"],
        backend=(f"router:{config.router}" if config.routed
                 else config.backend),
        router_policy=config.router,
        source=SOURCE_PREDICTED,
        predicted_uncertainty=prediction.uncertainty,
    )


def run_adaptive_sweep(
    configs: Sequence[ExperimentConfig],
    model: SurrogateModel,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[SupervisionPolicy] = None,
    journal: Optional[SweepJournal] = None,
    budget_fraction: float = DEFAULT_BUDGET_FRACTION,
) -> AdaptiveSweepResult:
    """Run *configs* adaptively: simulate per the plan, predict the rest.

    Simulated points go through :func:`~repro.core.runner.run_supervised`
    — cache, journal, retries, everything an exhaustive sweep gets — so
    an interrupted adaptive sweep resumes the same way.  Each predicted
    point is journaled as a ``surrogate`` event (digest, index, predicted
    primary metric, uncertainty); a resumed run re-notes the identical
    payload, so journals replay-match.
    """
    configs = list(configs)
    plan, predictions = plan_adaptive_sweep(
        configs, model, budget_fraction=budget_fraction
    )
    if journal is None and cache is not None:
        journal = SweepJournal(cache.directory / JOURNAL_BASENAME)
    simulated_configs = [configs[i] for i in plan.simulate]
    report = run_supervised(simulated_configs, jobs=jobs, cache=cache,
                            policy=policy, journal=journal)
    measurements: List[Optional[Measurement]] = [None] * len(configs)
    for slot, index in enumerate(plan.simulate):
        measurement = report.measurements[slot]
        if measurement is None:
            raise ConfigurationError(
                f"adaptive sweep: simulated grid point {index} produced no "
                "measurement (see the sweep report's failures)"
            )
        measurements[index] = measurement
    uncertainties: Dict[int, float] = {}
    for index in plan.predict:
        prediction = predictions[index]
        measurements[index] = predicted_measurement(configs[index], prediction)
        uncertainties[index] = prediction.uncertainty
        if journal is not None:
            digest = (cache.digest(configs[index]) if cache is not None
                      else None)
            journal.note(
                "surrogate",
                digest=digest,
                index=index,
                source=SOURCE_PREDICTED,
                primary_metric=prediction.targets["primary_metric"],
                uncertainty=prediction.uncertainty,
            )
    return AdaptiveSweepResult(
        measurements=measurements,  # type: ignore[arg-type]
        plan=plan,
        uncertainties=uncertainties,
        cache_hits=report.cache_hits,
    )
