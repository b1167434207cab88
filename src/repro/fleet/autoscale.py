"""Deterministic sim-clock autoscaler for the fleet cluster.

The control loop is the one production autoscalers run: sample load
signals on a fixed evaluation interval, scale out when the fleet is hot,
scale in when it is cold, and respect a cooldown so one burst does not
slosh capacity up and down.  Two signals drive it, both taken from the
layers the earlier PRs built:

* **queue depth** — mean in-flight transactions per ready shard as a
  fraction of the shard's admission capacity (the same bound the
  priority shedder enforces), and
* **grant wait** — the per-interval growth of RESOURCE_SEMAPHORE wait
  time summed across shard engines (:mod:`repro.engine.semaphore`):
  memory-grant queueing is the engine-side overload symptom that shows
  up *before* latency collapses, and
* **sheds** — requests refused per interval by the priority shedder.
  Bursty arrivals clump: a flash crowd can shed hard between samples
  while mean concurrency at the sampling instants still looks calm, so
  refusals are the signal that catches what queue depth misses.

Scale-out is not free: a new shard pays the serverless personality's
cold-start delay (:data:`~repro.backends.serverless.COLD_START_SECONDS`
by default) before it takes traffic, so the *reaction time* — overload
onset to first new-capacity-ready — is a first-class output
(:meth:`Autoscaler.reaction_seconds`).

Everything is a pure function of the simulated clock and the cluster's
deterministic state: no wall clock, no RNG.  The same trace and seed
produce bit-identical scaling decisions at any ``jobs`` count, which the
seed-invariance property test locks in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Generator, List, Optional

from repro.backends.serverless import COLD_START_SECONDS
from repro.errors import ConfigurationError
from repro.sim.process import Timeout


@dataclass(frozen=True)
class AutoscalePolicy:
    """Thresholds and timing of the scaling control loop (hashable, so
    it rides on :class:`~repro.fleet.cluster.FleetSpec` and into
    digests)."""

    min_shards: int = 1
    max_shards: int = 16
    interval_s: float = 1.0         #: evaluation cadence
    high_watermark: float = 0.75    #: mean in-flight fraction to scale out
    low_watermark: float = 0.20     #: mean in-flight fraction to scale in
    #: per-interval grant-wait growth (seconds) that also counts as hot
    grant_wait_high_s: float = 0.05
    #: sheds per interval that also count as hot (refused work is the
    #: bluntest possible overload evidence)
    shed_high: int = 1
    cooldown_s: float = 5.0         #: minimum gap between decisions
    cold_start_s: float = COLD_START_SECONDS

    def __post_init__(self):
        # ``not <valid>`` rejects NaN, which fails every comparison.
        if not self.min_shards >= 1:
            raise ConfigurationError(
                f"AutoscalePolicy.min_shards must be >= 1, got {self.min_shards!r}")
        if not self.max_shards >= self.min_shards:
            raise ConfigurationError(
                f"AutoscalePolicy.max_shards must be >= min_shards "
                f"({self.min_shards!r}), got {self.max_shards!r}")
        if not self.interval_s > 0:
            raise ConfigurationError(
                f"AutoscalePolicy.interval_s must be > 0, got {self.interval_s!r}")
        if not self.cooldown_s >= 0:
            raise ConfigurationError(
                f"AutoscalePolicy.cooldown_s must be >= 0, got {self.cooldown_s!r}")
        if self.shed_high < 1:
            raise ConfigurationError("shed_high must be >= 1")
        if not 0.0 <= self.low_watermark < self.high_watermark:
            raise ConfigurationError(
                "watermarks must satisfy 0 <= low < high"
            )


@dataclass(frozen=True)
class ScalingDecision:
    """One scale-out/in action and the signals that triggered it."""

    at: float
    action: str                     #: "out" | "in"
    shards_before: int
    shards_after: int
    queue_signal: float             #: mean in-flight fraction sampled
    grant_wait_signal: float        #: grant-wait delta over the interval
    shed_signal: int                #: sheds over the interval
    ready_at: float                 #: when the new capacity takes traffic
                                    #: (== at for scale-in)


class Autoscaler:
    """The control loop; duck-typed over
    :class:`~repro.fleet.cluster.FleetCluster` (needs ``ready_shards()``,
    ``active_count()``, ``scale_out(ready_at)``, ``scale_in()``,
    ``capacity_per_shard``, ``total_grant_wait_seconds()``,
    ``total_sheds()``)."""

    def __init__(self, cluster, policy: AutoscalePolicy):
        self.cluster = cluster
        self.policy = policy
        self.decisions: List[ScalingDecision] = []
        #: First sim time the hot condition was observed (None if never).
        self.overload_onset: Optional[float] = None
        self._sim = cluster.sim
        self._last_action = -float("inf")
        self._last_grant_wait = 0.0
        self._last_sheds = 0
        #: Onset-to-capacity-ready latency of the *first* scale-out,
        #: captured at decision time (the live ``overload_onset`` resets
        #: once the fleet cools, so it cannot be recovered post hoc).
        self._first_reaction: Optional[float] = None

    def install(self) -> None:
        self._sim.spawn(self._run(), name="autoscaler")

    # -- control loop ------------------------------------------------------------

    def _signals(self):
        ready = self.cluster.ready_shards()
        if ready:
            in_flight = sum(s.in_flight for s in ready)
            queue = in_flight / (len(ready) * self.cluster.capacity_per_shard)
        else:
            queue = 1.0  # all capacity cold: maximally hot by definition
        total_wait = self.cluster.total_grant_wait_seconds()
        grant_delta = total_wait - self._last_grant_wait
        self._last_grant_wait = total_wait
        total_sheds = self.cluster.total_sheds()
        shed_delta = total_sheds - self._last_sheds
        self._last_sheds = total_sheds
        return queue, grant_delta, shed_delta

    def _run(self) -> Generator:
        policy = self.policy
        while True:
            yield Timeout(policy.interval_s)
            queue, grant_delta, shed_delta = self._signals()
            hot = (queue >= policy.high_watermark
                   or grant_delta >= policy.grant_wait_high_s
                   or shed_delta >= policy.shed_high)
            cold = (queue <= policy.low_watermark
                    and grant_delta < policy.grant_wait_high_s
                    and shed_delta == 0)
            if hot and self.overload_onset is None:
                self.overload_onset = self._sim.now
            if not hot:
                self.overload_onset = None if cold else self.overload_onset
            now = self._sim.now
            if now - self._last_action < policy.cooldown_s:
                continue
            active = self.cluster.active_count()
            if hot and active < policy.max_shards:
                ready_at = now + policy.cold_start_s
                if self._first_reaction is None and self.overload_onset is not None:
                    self._first_reaction = ready_at - self.overload_onset
                self.cluster.scale_out(ready_at=ready_at)
                self._record("out", active, active + 1, queue, grant_delta,
                             shed_delta, ready_at)
            elif cold and active > policy.min_shards:
                self.cluster.scale_in()
                self._record("in", active, active - 1, queue, grant_delta,
                             shed_delta, now)

    def _record(self, action: str, before: int, after: int,
                queue: float, grant_delta: float, shed_delta: int,
                ready_at: float) -> None:
        self._last_action = self._sim.now
        self.decisions.append(ScalingDecision(
            at=self._sim.now, action=action, shards_before=before,
            shards_after=after, queue_signal=queue,
            grant_wait_signal=grant_delta, shed_signal=shed_delta,
            ready_at=ready_at,
        ))

    # -- reporting ---------------------------------------------------------------

    def reaction_seconds(self) -> Optional[float]:
        """Overload onset to the first scale-out's capacity becoming
        ready — cold start included, because capacity that is still
        provisioning absorbs no load.  None if it never scaled."""
        return self._first_reaction

    def summary(self) -> Dict[str, object]:
        return {
            "decisions": [asdict(d) for d in self.decisions],
            "scale_outs": sum(1 for d in self.decisions if d.action == "out"),
            "scale_ins": sum(1 for d in self.decisions if d.action == "in"),
            "overload_onset": self.overload_onset,
            "reaction_seconds": self._first_reaction,
        }
