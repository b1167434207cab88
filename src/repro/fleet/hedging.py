"""Tail-tolerant request execution: hedged reads, retry budgets, shedding.

The Dean/Barroso tail-at-scale recipe, adapted to the fleet model: a
read goes to the healthiest replica; if it has not completed within a
p95-based delay, a single *hedge* is launched on a different replica and
the first completion wins (the loser runs to completion — cancellation
is not modeled, matching engines that cannot abort an in-flight I/O).
Three guards keep hedging from amplifying the very overload it is meant
to hide, composing with the PR 3 admission layer rather than fighting
it:

* **retry budgets** — a per-tenant token bucket
  (:class:`RetryBudget`); once a tenant exhausts its budget, its hedges
  are denied and only primaries run, so a tail blowup degrades to
  baseline latency instead of doubling fleet load;
* **brownout-aware shedding** — a hedge is shed (never launched) when
  the candidate replica's device is browned out
  (:attr:`~repro.hardware.storage.NvmeDevice.browned_out`) or its
  RESOURCE_SEMAPHORE queue is already deep: hedging onto a struggling
  replica adds load exactly where it hurts;
* **health-aware placement** — suspected replicas
  (:class:`~repro.fleet.health.HeartbeatMonitor`) are skipped for
  first attempts and hedges alike.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, Optional, Tuple

from repro.errors import FaultInjectionError
from repro.fleet.health import HeartbeatMonitor
from repro.fleet.replicas import Replica, ReplicaGroup
from repro.hardware.storage import RANDOM_READ_LATENCY
from repro.sim.process import Simulator, Timeout
from repro.sim.stats import Cdf
from repro.units import KIB, mb_per_s

#: Size of one client point read, and the page it is read in.
READ_BYTES = 256 * KIB
PAGE_BYTES = 8 * KIB
#: Hedge after the client-observed latency passes this percentile.
HEDGE_PERCENTILE = 95.0
#: A hedge is shed when the candidate replica has this many grant waiters.
QUEUE_DEPTH_LIMIT = 8
#: Floor on the hedge delay: 1.5x the unloaded service time of one read
#: (per-page seek latency + bandwidth), so a cold reader with no samples
#: yet does not hedge every single request.
MIN_HEDGE_DELAY = 1.5 * (READ_BYTES / PAGE_BYTES * RANDOM_READ_LATENCY
                         + READ_BYTES / mb_per_s(2500))


class RetryBudget:
    """Per-tenant token buckets bounding retry/hedge amplification.

    Tokens refill continuously at ``refill_per_s`` up to ``capacity``;
    every hedge (or application-level retry) spends one.  Refill is
    computed lazily from the simulated clock, so the bucket is exact and
    deterministic without a refill process.  The level is stored only on
    a spend; a denial leaves it alone.  In exact arithmetic that decides
    every call as storing the refilled level on every call would; in
    floating point the two differ only by the rounding of the refill
    sum.  The fleet's per-tenant rate limits (:mod:`repro.fleet.cluster`)
    use this bucket too.
    """

    def __init__(self, sim: Simulator, capacity: float = 16.0,
                 refill_per_s: float = 4.0):
        # A spend takes one whole token, so a capacity below 1 could
        # never admit; negated comparisons also reject NaN.
        if not 1 <= capacity < math.inf:
            raise FaultInjectionError(
                f"RetryBudget.capacity must be finite and >= 1, "
                f"got {capacity!r}")
        if not 0 <= refill_per_s < math.inf:
            raise FaultInjectionError(
                f"RetryBudget.refill_per_s must be finite and >= 0, "
                f"got {refill_per_s!r}")
        self._sim = sim
        self.capacity = capacity
        self.refill_per_s = refill_per_s
        self._buckets: Dict[str, Tuple[float, float]] = {}  # tenant -> (tokens, at)
        self.spent = 0
        self.denied = 0

    def tokens(self, tenant: str = "default") -> float:
        tokens, at = self._buckets.get(tenant, (self.capacity, self._sim.now))
        return min(self.capacity,
                   tokens + (self._sim.now - at) * self.refill_per_s)

    def try_spend(self, tenant: str = "default", tokens: float = 1.0) -> bool:
        available = self.tokens(tenant)
        if available < tokens:
            self.denied += 1
            return False
        self._buckets[tenant] = (available - tokens, self._sim.now)
        self.spent += 1
        return True


class HedgedReader:
    """Hedged point-read execution over a replica group."""

    def __init__(
        self,
        group: ReplicaGroup,
        monitor: Optional[HeartbeatMonitor] = None,
        budget: Optional[RetryBudget] = None,
        enabled: bool = True,
    ):
        self.group = group
        self.monitor = monitor
        self.budget = budget if budget is not None else RetryBudget(group._sim)
        self.enabled = enabled
        self._sim = group._sim
        #: Client-observed read latency distribution (first completion
        #: per read) — the p99 the chaos scheduler's hedging invariant
        #: compares, and the source of the adaptive hedge delay.
        self.latencies = Cdf()
        self.reads = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.budget_denied = 0
        self.sheds = 0
        self.stalls = 0

    # -- placement ---------------------------------------------------------------

    def _pick(self, exclude: Tuple[int, ...] = ()) -> Optional[Replica]:
        """Healthiest read target: reachable and unsuspected, degrading
        to any reachable replica.  Placement consults only the *health
        signal* (suspicion from heartbeats + observed service times),
        never raw fault state — a client cannot see that a device is
        browned out, only that requests got slow.  Primary-first order
        keeps placement deterministic."""
        primary = self.group.primary
        ordered = ([primary] if primary is not None else []) + [
            r for r in self.group.replicas if r is not primary
        ]
        candidates = [r for r in ordered
                      if r.reachable and r.index not in exclude]
        if not candidates:
            return None
        if self.monitor is not None:
            unsuspected = [r for r in candidates
                           if not self.monitor.suspected(r.index)]
            candidates = unsuspected or candidates
        return candidates[0]

    def _hedge_delay(self) -> float:
        """p95 of *client-observed* latency (floor:
        :data:`MIN_HEDGE_DELAY`, so cold starts don't hedge instantly).

        Deliberately not the target replica's own service times: a
        straggling replica contaminates its per-replica window within a
        handful of slow reads, inflating the delay exactly when hedging
        matters.  The client distribution is self-stabilizing — hedge
        wins keep it (and therefore the delay) near the healthy p95."""
        if len(self.latencies) < 8:
            return MIN_HEDGE_DELAY
        return max(self.latencies.percentile(HEDGE_PERCENTILE),
                   MIN_HEDGE_DELAY)

    # -- execution ---------------------------------------------------------------

    def read(self, tenant: str = "default") -> Generator:
        """Generator: one read, hedged under the policy; returns latency."""
        self.reads += 1
        start = self._sim.now
        target = self._pick()
        while target is None:
            # Total outage (no reachable replica): wait for the fleet.
            self.stalls += 1
            yield Timeout(self.group.retry_interval)
            target = self._pick()
        done = self._sim.event()
        self._sim.spawn(self._attempt(target, done, hedge=False),
                        name=f"read-{target.index}")
        if self.enabled:
            self._sim.spawn(self._arm_hedge(target, done, tenant),
                            name="hedge-arm")
        yield done
        latency = self._sim.now - start
        self.latencies.add(latency)
        return latency

    def _attempt(self, replica: Replica, done, hedge: bool) -> Generator:
        started = self._sim.now
        try:
            # Point reads (per-page latency + bandwidth), not a pure
            # streaming transfer: a brownout or saturated device shows
            # up as queueing delay, which is what hedging exists to dodge.
            yield from replica.machine.ssd.read_pages(
                READ_BYTES / PAGE_BYTES, PAGE_BYTES)
        except FaultInjectionError:
            return None  # the surviving attempt (if any) resolves the read
        elapsed = self._sim.now - started
        if self.monitor is not None:
            self.monitor.note_service_time(replica.index, elapsed)
        if not done.triggered:
            if hedge:
                self.hedge_wins += 1
            done.trigger(replica.index)
        return None

    def _arm_hedge(self, first: Replica, done, tenant: str) -> Generator:
        yield Timeout(self._hedge_delay())
        if done.triggered:
            return None
        alternate = self._pick(exclude=(first.index,))
        if alternate is None:
            return None
        if (alternate.machine.ssd.browned_out
                or alternate.engine.semaphore.waiter_count
                >= QUEUE_DEPTH_LIMIT):
            # Brownout-aware shed: the only spare replica is itself
            # struggling — piling a hedge on it would deepen the tail.
            self.sheds += 1
            return None
        if not self.budget.try_spend(tenant):
            self.budget_denied += 1
            return None
        self.hedges += 1
        self._sim.spawn(self._attempt(alternate, done, hedge=True),
                        name=f"hedge-{alternate.index}")
        return None

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        return {
            "reads": float(self.reads),
            "hedges": float(self.hedges),
            "hedge_wins": float(self.hedge_wins),
            "budget_denied": float(self.budget_denied),
            "sheds": float(self.sheds),
            "stalls": float(self.stalls),
            "budget_spent": float(self.budget.spent),
        }
