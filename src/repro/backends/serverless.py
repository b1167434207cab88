"""The ``elastic-serverless`` personality: autoscaled, pay-per-use engine.

Models a serverless SQL pool (Aurora Serverless / SQL DB serverless
style) on the same simulated hardware:

* **Cold starts.**  A request arriving after the instance has been idle
  longer than the keepalive pays a provisioning delay before anything
  executes — the latency cliff "Understanding Cloud Workloads
  Performance in a Production-like Environment" (PAPERS.md) attributes
  to on-demand capacity.
* **Per-query autoscaled cores.**  Instead of running every query at the
  allocation's MAXDOP, the engine sizes DOP to the *serial cost
  estimate*: roughly one core per second of single-core work, clamped to
  the governor cap.  Cheap queries run serial (no parallel-startup tax);
  only genuinely large queries fan out.
* **Pay-per-grant memory, aggressive spill.**  The grant percentage is
  capped low and grant waits time out within seconds into the degraded
  (spill) path — the provider would rather spill your sort than hold
  capacity.  Billing counters (core-seconds, grant-byte-seconds, cold
  starts) accumulate on the engine and surface through
  :meth:`ServerlessEngine.billing_summary`.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Generator

from repro.backends.base import EngineBackend, register_backend
from repro.engine.engine import SqlEngine
from repro.engine.executor import TransactionDemand
from repro.engine.optimizer.queryspec import QuerySpec
from repro.engine.resource_governor import ResourceGovernor
from repro.sim.process import Timeout
from repro.units import MB

if TYPE_CHECKING:  # pragma: no cover - hint-only (avoids a repro.core cycle)
    from repro.core.knobs import ResourceAllocation

#: Provisioning delay for a cold instance (first request, or idle past
#: the keepalive).
COLD_START_SECONDS = 0.25

#: How long the instance stays warm after its last request.
KEEPALIVE_SECONDS = 60.0

#: Autoscale target: one core per this many serial cost units (~1 second
#: of single-core work at the calibrated instructions-per-cost-unit).
AUTOSCALE_COST_PER_CORE = 2.0e6

#: Serverless grant policy: small grants, fast timeout, degrade (spill).
MAX_GRANT_PERCENT = 10.0
DEFAULT_GRANT_TIMEOUT_S = 5.0
DEFAULT_SMALL_QUERY_BYPASS_BYTES = 1 * MB


class ServerlessEngine(SqlEngine):
    """A :class:`SqlEngine` with cold starts, autoscaled DOP, and metering."""

    def __init__(self, *args, cold_start_s: float = COLD_START_SECONDS,
                 keepalive_s: float = KEEPALIVE_SECONDS,
                 autoscale_cost_per_core: float = AUTOSCALE_COST_PER_CORE,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.cold_start_s = cold_start_s
        self.keepalive_s = keepalive_s
        self.autoscale_cost_per_core = autoscale_cost_per_core
        self._last_active = None  # sim timestamp of the last completion
        # -- billing meters --------------------------------------------------
        self.cold_starts = 0
        self.billed_core_seconds = 0.0
        self.billed_grant_byte_seconds = 0.0

    # -- provisioning ---------------------------------------------------------

    def _provision(self) -> Generator:
        """Generator: pay the cold-start delay if the instance is cold."""
        now = self.machine.sim.now
        if self._last_active is None or now - self._last_active > self.keepalive_s:
            self.cold_starts += 1
            yield Timeout(self.cold_start_s)
        return None

    def autoscale_dop(self, spec: QuerySpec) -> int:
        """Cores provisioned for one query: sized to its serial cost."""
        serial = self.optimize(spec, dop_hint=1)
        target = int(math.ceil(
            serial.serial_elapsed_cost / self.autoscale_cost_per_core
        ))
        return max(1, min(target, self.governor.max_dop,
                          len(self.machine.cpuset)))

    # -- execution ------------------------------------------------------------

    def run_query(self, spec: QuerySpec, dop_hint: int = 0) -> Generator:
        """Generator: provision, autoscale, admit, execute, meter."""
        yield from self._provision()
        dop = self.autoscale_dop(spec)
        if dop_hint > 0:
            dop = min(dop, dop_hint)
        optimized = self.optimize(spec, dop_hint=dop)
        ticket = yield from self.semaphore.acquire(
            optimized.required_memory_bytes, name=spec.name
        )
        try:
            demand = self.executor.demand_for_query(optimized, ticket.grant)
            result = yield from self.executor.execute_query(demand)
        finally:
            self.semaphore.release(ticket)
        result.grant_wait = ticket.waited
        self._last_active = self.machine.sim.now
        self.billed_core_seconds += result.elapsed * demand.dop
        self.billed_grant_byte_seconds += (
            ticket.grant.granted_bytes * result.elapsed
        )
        return result

    def run_transaction(self, demand: TransactionDemand) -> Generator:
        yield from self._provision()
        result = yield from self.executor.execute_transaction(demand)
        self._last_active = self.machine.sim.now
        self.billed_core_seconds += result.elapsed
        return result

    # -- metering -------------------------------------------------------------

    def billing_summary(self) -> dict:
        return {
            "cold_starts": float(self.cold_starts),
            "billed_core_seconds": self.billed_core_seconds,
            "billed_grant_byte_seconds": self.billed_grant_byte_seconds,
        }


@register_backend
class ElasticServerlessBackend(EngineBackend):
    """Serverless pool: elastic but cold-start-prone and spill-happy."""

    name = "elastic-serverless"
    description = (
        "serverless pool: cold starts, per-query autoscaled cores, "
        "pay-per-grant memory with fast timeout into the spill path"
    )
    engine_class = ServerlessEngine

    def governor_for(self, allocation: ResourceAllocation) -> ResourceGovernor:
        governor = super().governor_for(allocation)
        governor = replace(
            governor,
            grant_percent=min(governor.grant_percent, MAX_GRANT_PERCENT),
        )
        if governor.overload_protection_enabled:
            return governor  # the allocation chose its own policy
        return replace(
            governor,
            grant_timeout_s=DEFAULT_GRANT_TIMEOUT_S,
            small_query_bypass_bytes=DEFAULT_SMALL_QUERY_BYPASS_BYTES,
        )
