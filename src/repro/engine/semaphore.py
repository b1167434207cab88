"""RESOURCE_SEMAPHORE: grant queueing and graceful degradation (§8, §10).

SQL Server does not hand out query-memory grants unconditionally.  Grant
requests that cannot be satisfied from the query-memory pool queue behind
the ``RESOURCE_SEMAPHORE`` wait type, in FIFO order, with a timeout
(``RESOURCE_SEMAPHORE_QUERY_COMPILE`` aside); trivially small requests
bypass the queue through a separate small-query semaphore so a convoy of
giant sorts cannot starve point lookups.  That queueing behavior is what
separates a *loaded* machine from a *saturated* one — §10's admission
question ("start immediately with limited resources, or wait?") is a
question about this queue.

:class:`ResourceSemaphore` reproduces the mechanism on the simulated
engine:

* **Pass-through (the default).**  With every overload knob at its
  default the semaphore is disabled and :meth:`acquire` reduces to the
  historical ``QueryMemoryPool.admit`` — no yields, no pool accounting,
  bit-identical timing to the pre-semaphore engine.
* **FIFO waiter queue.**  When enabled, concurrent grants are charged
  against the pool; a request that does not fit waits in strict FIFO
  order (head-of-line blocking is intentional — it is what the real
  semaphore does, and it is what makes grant waits visible).
* **Small-query bypass.**  Requests at or below
  ``small_query_bypass_bytes`` are granted immediately (charged, but
  never queued), modelling the small-query semaphore.
* **Timeout → degrade or fail.**  A waiter that exceeds
  ``grant_timeout_s`` either *force-degrades* — the grant shrinks to
  whatever is free right now and the query takes the
  :mod:`~repro.engine.memory_grants` spill path — or raises
  :class:`~repro.errors.GrantTimeoutError`, per the governor's
  ``on_grant_timeout`` policy.
* **Admission throttling.**  With ``max_queue_depth`` set, a request
  arriving at a full queue is not queued at all: it degrades (or fails)
  immediately, bounding the waiter convoy.

Every outcome is counted (waits, wait-seconds, timeouts, degrades,
bypasses, throttles, peak queue depth) and surfaces as first-class
counters on :class:`~repro.core.measurement.Measurement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, Generator

from collections import deque

from repro.engine.memory_grants import MemoryGrant, QueryMemoryPool
from repro.engine.resource_governor import (
    ON_TIMEOUT_FAIL,
    ResourceGovernor,
)
from repro.errors import GrantTimeoutError, SimulationError
from repro.sim.process import Simulator, WaitEvent

#: Gate payloads distinguishing how a waiter was woken.
_GRANTED = "granted"
_TIMED_OUT = "timeout"

#: Waiter states (guards the trigger-once WaitEvent contract).
_WAITING = "waiting"


@dataclass
class GrantTicket:
    """One admitted grant: what was granted and what must be returned.

    ``charged_bytes`` is the semaphore-pool charge to release (0 for the
    pass-through path); ``waited`` is RESOURCE_SEMAPHORE wait time;
    ``degraded`` marks a grant shrunk by timeout or throttling.
    """

    grant: MemoryGrant
    charged_bytes: float = 0.0
    waited: float = 0.0
    degraded: bool = False
    bypassed: bool = False


class _Waiter:
    __slots__ = ("desired", "gate", "state", "granted_bytes")

    def __init__(self, desired: float, gate: WaitEvent):
        self.desired = desired
        self.gate = gate
        self.state = _WAITING
        self.granted_bytes = 0.0


class ResourceSemaphore:
    """FIFO grant queue over one engine's query-memory pool."""

    def __init__(
        self,
        sim: Simulator,
        pool: QueryMemoryPool,
        governor: ResourceGovernor = ResourceGovernor(),
    ):
        self._sim = sim
        self._pool = pool
        self.governor = governor
        self.enabled = governor.overload_protection_enabled
        self._charged = 0.0
        self._queue: Deque[_Waiter] = deque()
        # -- counters (all monotone, all observable on Measurement) ----------
        self.requests = 0
        self.waits = 0
        self.wait_seconds = 0.0
        self.timeouts = 0
        self.degrades = 0
        self.bypasses = 0
        self.throttles = 0
        self.queue_peak = 0

    # -- pool state ------------------------------------------------------------

    @property
    def pool_bytes(self) -> float:
        return self._pool.pool_bytes

    @property
    def free_bytes(self) -> float:
        """Uncommitted pool memory (bypass grants may drive this negative)."""
        return self.pool_bytes - self._charged

    @property
    def waiter_count(self) -> int:
        return len(self._queue)

    # -- admission -------------------------------------------------------------

    def acquire(self, required_bytes: float, name: str = "query") -> Generator:
        """Generator: admit one grant request; returns a :class:`GrantTicket`.

        The uncontended path (pass-through, bypass, or a fitting request
        with an empty queue) never yields, so enabling overload
        protection on an unsaturated engine changes nothing — the layer
        is a no-op off the saturation path.
        """
        self.requests += 1
        grant = self._pool.admit(required_bytes)
        if not self.enabled:
            return GrantTicket(grant=grant)
        desired = grant.granted_bytes
        bypass = self.governor.small_query_bypass_bytes
        if bypass > 0 and 0 < desired <= bypass:
            self.bypasses += 1
            self._charged += desired
            return GrantTicket(grant=grant, charged_bytes=desired, bypassed=True)
        if not self._queue and self.free_bytes >= desired:
            self._charged += desired
            return GrantTicket(grant=grant, charged_bytes=desired)
        depth = self.governor.max_queue_depth
        if depth is not None and len(self._queue) >= depth:
            # Admission throttle: the queue is full, so this request is
            # not allowed to join the convoy — it degrades (or fails) now.
            self.throttles += 1
            if self.governor.on_grant_timeout == ON_TIMEOUT_FAIL:
                raise GrantTimeoutError(
                    f"{name}: grant queue is full "
                    f"({len(self._queue)} waiters >= max_queue_depth={depth})",
                    query=name, waited=0.0, required_bytes=required_bytes,
                )
            return self._degraded_ticket(grant, waited=0.0)
        waiter = _Waiter(desired=desired, gate=self._sim.event())
        self._queue.append(waiter)
        self.queue_peak = max(self.queue_peak, len(self._queue))
        timer = None
        if self.governor.grant_timeout_s is not None:
            timer = self._sim.loop.schedule_after(
                self.governor.grant_timeout_s,
                lambda _event, w=waiter: self._expire(w),
            )
        start = self._sim.now
        outcome = yield waiter.gate
        waited = self._sim.now - start
        self.waits += 1
        self.wait_seconds += waited
        if timer is not None:
            timer.cancel()
        if outcome == _TIMED_OUT:
            self.timeouts += 1
            if self.governor.on_grant_timeout == ON_TIMEOUT_FAIL:
                raise GrantTimeoutError(
                    f"{name}: no memory grant after {waited:.1f}s "
                    f"(required {required_bytes:.0f} B, "
                    f"free {max(0.0, self.free_bytes):.0f} B of "
                    f"{self.pool_bytes:.0f} B pool)",
                    query=name, waited=waited, required_bytes=required_bytes,
                )
            return self._degraded_ticket(grant, waited=waited)
        # Woken by a release: the releaser already charged our desired
        # bytes (synchronously, so no same-timestamp arrival can steal
        # them between wake-up and resume).
        return GrantTicket(
            grant=grant, charged_bytes=waiter.granted_bytes, waited=waited
        )

    def release(self, ticket: GrantTicket) -> None:
        """Return a ticket's pool charge and wake fitting FIFO waiters."""
        if ticket.charged_bytes <= 0:
            return
        self._charged -= ticket.charged_bytes
        if self._charged < -1.0:
            # Charges are floats at GB magnitudes, so exact zero is not
            # attainable — but a real double-release is off by a whole
            # grant, far beyond sub-byte rounding drift.
            raise SimulationError("resource semaphore released more than charged")
        self._charged = max(0.0, self._charged)
        self._drain()

    # -- internals -------------------------------------------------------------

    def _degraded_ticket(self, grant: MemoryGrant, waited: float) -> GrantTicket:
        """Shrink the grant to what is free right now; spill the rest."""
        self.degrades += 1
        granted = min(grant.granted_bytes, max(0.0, self.free_bytes))
        degraded = MemoryGrant(
            required_bytes=grant.required_bytes, granted_bytes=granted
        )
        self._charged += granted
        return GrantTicket(
            grant=degraded, charged_bytes=granted, waited=waited, degraded=True
        )

    def _drain(self) -> None:
        """Grant to queued waiters, strictly FIFO, while the head fits.

        The charge happens *here*, in the releaser's stack frame — the
        woken process resumes at the same simulated instant but after
        this call returns, so no interleaved arrival can observe the
        freed bytes as available.
        """
        while self._queue and self.free_bytes >= self._queue[0].desired:
            waiter = self._queue.popleft()
            waiter.state = _GRANTED
            waiter.granted_bytes = waiter.desired
            self._charged += waiter.desired
            waiter.gate.trigger(_GRANTED)

    def _expire(self, waiter: _Waiter) -> None:
        """Timeout callback: pull the waiter out of the queue, FIFO intact."""
        if waiter.state != _WAITING:
            return  # already granted at this same instant; timer raced
        waiter.state = _TIMED_OUT
        self._queue.remove(waiter)
        waiter.gate.trigger(_TIMED_OUT)
        # The departed waiter may have been blocking smaller requests.
        self._drain()

    # -- reporting -------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Counter snapshot (feeds ``Measurement``'s grant counters)."""
        return {
            "grant_requests": float(self.requests),
            "grant_waits": float(self.waits),
            "grant_wait_seconds": self.wait_seconds,
            "grant_timeouts": float(self.timeouts),
            "grant_degrades": float(self.degrades),
            "grant_bypasses": float(self.bypasses),
            "grant_throttles": float(self.throttles),
            "grant_queue_peak": float(self.queue_peak),
        }
