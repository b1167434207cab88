"""Resource governor: MAXDOP, grant percent, affinity, and overload knobs.

The paper restricts cores with cpuset *and* caps MAXDOP with "SQL Server's
resource governor settings"; §7 additionally uses the MAXDOP query hint.
This object carries those engine-side settings, plus the
RESOURCE_SEMAPHORE overload-protection policy consumed by
:class:`~repro.engine.semaphore.ResourceSemaphore`:

``grant_timeout_s``
    How long a grant request may queue before it times out (None = wait
    forever, i.e. queueing without a deadline).
``small_query_bypass_bytes``
    Requests at or below this size skip the queue entirely (the
    small-query semaphore).  0 disables the bypass.
``max_queue_depth``
    Admission throttle: a request arriving at a full queue is degraded
    (or failed) immediately instead of joining the convoy.
``on_grant_timeout``
    ``"degrade"`` shrinks a timed-out (or throttled) grant to whatever
    is free and takes the spill path; ``"fail"`` raises
    :class:`~repro.errors.GrantTimeoutError`.

With every overload knob at its default the semaphore stays disabled and
admission is the historical unconditional ``QueryMemoryPool.admit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.calibration import DEFAULT_GRANT_PERCENT
from repro.errors import ConfigurationError

#: ``on_grant_timeout`` policies.
ON_TIMEOUT_DEGRADE = "degrade"
ON_TIMEOUT_FAIL = "fail"
ON_TIMEOUT_CHOICES = (ON_TIMEOUT_DEGRADE, ON_TIMEOUT_FAIL)


def check_governor_fields(settings) -> None:
    """Validate the six fields a :class:`ResourceGovernor` shares with
    :class:`~repro.core.knobs.ResourceAllocation` (``max_dop`` may be None
    on the latter).

    Every bound is written as ``not <valid>`` so that NaN, which fails
    every comparison, is rejected here rather than deep in the engine;
    every message ends with ``: field=value``.
    """
    max_dop, timeout_s = settings.max_dop, settings.grant_timeout_s
    bypass, depth = settings.small_query_bypass_bytes, settings.max_queue_depth
    if max_dop is not None and not max_dop >= 1:
        raise ConfigurationError(f"max_dop must be >= 1: max_dop={max_dop!r}")
    if not 0 < settings.grant_percent <= 100:
        raise ConfigurationError(
            f"grant percent in (0, 100]: grant_percent={settings.grant_percent!r}")
    if timeout_s is not None and not timeout_s > 0:
        raise ConfigurationError(
            f"grant_timeout_s must be positive or None: grant_timeout_s={timeout_s!r}")
    if not bypass >= 0:
        raise ConfigurationError("small_query_bypass_bytes must be >= 0: "
                                 f"small_query_bypass_bytes={bypass!r}")
    if depth is not None and not depth >= 0:
        raise ConfigurationError(
            f"max_queue_depth must be >= 0 or None: max_queue_depth={depth!r}")
    if settings.on_grant_timeout not in ON_TIMEOUT_CHOICES:
        raise ConfigurationError(
            f"on_grant_timeout must be one of {sorted(ON_TIMEOUT_CHOICES)}: "
            f"on_grant_timeout={settings.on_grant_timeout!r}")


@dataclass(frozen=True)
class ResourceGovernor:
    """Engine-level resource settings for a run."""

    max_dop: int = 32
    grant_percent: float = DEFAULT_GRANT_PERCENT
    grant_timeout_s: Optional[float] = None
    small_query_bypass_bytes: float = 0.0
    max_queue_depth: Optional[int] = None
    on_grant_timeout: str = ON_TIMEOUT_DEGRADE

    def __post_init__(self):
        if self.max_dop is None:   # only an allocation defers to its cores
            raise ConfigurationError("max_dop must be >= 1: max_dop=None")
        check_governor_fields(self)

    @property
    def overload_protection_enabled(self) -> bool:
        """Whether grant admission goes through the RESOURCE_SEMAPHORE.

        Any non-default overload knob switches the queueing layer on;
        all-default settings keep the historical instant-admission path
        (and its exact timing).
        """
        return (
            self.grant_timeout_s is not None
            or self.small_query_bypass_bytes > 0
            or self.max_queue_depth is not None
        )

    def effective_dop(self, allocated_logical_cpus: int, hint: int = 0) -> int:
        """DOP after the governor cap, core allocation, and query hint.

        Mirrors the paper's methodology of limiting MAXDOP to the number
        of allocated cores (§4) and applying per-query hints (§7).
        """
        dop = min(self.max_dop, allocated_logical_cpus)
        if hint > 0:
            dop = min(dop, hint)
        return max(1, dop)
